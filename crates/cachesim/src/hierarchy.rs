//! The three-level memory hierarchy of Table 1.

use crate::cache::{AccessOutcome, SetAssociativeCache};

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency in cycles.
    pub latency_cycles: u64,
}

/// Configuration of the whole hierarchy (three cache levels + main memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheLevelConfig,
    /// L2 cache.
    pub l2: CacheLevelConfig,
    /// L3 (last-level) cache.
    pub l3: CacheLevelConfig,
    /// Main-memory latency in cycles.
    pub memory_latency_cycles: u64,
}

impl HierarchyConfig {
    /// The Intel Ivy Bridge configuration of Table 1 of the paper:
    /// L1D 32 KB / 5 cycles, L2 256 KB / 12 cycles, L3 30 MB / 30 cycles,
    /// main memory 180+ cycles. Line size 64 B throughout.
    pub fn ivy_bridge() -> Self {
        Self {
            l1: CacheLevelConfig {
                size_bytes: 32 * 1024,
                line_size: 64,
                associativity: 8,
                latency_cycles: 5,
            },
            l2: CacheLevelConfig {
                size_bytes: 256 * 1024,
                line_size: 64,
                associativity: 8,
                latency_cycles: 12,
            },
            l3: CacheLevelConfig {
                size_bytes: 30 * 1024 * 1024,
                line_size: 64,
                associativity: 20,
                latency_cycles: 30,
            },
            memory_latency_cycles: 180,
        }
    }

    /// A deliberately small hierarchy for fast unit tests.
    pub fn tiny_for_tests() -> Self {
        Self {
            l1: CacheLevelConfig {
                size_bytes: 1024,
                line_size: 64,
                associativity: 2,
                latency_cycles: 5,
            },
            l2: CacheLevelConfig {
                size_bytes: 4 * 1024,
                line_size: 64,
                associativity: 4,
                latency_cycles: 12,
            },
            l3: CacheLevelConfig {
                size_bytes: 16 * 1024,
                line_size: 64,
                associativity: 4,
                latency_cycles: 30,
            },
            memory_latency_cycles: 180,
        }
    }
}

/// Hit/miss/latency statistics accumulated by a [`MemoryHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by L2.
    pub l2_hits: u64,
    /// Accesses served by L3.
    pub l3_hits: u64,
    /// Accesses served by main memory (L3 misses).
    pub memory_accesses: u64,
    /// Total estimated latency in cycles.
    pub total_cycles: u64,
}

impl HierarchyStats {
    /// L3 miss rate: the fraction of accesses *reaching L3* that miss there,
    /// as PAPI measures for Table 4. It is conditional on reaching L3, so a
    /// working set that L1/L2 hold shows a handful of compulsory misses as a
    /// rate near 100 %; compare algorithms on [`Self::memory_access_fraction`].
    pub fn l3_miss_rate(&self) -> f64 {
        let l3_accesses = self.l3_hits + self.memory_accesses;
        if l3_accesses == 0 {
            0.0
        } else {
            self.memory_accesses as f64 / l3_accesses as f64
        }
    }

    /// Overall miss rate relative to all accesses.
    pub fn memory_access_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.memory_accesses as f64 / self.accesses as f64
        }
    }

    /// Average latency per access in cycles.
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.accesses as f64
        }
    }
}

/// An inclusive three-level cache hierarchy.
///
/// Every access walks L1 → L2 → L3 → memory until it hits, fills the missing
/// levels on the way back (inclusive), and charges the latency of the level
/// that served it.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    l3: SetAssociativeCache,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let mk = |c: CacheLevelConfig| {
            SetAssociativeCache::new(c.size_bytes, c.line_size, c.associativity)
        };
        Self {
            config,
            l1: mk(config.l1),
            l2: mk(config.l2),
            l3: mk(config.l3),
            stats: HierarchyStats::default(),
        }
    }

    /// The Table 1 hierarchy.
    pub fn ivy_bridge() -> Self {
        Self::new(HierarchyConfig::ivy_bridge())
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents (useful after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }

    /// Drops all cached lines and statistics.
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
        self.stats = HierarchyStats::default();
    }

    /// Performs one access to byte address `addr`.
    pub fn access(&mut self, addr: u64) {
        self.stats.accesses += 1;
        if self.l1.access(addr) == AccessOutcome::Hit {
            self.stats.l1_hits += 1;
            self.stats.total_cycles += self.config.l1.latency_cycles;
            return;
        }
        if self.l2.access(addr) == AccessOutcome::Hit {
            self.stats.l2_hits += 1;
            self.stats.total_cycles += self.config.l2.latency_cycles;
            return;
        }
        if self.l3.access(addr) == AccessOutcome::Hit {
            self.stats.l3_hits += 1;
            self.stats.total_cycles += self.config.l3.latency_cycles;
            return;
        }
        self.stats.memory_accesses += 1;
        self.stats.total_cycles += self.config.memory_latency_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivy_bridge_matches_table1() {
        let cfg = HierarchyConfig::ivy_bridge();
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.latency_cycles, 5);
        assert_eq!(cfg.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.l2.latency_cycles, 12);
        assert_eq!(cfg.l3.size_bytes, 30 * 1024 * 1024);
        assert_eq!(cfg.l3.latency_cycles, 30);
        assert_eq!(cfg.memory_latency_cycles, 180);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests());
        // 512 B working set < 1 KiB L1.
        for _ in 0..200 {
            for addr in (0..512u64).step_by(64) {
                h.access(addr);
            }
        }
        let s = h.stats();
        assert!(s.l1_hits as f64 / s.accesses as f64 > 0.9, "{s:?}");
        assert_eq!(s.memory_accesses as f64, s.accesses as f64 * 0.0 + s.memory_accesses as f64);
        assert!(s.memory_access_fraction() < 0.05);
    }

    #[test]
    fn medium_working_set_falls_to_l3() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests());
        // 8 KiB working set: bigger than L1 (1K) and L2 (4K), fits L3 (16K).
        for _ in 0..20 {
            for addr in (0..8 * 1024u64).step_by(64) {
                h.access(addr);
            }
        }
        let s = h.stats();
        assert!(s.l3_hits > 0, "{s:?}");
        assert!(s.l3_miss_rate() < 0.2, "after warm-up L3 should absorb the set: {s:?}");
    }

    #[test]
    fn huge_random_working_set_misses_l3() {
        use rand::{Rng, SeedableRng};
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        // Random accesses over 16 MiB >> 16 KiB L3.
        for _ in 0..50_000 {
            let addr: u64 = rng.gen_range(0..16 * 1024 * 1024);
            h.access(addr);
        }
        assert!(h.stats().l3_miss_rate() > 0.9, "{:?}", h.stats());
    }

    #[test]
    fn latency_accounting_uses_level_latencies() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests());
        h.access(0); // cold: memory, 180 cycles
        h.access(0); // L1 hit, 5 cycles
        let s = h.stats();
        assert_eq!(s.total_cycles, 185);
        assert!((s.mean_latency_cycles() - 92.5).abs() < 1e-9);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests());
        h.access(0);
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
        h.access(0);
        assert_eq!(h.stats().l1_hits, 1, "line should still be cached");
    }

    #[test]
    fn stats_with_no_accesses_are_zero() {
        let h = MemoryHierarchy::ivy_bridge();
        assert_eq!(h.stats().l3_miss_rate(), 0.0);
        assert_eq!(h.stats().mean_latency_cycles(), 0.0);
    }
}
