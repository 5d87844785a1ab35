//! A single set-associative cache level with LRU replacement.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was not present and has been filled (possibly evicting
    /// another line).
    Miss,
}

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache operates on lines of
/// `line_size` bytes. Sizes and associativity must be powers of two only in
/// the sense that the number of sets is derived by integer division — any
/// positive configuration works, which keeps the simulator flexible for
/// sensitivity experiments.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    line_size: u64,
    num_sets: u64,
    associativity: usize,
    /// `tags[set * associativity + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// LRU clock per way (higher = more recently used).
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssociativeCache {
    /// Creates a cache of `size_bytes` with the given line size and
    /// associativity.
    ///
    /// # Panics
    /// Panics if any parameter is zero or the configuration yields zero sets.
    pub fn new(size_bytes: u64, line_size: u64, associativity: usize) -> Self {
        assert!(
            size_bytes > 0 && line_size > 0 && associativity > 0,
            "cache parameters must be positive"
        );
        let num_lines = size_bytes / line_size;
        let num_sets = num_lines / associativity as u64;
        assert!(num_sets > 0, "cache too small for the requested associativity");
        Self {
            line_size,
            num_sets,
            associativity,
            tags: vec![u64::MAX; (num_sets as usize) * associativity],
            stamps: vec![0; (num_sets as usize) * associativity],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (0 when no accesses have been made).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Resets the statistics but keeps the cache contents.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.reset_stats();
    }

    /// Accesses the byte address `addr` and returns whether it hit.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.accesses += 1;
        self.clock += 1;
        let line = addr / self.line_size;
        let set = (line % self.num_sets) as usize;
        let tag = line / self.num_sets;
        let base = set * self.associativity;
        let ways = &mut self.tags[base..base + self.associativity];

        // Hit?
        if let Some(way) = ways.iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.clock;
            return AccessOutcome::Hit;
        }

        // Miss: fill an empty way, or evict the LRU way.
        self.misses += 1;
        let victim = (0..self.associativity)
            .min_by_key(|&w| {
                if self.tags[base + w] == u64::MAX {
                    (0, 0)
                } else {
                    (1, self.stamps[base + w])
                }
            })
            .expect("associativity > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        AccessOutcome::Miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let mut c = SetAssociativeCache::new(1024, 64, 2);
        assert_eq!(c.access(0), AccessOutcome::Miss);
        assert_eq!(c.access(0), AccessOutcome::Hit);
        assert_eq!(c.access(8), AccessOutcome::Hit, "same line");
        assert_eq!(c.access(64), AccessOutcome::Miss, "next line");
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_on_stream() {
        // 1 KiB cache, stream over 64 KiB repeatedly: every access to a new line misses.
        let mut c = SetAssociativeCache::new(1024, 64, 4);
        let lines = 1024u64; // 64 KiB / 64 B
        for _round in 0..3 {
            for l in 0..lines {
                c.access(l * 64);
            }
        }
        // After the first round the cache can hold only 16 lines of 1024, so the
        // miss rate stays essentially 1.
        assert!(c.miss_rate() > 0.95, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = SetAssociativeCache::new(64 * 1024, 64, 8);
        let lines = 256u64; // 16 KiB working set.
        for l in 0..lines {
            c.access(l * 64);
        }
        c.reset_stats();
        for _ in 0..10 {
            for l in 0..lines {
                c.access(l * 64);
            }
        }
        assert_eq!(c.misses(), 0, "everything should fit");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct-mapped-ish: 2 ways, 1 set => capacity 2 lines.
        let mut c = SetAssociativeCache::new(128, 64, 2);
        c.access(0); // line A
        c.access(64); // line B
        c.access(0); // touch A so B is LRU
        c.access(128); // line C evicts B
        assert_eq!(c.access(0), AccessOutcome::Hit, "A stays");
        assert_eq!(c.access(64), AccessOutcome::Miss, "B was evicted");
    }

    #[test]
    fn capacity_and_line_size_are_reported() {
        let c = SetAssociativeCache::new(30 * 1024 * 1024, 64, 20);
        // 30 MiB / 64 B / 20 ways = 24576 sets.
        assert_eq!(c.num_sets, 24576);
        assert_eq!(c.line_size(), 64);
    }

    #[test]
    fn clear_resets_contents() {
        let mut c = SetAssociativeCache::new(1024, 64, 2);
        c.access(0);
        c.clear();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.access(0), AccessOutcome::Miss);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = SetAssociativeCache::new(0, 64, 2);
    }

    #[test]
    fn miss_rate_zero_without_accesses() {
        let c = SetAssociativeCache::new(1024, 64, 2);
        assert_eq!(c.miss_rate(), 0.0);
    }
}
