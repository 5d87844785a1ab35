//! The [`MemoryProbe`] hook the LDA samplers use to expose their memory
//! access patterns.
//!
//! Samplers are generic over a probe type; the default [`NoProbe`] compiles to
//! nothing, so uninstrumented runs pay zero cost. Instrumented runs plug in a
//! [`CacheProbe`] (cache simulation, Table 4) or a [`CountingProbe`] (access
//! counts per region).
//!
//! Accesses are expressed as `(region, element index)` pairs; each region
//! (e.g. "the Cw matrix", "the cd vector") is registered once with its element
//! size, and the probe lays regions out in a synthetic address space so that
//! the cache simulator sees realistic line sharing within a region and no
//! false sharing across regions.

use crate::hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};

/// Identifier of a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

/// The instrumentation hook. All methods must be cheap; the samplers call
/// them inside their innermost loops.
pub trait MemoryProbe {
    /// Registers a logical region of `elements` elements of `elem_size` bytes
    /// and returns its id. Called once per data structure, outside hot loops.
    fn register_region(&mut self, name: &str, elements: usize, elem_size: usize) -> RegionId;

    /// Records a read of element `index` of `region`.
    fn read(&mut self, region: RegionId, index: usize);

    /// Records a write of element `index` of `region`.
    fn write(&mut self, region: RegionId, index: usize);
}

/// The no-op probe: every call is empty and inlined away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl MemoryProbe for NoProbe {
    #[inline(always)]
    fn register_region(&mut self, _name: &str, _elements: usize, _elem_size: usize) -> RegionId {
        RegionId(0)
    }

    #[inline(always)]
    fn read(&mut self, _region: RegionId, _index: usize) {}

    #[inline(always)]
    fn write(&mut self, _region: RegionId, _index: usize) {}
}

/// Metadata of a registered region.
#[derive(Debug, Clone)]
struct RegionInfo {
    /// Name supplied at registration (for reports).
    pub name: String,
    /// Base byte address assigned in the synthetic address space.
    pub base: u64,
    /// Element size in bytes.
    pub elem_size: u64,
}

/// Shared region registry used by the concrete probes.
#[derive(Debug, Clone, Default)]
struct RegionTable {
    regions: Vec<RegionInfo>,
    next_base: u64,
}

impl RegionTable {
    /// Registers a region, aligning its base to a fresh 4 KiB page so regions
    /// never share cache lines.
    fn register(&mut self, name: &str, elements: usize, elem_size: usize) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        let base = (self.next_base + 4095) & !4095;
        let bytes = (elements.max(1) as u64) * (elem_size.max(1) as u64);
        self.regions.push(RegionInfo {
            name: name.to_owned(),
            base,
            elem_size: elem_size.max(1) as u64,
        });
        self.next_base = base + bytes;
        id
    }

    /// Byte address of `(region, index)`.
    fn address(&self, region: RegionId, index: usize) -> u64 {
        let info = &self.regions[region.0 as usize];
        info.base + (index as u64) * info.elem_size
    }

    /// All registered regions.
    fn regions(&self) -> &[RegionInfo] {
        &self.regions
    }
}

/// A probe that replays every access through a `MemoryHierarchy`.
#[derive(Debug, Clone)]
pub struct CacheProbe {
    table: RegionTable,
    hierarchy: MemoryHierarchy,
}

impl CacheProbe {
    /// Creates a probe backed by the given hierarchy configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        Self { table: RegionTable::default(), hierarchy: MemoryHierarchy::new(config) }
    }

    /// Creates a probe with the Table 1 Ivy Bridge hierarchy.
    pub fn ivy_bridge() -> Self {
        Self::new(HierarchyConfig::ivy_bridge())
    }

    /// The accumulated hierarchy statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }
}

impl MemoryProbe for CacheProbe {
    fn register_region(&mut self, name: &str, elements: usize, elem_size: usize) -> RegionId {
        self.table.register(name, elements, elem_size)
    }

    #[inline]
    fn read(&mut self, region: RegionId, index: usize) {
        let addr = self.table.address(region, index);
        self.hierarchy.access(addr);
    }

    #[inline]
    fn write(&mut self, region: RegionId, index: usize) {
        let addr = self.table.address(region, index);
        self.hierarchy.access(addr);
    }
}

/// A probe that just counts accesses per region (no cache simulation); used by
/// the Table 2 access-count analysis and as a cheap sanity check in tests.
#[derive(Debug, Clone, Default)]
pub struct CountingProbe {
    table: RegionTable,
    /// `(reads, writes)` per region.
    counts: Vec<(u64, u64)>,
}

impl CountingProbe {
    /// Creates an empty counting probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total reads and writes across all regions.
    pub fn totals(&self) -> (u64, u64) {
        self.counts.iter().fold((0, 0), |(r, w), &(cr, cw)| (r + cr, w + cw))
    }

    /// `(name, reads, writes)` for every region, in registration order.
    pub fn report(&self) -> Vec<(String, u64, u64)> {
        self.table
            .regions()
            .iter()
            .zip(&self.counts)
            .map(|(info, &(r, w))| (info.name.clone(), r, w))
            .collect()
    }
}

impl MemoryProbe for CountingProbe {
    fn register_region(&mut self, name: &str, elements: usize, elem_size: usize) -> RegionId {
        let id = self.table.register(name, elements, elem_size);
        self.counts.push((0, 0));
        id
    }

    #[inline]
    fn read(&mut self, region: RegionId, _index: usize) {
        self.counts[region.0 as usize].0 += 1;
    }

    #[inline]
    fn write(&mut self, region: RegionId, _index: usize) {
        self.counts[region.0 as usize].1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut t = RegionTable::default();
        let a = t.register("a", 100, 8);
        let b = t.register("b", 50, 4);
        let a_end = t.address(a, 99) + 8;
        let b_start = t.address(b, 0);
        assert!(b_start >= a_end, "regions must not overlap");
        assert_eq!(b_start % 4096, 0, "regions are page aligned");
    }

    #[test]
    fn cache_probe_detects_small_vs_large_working_sets() {
        // Small region accessed randomly → should mostly hit L3;
        // huge region accessed randomly → should mostly miss L3.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);

        // "Small" here means: bigger than L1+L2 so accesses actually reach L3,
        // but comfortably inside the 16 KiB L3 of the test hierarchy.
        let mut small = CacheProbe::new(HierarchyConfig::tiny_for_tests());
        let r = small.register_region("small", 2048, 4); // 8 KiB region
        for _ in 0..50_000 {
            let i = rng.gen_range(0..2048);
            small.read(r, i);
        }
        assert!(small.stats().l3_miss_rate() < 0.05, "{:?}", small.stats());

        let mut large = CacheProbe::new(HierarchyConfig::tiny_for_tests());
        let r = large.register_region("large", 1 << 20, 4); // 4 MiB region vs 16 KiB L3
        for _ in 0..50_000 {
            let i = rng.gen_range(0..1 << 20);
            large.read(r, i);
        }
        assert!(large.stats().l3_miss_rate() > 0.9, "{:?}", large.stats());
    }

    #[test]
    fn counting_probe_counts_reads_and_writes_per_region() {
        let mut p = CountingProbe::new();
        let a = p.register_region("cd", 10, 4);
        let b = p.register_region("cw", 10, 4);
        p.read(a, 0);
        p.read(a, 1);
        p.write(b, 2);
        assert_eq!(p.totals(), (2, 1));
        let report = p.report();
        assert_eq!(report[0], ("cd".to_owned(), 2, 0));
        assert_eq!(report[1], ("cw".to_owned(), 0, 1));
    }

    #[test]
    fn no_probe_is_trivially_usable() {
        let mut p = NoProbe;
        let r = p.register_region("x", 10, 4);
        p.read(r, 3);
        p.write(r, 3);
    }

    #[test]
    fn cache_probe_counts_reads_writes() {
        let mut p = CacheProbe::new(HierarchyConfig::tiny_for_tests());
        let r = p.register_region("v", 16, 4);
        for i in 0..16 {
            p.read(r, i);
        }
        p.write(r, 0);
        assert_eq!(p.stats().accesses, 17);
    }
}
