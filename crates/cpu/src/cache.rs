//! Set-associative caches and the two-level hierarchy.
//!
//! Timing-only: data values live in [`crate::mem::Memory`]; the caches
//! track presence, recency, and dirtiness to produce hit/miss latencies and
//! the per-level access counts the power model consumes. Writes allocate
//! (write-allocate, write-back). Misses are modeled as independent latency
//! chains (no MSHR contention), which is the same simplification Wattch's
//! timing substrate makes for bandwidth-light workloads.

use crate::config::{CacheConfig, CpuConfig};

/// One set-associative, LRU, write-back cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`: tag, or `None` when invalid.
    tags: Vec<Option<u64>>,
    /// LRU stamps parallel to `tags` (higher = more recent).
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

/// Result of one cache-level access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty victim was written back.
    pub writeback: bool,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: &CacheConfig) -> Cache {
        let sets = config.sets();
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            sets,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![None; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            dirty: vec![false; sets * config.ways],
            tick: 0,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line as usize) & (self.sets - 1),
            line >> self.sets.trailing_zeros(),
        )
    }

    /// Accesses the line containing `addr`; allocates on miss, evicting the
    /// LRU way. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> LineAccess {
        self.accesses += 1;
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;

        for way in 0..self.ways {
            if self.tags[base + way] == Some(tag) {
                self.stamps[base + way] = self.tick;
                if write {
                    self.dirty[base + way] = true;
                }
                return LineAccess {
                    hit: true,
                    writeback: false,
                };
            }
        }

        self.misses += 1;
        // Choose victim: invalid way first, else LRU.
        let victim = (0..self.ways)
            .find(|&w| self.tags[base + w].is_none())
            .unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("ways > 0")
            });
        let writeback = self.tags[base + victim].is_some() && self.dirty[base + victim];
        if writeback {
            self.writebacks += 1;
        }
        self.tags[base + victim] = Some(tag);
        self.stamps[base + victim] = self.tick;
        self.dirty[base + victim] = write;
        LineAccess {
            hit: false,
            writeback,
        }
    }

    /// Whether the line containing `addr` is present (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == Some(tag))
    }

    /// Lifetime access count.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime dirty-victim writebacks.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss rate over the cache's lifetime (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl PartialEq for Cache {
    fn eq(&self, other: &Cache) -> bool {
        self.sets == other.sets
            && self.ways == other.ways
            && self.line_shift == other.line_shift
            && self.tick == other.tick
            && self.accesses == other.accesses
            && self.misses == other.misses
            && self.writebacks == other.writebacks
            && crate::tables_eq(&self.stamps, &other.stamps)
            && crate::tables_eq(&self.dirty, &other.dirty)
            && crate::tables_eq(&self.tags, &other.tags)
    }
}

impl Eq for Cache {}

impl voltctl_snap::Pack for Cache {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_usize(self.sets);
        w.put_usize(self.ways);
        w.put_u32(self.line_shift);
        self.tags.pack(w);
        self.stamps.pack(w);
        self.dirty.pack(w);
        w.put_u64(self.tick);
        w.put_u64(self.accesses);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }
}

impl voltctl_snap::Unpack for Cache {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let sets = r.get_usize()?;
        let ways = r.get_usize()?;
        let line_shift = r.get_u32()?;
        let tags: Vec<Option<u64>> = voltctl_snap::Unpack::unpack(r)?;
        let stamps: Vec<u64> = voltctl_snap::Unpack::unpack(r)?;
        let dirty: Vec<bool> = voltctl_snap::Unpack::unpack(r)?;
        let tick = r.get_u64()?;
        let accesses = r.get_u64()?;
        let misses = r.get_u64()?;
        let writebacks = r.get_u64()?;
        let lines = sets.checked_mul(ways).ok_or_else(|| {
            voltctl_snap::SnapError::Corrupt(format!(
                "cache geometry {sets} sets x {ways} ways overflows"
            ))
        })?;
        if !sets.is_power_of_two() || ways == 0 {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "invalid cache geometry: {sets} sets x {ways} ways"
            )));
        }
        if tags.len() != lines || stamps.len() != lines || dirty.len() != lines {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "cache arrays ({}, {}, {}) do not match geometry {sets} sets x {ways} ways",
                tags.len(),
                stamps.len(),
                dirty.len()
            )));
        }
        Ok(Cache {
            sets,
            ways,
            line_shift,
            tags,
            stamps,
            dirty,
            tick,
            accesses,
            misses,
            writebacks,
        })
    }
}

/// Per-access counts bubbled up from the hierarchy for the power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyCounts {
    /// L1 (I or D, per call site) accesses.
    pub l1_accesses: u32,
    /// L1 misses.
    pub l1_misses: u32,
    /// L2 accesses.
    pub l2_accesses: u32,
    /// L2 misses (main-memory accesses).
    pub l2_misses: u32,
}

/// The two-level hierarchy: split L1s over a unified L2 over flat memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    l1i_hit: u64,
    l1d_hit: u64,
    l2_hit: u64,
    memory_latency: u64,
}

impl CacheHierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(config: &CpuConfig) -> CacheHierarchy {
        CacheHierarchy {
            l1i: Cache::new(&config.l1i),
            l1d: Cache::new(&config.l1d),
            l2: Cache::new(&config.l2),
            l1i_hit: config.l1i.hit_latency,
            l1d_hit: config.l1d.hit_latency,
            l2_hit: config.l2.hit_latency,
            memory_latency: config.memory_latency,
        }
    }

    /// Instruction fetch for the line containing `addr`: returns total
    /// latency in cycles and the per-level access counts.
    pub fn fetch_instr(&mut self, addr: u64) -> (u64, HierarchyCounts) {
        let mut counts = HierarchyCounts {
            l1_accesses: 1,
            ..Default::default()
        };
        let l1 = self.l1i.access(addr, false);
        if l1.hit {
            return (self.l1i_hit, counts);
        }
        counts.l1_misses = 1;
        counts.l2_accesses = 1;
        let l2 = self.l2.access(addr, false);
        if l2.hit {
            return (self.l1i_hit + self.l2_hit, counts);
        }
        counts.l2_misses = 1;
        (self.l1i_hit + self.l2_hit + self.memory_latency, counts)
    }

    /// Data access (load or store) for the line containing `addr`.
    pub fn access_data(&mut self, addr: u64, write: bool) -> (u64, HierarchyCounts) {
        let mut counts = HierarchyCounts {
            l1_accesses: 1,
            ..Default::default()
        };
        let l1 = self.l1d.access(addr, write);
        if l1.writeback {
            // Dirty victim flows to L2 (timing effect folded into the miss
            // path; counted as an L2 access).
            counts.l2_accesses += 1;
            self.l2.access(addr, true);
        }
        if l1.hit {
            return (self.l1d_hit, counts);
        }
        counts.l1_misses = 1;
        counts.l2_accesses += 1;
        let l2 = self.l2.access(addr, false);
        if l2.hit {
            return (self.l1d_hit + self.l2_hit, counts);
        }
        counts.l2_misses = 1;
        (self.l1d_hit + self.l2_hit + self.memory_latency, counts)
    }
}

impl voltctl_snap::Pack for CacheHierarchy {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.l1i.pack(w);
        self.l1d.pack(w);
        self.l2.pack(w);
        w.put_u64(self.l1i_hit);
        w.put_u64(self.l1d_hit);
        w.put_u64(self.l2_hit);
        w.put_u64(self.memory_latency);
    }
}

impl voltctl_snap::Unpack for CacheHierarchy {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        Ok(CacheHierarchy {
            l1i: voltctl_snap::Unpack::unpack(r)?,
            l1d: voltctl_snap::Unpack::unpack(r)?,
            l2: voltctl_snap::Unpack::unpack(r)?,
            l1i_hit: r.get_u64()?,
            l1d_hit: r.get_u64()?,
            l2_hit: r.get_u64()?,
            memory_latency: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn small_cache() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 4 * 64, // 4 lines
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13f, false).hit); // same 64 B line
        assert!(!c.access(0x140, false).hit); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(); // 2 sets x 2 ways
                                   // Three lines mapping to set 0 (line addresses 0, 2, 4 in units of 64 B).
        let a = 0x000;
        let b = 0x080;
        let d = 0x100;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        c.access(d, false); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache();
        let a = 0x000;
        let b = 0x080;
        let d = 0x100;
        c.access(a, true); // dirty
        c.access(b, false);
        let res = c.access(d, false); // evicts a (LRU, dirty)
        assert!(res.writeback);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x080, false);
        let res = c.access(0x100, false);
        assert!(!res.writeback);
    }

    #[test]
    fn miss_rate_reported() {
        let mut c = small_cache();
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_latency_chain() {
        let mut h = CacheHierarchy::new(&CpuConfig::table1());
        let addr = 0x4_0000;
        // Cold: L1 miss, L2 miss → 1 + 16 + 300.
        let (lat, counts) = h.access_data(addr, false);
        assert_eq!(lat, 317);
        assert_eq!(counts.l1_misses, 1);
        assert_eq!(counts.l2_misses, 1);
        // Warm: L1 hit.
        let (lat, counts) = h.access_data(addr, false);
        assert_eq!(lat, 1);
        assert_eq!(counts.l1_misses, 0);
        // Evict from L1 only → next access is L1 miss, L2 hit: 1 + 16.
        // (Touch enough conflicting lines to evict addr from the 2-way L1
        // but not the 4-way L2.)
        let l1_set_stride = 512 * 64; // sets * line
        for k in 1..=2 {
            h.access_data(addr + k * l1_set_stride as u64, false);
        }
        let (lat, _) = h.access_data(addr, false);
        assert_eq!(lat, 17);
    }

    #[test]
    fn instruction_path_counts_separately() {
        let mut h = CacheHierarchy::new(&CpuConfig::table1());
        let (lat, counts) = h.fetch_instr(0x1_0000);
        assert_eq!(lat, 317);
        assert_eq!(counts.l1_accesses, 1);
        let (lat, _) = h.fetch_instr(0x1_0000);
        assert_eq!(lat, 1);
        assert_eq!(h.l1i.accesses(), 2);
        assert_eq!(h.l1d.accesses(), 0);
    }

    #[test]
    fn l1d_writeback_touches_l2() {
        let mut h = CacheHierarchy::new(&CpuConfig::table1());
        let addr = 0x8_0000u64;
        h.access_data(addr, true); // dirty in L1
        let stride = (512 * 64) as u64;
        // Force eviction of the dirty line from the 2-way L1.
        let (_, c1) = h.access_data(addr + stride, false);
        let (_, c2) = h.access_data(addr + 2 * stride, false);
        // One of the fills must have triggered the dirty writeback.
        assert!(c1.l2_accesses + c2.l2_accesses >= 3);
    }
}
