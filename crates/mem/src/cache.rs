//! A set-associative cache model with LRU replacement.

use crate::addr::{LineAddr, LINE_BYTES};

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use sb_mem::CacheConfig;
///
/// let l1 = CacheConfig::paper_l1();
/// assert_eq!(l1.sets(), 32 * 1024 / 32 / 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// Paper L1: 32 KB, 4-way, 32 B lines (Table 2).
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
        }
    }

    /// Paper L2: 512 KB, 8-way, 32 B lines (Table 2).
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            assoc: 8,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(self) -> u64 {
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.assoc as u64),
            "capacity must divide into whole sets"
        );
        lines / self.assoc as u64
    }

    /// Total number of lines the cache can hold.
    pub fn capacity_lines(self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

/// One way of a set: the resident line's tag, its LRU stamp and its
/// dirty bit, packed into 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    /// `tick << 1 | dirty` at the last access. Ticks are pre-incremented
    /// from 0, so a resident way never has stamp 0: 0 marks an empty way,
    /// and the stamp order of resident ways is their LRU order.
    lru: u64,
}

impl Way {
    const EMPTY: Way = Way {
        line: LineAddr(0),
        lru: 0,
    };

    fn holds(self, line: LineAddr) -> bool {
        self.lru != 0 && self.line == line
    }

    fn dirty(self) -> bool {
        self.lru & 1 != 0
    }

    /// Stamps the way as accessed at `tick`, OR-ing in `dirty`.
    fn touch(&mut self, tick: u64, dirty: bool) {
        self.lru = tick << 1 | (self.lru & 1) | dirty as u64;
    }
}

/// A set-associative, LRU, write-allocate cache.
///
/// The model tracks tags and dirtiness only — there is no data array, since
/// the protocol layer never needs values, only presence. All ways live in
/// one flat set-major array, so a lookup is a scan of at most `assoc`
/// adjacent 16-byte ways and a cache costs one allocation; replacement is
/// exact LRU (the way with the smallest stamp).
///
/// The cache knows nothing about signatures: [`CacheHierarchy`] expands a
/// W signature through one index over the lines held at either of its
/// levels.
///
/// [`CacheHierarchy`]: crate::CacheHierarchy
///
/// # Examples
///
/// ```
/// use sb_mem::{CacheConfig, SetAssocCache, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 1024, assoc: 2 });
/// assert!(!c.access(LineAddr(1), false));
/// c.fill(LineAddr(1), false);
/// assert!(c.access(LineAddr(1), false));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Every way, set-major: set `s` owns `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    assoc: usize,
    nsets: u64,
    /// Number of non-empty ways.
    resident: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            ways: vec![Way::EMPTY; cfg.capacity_lines() as usize],
            assoc: cfg.assoc as usize,
            nsets: cfg.sets(),
            resident: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The ways of the set `line` maps to.
    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let start = (line.as_u64() % self.nsets) as usize * self.assoc;
        start..start + self.assoc
    }

    /// The way holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<&Way> {
        self.ways[self.set_range(line)]
            .iter()
            .find(|w| w.holds(line))
    }

    #[inline]
    fn find_mut(&mut self, line: LineAddr) -> Option<&mut Way> {
        let set = self.set_range(line);
        self.ways[set].iter_mut().find(|w| w.holds(line))
    }

    /// Looks a line up, updating LRU and (for writes) the dirty bit.
    /// Returns `true` on hit. Does **not** allocate on miss; call
    /// [`SetAssocCache::fill`] when the fill response arrives.
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(way) = self.find_mut(line) {
            way.touch(tick, write);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Peeks without perturbing LRU or counters.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Installs a line into the set's first empty way, or over its LRU way
    /// if the set is full. Returns the evicted line and whether it was
    /// dirty, if any.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<(LineAddr, bool)> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_range(line);
        let ways = &mut self.ways[set];
        if let Some(way) = ways.iter_mut().find(|w| w.holds(line)) {
            way.touch(tick, dirty);
            return None;
        }
        let slot = ways.iter().position(|w| w.lru == 0).unwrap_or_else(|| {
            // Full set: stamps are unique, so the minimum is the one LRU way.
            (0..ways.len())
                .min_by_key(|&i| ways[i].lru)
                .expect("sets have ways")
        });
        let new = Way {
            line,
            lru: tick << 1 | dirty as u64,
        };
        let old = std::mem::replace(&mut ways[slot], new);
        if old.lru == 0 {
            self.resident += 1;
            None
        } else {
            self.evictions += 1;
            Some((old.line, old.dirty()))
        }
    }

    /// Removes a line (coherence invalidation). Returns whether it was
    /// present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(way) = self.find_mut(line) else {
            return false;
        };
        *way = Way::EMPTY;
        self.resident -= 1;
        true
    }

    /// Marks a resident line clean (e.g. after a write-back). No-op if the
    /// line is absent.
    pub fn clean(&mut self, line: LineAddr) {
        if let Some(way) = self.find_mut(line) {
            way.lru &= !1;
        }
    }

    /// Whether a resident line is dirty (`None` if absent).
    pub fn is_dirty(&self, line: LineAddr) -> Option<bool> {
        self.find(line).map(|w| w.dirty())
    }

    /// Iterates over all resident line addresses (the tag array) in way
    /// order.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.ways.iter().filter(|w| w.lru != 0).map(|w| w.line)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// (hits, misses, evictions) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * LINE_BYTES,
            assoc: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(LineAddr(0), false));
        assert_eq!(c.fill(LineAddr(0), false), None);
        assert!(c.access(LineAddr(0), false));
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(LineAddr(0), false);
        c.fill(LineAddr(2), false);
        c.access(LineAddr(0), false); // 0 is now MRU
        let victim = c.fill(LineAddr(4), false);
        assert_eq!(victim, Some((LineAddr(2), false)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(LineAddr(0), false);
        c.access(LineAddr(0), true); // dirty it
        c.fill(LineAddr(2), false);
        c.access(LineAddr(2), false);
        c.access(LineAddr(2), false); // make 0 the LRU
        let victim = c.fill(LineAddr(4), false);
        assert_eq!(victim, Some((LineAddr(0), true)));
    }

    #[test]
    fn refill_of_resident_line_updates_not_evicts() {
        let mut c = tiny();
        c.fill(LineAddr(0), false);
        assert_eq!(c.fill(LineAddr(0), true), None);
        assert_eq!(c.is_dirty(LineAddr(0)), Some(true));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_clean() {
        let mut c = tiny();
        c.fill(LineAddr(3), true);
        assert_eq!(c.is_dirty(LineAddr(3)), Some(true));
        c.clean(LineAddr(3));
        assert_eq!(c.is_dirty(LineAddr(3)), Some(false));
        assert!(c.invalidate(LineAddr(3)));
        assert!(!c.invalidate(LineAddr(3)));
        assert_eq!(c.is_dirty(LineAddr(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn resident_lines_matches_contents() {
        let mut c = tiny();
        c.fill(LineAddr(1), false);
        c.fill(LineAddr(3), false);
        let mut lines: Vec<_> = c.resident_lines().collect();
        lines.sort();
        assert_eq!(lines, vec![LineAddr(1), LineAddr(3)]);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..100 {
            c.fill(LineAddr(i), false);
        }
        assert!(c.len() <= c.config().capacity_lines() as usize);
        let (_, _, ev) = c.counters();
        assert!(ev >= 96);
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().sets(), 256);
        assert_eq!(CacheConfig::paper_l2().sets(), 2048);
        assert_eq!(CacheConfig::paper_l2().capacity_lines(), 16384);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference LRU cache: each set is a list of `(line, dirty)` ordered
    /// least- to most-recently used.
    struct Model {
        sets: Vec<Vec<(LineAddr, bool)>>,
        assoc: usize,
        counters: (u64, u64, u64),
    }

    impl Model {
        fn new(cfg: CacheConfig) -> Self {
            Model {
                sets: vec![Vec::new(); cfg.sets() as usize],
                assoc: cfg.assoc as usize,
                counters: (0, 0, 0),
            }
        }

        /// The set of `line` and its position there, if resident.
        fn locate(&mut self, line: LineAddr) -> (&mut Vec<(LineAddr, bool)>, Option<usize>) {
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line.as_u64() % n) as usize];
            let pos = set.iter().position(|&(l, _)| l == line);
            (set, pos)
        }

        /// Moves a resident line to the MRU end, OR-ing in `dirty`.
        fn touch(set: &mut Vec<(LineAddr, bool)>, pos: usize, dirty: bool) {
            let (l, d) = set.remove(pos);
            set.push((l, d | dirty));
        }

        fn access(&mut self, line: LineAddr, write: bool) -> bool {
            let (set, pos) = self.locate(line);
            let hit = pos.is_some();
            if let Some(pos) = pos {
                Self::touch(set, pos, write);
            }
            if hit {
                self.counters.0 += 1;
            } else {
                self.counters.1 += 1;
            }
            hit
        }

        fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<(LineAddr, bool)> {
            let assoc = self.assoc;
            let (set, pos) = self.locate(line);
            if let Some(pos) = pos {
                Self::touch(set, pos, dirty);
                return None;
            }
            let victim = (set.len() == assoc).then(|| set.remove(0));
            set.push((line, dirty));
            if victim.is_some() {
                self.counters.2 += 1;
            }
            victim
        }

        fn invalidate(&mut self, line: LineAddr) -> bool {
            let (set, pos) = self.locate(line);
            pos.map(|pos| set.remove(pos)).is_some()
        }

        fn clean(&mut self, line: LineAddr) {
            let (set, pos) = self.locate(line);
            if let Some(pos) = pos {
                set[pos].1 = false;
            }
        }

        fn resident(&self) -> Vec<(LineAddr, bool)> {
            let mut all: Vec<_> = self.sets.iter().flatten().copied().collect();
            all.sort_unstable();
            all
        }
    }

    proptest! {
        /// The flat way array behaves exactly like a reference LRU model:
        /// same hits and misses, same `(line, dirty)` victims, same
        /// counters and resident set.
        #[test]
        fn prop_cache_matches_lru_model(
            assoc_log in 0u8..3,
            ops in proptest::collection::vec((0u8..4, 0u64..48, any::<bool>()), 1..400)
        ) {
            let cfg = CacheConfig { size_bytes: 8 * LINE_BYTES, assoc: 1 << assoc_log };
            let mut c = SetAssocCache::new(cfg);
            let mut m = Model::new(cfg);
            for (op, line, flag) in ops {
                let line = LineAddr(line);
                match op {
                    0 => prop_assert_eq!(c.access(line, flag), m.access(line, flag)),
                    1 => prop_assert_eq!(c.fill(line, flag), m.fill(line, flag)),
                    2 => prop_assert_eq!(c.invalidate(line), m.invalidate(line)),
                    _ => {
                        c.clean(line);
                        m.clean(line);
                    }
                }
                prop_assert_eq!(c.counters(), m.counters);
                let want = m.resident();
                let mut got: Vec<_> = c
                    .resident_lines()
                    .map(|l| (l, c.is_dirty(l).expect("resident line")))
                    .collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(c.len(), want.len());
                prop_assert_eq!(c.is_dirty(line), want.iter().find(|w| w.0 == line).map(|w| w.1));
            }
        }
    }
}
