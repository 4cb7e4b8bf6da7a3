//! A set-associative cache model with exact LRU replacement, kept as
//! each set's lines in recency order.

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

/// The state of one set besides its lines: how many ways hold a line,
/// and which of those lines are dirty (bit `i`: the set's `i`-th most
/// recently used line).
#[derive(Clone, Copy, Debug, Default)]
struct SetState {
    len: u16,
    dirty: u16,
}

/// Largest associativity a set's dirty mask can describe.
const MAX_ASSOC: u32 = u16::BITS;

/// A set-associative, LRU, write-allocate cache.
///
/// The model tracks tags and dirtiness only — there is no data array, since
/// the protocol layer never needs values, only presence. Each set keeps
/// its resident lines in recency order, most recently used first, in one
/// flat set-major array of line numbers, with a per-set resident count
/// and dirty mask beside it: about 8 bytes per way, in two allocations.
/// A hit moves its line to the front of its set, a fill inserts at the
/// front, and a full set evicts its last line, so replacement is exact
/// LRU. A lookup scans the set's `assoc` adjacent words; the line array
/// is allocated zeroed, so a page of it is first touched when one of its
/// sets is first filled.
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
    /// Every set's lines, set-major: set `s` owns
    /// `lines[s * assoc..(s + 1) * assoc]`, whose first `sets[s].len`
    /// entries are its resident lines, most recently used first. Raw line
    /// numbers, so `vec![0; n]` allocates the array zeroed.
    lines: Vec<u64>,
    sets: Vec<SetState>,
    assoc: usize,
    nsets: u64,
    /// Number of resident lines.
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets, or has no
    /// ways or more than 16 ways per set.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            (1..=MAX_ASSOC).contains(&cfg.assoc),
            "a set holds 1 to {MAX_ASSOC} ways"
        );
        let nsets = cfg.sets();
        SetAssocCache {
            cfg,
            lines: vec![0; cfg.capacity_lines() as usize],
            sets: vec![SetState::default(); nsets as usize],
            assoc: cfg.assoc as usize,
            nsets,
            resident: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The set `line` maps to.
    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.as_u64() % self.nsets) as usize
    }

    /// The set `line` maps to, the start of its ways in `lines`, and
    /// the line's recency rank there if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> (usize, usize, Option<usize>) {
        let s = self.set_of(line);
        let start = s * self.assoc;
        // Scan all the set's ways, not just its resident ones, so the
        // scan need not wait for the count: the ways past the count hold
        // stale lines, and any stale copy of a resident line lies past
        // it, so the first match is resident exactly if it lies below.
        let ways = &self.lines[start..start + self.assoc];
        let p = ways.iter().position(|&l| l == line.as_u64());
        (s, start, p.filter(|&p| p < self.sets[s].len as usize))
    }

    /// Moves the line of rank `p` in set `s` (whose ways start at
    /// `start`) to the front, carrying its dirty bit along and OR-ing in
    /// `dirty`.
    #[inline]
    fn promote(&mut self, s: usize, start: usize, p: usize, dirty: bool) {
        let ways = &mut self.lines[start..start + self.assoc];
        let line = ways[p];
        // An explicit shift of the younger lines: `rotate_right` costs
        // several times more at these lengths.
        for i in (1..=p).rev() {
            ways[i] = ways[i - 1];
        }
        ways[0] = line;
        let set = &mut self.sets[s];
        if set.dirty != 0 || dirty {
            let d = u32::from(set.dirty);
            let younger = (1 << p) - 1;
            let older = d & !(younger << 1 | 1);
            set.dirty = (older | (d & younger) << 1 | d >> p & 1 | dirty as u32) as u16;
        }
    }

    /// Looks a line up, updating LRU and (for writes) the dirty bit.
    /// Returns `true` on hit. Does **not** allocate on miss; call
    /// [`SetAssocCache::fill`] when the fill response arrives.
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        match self.find(line) {
            (s, start, Some(p)) => {
                self.promote(s, start, p, write);
                self.hits += 1;
                true
            }
            (_, _, None) => {
                self.misses += 1;
                false
            }
        }
    }

    /// Peeks without perturbing LRU or counters.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).2.is_some()
    }

    /// Installs a line as its set's most recently used, evicting the
    /// set's least recently used line if the set is full. Returns the
    /// evicted line and whether it was dirty, if any.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<(LineAddr, bool)> {
        let (s, start, pos) = self.find(line);
        if let Some(p) = pos {
            self.promote(s, start, p, dirty);
            return None;
        }
        let set = self.sets[s];
        let mut kept = set.len as usize;
        let victim = if kept == self.assoc {
            kept -= 1;
            self.evictions += 1;
            Some((
                LineAddr(self.lines[start + kept]),
                set.dirty >> kept & 1 != 0,
            ))
        } else {
            self.resident += 1;
            None
        };
        let ways = &mut self.lines[start..=start + kept];
        for i in (1..=kept).rev() {
            ways[i] = ways[i - 1];
        }
        ways[0] = line.as_u64();
        let kept_dirty = u32::from(set.dirty) & ((1 << kept) - 1);
        self.sets[s] = SetState {
            len: kept as u16 + 1,
            dirty: (kept_dirty << 1 | dirty as u32) as u16,
        };
        victim
    }

    /// Fills the `count` consecutive lines from `first` into an empty
    /// cache, clean, leaving exactly the state that
    /// [`SetAssocCache::fill`] on each line in turn would: each set keeps
    /// the run's last `assoc` lines that map to it, newest first, and the
    /// run's other lines count as evictions.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds a line.
    pub(crate) fn fill_run(&mut self, first: LineAddr, count: u64) {
        assert!(self.is_empty(), "fill_run needs an empty cache");
        let kept = count.min(self.lines.len() as u64);
        self.evictions += count - kept;
        self.resident = kept as usize;
        // The last `kept` lines cover each set at most `assoc` times;
        // newest first, each lands behind its set's younger lines.
        let start = first.as_u64() + (count - kept);
        for line in (start..start + kept).rev() {
            let s = self.set_of(LineAddr(line));
            let set = &mut self.sets[s];
            self.lines[s * self.assoc + set.len as usize] = line;
            set.len += 1;
        }
    }

    /// Removes a line (coherence invalidation). Returns whether it was
    /// present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let (s, start, Some(p)) = self.find(line) else {
            return false;
        };
        let set = self.sets[s];
        self.lines[start..start + set.len as usize].copy_within(p + 1.., p);
        let d = u32::from(set.dirty);
        let younger = (1 << p) - 1;
        self.sets[s] = SetState {
            len: set.len - 1,
            dirty: (d & younger | d >> 1 & !younger) as u16,
        };
        self.resident -= 1;
        true
    }

    /// Marks a resident line clean (e.g. after a write-back). No-op if the
    /// line is absent.
    pub fn clean(&mut self, line: LineAddr) {
        if let (s, _, Some(p)) = self.find(line) {
            self.sets[s].dirty &= !(1 << p);
        }
    }

    /// Whether a resident line is dirty (`None` if absent).
    pub fn is_dirty(&self, line: LineAddr) -> Option<bool> {
        let (s, _, pos) = self.find(line);
        pos.map(|p| self.sets[s].dirty >> p & 1 != 0)
    }

    /// Every set's resident lines with their dirty bits, most recently
    /// used first.
    #[cfg(test)]
    pub(crate) fn recency(&self) -> Vec<Vec<(LineAddr, bool)>> {
        let sets = self.lines.chunks_exact(self.assoc).zip(&self.sets);
        sets.map(|(ways, set)| {
            let resident = ways[..set.len as usize].iter().enumerate();
            resident
                .map(|(p, &l)| (LineAddr(l), set.dirty >> p & 1 != 0))
                .collect()
        })
        .collect()
    }

    /// Iterates over all resident line addresses (the tag array), set by
    /// set, most recently used first.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let sets = self.lines.chunks_exact(self.assoc).zip(&self.sets);
        sets.flat_map(|(ways, set)| ways[..set.len as usize].iter().map(|&l| LineAddr(l)))
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
    fn hit_moves_dirty_bit_with_its_line() {
        // One set of four ways.
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 4 * LINE_BYTES,
            assoc: 4,
        });
        c.fill(LineAddr(0), true);
        c.fill(LineAddr(1), false);
        c.fill(LineAddr(2), false);
        assert!(c.access(LineAddr(0), false));
        assert!(c.access(LineAddr(1), true));
        let order = |c: &SetAssocCache| c.recency().concat();
        let want = [(1, true), (0, true), (2, false)].map(|(l, d)| (LineAddr(l), d));
        assert_eq!(order(&c), want);
        c.fill(LineAddr(3), false);
        assert_eq!(c.fill(LineAddr(4), false), Some((LineAddr(2), false)));
        assert_eq!(c.fill(LineAddr(5), false), Some((LineAddr(0), true)));
        c.clean(LineAddr(1));
        assert!(c.invalidate(LineAddr(4)));
        let want = [(5, false), (3, false), (1, false)].map(|(l, d)| (LineAddr(l), d));
        assert_eq!(order(&c), want);
    }

    #[test]
    fn fill_run_keeps_each_sets_newest_lines() {
        let mut c = tiny();
        // Lines 1..=7 into 2 sets x 2 ways: the last four stay, newest
        // first, and the first three count as evictions.
        c.fill_run(LineAddr(1), 7);
        let set = |lines: [u64; 2]| lines.map(|l| (LineAddr(l), false)).to_vec();
        assert_eq!(c.recency(), vec![set([6, 4]), set([7, 5])]);
        assert_eq!(c.counters(), (0, 0, 3));
        assert_eq!(c.len(), 4);
    }

    #[test]
    #[should_panic(expected = "fill_run needs an empty cache")]
    fn fill_run_into_a_non_empty_cache_panics() {
        let mut c = tiny();
        c.fill(LineAddr(9), false);
        c.fill_run(LineAddr(0), 2);
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
        /// The recency-ordered sets behave exactly like a reference LRU
        /// model: same hits and misses, same `(line, dirty)` victims, same
        /// counters, and every set holds the model's lines in its recency
        /// order with their dirty bits.
        #[test]
        fn prop_cache_matches_lru_model(
            assoc_log in 0u8..5,
            ops in proptest::collection::vec((0u8..4, 0u64..48, any::<bool>()), 1..400)
        ) {
            let cfg = CacheConfig { size_bytes: 16 * LINE_BYTES, assoc: 1 << assoc_log };
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
                let order: Vec<Vec<_>> =
                    m.sets.iter().map(|set| set.iter().rev().copied().collect()).collect();
                prop_assert_eq!(c.recency(), order);
                let want = m.resident();
                prop_assert_eq!(c.len(), want.len());
                prop_assert_eq!(c.is_dirty(line), want.iter().find(|w| w.0 == line).map(|w| w.1));
            }
        }
    }
}
