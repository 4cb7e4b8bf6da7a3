//! The per-tile two-level private cache hierarchy.

use sb_sigs::{Signature, SignatureConfig, BLOCK_LINES};

use crate::addr::LineAddr;
use crate::blockindex::BlockIndex;
use crate::cache::{CacheConfig, SetAssocCache};

/// Where an access hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the private L1 (2-cycle round trip in Table 2).
    L1,
    /// Missed L1, hit the private L2 (8-cycle round trip).
    L2,
    /// Missed both private levels; the request must go on the network.
    Miss,
}

/// Configuration for a [`CacheHierarchy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheHierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit round trip, cycles.
    pub l1_round_trip: u64,
    /// L2 hit round trip, cycles.
    pub l2_round_trip: u64,
}

impl CacheHierarchyConfig {
    /// Table 2 of the paper: 32KB/4-way write-through L1 (2 cycles) and
    /// 512KB/8-way write-back L2 (8 cycles), 32 B lines.
    pub fn paper_default() -> Self {
        CacheHierarchyConfig {
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            l1_round_trip: 2,
            l2_round_trip: 8,
        }
    }
}

impl Default for CacheHierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A private write-through L1 backed by a private write-back L2, as in
/// Table 2. The L1 is write-through, so dirtiness is tracked in the L2;
/// inclusive fills install the line in both levels.
///
/// Bulk invalidation expands a W signature through one block index over
/// the lines held at either level — the index the directories use. L1 is
/// not a subset of L2 (an L1 hit does not move the line up L2's recency
/// order, so L2 can evict a line L1 still holds), so a line joins the
/// index when the hierarchy first holds it and leaves only when neither
/// level does.
///
/// # Examples
///
/// ```
/// use sb_mem::{Addr, CacheHierarchy, CacheHierarchyConfig, HitLevel};
///
/// let mut h = CacheHierarchy::new(CacheHierarchyConfig::paper_default());
/// let line = Addr(0x40).line();
/// assert_eq!(h.access(line), HitLevel::Miss);
/// h.fill(line);
/// assert_eq!(h.access(line), HitLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    cfg: CacheHierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// Every line held at either level, once.
    index: BlockIndex,
    /// Reusable match buffer for [`CacheHierarchy::bulk_invalidate`]; kept
    /// across calls so the steady state allocates nothing.
    inv_scratch: Vec<LineAddr>,
    /// `bulk_invalidate` calls so far.
    expansions: u64,
    /// Lines those calls matched (and invalidated).
    lines_matched: u64,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy indexed for the paper's signature
    /// geometry.
    pub fn new(cfg: CacheHierarchyConfig) -> Self {
        Self::with_signature_config(cfg, SignatureConfig::paper_default())
    }

    /// Creates an empty hierarchy whose block index matches `sig` — the
    /// geometry of the W signatures arriving in bulk invalidations.
    pub fn with_signature_config(cfg: CacheHierarchyConfig, sig: SignatureConfig) -> Self {
        CacheHierarchy {
            cfg,
            l1: SetAssocCache::new(cfg.l1),
            l2: SetAssocCache::new(cfg.l2),
            index: BlockIndex::new(sig),
            inv_scratch: Vec::new(),
            expansions: 0,
            lines_matched: 0,
        }
    }

    /// Probes the hierarchy for a read-style lookup (writes in a lazy chunk
    /// machine are locally buffered and do not change coherence state, so
    /// presence is what matters). L2 hits refill L1.
    pub fn access(&mut self, line: LineAddr) -> HitLevel {
        if self.l1.access(line, false) {
            return HitLevel::L1;
        }
        if self.l2.access(line, false) {
            // Inclusive refill of the L1.
            let victim = self.l1.fill(line, false);
            unindex_victim(&mut self.index, victim, &self.l2);
            return HitLevel::L2;
        }
        HitLevel::Miss
    }

    /// Marks a resident line as locally written (dirtiness lives in the
    /// write-back L2; the write-through L1 just keeps presence).
    pub fn mark_written(&mut self, line: LineAddr) {
        let in_l1 = self.l1.contains(line);
        if self.l2.contains(line) {
            self.l2.access(line, true);
        } else {
            if !in_l1 {
                self.index.insert(line);
            }
            let victim = self.l2.fill(line, true);
            unindex_victim(&mut self.index, victim, &self.l1);
        }
        if !in_l1 {
            let victim = self.l1.fill(line, false);
            unindex_victim(&mut self.index, victim, &self.l2);
        }
    }

    /// Installs a line fetched from the network/memory into both levels.
    pub fn fill(&mut self, line: LineAddr) {
        if !self.contains(line) {
            self.index.insert(line);
        }
        let victim = self.l2.fill(line, false);
        unindex_victim(&mut self.index, victim, &self.l1);
        let victim = self.l1.fill(line, false);
        unindex_victim(&mut self.index, victim, &self.l2);
    }

    /// Fills the `count` consecutive lines from `first` into an empty
    /// hierarchy, leaving exactly the state that [`CacheHierarchy::fill`]
    /// on each line in turn would: each set of each level keeps the run's
    /// last lines that map to it, newest first, and the index gets the
    /// run's last `max(L1, L2 capacity)` lines, a 16-line block at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy holds a line.
    pub fn fill_run(&mut self, first: LineAddr, count: u64) {
        self.l2.fill_run(first, count);
        self.l1.fill_run(first, count);
        let (l1, l2) = (self.cfg.l1.capacity_lines(), self.cfg.l2.capacity_lines());
        let end = first.as_u64() + count;
        let mut line = end - count.min(l1.max(l2));
        while line < end {
            let base = line - line % BLOCK_LINES;
            let next = end.min(base + BLOCK_LINES);
            let mask = (1u32 << (next - base)) - (1 << (line - base));
            self.index.insert_block(base, mask as u16);
            line = next;
        }
    }

    /// Invalidates one line from both levels; returns whether it was
    /// present in either.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let in_l1 = self.l1.invalidate(line);
        let in_l2 = self.l2.invalidate(line);
        if in_l1 || in_l2 {
            self.index.remove(line);
        }
        in_l1 || in_l2
    }

    /// Bulk invalidation: expands `wsig` against the lines held at either
    /// level and invalidates every match in both. Returns the number of
    /// lines matched, each of which was resident. This is what a sharer
    /// processor does on receiving a `bulk inv` message.
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the hierarchy's.
    pub fn bulk_invalidate(&mut self, wsig: &Signature) -> u32 {
        let mut matches = std::mem::take(&mut self.inv_scratch);
        matches.clear();
        self.index.visit(wsig, |line| matches.push(line));
        for &line in &matches {
            self.invalidate(line);
        }
        let n = matches.len() as u32;
        self.inv_scratch = matches;
        self.expansions += 1;
        self.lines_matched += n as u64;
        n
    }

    /// `(expansions, lines matched)`: how many `bulk_invalidate` calls
    /// this hierarchy has served and how many lines they matched and
    /// invalidated in total (host-profile counters).
    pub fn expansion_counts(&self) -> (u64, u64) {
        (self.expansions, self.lines_matched)
    }

    /// Whether the line is resident at any level.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l1.contains(line) || self.l2.contains(line)
    }

    /// Round-trip latency in cycles for a hit at `level`.
    ///
    /// # Panics
    ///
    /// Panics if called with [`HitLevel::Miss`] — miss latency depends on
    /// the network and home directory, which this crate does not know.
    pub fn hit_latency(&self, level: HitLevel) -> u64 {
        match level {
            HitLevel::L1 => self.cfg.l1_round_trip,
            HitLevel::L2 => self.cfg.l2_round_trip,
            HitLevel::Miss => panic!("miss latency is decided by the network layer"),
        }
    }

    /// The L1 model (read-only view).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The L2 model (read-only view).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The configuration.
    pub fn config(&self) -> CacheHierarchyConfig {
        self.cfg
    }
}

/// Drops a line that `SetAssocCache::fill` evicted from one level from
/// the index, unless `other`, the other level, still holds it.
fn unindex_victim(index: &mut BlockIndex, victim: Option<(LineAddr, bool)>, other: &SetAssocCache) {
    if let Some((line, _)) = victim {
        if !other.contains(line) {
            index.remove(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINE_BYTES;
    use std::collections::BTreeSet;

    /// A hierarchy of an `l1_lines`-line, `l1_assoc`-way L1 and an
    /// `l2_lines`-line, `l2_assoc`-way L2, indexed for `sig`.
    fn tiny(l1: (u64, u32), l2: (u64, u32), sig: SignatureConfig) -> CacheHierarchy {
        let level = |(lines, assoc)| CacheConfig {
            size_bytes: lines * LINE_BYTES,
            assoc,
        };
        let cfg = CacheHierarchyConfig {
            l1: level(l1),
            l2: level(l2),
            l1_round_trip: 2,
            l2_round_trip: 8,
        };
        CacheHierarchy::with_signature_config(cfg, sig)
    }

    /// 2 sets x 2 ways of L1 over 4 sets x 4 ways of L2.
    fn small() -> CacheHierarchy {
        tiny((4, 2), (16, 4), SignatureConfig::paper_default())
    }

    /// The lines resident at either level.
    fn held(h: &CacheHierarchy) -> BTreeSet<LineAddr> {
        h.l1.resident_lines().chain(h.l2.resident_lines()).collect()
    }

    /// Checks that the block index holds exactly the lines of L1 ∪ L2.
    fn assert_index_exact(h: &CacheHierarchy) {
        assert_eq!(h.index.assert_consistent(), held(h));
    }

    #[test]
    fn miss_fill_l1_hit() {
        let mut h = small();
        assert_eq!(h.access(LineAddr(1)), HitLevel::Miss);
        h.fill(LineAddr(1));
        assert_eq!(h.access(LineAddr(1)), HitLevel::L1);
        assert_eq!(h.hit_latency(HitLevel::L1), 2);
        assert_eq!(h.hit_latency(HitLevel::L2), 8);
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut h = small();
        h.fill(LineAddr(0));
        // Push line 0 out of the tiny L1 (set-conflicting lines 2 and 4;
        // L1 has 2 sets x 2 ways).
        h.fill(LineAddr(2));
        h.fill(LineAddr(4));
        assert!(!h.l1().contains(LineAddr(0)));
        assert!(h.l2().contains(LineAddr(0)));
        assert_eq!(h.access(LineAddr(0)), HitLevel::L2);
        // Now refilled into L1.
        assert_eq!(h.access(LineAddr(0)), HitLevel::L1);
    }

    #[test]
    fn mark_written_dirties_l2() {
        let mut h = small();
        h.fill(LineAddr(7));
        h.mark_written(LineAddr(7));
        assert_eq!(h.l2().is_dirty(LineAddr(7)), Some(true));
        // Write to a non-resident line allocates it dirty in L2.
        h.mark_written(LineAddr(9));
        assert_eq!(h.l2().is_dirty(LineAddr(9)), Some(true));
        assert!(h.l1().contains(LineAddr(9)));
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = small();
        h.fill(LineAddr(5));
        assert!(h.invalidate(LineAddr(5)));
        assert!(!h.contains(LineAddr(5)));
        assert!(!h.invalidate(LineAddr(5)));
    }

    #[test]
    fn bulk_invalidate_expands_signature() {
        let mut h = small();
        for i in 0..8 {
            h.fill(LineAddr(i));
        }
        let wsig = Signature::from_lines(
            SignatureConfig::paper_default(),
            [3u64, 5, 100], // 100 not resident
        );
        let n = h.bulk_invalidate(&wsig);
        assert!(n >= 2, "at least the two resident matches: {n}");
        assert!(!h.contains(LineAddr(3)));
        assert!(!h.contains(LineAddr(5)));
        assert!(h.contains(LineAddr(0)));
        assert_eq!(h.expansion_counts(), (1, n as u64));
    }

    #[test]
    fn l1_only_line_leaves_the_index_with_its_l1_eviction() {
        let mut h = small();
        let a = LineAddr(0);
        h.fill(a);
        // Lines 4..=16 share A's set at both levels. L1 hits on A keep it
        // in L1 but never move it up L2's recency order, so the fourth
        // fill evicts A from L2 only.
        for l in [4, 8, 12, 16] {
            h.fill(LineAddr(l));
            assert_eq!(h.access(a), HitLevel::L1);
            assert_index_exact(&h);
        }
        assert!(h.l1().contains(a) && !h.l2().contains(a));
        // Lines 2 and 6 share A's L1 set only: A leaves L1, and with it
        // the hierarchy and the index.
        for l in [2, 6] {
            h.fill(LineAddr(l));
            assert_index_exact(&h);
        }
        assert!(!h.contains(a));
        let w = Signature::from_lines(SignatureConfig::paper_default(), [a.as_u64()]);
        let want = held(&h).iter().filter(|l| w.test(l.as_u64())).count();
        assert_eq!(h.bulk_invalidate(&w) as usize, want);
    }

    #[test]
    #[should_panic(expected = "fill_run needs an empty cache")]
    fn fill_run_into_a_non_empty_hierarchy_panics() {
        let mut h = small();
        h.fill(LineAddr(3));
        h.fill_run(LineAddr(0), 4);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_geometry_panics() {
        let mut h = small(); // indexed for paper_default
        h.fill(LineAddr(42));
        h.bulk_invalidate(&Signature::from_lines(
            SignatureConfig::new(1024, 4),
            [42u64],
        ));
    }

    #[test]
    #[should_panic(expected = "network layer")]
    fn miss_latency_panics() {
        small().hit_latency(HitLevel::Miss);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Signature geometries: the paper's, one 256-bit bank (heavy
        /// aliasing, grouped on bank 0), sixteen banks and sixty-four.
        const GEOMETRIES: [(u32, u32); 4] = [(2048, 4), (256, 1), (1024, 16), (4096, 64)];

        /// (L1, L2) shapes as (lines, ways). In the last two, L2 sets
        /// conflict where L1 sets do not, so L2 often evicts a line that
        /// L1 keeps.
        const SHAPES: [((u64, u32), (u64, u32)); 3] =
            [((4, 2), (16, 4)), ((4, 4), (8, 1)), ((2, 1), (8, 2))];

        /// The paper's L1 and L2 as (lines, ways).
        const PAPER: ((u64, u32), (u64, u32)) = ((1024, 4), (16384, 8));

        /// A line of a 40-line run straddling two block boundaries, or
        /// of a block above 2^32.
        fn pick(sel: u64) -> LineAddr {
            match sel % 8 {
                7 => LineAddr(0x1_2345_6700 + sel / 8 % 16),
                _ => LineAddr(0x3f8 + sel / 8 % 40),
            }
        }

        /// The hierarchy's call sequence on two plain caches, with bulk
        /// invalidation by brute-force `Signature::test` over L1 ∪ L2.
        struct Reference {
            l1: SetAssocCache,
            l2: SetAssocCache,
        }

        impl Reference {
            fn access(&mut self, line: LineAddr) -> HitLevel {
                if self.l1.access(line, false) {
                    HitLevel::L1
                } else if self.l2.access(line, false) {
                    self.l1.fill(line, false);
                    HitLevel::L2
                } else {
                    HitLevel::Miss
                }
            }

            fn mark_written(&mut self, line: LineAddr) {
                if self.l2.contains(line) {
                    self.l2.access(line, true);
                } else {
                    self.l2.fill(line, true);
                }
                if !self.l1.contains(line) {
                    self.l1.fill(line, false);
                }
            }

            fn invalidate(&mut self, line: LineAddr) -> bool {
                let in_l1 = self.l1.invalidate(line);
                self.l2.invalidate(line) || in_l1
            }

            fn bulk_invalidate(&mut self, w: &Signature) -> u32 {
                let held: BTreeSet<LineAddr> = self
                    .l1
                    .resident_lines()
                    .chain(self.l2.resident_lines())
                    .collect();
                let hits: Vec<LineAddr> = held.into_iter().filter(|l| w.test(l.as_u64())).collect();
                for &l in &hits {
                    self.invalidate(l);
                }
                hits.len() as u32
            }
        }

        /// `(line, dirty)` of every line resident in `c`, sorted.
        fn contents(c: &SetAssocCache) -> Vec<(LineAddr, bool)> {
            let mut v: Vec<_> = c
                .resident_lines()
                .map(|l| (l, c.is_dirty(l).expect("resident line")))
                .collect();
            v.sort_unstable();
            v
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `fill_run` into an empty hierarchy leaves exactly the state
            /// of `fill` on each line in turn: each level's sets in
            /// recency order with their dirty bits, each level's
            /// counters, and the lines in the block index. Runs start
            /// anywhere in four 16-line blocks, below or above 2^32, over
            /// the three shapes and the paper geometry; they are empty,
            /// just past one level's capacity, or up to twice the larger
            /// one.
            #[test]
            fn prop_fill_run_matches_per_line_fills(
                shape in 0usize..SHAPES.len() + 1,
                start in any::<u64>(),
                kind in 0u8..6,
                len in any::<u64>(),
            ) {
                let (l1, l2) = SHAPES.get(shape).copied().unwrap_or(PAPER);
                let mut each = tiny(l1, l2, SignatureConfig::paper_default());
                let mut bulk = each.clone();
                let high = if start & 1 == 0 { 0x3f8 } else { 0x1_2345_6700 };
                let first = LineAddr(high + (start >> 1) % 64);
                let count = match kind {
                    0 => 0,
                    1 => l1.0 + len % 20,
                    2 => l2.0 + len % 20,
                    _ => len % (2 * l1.0.max(l2.0) + 3),
                };
                for l in 0..count {
                    each.fill(LineAddr(first.as_u64() + l));
                }
                bulk.fill_run(first, count);
                prop_assert_eq!(bulk.l1.recency(), each.l1.recency());
                prop_assert_eq!(bulk.l2.recency(), each.l2.recency());
                prop_assert_eq!(bulk.l1.counters(), each.l1.counters());
                prop_assert_eq!(bulk.l2.counters(), each.l2.counters());
                prop_assert_eq!((bulk.l1.len(), bulk.l2.len()), (each.l1.len(), each.l2.len()));
                prop_assert_eq!(bulk.index.assert_consistent(), each.index.assert_consistent());
                assert_index_exact(&bulk);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random access/fill/mark_written/invalidate/bulk_invalidate
            /// sequences: after every operation the index holds exactly
            /// L1 ∪ L2, each level's contents and counters equal the
            /// reference's, and every bulk invalidation removes and counts
            /// exactly the held lines that brute-force `test` accepts.
            #[test]
            fn prop_index_holds_exactly_the_resident_lines(
                geometry in 0usize..GEOMETRIES.len(),
                shape in 0usize..SHAPES.len(),
                ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..300),
            ) {
                let (bits, banks) = GEOMETRIES[geometry];
                let sig = SignatureConfig::new(bits, banks);
                let (l1, l2) = SHAPES[shape];
                let mut h = tiny(l1, l2, sig);
                let mut r = Reference {
                    l1: SetAssocCache::new(h.config().l1),
                    l2: SetAssocCache::new(h.config().l2),
                };
                let mut counts = (0, 0);
                for (op, sel) in ops {
                    let line = pick(sel);
                    match op {
                        0 => prop_assert_eq!(h.access(line), r.access(line)),
                        1 => {
                            h.fill(line);
                            r.l2.fill(line, false);
                            r.l1.fill(line, false);
                        }
                        2 => {
                            h.mark_written(line);
                            r.mark_written(line);
                        }
                        3 => prop_assert_eq!(h.invalidate(line), r.invalidate(line)),
                        _ => {
                            let n = 1 + sel % 4;
                            let w = Signature::from_lines(
                                sig,
                                (0..n).map(|k| pick(sel.rotate_left(k as u32 * 11) ^ k).as_u64()),
                            );
                            let matched = r.bulk_invalidate(&w);
                            prop_assert_eq!(h.bulk_invalidate(&w), matched);
                            counts = (counts.0 + 1, counts.1 + matched as u64);
                        }
                    }
                    assert_index_exact(&h);
                    prop_assert_eq!(contents(h.l1()), contents(&r.l1));
                    prop_assert_eq!(contents(h.l2()), contents(&r.l2));
                    prop_assert_eq!(h.l1().counters(), r.l1.counters());
                    prop_assert_eq!(h.l2().counters(), r.l2.counters());
                    prop_assert_eq!(h.expansion_counts(), counts);
                }
            }
        }
    }
}
