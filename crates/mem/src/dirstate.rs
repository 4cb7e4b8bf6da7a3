//! Conventional directory sharer state.
//!
//! Each directory module keeps, for every line homed at it that some cache
//! holds, the set of sharer cores and (for dirty lines) the owner. The chunk
//! protocols consult this state when they expand a committing chunk's W
//! signature into the set of processors to invalidate, and update it when a
//! commit succeeds ("the directories in the group start updating their state
//! based on the W signature", §3.2).
//!
//! Every commit makes each participating directory expand a W signature
//! against its tracked lines twice (the local `inval_vec`, then the
//! commit itself), through the block index the private caches use too.
//!
//! The records are kept by page: one map entry per page with a tracked
//! line, holding all of the page's line records. A machine warms its
//! directories a page at a time ([`DirectoryState::mark_page_resident`],
//! [`DirectoryState::record_page_reads`]), and an expansion finds each
//! matched 16-line block's records with one page lookup.

use std::cell::Cell;
use std::collections::hash_map::Entry;

use sb_engine::FxHashMap;
use sb_sigs::{Signature, SignatureConfig, BLOCK_LINES};

use crate::addr::{LineAddr, PageAddr};
use crate::blockindex::BlockIndex;
use crate::ids::{CoreId, CoreSet};

/// Per-line directory information.
#[derive(Clone, Debug, Default)]
struct LineDirInfo {
    /// Cores whose caches may hold the line.
    sharers: CoreSet,
    /// The core that owns the line dirty, if any.
    owner: Option<CoreId>,
    /// The line is resident somewhere in the machine's aggregate cache
    /// capacity (steady-state modelling): reads are served cache-to-cache
    /// even when the precise sharer set is empty. Resident-only lines are
    /// never invalidation targets.
    resident: bool,
}

/// Lines per page.
const PAGE_LINES: usize = LineAddr::PER_PAGE as usize;

/// The records of one page's lines.
#[derive(Clone, Debug)]
struct PageDir {
    /// Bit `i` set: the page's line `i` is tracked. Never 0 in the map.
    tracked: u128,
    /// Line `i`'s record; an untracked line's is the default.
    lines: [LineDirInfo; PAGE_LINES],
}

impl PageDir {
    /// A page record with no tracked line, on the heap.
    fn boxed() -> Box<Self> {
        Box::new(PageDir {
            tracked: 0,
            lines: std::array::from_fn(|_| LineDirInfo::default()),
        })
    }
}

/// The indices of the set bits of `mask`, ascending.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Where the home directory serves a read from (§6.5's three read
/// classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSource {
    /// The line is dirty in this core's cache: the home forwards the
    /// read to it (three hops).
    Owner(CoreId),
    /// The line is shared, or resident in the aggregate cache capacity:
    /// served cache-to-cache.
    Cache,
    /// The line is in no cache: served from memory.
    Memory,
}

/// Sharer/owner bookkeeping for the lines homed at one directory module.
///
/// # Examples
///
/// ```
/// use sb_mem::{CoreId, DirectoryState, LineAddr};
///
/// let mut d = DirectoryState::new();
/// d.record_read(LineAddr(8), CoreId(1));
/// d.record_read(LineAddr(8), CoreId(2));
/// assert_eq!(d.sharers_of(LineAddr(8)).len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DirectoryState {
    /// The record of every page with a tracked line. A record costs
    /// 4 KiB however few lines it tracks; the machine warms whole pages
    /// (the shared pool, and private regions that are whole pages), so
    /// on its workloads the records are full.
    pages: FxHashMap<PageAddr, Box<PageDir>>,
    /// Every tracked line sits in exactly one block of this index.
    blocks: BlockIndex,
    /// `sharers_matching` + `apply_commit` calls so far.
    expansions: Cell<u64>,
    /// Lines those calls matched.
    lines_matched: Cell<u64>,
}

impl DirectoryState {
    /// Creates an empty directory indexed for the paper's signature
    /// geometry.
    pub fn new() -> Self {
        Self::with_signature_config(SignatureConfig::paper_default())
    }

    /// Creates an empty directory whose block index matches `cfg` — the
    /// geometry of the W signatures this directory will expand.
    pub fn with_signature_config(cfg: SignatureConfig) -> Self {
        DirectoryState {
            pages: FxHashMap::default(),
            blocks: BlockIndex::new(cfg),
            expansions: Cell::new(0),
            lines_matched: Cell::new(0),
        }
    }

    /// Counts one expansion that matched `lines` lines.
    #[inline]
    fn count_expansion(&self, lines: u64) {
        self.expansions.set(self.expansions.get() + 1);
        self.lines_matched.set(self.lines_matched.get() + lines);
    }

    /// `(expansions, lines matched)`: how many `sharers_matching` and
    /// `apply_commit` calls this directory has served and how many
    /// tracked lines they matched in total (host-profile counters).
    pub fn expansion_counts(&self) -> (u64, u64) {
        (self.expansions.get(), self.lines_matched.get())
    }

    /// Tracks the lines of `new` (none of them tracked yet) in `page`'s
    /// record `p`, and indexes them a block at a time.
    fn track(blocks: &mut BlockIndex, p: &mut PageDir, page: PageAddr, new: u128) {
        p.tracked |= new;
        let first = page.first_line().as_u64();
        for b in 0..LineAddr::PER_PAGE / BLOCK_LINES {
            let mask = (new >> (b * BLOCK_LINES)) as u16;
            if mask != 0 {
                blocks.insert_block(first + b * BLOCK_LINES, mask);
            }
        }
    }

    /// The tracked entry for `line`, registering it in the block index
    /// when first seen.
    fn tracked_entry(&mut self, line: LineAddr) -> &mut LineDirInfo {
        let i = line.index_in_page();
        let p = self.pages.entry(line.page()).or_insert_with(PageDir::boxed);
        if p.tracked >> i & 1 == 0 {
            p.tracked |= 1 << i;
            self.blocks.insert(line);
        }
        &mut p.lines[i]
    }

    /// Records that `core` fetched `line` (it becomes a sharer).
    pub fn record_read(&mut self, line: LineAddr, core: CoreId) {
        self.tracked_entry(line).sharers.insert(core);
    }

    /// Records that `core` fetched every line of `page` in `mask` (bit
    /// `i`: the page's `i`-th line), as [`DirectoryState::record_read`]
    /// on each would, with one page lookup and one block-index insert per
    /// 16-line block.
    pub fn record_page_reads(&mut self, page: PageAddr, mask: u128, core: CoreId) {
        if mask == 0 {
            return;
        }
        let p = self.pages.entry(page).or_insert_with(PageDir::boxed);
        for i in bits(mask) {
            p.lines[i].sharers.insert(core);
        }
        let new = mask & !p.tracked;
        Self::track(&mut self.blocks, p, page, new);
    }

    /// Marks `line` as resident in the aggregate cache capacity without
    /// naming a sharer (steady-state warm-up; affects read classification
    /// only).
    pub fn mark_resident(&mut self, line: LineAddr) {
        self.tracked_entry(line).resident = true;
    }

    /// Marks every line of `page` resident, as
    /// [`DirectoryState::mark_resident`] on each would.
    pub fn mark_page_resident(&mut self, page: PageAddr) {
        let p = self.pages.entry(page).or_insert_with(PageDir::boxed);
        for info in &mut p.lines {
            info.resident = true;
        }
        let new = !p.tracked;
        Self::track(&mut self.blocks, p, page, new);
    }

    /// The tracked record for `line`, if any.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<&LineDirInfo> {
        let i = line.index_in_page();
        self.pages
            .get(&line.page())
            .filter(|p| p.tracked >> i & 1 == 1)
            .map(|p| &p.lines[i])
    }

    /// Where a read of `line` is served from, in one lookup: the dirty
    /// owner if there is one, else a cache if the line is shared or
    /// resident, else memory.
    pub fn read_source(&self, line: LineAddr) -> ReadSource {
        match self.lookup(line) {
            Some(LineDirInfo {
                owner: Some(owner), ..
            }) => ReadSource::Owner(*owner),
            Some(i) if i.resident || !i.sharers.is_empty() => ReadSource::Cache,
            _ => ReadSource::Memory,
        }
    }

    /// The sharers of `line` (empty if untracked).
    pub fn sharers_of(&self, line: LineAddr) -> CoreSet {
        self.lookup(line)
            .map_or(CoreSet::empty(), |i| i.sharers.clone())
    }

    /// The dirty owner of `line`, if any.
    pub fn owner_of(&self, line: LineAddr) -> Option<CoreId> {
        self.lookup(line).and_then(|i| i.owner)
    }

    /// Expands `wsig` against the tracked lines and returns the union of
    /// sharers of every matching line, excluding `committer`. This is the
    /// directory-local `inval_vec` computation of §3.2.1 — performed by all
    /// participating directories in parallel when the signature pair
    /// arrives, before the `g` message shows up.
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the directory's.
    pub fn sharers_matching(&self, wsig: &Signature, committer: CoreId) -> CoreSet {
        let mut set = CoreSet::empty();
        let mut matched = 0u64;
        self.blocks.visit_blocks(wsig, |base, mask| {
            let (page, at) = page_of_block(base);
            let p = &self.pages[&page];
            for j in bits(mask.into()) {
                let info = &p.lines[at + j];
                set.union_with(&info.sharers);
                if let Some(o) = info.owner {
                    set.insert(o);
                }
            }
            matched += mask.count_ones() as u64;
        });
        self.count_expansion(matched);
        set.remove(committer);
        set
    }

    /// The tracked lines matching `wsig`, ascending (signature expansion
    /// against the directory's tag array).
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the directory's.
    pub fn lines_matching(&self, wsig: &Signature) -> Vec<LineAddr> {
        let mut v = Vec::new();
        self.blocks.visit(wsig, |line| v.push(line));
        v.sort_unstable();
        v
    }

    /// Applies a committed chunk's writes: every tracked line matching
    /// `wsig` becomes dirty-owned by `committer` with no other sharers.
    /// Returns the number of lines updated.
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the directory's.
    pub fn apply_commit(&mut self, wsig: &Signature, committer: CoreId) -> u32 {
        let mut n = 0;
        let pages = &mut self.pages;
        self.blocks.visit_blocks(wsig, |base, mask| {
            let (page, at) = page_of_block(base);
            let p = pages.get_mut(&page).expect("index tracks the page");
            for j in bits(mask.into()) {
                let info = &mut p.lines[at + j];
                info.sharers = CoreSet::single(committer);
                info.owner = Some(committer);
            }
            n += mask.count_ones();
        });
        self.count_expansion(n as u64);
        n
    }

    /// Removes `core` from the sharers of `line` (cache eviction /
    /// invalidation acknowledgement). A line left with no sharer, owner
    /// or residency is forgotten, and its page with its last line.
    pub fn drop_sharer(&mut self, line: LineAddr, core: CoreId) {
        let i = line.index_in_page();
        let Entry::Occupied(mut e) = self.pages.entry(line.page()) else {
            return;
        };
        let p = e.get_mut();
        if p.tracked >> i & 1 == 0 {
            return;
        }
        let info = &mut p.lines[i];
        info.sharers.remove(core);
        if info.owner == Some(core) {
            info.owner = None;
        }
        if info.sharers.is_empty() && info.owner.is_none() && !info.resident {
            p.tracked &= !(1 << i);
            self.blocks.remove(line);
            if p.tracked == 0 {
                e.remove();
            }
        }
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.tracked.count_ones() as usize)
            .sum()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates over all tracked lines.
    #[cfg(test)]
    fn tracked_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.pages
            .iter()
            .flat_map(|(page, p)| bits(p.tracked).map(|i| page.line(i as u64)))
    }
}

/// The page of the block starting at line `base`, and the block's first
/// line's index in it.
#[inline]
fn page_of_block(base: u64) -> (PageAddr, usize) {
    let line = LineAddr(base);
    (line.page(), line.index_in_page())
}

impl Default for DirectoryState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn sig_of(lines: &[u64]) -> Signature {
        Signature::from_lines(SignatureConfig::paper_default(), lines.iter().copied())
    }

    /// Checks the block index against the page records: it holds
    /// exactly the tracked lines, each in one non-empty block; every
    /// page record tracks a line, and an untracked line's record is the
    /// default.
    fn assert_index_consistent(d: &DirectoryState) {
        let tracked: BTreeSet<LineAddr> = d.tracked_lines().collect();
        assert_eq!(d.blocks.assert_consistent(), tracked);
        for (page, p) in &d.pages {
            assert_ne!(p.tracked, 0, "{page:?} tracks no line");
            for i in bits(!p.tracked) {
                let info = &p.lines[i];
                assert!(info.sharers.is_empty() && info.owner.is_none() && !info.resident);
            }
        }
    }

    #[test]
    fn line_records_stay_32_bytes() {
        assert!(std::mem::size_of::<LineDirInfo>() <= 32);
    }

    #[test]
    fn page_records_stay_4_kib_and_a_mask() {
        assert!(std::mem::size_of::<PageDir>() <= 4096 + 32);
    }

    #[test]
    fn dropping_a_pages_last_line_frees_the_page() {
        let mut d = DirectoryState::new();
        let page = PageAddr(3);
        d.record_page_reads(page, 1 << 5 | 1 << 100, CoreId(1));
        d.record_read(PageAddr(4).line(0), CoreId(2));
        assert_eq!(d.pages.len(), 2);
        d.drop_sharer(page.line(5), CoreId(1));
        assert!(d.pages.contains_key(&page), "line 100 is still tracked");
        d.drop_sharer(page.line(100), CoreId(1));
        assert!(!d.pages.contains_key(&page));
        assert_eq!(d.len(), 1);
        assert_index_consistent(&d);
        // A resident page stays; a page call with no line makes none.
        d.mark_page_resident(page);
        d.drop_sharer(page.line(7), CoreId(1));
        d.record_page_reads(PageAddr(9), 0, CoreId(1));
        assert_eq!(d.pages.len(), 2);
        assert_eq!(d.len(), 129);
    }

    #[test]
    fn read_tracking_accumulates_sharers() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(1), CoreId(0));
        d.record_read(LineAddr(1), CoreId(3));
        let s = d.sharers_of(LineAddr(1));
        assert!(s.contains(CoreId(0)) && s.contains(CoreId(3)));
        assert_eq!(d.sharers_of(LineAddr(2)), CoreSet::empty());
    }

    #[test]
    fn sharers_matching_excludes_committer() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(10), CoreId(1));
        d.record_read(LineAddr(10), CoreId(2));
        d.record_read(LineAddr(11), CoreId(4));
        let w = sig_of(&[10]);
        let s = d.sharers_matching(&w, CoreId(2));
        assert!(s.contains(CoreId(1)));
        assert!(!s.contains(CoreId(2)), "committer must be excluded");
        assert!(!s.contains(CoreId(4)), "line 11 does not match");
    }

    #[test]
    fn sharers_matching_includes_dirty_owner() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(5), CoreId(1));
        d.apply_commit(&sig_of(&[5]), CoreId(7));
        let s = d.sharers_matching(&sig_of(&[5]), CoreId(0));
        assert!(s.contains(CoreId(7)));
    }

    #[test]
    fn apply_commit_transfers_ownership() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(20), CoreId(1));
        d.record_read(LineAddr(20), CoreId(2));
        let n = d.apply_commit(&sig_of(&[20]), CoreId(9));
        assert_eq!(n, 1);
        assert_eq!(d.owner_of(LineAddr(20)), Some(CoreId(9)));
        assert_eq!(d.sharers_of(LineAddr(20)), CoreSet::single(CoreId(9)));
        assert_eq!(d.expansion_counts(), (1, 1));
    }

    #[test]
    fn lines_matching_expansion() {
        let mut d = DirectoryState::new();
        for l in [1u64, 2, 3, 50] {
            d.record_read(LineAddr(l), CoreId(0));
        }
        let matches = d.lines_matching(&sig_of(&[2, 50]));
        assert!(matches.contains(&LineAddr(2)));
        assert!(matches.contains(&LineAddr(50)));
        // Signature expansion is conservative: it may include aliases, but
        // must include all true members.
        assert!(matches.len() >= 2);
    }

    #[test]
    fn drop_sharer_garbage_collects() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(1), CoreId(0));
        d.drop_sharer(LineAddr(1), CoreId(0));
        assert!(d.is_empty());
        // The block index is garbage-collected with the line.
        assert!(d.blocks.assert_consistent().is_empty());
        // Dropping an untracked line is a no-op.
        d.drop_sharer(LineAddr(2), CoreId(0));
    }

    #[test]
    fn drop_owner_clears_ownership() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(8), CoreId(3));
        d.apply_commit(&sig_of(&[8]), CoreId(3));
        d.record_read(LineAddr(8), CoreId(4));
        d.drop_sharer(LineAddr(8), CoreId(3));
        assert_eq!(d.owner_of(LineAddr(8)), None);
        assert!(d.sharers_of(LineAddr(8)).contains(CoreId(4)));
    }

    /// The three-lookup classification `read_source` replaces:
    /// `owner_of`, then `sharers_of`, then whether the line is tracked
    /// as resident, shared or owned.
    fn three_lookup_source(d: &DirectoryState, line: LineAddr) -> ReadSource {
        let resident = d
            .lookup(line)
            .is_some_and(|i| i.resident || !i.sharers.is_empty() || i.owner.is_some());
        if let Some(owner) = d.owner_of(line) {
            ReadSource::Owner(owner)
        } else if !d.sharers_of(line).is_empty() || resident {
            ReadSource::Cache
        } else {
            ReadSource::Memory
        }
    }

    #[test]
    fn read_source_agrees_with_three_lookups() {
        let mut d = DirectoryState::new();
        d.mark_resident(LineAddr(1)); // resident only
        d.record_read(LineAddr(2), CoreId(3)); // shared
        d.record_read(LineAddr(3), CoreId(4));
        d.apply_commit(&sig_of(&[3]), CoreId(4)); // dirty
        d.mark_resident(LineAddr(5));
        d.apply_commit(&sig_of(&[5]), CoreId(6)); // dirty and resident
        let lines = [1, 2, 3, 4, 5].map(LineAddr);
        let check = |d: &DirectoryState, want: [ReadSource; 5]| {
            for (line, want) in lines.into_iter().zip(want) {
                assert_eq!(d.read_source(line), want, "{line:?}");
                assert_eq!(d.read_source(line), three_lookup_source(d, line));
            }
        };
        use ReadSource::{Cache, Memory, Owner};
        check(
            &d,
            [Cache, Cache, Owner(CoreId(4)), Memory, Owner(CoreId(6))],
        );
        // Dropping the last sharer forgets a line unless it is resident;
        // dropping the owner leaves a resident line cache-served.
        d.drop_sharer(LineAddr(2), CoreId(3));
        d.drop_sharer(LineAddr(3), CoreId(4));
        d.drop_sharer(LineAddr(5), CoreId(6));
        check(&d, [Cache, Memory, Memory, Memory, Cache]);
        // A commit turns shared and resident-only lines dirty.
        d.record_read(LineAddr(2), CoreId(1));
        d.apply_commit(&sig_of(&[1, 2]), CoreId(2));
        check(
            &d,
            [Owner(CoreId(2)), Owner(CoreId(2)), Memory, Memory, Cache],
        );
    }

    #[test]
    fn indexed_expansion_matches_full_scan() {
        // The block index must produce exactly the same expansion as a
        // brute-force scan over every tracked line.
        let mut d = DirectoryState::new();
        for l in 0..2000u64 {
            d.record_read(LineAddr(l * 3 + 1), CoreId((l % 7) as u16));
        }
        assert_index_consistent(&d);
        let w = sig_of(&[4, 301, 1501, 99_999]);
        let brute: Vec<LineAddr> = {
            let mut v: Vec<LineAddr> = d.tracked_lines().filter(|l| w.test(l.as_u64())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(d.lines_matching(&w), brute);
        let mut brute_sharers = CoreSet::empty();
        for l in &brute {
            brute_sharers = brute_sharers.union(&d.sharers_of(*l));
        }
        assert_eq!(
            d.sharers_matching(&w, CoreId(63)),
            brute_sharers.without(CoreId(63))
        );
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_geometry_panics() {
        let mut d = DirectoryState::new(); // indexed for paper_default
        d.record_read(LineAddr(42), CoreId(2));
        let other = Signature::from_lines(SignatureConfig::new(1024, 4), [42u64]);
        d.sharers_matching(&other, CoreId(0));
    }

    /// Geometries of the model test: the paper's, the ablation and golden
    /// ones, and the extremes (one 64-bit bank, sixty-four banks).
    const GEOMETRIES: [(u32, u32); 10] = [
        (2048, 4),
        (512, 4),
        (256, 4),
        (1024, 2),
        (256, 1),
        (3072, 6),
        (1024, 16),
        (512, 8),
        (64, 1),
        (4096, 64),
    ];

    /// A line from one of three dense 256-line regions (one straddling a
    /// 4096-line boundary, one above 2^32) or a scattered line.
    fn pick(sel: u64) -> LineAddr {
        const REGIONS: [u64; 3] = [0x40_0000, 0x80_0f80, 0x1_2345_6700];
        match sel % 4 {
            3 => LineAddr(sel >> 2),
            r => LineAddr(REGIONS[r as usize] + (sel >> 2) % 256),
        }
    }

    /// Reference record: sharers, owner, resident.
    type Model = BTreeMap<LineAddr, (BTreeSet<u16>, Option<u16>, bool)>;

    fn model_drop(m: &mut Model, line: LineAddr, core: u16) {
        if let Some((sharers, owner, resident)) = m.get_mut(&line) {
            sharers.remove(&core);
            if *owner == Some(core) {
                *owner = None;
            }
            if sharers.is_empty() && owner.is_none() && !*resident {
                m.remove(&line);
            }
        }
    }

    fn assert_matches_model(d: &DirectoryState, m: &Model) {
        assert_eq!(d.len(), m.len());
        let pages: BTreeSet<PageAddr> = m.keys().map(|l| l.page()).collect();
        assert_eq!(d.pages.keys().copied().collect::<BTreeSet<_>>(), pages);
        for (&line, (sharers, owner, resident)) in m {
            let want: CoreSet = sharers.iter().map(|&c| CoreId(c)).collect();
            assert_eq!(d.sharers_of(line), want, "{line:?}");
            assert_eq!(d.owner_of(line), owner.map(CoreId), "{line:?}");
            let source = match owner {
                Some(o) => ReadSource::Owner(CoreId(*o)),
                None if *resident || !sharers.is_empty() => ReadSource::Cache,
                None => ReadSource::Memory,
            };
            assert_eq!(d.read_source(line), source, "{line:?}");
        }
        assert_index_consistent(d);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random record/mark/drop/commit sequences, line or page at
            /// a time, against a `BTreeMap` model expanded by brute-force
            /// `Signature::test`: every expansion, commit count and
            /// per-line state agrees, the pages held are the model's, and
            /// the block index stays exact.
            #[test]
            fn prop_matches_brute_force_model(
                geometry in 0usize..GEOMETRIES.len(),
                ops in proptest::collection::vec((0u8..11, any::<u64>(), 0u16..70), 1..250),
            ) {
                let (sig_bits, banks) = GEOMETRIES[geometry];
                let cfg = SignatureConfig::new(sig_bits, banks);
                let mut d = DirectoryState::with_signature_config(cfg);
                let mut m = Model::new();
                for (op, sel, core) in ops {
                    let line = pick(sel);
                    match op {
                        0..=2 => {
                            d.record_read(line, CoreId(core));
                            m.entry(line).or_default().0.insert(core);
                        }
                        3 => {
                            d.mark_resident(line);
                            m.entry(line).or_default().2 = true;
                        }
                        9 => {
                            d.mark_page_resident(line.page());
                            for i in 0..LineAddr::PER_PAGE {
                                m.entry(line.page().line(i)).or_default().2 = true;
                            }
                        }
                        10 => {
                            // Dense to sparse (and empty) masks.
                            let wide = u128::from(sel) << 64 | u128::from(sel.reverse_bits());
                            let mask = wide >> (core % 100);
                            d.record_page_reads(line.page(), mask, CoreId(core));
                            for i in bits(mask) {
                                m.entry(line.page().line(i as u64)).or_default().0.insert(core);
                            }
                        }
                        4..=5 => {
                            // Mostly a tracked line and its lowest sharer,
                            // so lines and pages empty out.
                            let (line, core) = match m.iter().nth(sel as usize % m.len().max(1)) {
                                Some((&l, (sharers, _, _))) if op == 4 => {
                                    (l, sharers.first().copied().unwrap_or(core))
                                }
                                _ => (line, core),
                            };
                            d.drop_sharer(line, CoreId(core));
                            model_drop(&mut m, line, core);
                        }
                        6..=8 => {
                            // A W signature over a few lines near the
                            // tracked ones (and, by aliasing, others).
                            let n = 1 + sel % 24;
                            let w = Signature::from_lines(
                                cfg,
                                (0..n).map(|k| pick(sel.rotate_left(k as u32 * 7) ^ k).as_u64()),
                            );
                            let hits: Vec<LineAddr> =
                                m.keys().copied().filter(|l| w.test(l.as_u64())).collect();
                            prop_assert_eq!(d.lines_matching(&w), hits.clone());
                            let mut want = CoreSet::empty();
                            for l in &hits {
                                let (sharers, owner, _) = &m[l];
                                for &c in sharers.iter().chain(owner.iter()) {
                                    want.insert(CoreId(c));
                                }
                            }
                            want.remove(CoreId(core));
                            prop_assert_eq!(d.sharers_matching(&w, CoreId(core)), want);
                            if op == 8 {
                                prop_assert_eq!(d.apply_commit(&w, CoreId(core)) as usize, hits.len());
                                for l in &hits {
                                    let e = m.get_mut(l).expect("hit is tracked");
                                    e.0 = BTreeSet::from([core]);
                                    e.1 = Some(core);
                                }
                                assert_matches_model(&d, &m);
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                assert_matches_model(&d, &m);
            }
        }
    }
}
