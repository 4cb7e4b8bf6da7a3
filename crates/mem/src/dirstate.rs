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
//! line, holding the page's lines field by field — a tracked mask, a
//! resident mask, an owner column and a sharer column. A machine warms
//! its directories a page at a time ([`DirectoryState::mark_page_resident`],
//! [`DirectoryState::record_page_reads`]), and an expansion finds each
//! matched 16-line block's entries with one page lookup.

use std::cell::Cell;
use std::collections::hash_map::Entry;

use sb_engine::FxHashMap;
use sb_sigs::{Signature, SignatureConfig, BLOCK_LINES};

use crate::addr::{LineAddr, PageAddr};
use crate::blockindex::BlockIndex;
use crate::ids::{CoreId, CoreSet};

/// Lines per page.
const PAGE_LINES: usize = LineAddr::PER_PAGE as usize;

/// Owner-column entry of a line with no dirty owner. Core ids run below
/// the core count, a `u16`, so no core has this id.
const NO_OWNER: u16 = u16::MAX;

/// The directory state of one page's lines, a column per field. An
/// untracked line reads as unshared, unowned and not resident in every
/// column, so only tracking needs the `tracked` mask.
#[derive(Clone, Debug)]
struct PageDir {
    /// Bit `i` set: the page's line `i` is tracked. Never 0 in the map.
    tracked: u128,
    /// Bit `i` set: line `i` is resident somewhere in the machine's
    /// aggregate cache capacity (steady-state modelling), so reads are
    /// served cache-to-cache even when its sharer set is empty.
    /// Resident-only lines are never invalidation targets.
    resident: u128,
    /// The id of the core that owns line `i` dirty, or `NO_OWNER`.
    owners: [u16; PAGE_LINES],
    /// The cores whose caches may hold line `i`.
    sharers: [CoreSet; PAGE_LINES],
}

impl PageDir {
    /// A page record with no tracked line, on the heap.
    fn boxed() -> Box<Self> {
        Box::new(PageDir {
            tracked: 0,
            resident: 0,
            owners: [NO_OWNER; PAGE_LINES],
            sharers: [const { CoreSet::empty() }; PAGE_LINES],
        })
    }

    /// The dirty owner of line `i`, if any.
    #[inline]
    fn owner(&self, i: usize) -> Option<CoreId> {
        let o = self.owners[i];
        (o != NO_OWNER).then_some(CoreId(o))
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
    /// [`DirectoryState::PAGE_RECORD_BYTES`] (2,336) however few lines
    /// it tracks; the machine warms whole pages (the shared pool, and
    /// private regions that are whole pages), so on its workloads the
    /// records are full.
    pages: FxHashMap<PageAddr, Box<PageDir>>,
    /// Every tracked line sits in exactly one block of this index.
    blocks: BlockIndex,
    /// `sharers_matching` + `apply_commit` calls so far.
    expansions: Cell<u64>,
    /// Lines those calls matched.
    lines_matched: Cell<u64>,
}

impl DirectoryState {
    /// Host bytes of one page record (see
    /// [`DirectoryState::page_records`]), without the map entry and heap
    /// header that hold it.
    pub const PAGE_RECORD_BYTES: usize = std::mem::size_of::<PageDir>();

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

    /// `line`'s page record and its index there, tracking the line (and
    /// registering it in the block index) when first seen.
    fn track_line(&mut self, line: LineAddr) -> (&mut PageDir, usize) {
        let i = line.index_in_page();
        let p = self.pages.entry(line.page()).or_insert_with(PageDir::boxed);
        if p.tracked >> i & 1 == 0 {
            p.tracked |= 1 << i;
            self.blocks.insert(line);
        }
        (p, i)
    }

    /// Records that `core` fetched `line` (it becomes a sharer).
    pub fn record_read(&mut self, line: LineAddr, core: CoreId) {
        let (p, i) = self.track_line(line);
        p.sharers[i].insert(core);
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
            p.sharers[i].insert(core);
        }
        let new = mask & !p.tracked;
        Self::track(&mut self.blocks, p, page, new);
    }

    /// Marks `line` as resident in the aggregate cache capacity without
    /// naming a sharer (steady-state warm-up; affects read classification
    /// only).
    pub fn mark_resident(&mut self, line: LineAddr) {
        let (p, i) = self.track_line(line);
        p.resident |= 1 << i;
    }

    /// Marks every line of `page` resident, as
    /// [`DirectoryState::mark_resident`] on each would.
    pub fn mark_page_resident(&mut self, page: PageAddr) {
        let p = self.pages.entry(page).or_insert_with(PageDir::boxed);
        p.resident = !0;
        let new = !p.tracked;
        Self::track(&mut self.blocks, p, page, new);
    }

    /// The record of `line`'s page, if any, and the line's index in it.
    /// An untracked line's entries read as unshared, unowned and not
    /// resident, so callers need not test `tracked`.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<(&PageDir, usize)> {
        let p = self.pages.get(&line.page())?;
        Some((p, line.index_in_page()))
    }

    /// Where a read of `line` is served from, in one lookup: the dirty
    /// owner if there is one, else a cache if the line is shared or
    /// resident, else memory.
    pub fn read_source(&self, line: LineAddr) -> ReadSource {
        let Some((p, i)) = self.lookup(line) else {
            return ReadSource::Memory;
        };
        match p.owner(i) {
            Some(owner) => ReadSource::Owner(owner),
            None if p.resident >> i & 1 == 1 || !p.sharers[i].is_empty() => ReadSource::Cache,
            None => ReadSource::Memory,
        }
    }

    /// The sharers of `line` (empty if untracked).
    pub fn sharers_of(&self, line: LineAddr) -> CoreSet {
        self.lookup(line)
            .map_or(CoreSet::empty(), |(p, i)| p.sharers[i].clone())
    }

    /// The dirty owner of `line`, if any.
    pub fn owner_of(&self, line: LineAddr) -> Option<CoreId> {
        self.lookup(line).and_then(|(p, i)| p.owner(i))
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
                set.union_with(&p.sharers[at + j]);
                if let Some(o) = p.owner(at + j) {
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
    /// Panics if `wsig`'s geometry is not the directory's, or if
    /// `committer` is core `u16::MAX`, which no machine has.
    pub fn apply_commit(&mut self, wsig: &Signature, committer: CoreId) -> u32 {
        assert_ne!(committer.0, NO_OWNER, "no machine has core {committer}");
        let mut n = 0;
        let pages = &mut self.pages;
        self.blocks.visit_blocks(wsig, |base, mask| {
            let (page, at) = page_of_block(base);
            let p = pages.get_mut(&page).expect("index tracks the page");
            for j in bits(mask.into()) {
                p.sharers[at + j] = CoreSet::single(committer);
                p.owners[at + j] = committer.0;
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
        p.sharers[i].remove(core);
        if p.owners[i] == core.0 {
            p.owners[i] = NO_OWNER;
        }
        if p.sharers[i].is_empty() && p.owners[i] == NO_OWNER && p.resident >> i & 1 == 0 {
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

    /// Number of page records held: pages with a tracked line.
    pub fn page_records(&self) -> usize {
        self.pages.len()
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
    /// page record tracks a line, and an untracked line is unshared,
    /// unowned and not resident in every column.
    fn assert_index_consistent(d: &DirectoryState) {
        let tracked: BTreeSet<LineAddr> = d.tracked_lines().collect();
        assert_eq!(d.blocks.assert_consistent(), tracked);
        for (page, p) in &d.pages {
            assert_ne!(p.tracked, 0, "{page:?} tracks no line");
            assert_eq!(
                p.resident & !p.tracked,
                0,
                "{page:?} untracked but resident"
            );
            for i in bits(!p.tracked) {
                assert!(
                    p.sharers[i].is_empty() && p.owners[i] == NO_OWNER,
                    "{page:?} line {i}"
                );
            }
        }
    }

    #[test]
    fn line_records_stay_32_bytes() {
        // A line's record is its slot in each column, one owner id and
        // one sharer set, plus its bit in the two masks.
        let line = std::mem::size_of::<u16>() + std::mem::size_of::<CoreSet>();
        assert!(line <= 32);
        assert_eq!(
            std::mem::size_of::<PageDir>(),
            2 * std::mem::size_of::<u128>() + PAGE_LINES * line
        );
    }

    #[test]
    fn page_records_stay_4_kib_and_a_mask() {
        // The bound of the old record-per-line layout.
        assert!(std::mem::size_of::<PageDir>() <= 4096 + 32);
    }

    #[test]
    fn page_records_stay_2336_bytes() {
        // Two masks, 128 two-byte owners and 128 sixteen-byte sets.
        assert!(std::mem::size_of::<PageDir>() <= 2336);
        assert_eq!(
            DirectoryState::PAGE_RECORD_BYTES,
            std::mem::size_of::<PageDir>()
        );
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
    #[should_panic(expected = "no machine has core P65535")]
    fn apply_commit_rejects_the_no_owner_id() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(20), CoreId(1));
        d.apply_commit(&sig_of(&[20]), CoreId(NO_OWNER));
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
        let resident = d.lookup(line).is_some_and(|(p, i)| {
            p.resident >> i & 1 == 1 || !p.sharers[i].is_empty() || p.owner(i).is_some()
        });
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

    /// Core-id universes of the model test, as `(first id, id count)`:
    /// the three of `tests/coreset_model.rs` (three windows; the widest
    /// machine the sweeps run; two windows far from window 0) and the
    /// highest ids a `u16`-sized machine has, up to 65,534 — one below
    /// the owner column's `NO_OWNER` — across windows 1022 and 1023.
    const UNIVERSES: [(u16, u16); 4] = [(0, 160), (0, 1024), (900, 100), (65_470, 65)];

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random record/mark/drop/commit sequences, line or page at
            /// a time, against a `BTreeMap` model expanded by brute-force
            /// `Signature::test`: every expansion, commit count and
            /// per-line state agrees, the pages held are the model's, and
            /// the block index stays exact. Each sequence runs once per
            /// core-id universe, so sharer sets spill and owners reach
            /// the highest ids.
            #[test]
            fn prop_matches_brute_force_model(
                geometry in 0usize..GEOMETRIES.len(),
                ops in proptest::collection::vec((0u8..11, any::<u64>(), any::<u16>()), 1..250),
            ) {
                let (sig_bits, banks) = GEOMETRIES[geometry];
                let cfg = SignatureConfig::new(sig_bits, banks);
                for (first, count) in UNIVERSES {
                    let ops = ops.iter().map(|&(op, sel, id)| (op, sel, first + id % count));
                    run_against_model(cfg, ops);
                }
            }
        }

        /// Applies `ops` to a directory of geometry `cfg` and to the
        /// model, checking them against each other as it goes.
        fn run_against_model(cfg: SignatureConfig, ops: impl Iterator<Item = (u8, u64, u16)>) {
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
                            m.entry(line.page().line(i as u64))
                                .or_default()
                                .0
                                .insert(core);
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
