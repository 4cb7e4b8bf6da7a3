//! Identifiers for the participants of the simulated machine.
//!
//! The machine is a tiled multicore (Figure 1 of the paper): tile `i` hosts
//! core `i`, its private L1/L2, and directory module `i`. Cores and
//! directory modules are distinct protocol actors, so they get distinct
//! newtypes even though they share tile numbering.
//!
//! The set types ([`CoreSet`], [`DirSet`], [`TileSet`]) are thin wrappers
//! over one [`WideMask`]: a bitset that keeps a set whose members share
//! one aligned 64-tile window inline as (window, word), and spills only a
//! set spanning two or more windows, into words shared between clones.
//! Machines up to 64 tiles — the paper's largest configuration and the
//! golden-snapshot regime — keep every set in window 0 and never
//! allocate; on wider machines (the scaling sweeps) a lone sharer, a
//! committed line's owner or any other one-window set stays inline, and
//! cloning a spilled set bumps a refcount. Either way a set is 16 bytes.

use std::fmt;
use std::sync::Arc;

/// A processor core (equivalently, the tile it lives on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Tile index as `usize` for table lookups.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A directory module (equivalently, the tile it lives on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirId(pub u16);

impl DirId {
    /// Tile index as `usize` for table lookups.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DirId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// The bit of `bit` within its 64-bit window.
#[inline]
const fn bit_in_window(bit: u16) -> u64 {
    1u64 << (bit & 63)
}

/// A bitset over tile-sized indices: one inline window, or shared
/// spilled words.
///
/// The index space is cut into aligned 64-bit *windows* (tiles 0–63,
/// 64–127, …). A set whose members all fall in one window is stored
/// inline as that window and its word, so a lone sharer at core 200 or
/// the single owner of a committed line costs no allocation, and every
/// set on a machine of up to 64 tiles is one word of window 0. Only a
/// set spanning two or more windows spills: its words go into a vector
/// behind an `Arc`, which a clone shares by bumping a refcount and a
/// mutation copies only while it is shared (`Arc::make_mut`). The two
/// forms share one enum, whose tag fits beside the window, so a set is
/// 16 bytes and a directory page's column of 128 sharer sets is 2 KiB.
///
/// The representation is canonical, so the derived `PartialEq`, `Hash`
/// and `Debug` follow set contents:
/// - empty: window 0, word 0;
/// - one window: that window and its non-zero word;
/// - two or more windows: a spill indexed by window with no trailing
///   zero word.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WideMask(Repr);

/// The two forms of a [`WideMask`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Repr {
    /// Every member lies in window `win`: bit `i` of `word` is member
    /// `64 * win + i`.
    One { win: u16, word: u64 },
    /// Every word of a set spanning two or more windows, by window.
    Many(Arc<Vec<u64>>),
}

impl Default for WideMask {
    fn default() -> Self {
        WideMask::empty()
    }
}

impl WideMask {
    /// The empty mask.
    pub const fn empty() -> Self {
        WideMask(Repr::One { win: 0, word: 0 })
    }

    /// A mask with one bit set.
    pub const fn single(bit: u16) -> Self {
        WideMask(Repr::One {
            win: bit >> 6,
            word: bit_in_window(bit),
        })
    }

    /// The canonical mask holding `word` in window `win`.
    fn inline(win: u16, word: u64) -> Self {
        if word == 0 {
            WideMask::empty()
        } else {
            WideMask(Repr::One { win, word })
        }
    }

    /// The word of window `w` (0 outside the set's windows).
    #[inline]
    fn word_at(&self, w: usize) -> u64 {
        match &self.0 {
            &Repr::One { win, word } if w == win as usize => word,
            Repr::One { .. } => 0,
            Repr::Many(v) => v.get(w).copied().unwrap_or(0),
        }
    }

    /// One past the highest window that may hold a member.
    fn windows(&self) -> usize {
        match &self.0 {
            Repr::One { win, .. } => *win as usize + 1,
            Repr::Many(v) => v.len(),
        }
    }

    /// The non-zero words with their windows, ascending.
    fn words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (one, many) = match &self.0 {
            &Repr::One { win, word } => (Some((win as usize, word)), None),
            Repr::Many(v) => (None, Some(v)),
        };
        let spilled = many.into_iter().flat_map(|v| v.iter().copied().enumerate());
        one.into_iter()
            .chain(spilled)
            .filter(|&(_, word)| word != 0)
    }

    /// ORs `word` into window `w`, spilling when the set comes to span
    /// two windows. A spill shared with a clone is copied only when
    /// `word` adds a member.
    fn or_word(&mut self, w: usize, word: u64) {
        if word == 0 {
            return;
        }
        match &mut self.0 {
            Repr::One { win, word: have } if w == *win as usize => *have |= word,
            Repr::One { word: 0, .. } => *self = WideMask::inline(w as u16, word),
            &mut Repr::One { win, word: have } => {
                let mut v = vec![0; w.max(win as usize) + 1];
                v[win as usize] = have;
                v[w] = word;
                self.0 = Repr::Many(Arc::new(v));
            }
            Repr::Many(spill) => {
                if spill.get(w).is_some_and(|have| have & word == word) {
                    return;
                }
                let v = Arc::make_mut(spill);
                if v.len() <= w {
                    v.resize(w + 1, 0);
                }
                v[w] |= word;
            }
        }
    }

    /// The canonical mask of `words` (window-indexed). It walks them
    /// once to find whether two windows are non-zero, and only then
    /// collects them into a spill.
    fn from_words(words: impl Iterator<Item = u64> + Clone) -> Self {
        let mut live = words.clone().enumerate().filter(|&(_, word)| word != 0);
        match (live.next(), live.next()) {
            (None, _) => WideMask::empty(),
            (Some((w, word)), None) => WideMask::inline(w as u16, word),
            (Some(_), Some(_)) => {
                let mut v: Vec<u64> = words.collect();
                while v.last() == Some(&0) {
                    v.pop();
                }
                WideMask(Repr::Many(Arc::new(v)))
            }
        }
    }

    /// Restores the canonical form of a spilled set that lost members:
    /// back inline once at most one window is non-zero, otherwise with
    /// its trailing zero words dropped.
    fn normalize(&mut self) {
        let Repr::Many(spill) = &mut self.0 else {
            return;
        };
        let mut live = spill.iter().enumerate().filter(|(_, word)| **word != 0);
        match (live.next(), live.next()) {
            (None, _) => *self = WideMask::empty(),
            (Some((w, &word)), None) => *self = WideMask::inline(w as u16, word),
            (Some(_), Some(_)) => {
                if spill.last() == Some(&0) {
                    let v = Arc::make_mut(spill);
                    while v.last() == Some(&0) {
                        v.pop();
                    }
                }
            }
        }
    }

    /// Sets `bit`.
    #[inline]
    pub fn insert(&mut self, bit: u16) {
        match &mut self.0 {
            Repr::One { win, word } if bit >> 6 == *win => *word |= bit_in_window(bit),
            _ => self.or_word((bit >> 6) as usize, bit_in_window(bit)),
        }
    }

    /// Clears `bit`.
    #[inline]
    pub fn remove(&mut self, bit: u16) {
        match &mut self.0 {
            Repr::One { win, word } if bit >> 6 == *win => {
                *word &= !bit_in_window(bit);
                if *word == 0 {
                    *win = 0;
                }
            }
            Repr::One { .. } => {}
            Repr::Many(spill) => {
                let w = (bit >> 6) as usize;
                if spill
                    .get(w)
                    .is_some_and(|word| word & bit_in_window(bit) != 0)
                {
                    Arc::make_mut(spill)[w] &= !bit_in_window(bit);
                    self.normalize();
                }
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, bit: u16) -> bool {
        self.word_at((bit >> 6) as usize) & bit_in_window(bit) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        match &self.0 {
            Repr::One { word, .. } => word.count_ones(),
            Repr::Many(v) => v.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::One { word: 0, .. })
    }

    /// In-place union: `self |= other`. Allocates nothing while the
    /// result fits one window or `self` is empty (it then shares
    /// `other`'s spill), and a union that adds nothing to a spilled set
    /// leaves its spill shared.
    pub fn union_with(&mut self, other: &WideMask) {
        if let (Repr::One { win, word }, &Repr::One { win: w, word: o }) = (&mut self.0, &other.0) {
            if *win == w {
                *word |= o;
                return;
            }
        }
        if self.is_empty() {
            *self = other.clone();
        } else {
            for (w, word) in other.words() {
                self.or_word(w, word);
            }
        }
    }

    /// Union as a new mask.
    pub fn union(&self, other: &WideMask) -> WideMask {
        let mut m = self.clone();
        m.union_with(other);
        m
    }

    /// The mask of `f(own word, other's word)` over `self`'s windows:
    /// an operation whose result lies within `self`.
    fn within(&self, other: &WideMask, f: impl Fn(u64, u64) -> u64 + Clone) -> WideMask {
        match &self.0 {
            &Repr::One { win, word } => WideMask::inline(win, f(word, other.word_at(win as usize))),
            Repr::Many(v) => WideMask::from_words(
                v.iter()
                    .enumerate()
                    .map(move |(w, &word)| f(word, other.word_at(w))),
            ),
        }
    }

    /// Intersection as a new mask.
    pub fn intersect(&self, other: &WideMask) -> WideMask {
        self.within(other, |a, b| a & b)
    }

    /// Difference (`self & !other`) as a new mask.
    pub fn difference(&self, other: &WideMask) -> WideMask {
        self.within(other, |a, b| a & !b)
    }

    /// Whether the masks share any set bit (without materializing the
    /// intersection).
    pub fn intersects(&self, other: &WideMask) -> bool {
        if let (Repr::One { win, word }, Repr::One { win: w, word: o }) = (&self.0, &other.0) {
            return win == w && word & o != 0;
        }
        self.words().any(|(w, word)| word & other.word_at(w) != 0)
    }

    /// The lowest set bit, if any.
    #[inline]
    pub fn lowest(&self) -> Option<u16> {
        let (w, word) = self.words().next()?;
        Some((w as u32 * 64 + word.trailing_zeros()) as u16)
    }

    /// The lowest set bit strictly above `bit`, if any.
    pub fn next_after(&self, bit: u16) -> Option<u16> {
        let next = bit as usize + 1;
        // Remaining bits of the window `next` falls in, then later ones.
        let (first, skip) = (next / 64, next % 64);
        (first..self.windows()).find_map(|w| {
            let mut word = self.word_at(w);
            if w == first {
                word &= !0u64 << skip;
            }
            (word != 0).then(|| (w * 64) as u16 + word.trailing_zeros() as u16)
        })
    }

    /// Iterates the set bits in increasing order. The iterator owns a
    /// clone of the mask, so it never borrows `self` (callers may mutate
    /// the originating structure while iterating, as they could when the
    /// sets were `Copy`). The clone is two words, or a refcount bump of
    /// a spilled set's shared words: iterating never allocates.
    pub fn iter(&self) -> MaskIter {
        let (cur, base, spill) = match &self.0 {
            &Repr::One { win, word } => (word, win * 64, None),
            Repr::Many(v) => (0, 0, Some(Arc::clone(v))),
        };
        MaskIter {
            cur,
            base,
            spill,
            next_word: 0,
        }
    }
}

/// Iterator over the set bits of a [`WideMask`], ascending. It shares a
/// spilled mask's words rather than copying them.
#[derive(Clone, Debug)]
pub struct MaskIter {
    /// Unconsumed bits of the current word.
    cur: u64,
    /// Bit offset of the current word.
    base: u16,
    /// A spilled mask's words, still to visit from `next_word`.
    spill: Option<Arc<Vec<u64>>>,
    /// Index into `spill` of the next word to load.
    next_word: usize,
}

impl Iterator for MaskIter {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as u16;
                self.cur &= self.cur - 1;
                return Some(self.base + b);
            }
            let spill = self.spill.as_deref()?;
            self.cur = *spill.get(self.next_word)?;
            self.base = 64 * self.next_word as u16;
            self.next_word += 1;
        }
    }
}

/// A set of cores, inline while its members share one 64-core window
/// and spilled into shared words beyond (see [`WideMask`]).
///
/// This is the `inval_vec` of Table 1: the sharer processors that must be
/// invalidated when a group commits, built up incrementally as the `g`
/// message traverses the group.
///
/// # Examples
///
/// ```
/// use sb_mem::{CoreId, CoreSet};
///
/// let mut s = CoreSet::empty();
/// s.insert(CoreId(3));
/// s.insert(CoreId(200)); // a second window: the set spills
/// assert!(s.contains(CoreId(3)) && s.contains(CoreId(200)));
/// assert_eq!(s.len(), 2);
/// let others = s.without(CoreId(3));
/// assert_eq!(others.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CoreSet(WideMask);

impl CoreSet {
    /// The empty set.
    pub const fn empty() -> Self {
        CoreSet(WideMask::empty())
    }

    /// A set with a single member.
    pub fn single(c: CoreId) -> Self {
        CoreSet(WideMask::single(c.0))
    }

    /// Adds a core.
    #[inline]
    pub fn insert(&mut self, c: CoreId) {
        self.0.insert(c.0);
    }

    /// Removes a core.
    #[inline]
    pub fn remove(&mut self, c: CoreId) {
        self.0.remove(c.0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, c: CoreId) -> bool {
        self.0.contains(c.0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u32 {
        self.0.count()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &CoreSet) -> CoreSet {
        CoreSet(self.0.union(&other.0))
    }

    /// In-place set union (the hot path of directory signature
    /// expansion — no temporary set per visited line).
    #[inline]
    pub fn union_with(&mut self, other: &CoreSet) {
        self.0.union_with(&other.0);
    }

    /// A copy of the set with `c` removed.
    #[inline]
    pub fn without(&self, c: CoreId) -> CoreSet {
        let mut s = self.clone();
        s.remove(c);
        s
    }

    /// Iterates over members in increasing ID order. The iterator is
    /// self-contained (owns a clone that never allocates), like the old
    /// `Copy` sets.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> {
        self.0.iter().map(CoreId)
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = CoreSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// A set of directory modules, inline while its members share one
/// 64-module window and spilled into shared words beyond (see
/// [`WideMask`]).
///
/// This is the `g_vec` of Table 1: the directory modules in a chunk's read-
/// and write-sets, collected by the processor as the chunk executes.
///
/// # Examples
///
/// ```
/// use sb_mem::{DirId, DirSet};
///
/// let g: DirSet = [DirId(1), DirId(4), DirId(6)].into_iter().collect();
/// assert_eq!(g.lowest(), Some(DirId(1)));
/// assert_eq!(g.next_after(DirId(1)), Some(DirId(4)));
/// assert_eq!(g.next_after(DirId(6)), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DirSet(WideMask);

impl DirSet {
    /// The empty set.
    pub const fn empty() -> Self {
        DirSet(WideMask::empty())
    }

    /// A set with a single member.
    pub fn single(d: DirId) -> Self {
        DirSet(WideMask::single(d.0))
    }

    /// Adds a directory.
    #[inline]
    pub fn insert(&mut self, d: DirId) {
        self.0.insert(d.0);
    }

    /// Removes a directory.
    #[inline]
    pub fn remove(&mut self, d: DirId) {
        self.0.remove(d.0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, d: DirId) -> bool {
        self.0.contains(d.0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u32 {
        self.0.count()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &DirSet) -> DirSet {
        DirSet(self.0.union(&other.0))
    }

    /// In-place set union.
    #[inline]
    pub fn union_with(&mut self, other: &DirSet) {
        self.0.union_with(&other.0);
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(&self, other: &DirSet) -> DirSet {
        DirSet(self.0.intersect(&other.0))
    }

    /// Set difference: the members of `self` not in `other`.
    #[inline]
    pub fn difference(&self, other: &DirSet) -> DirSet {
        DirSet(self.0.difference(&other.0))
    }

    /// The lowest-numbered member — the baseline group-leader policy
    /// (§3.2 of the paper).
    #[inline]
    pub fn lowest(&self) -> Option<DirId> {
        self.0.lowest().map(DirId)
    }

    /// The next member strictly after `d` in increasing ID order — the
    /// fixed traversal order of the group-formation `g` message.
    #[inline]
    pub fn next_after(&self, d: DirId) -> Option<DirId> {
        self.0.next_after(d.0).map(DirId)
    }

    /// Iterates over members in increasing ID order. The iterator is
    /// self-contained (owns a clone that never allocates), like the old
    /// `Copy` sets.
    pub fn iter(&self) -> impl Iterator<Item = DirId> {
        self.0.iter().map(DirId)
    }
}

impl FromIterator<DirId> for DirSet {
    fn from_iter<I: IntoIterator<Item = DirId>>(iter: I) -> Self {
        let mut s = DirSet::empty();
        for d in iter {
            s.insert(d);
        }
        s
    }
}

/// A set of tiles, used as the resource footprint of schedulable events
/// (`ChoiceMeta` in `sb-proto`). Same inline-window/shared-spill storage
/// as [`CoreSet`]/[`DirSet`]; tiles are raw `u16` indices because footprints
/// mix core- and directory-side resources of the same tile.
///
/// # Examples
///
/// ```
/// use sb_mem::TileSet;
///
/// let a: TileSet = [0u16, 2].into_iter().collect();
/// let b = TileSet::single(2);
/// assert!(a.intersects(&b));
/// assert!(!a.intersects(&TileSet::single(1)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TileSet(WideMask);

impl TileSet {
    /// The empty set.
    pub const fn empty() -> Self {
        TileSet(WideMask::empty())
    }

    /// A set with a single member.
    pub fn single(t: u16) -> Self {
        TileSet(WideMask::single(t))
    }

    /// Adds a tile.
    #[inline]
    pub fn insert(&mut self, t: u16) {
        self.0.insert(t);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: u16) -> bool {
        self.0.contains(t)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u32 {
        self.0.count()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the sets share a tile — the overlap test DPOR independence
    /// is built on.
    #[inline]
    pub fn intersects(&self, other: &TileSet) -> bool {
        self.0.intersects(&other.0)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = u16> {
        self.0.iter()
    }
}

impl FromIterator<u16> for TileSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut s = TileSet::empty();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coreset_basics() {
        let mut s = CoreSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        assert_eq!(s.len(), 2);
        assert!(s.contains(CoreId(0)) && s.contains(CoreId(63)));
        s.remove(CoreId(0));
        assert!(!s.contains(CoreId(0)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![CoreId(63)]);
        assert_eq!(CoreSet::single(CoreId(5)).len(), 1);
    }

    #[test]
    fn coreset_union_without() {
        let a: CoreSet = [CoreId(1), CoreId(2)].into_iter().collect();
        let b: CoreSet = [CoreId(2), CoreId(3)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.without(CoreId(2)).len(), 2);
    }

    #[test]
    fn coreset_across_the_64_bit_boundary() {
        let mut s = CoreSet::empty();
        for c in [0u16, 63, 64, 65, 127, 128, 1000, 1023] {
            s.insert(CoreId(c));
        }
        assert_eq!(s.len(), 8);
        assert!(s.contains(CoreId(64)) && s.contains(CoreId(1023)));
        assert!(!s.contains(CoreId(66)) && !s.contains(CoreId(512)));
        assert_eq!(
            s.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 1000, 1023],
            "iteration stays ascending across word boundaries"
        );
        // Removing the high members normalizes back to the inline word:
        // the set equals (and hashes like) one that never spilled.
        for c in [64u16, 65, 127, 128, 1000, 1023] {
            s.remove(CoreId(c));
        }
        let inline: CoreSet = [CoreId(0), CoreId(63)].into_iter().collect();
        assert_eq!(s, inline);
    }

    #[test]
    fn wide_union_intersect_difference() {
        let a: DirSet = [DirId(1), DirId(70), DirId(200)].into_iter().collect();
        let b: DirSet = [DirId(1), DirId(200), DirId(300)].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(
            a.intersect(&b).iter().collect::<Vec<_>>(),
            vec![DirId(1), DirId(200)]
        );
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![DirId(70)]);
        assert_eq!(
            b.difference(&a).iter().collect::<Vec<_>>(),
            vec![DirId(300)]
        );
    }

    #[test]
    fn dirset_lowest_and_traversal() {
        let g: DirSet = [DirId(1), DirId(4), DirId(6)].into_iter().collect();
        assert_eq!(g.lowest(), Some(DirId(1)));
        assert_eq!(g.next_after(DirId(1)), Some(DirId(4)));
        assert_eq!(g.next_after(DirId(4)), Some(DirId(6)));
        assert_eq!(g.next_after(DirId(6)), None);
        assert_eq!(g.next_after(DirId(0)), Some(DirId(1)));
        assert_eq!(DirSet::empty().lowest(), None);
    }

    #[test]
    fn dirset_edge_bit_63() {
        let g = DirSet::single(DirId(63));
        assert_eq!(g.lowest(), Some(DirId(63)));
        assert_eq!(g.next_after(DirId(62)), Some(DirId(63)));
        assert_eq!(g.next_after(DirId(63)), None);
    }

    #[test]
    fn dirset_traversal_across_words() {
        let g: DirSet = [DirId(63), DirId(64), DirId(130), DirId(515)]
            .into_iter()
            .collect();
        assert_eq!(g.lowest(), Some(DirId(63)));
        assert_eq!(g.next_after(DirId(63)), Some(DirId(64)));
        assert_eq!(g.next_after(DirId(64)), Some(DirId(130)));
        assert_eq!(g.next_after(DirId(130)), Some(DirId(515)));
        assert_eq!(g.next_after(DirId(515)), None);
        let high = DirSet::single(DirId(512));
        assert_eq!(high.lowest(), Some(DirId(512)));
        assert_eq!(high.next_after(DirId(0)), Some(DirId(512)));
    }

    #[test]
    fn dirset_intersect_union() {
        let a: DirSet = [DirId(0), DirId(2), DirId(3)].into_iter().collect();
        let b: DirSet = [DirId(2), DirId(3), DirId(7)].into_iter().collect();
        assert_eq!(
            a.intersect(&b).iter().collect::<Vec<_>>(),
            vec![DirId(2), DirId(3)]
        );
        assert_eq!(a.union(&b).len(), 4);
        // Collision module = lowest common module (§3.2.1).
        assert_eq!(a.intersect(&b).lowest(), Some(DirId(2)));
    }

    #[test]
    fn tileset_intersects() {
        let a: TileSet = [0u16, 65].into_iter().collect();
        assert!(a.intersects(&TileSet::single(65)));
        assert!(a.intersects(&TileSet::single(0)));
        assert!(!a.intersects(&TileSet::single(64)));
        assert!(!a.intersects(&TileSet::empty()));
        assert!(!TileSet::empty().intersects(&TileSet::empty()));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 65]);
    }

    #[test]
    fn spilled_empty_equals_inline_empty() {
        let mut s = CoreSet::single(CoreId(100));
        s.remove(CoreId(100));
        assert!(s.is_empty());
        assert_eq!(s, CoreSet::empty());
        // Hash equality follows structural equality under normalization.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &CoreSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&s), h(&CoreSet::empty()));
    }

    #[test]
    fn sets_stay_two_words() {
        use std::mem::size_of;
        assert_eq!(size_of::<WideMask>(), 16);
        assert_eq!(size_of::<CoreSet>(), 16);
        assert_eq!(size_of::<DirSet>(), 16);
        assert_eq!(size_of::<TileSet>(), 16);
    }

    /// The shared words of a spilled set; `None` for an inline one.
    fn spill(s: &CoreSet) -> Option<&Arc<Vec<u64>>> {
        match &s.0 .0 {
            Repr::Many(v) => Some(v),
            Repr::One { .. } => None,
        }
    }

    #[test]
    fn one_window_sets_stay_inline_and_clones_share_spills() {
        let mut s = CoreSet::single(CoreId(200));
        s.insert(CoreId(255));
        assert!(spill(&s).is_none(), "tiles 200 and 255 share window 3");
        s.insert(CoreId(256));
        let shared = spill(&s).cloned().expect("tile 256 opens window 4");
        let mut copy = s.clone();
        assert!(Arc::ptr_eq(&shared, spill(&copy).unwrap()));
        copy.union_with(&CoreSet::single(CoreId(200)));
        assert!(
            Arc::ptr_eq(&shared, spill(&copy).unwrap()),
            "a union that adds nothing leaves the spill shared"
        );
        copy.insert(CoreId(7));
        assert!(!Arc::ptr_eq(&shared, spill(&copy).unwrap()));
        assert!(!s.contains(CoreId(7)), "the write copied the shared words");
        s.remove(CoreId(256));
        assert!(
            matches!(s.0 .0, Repr::One { win: 3, .. }),
            "back to one window, back inline"
        );
    }

    #[test]
    fn displays() {
        assert_eq!(CoreId(7).to_string(), "P7");
        assert_eq!(DirId(7).to_string(), "D7");
    }
}
