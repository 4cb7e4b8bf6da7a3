//! The signature register itself.

use std::fmt;

use crate::config::SignatureConfig;
use crate::hashing::{bank_hash, is_line_granular};

/// A hardware address signature: a banked Bloom encoding of a set of
/// cache-line addresses.
///
/// All operations are conservative in the Bulk sense: [`Signature::test`]
/// and [`Signature::intersects`] may return `true` for addresses/sets that
/// were never inserted (aliasing), but never return `false` for ones that
/// were.
///
/// # Examples
///
/// ```
/// use sb_sigs::{Signature, SignatureConfig};
///
/// let cfg = SignatureConfig::paper_default();
/// let w = Signature::from_lines(cfg, [10, 20, 30]);
/// assert!(w.test(20));
/// assert!(!w.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    cfg: SignatureConfig,
    words: Vec<u64>,
    /// Exact number of `insert` calls (hardware keeps a similar counter to
    /// estimate occupancy); not part of the encoded set.
    inserted: u32,
}

impl Signature {
    /// Creates an empty signature.
    pub fn new(cfg: SignatureConfig) -> Self {
        Signature {
            cfg,
            words: vec![0; cfg.total_words()],
            inserted: 0,
        }
    }

    /// Creates a signature containing every line produced by `lines`.
    pub fn from_lines<I: IntoIterator<Item = u64>>(cfg: SignatureConfig, lines: I) -> Self {
        let mut s = Signature::new(cfg);
        for l in lines {
            s.insert(l);
        }
        s
    }

    /// The geometry this signature was built with.
    pub fn config(&self) -> SignatureConfig {
        self.cfg
    }

    /// Inserts a line address.
    #[inline]
    pub fn insert(&mut self, line: u64) {
        let wpb = self.cfg.words_per_bank();
        let bank_bits = self.cfg.bits_per_bank();
        for bank in 0..self.cfg.banks() {
            let bit = bank_hash(line, bank, bank_bits);
            let word = bank as usize * wpb + (bit / 64) as usize;
            self.words[word] |= 1u64 << (bit % 64);
        }
        self.inserted = self.inserted.saturating_add(1);
    }

    /// Membership test. Never produces a false negative.
    #[inline]
    pub fn test(&self, line: u64) -> bool {
        let wpb = self.cfg.words_per_bank();
        let bank_bits = self.cfg.bits_per_bank();
        for bank in 0..self.cfg.banks() {
            let bit = bank_hash(line, bank, bank_bits);
            let word = bank as usize * wpb + (bit / 64) as usize;
            if self.words[word] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Whether no line was ever inserted (exact, not probabilistic).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every line.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Conservative set-intersection test: `false` guarantees the two
    /// encoded sets are disjoint; `true` means they *may* overlap.
    ///
    /// Per the Bulk intersection rule, the sets may overlap only if the
    /// bitwise AND is non-empty in **every** bank (a shared address sets one
    /// common bit per bank).
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different geometry.
    #[inline]
    pub fn intersects(&self, other: &Signature) -> bool {
        assert_eq!(self.cfg, other.cfg, "signature geometry mismatch");
        let wpb = self.cfg.words_per_bank();
        for bank in 0..self.cfg.banks() as usize {
            let mut nonzero = false;
            for w in 0..wpb {
                if self.words[bank * wpb + w] & other.words[bank * wpb + w] != 0 {
                    nonzero = true;
                    break;
                }
            }
            if !nonzero {
                return false;
            }
        }
        true
    }

    /// In-place union: afterwards `self` encodes a superset of both inputs.
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different geometry.
    pub fn union_with(&mut self, other: &Signature) {
        assert_eq!(self.cfg, other.cfg, "signature geometry mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.inserted = self.inserted.saturating_add(other.inserted);
    }

    /// Iterates over the set bit indices of bank `bank`, ascending.
    ///
    /// A line can only pass [`Signature::test`] if its bit is set in every
    /// bank. An index that groups the lines it holds by their key in one
    /// bank therefore expands a signature by visiting only the groups of
    /// that bank's set bits, instead of testing every line; `sb-mem`'s
    /// block index, shared by its directories and caches, does this.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range for this geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// use sb_sigs::{bank_hash, Signature, SignatureConfig};
    ///
    /// let cfg = SignatureConfig::paper_default();
    /// let s = Signature::from_lines(cfg, [7, 9]);
    /// let bits: Vec<u32> = s.bank_set_bits(0).collect();
    /// assert!(bits.contains(&bank_hash(7, 0, cfg.bits_per_bank())));
    /// assert!(bits.contains(&bank_hash(9, 0, cfg.bits_per_bank())));
    /// ```
    pub fn bank_set_bits(&self, bank: u32) -> impl Iterator<Item = u32> + '_ {
        assert!(bank < self.cfg.banks(), "bank out of range");
        let wpb = self.cfg.words_per_bank();
        let base = bank as usize * wpb;
        self.words[base..base + wpb]
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| {
                let mut w = word;
                std::iter::from_fn(move || {
                    if w == 0 {
                        None
                    } else {
                        let bit = w.trailing_zeros();
                        w &= w - 1;
                        Some(wi as u32 * 64 + bit)
                    }
                })
            })
    }

    /// Raw bit `index` of bank `bank`.
    #[inline]
    fn bit(&self, bank: u32, index: u32) -> bool {
        let word = bank as usize * self.cfg.words_per_bank() + (index / 64) as usize;
        self.words[word] & (1u64 << (index % 64)) != 0
    }

    /// Block decode: the subset of `candidates` that passes
    /// [`Signature::test`], where bit `j` of `candidates` stands for line
    /// `base + j` of an aligned block and `keys` are that block's
    /// [`block_keys`](crate::block_keys). Needs no hashing: each other
    /// bank is one bit test, and each line-granular bank contributes the
    /// block's 16-bit group of the bank, permuted by the key's low bits
    /// (see [`is_line_granular`](crate::is_line_granular)).
    ///
    /// # Examples
    ///
    /// ```
    /// use sb_sigs::{block_keys, Signature, SignatureConfig};
    ///
    /// let cfg = SignatureConfig::paper_default();
    /// let w = Signature::from_lines(cfg, [64 + 3, 64 + 9]);
    /// let keys: Vec<u32> = block_keys(cfg, 64).collect();
    /// let m = w.block_matches(&keys, 0xffff);
    /// assert_eq!(m & (1 << 3 | 1 << 9), 1 << 3 | 1 << 9);
    /// for j in 0..16 {
    ///     assert_eq!(m >> j & 1 == 1, w.test(64 + j));
    /// }
    /// ```
    #[inline]
    pub fn block_matches(&self, keys: &[u32], candidates: u16) -> u16 {
        debug_assert_eq!(keys.len(), self.cfg.banks() as usize);
        // One bit test per coarse bank rejects most blocks outright.
        for (bank, &key) in keys.iter().enumerate() {
            if !is_line_granular(bank as u32) && !self.bit(bank as u32, key) {
                return 0;
            }
        }
        let wpb = self.cfg.words_per_bank();
        let mut m = candidates;
        for (bank, &key) in keys.iter().enumerate() {
            if !is_line_granular(bank as u32) {
                continue;
            }
            let word = self.words[bank * wpb + (key / 64) as usize];
            m &= xor_permute((word >> ((key % 64) & !15)) as u16, key & 15);
            if m == 0 {
                break;
            }
        }
        m
    }

    /// Number of `insert` calls performed (duplicates counted).
    pub fn inserted_count(&self) -> u32 {
        self.inserted
    }

    /// Fraction of bits set, averaged over banks — a direct measure of how
    /// saturated (and thus alias-prone) the signature is.
    pub fn occupancy(&self) -> f64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.cfg.total_bits() as f64
    }

    /// Estimated probability that a membership test on a *random* absent
    /// line returns a false positive: the product over banks of each bank's
    /// fill fraction.
    pub fn false_positive_rate(&self) -> f64 {
        let wpb = self.cfg.words_per_bank();
        let bank_bits = self.cfg.bits_per_bank() as f64;
        let mut p = 1.0;
        for bank in 0..self.cfg.banks() as usize {
            let set: u32 = self.words[bank * wpb..(bank + 1) * wpb]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            p *= set as f64 / bank_bits;
        }
        p
    }
}

/// `w` with its bit positions XOR-permuted by `x < 16`: bit `j` of the
/// result is bit `j ^ x` of `w`.
#[inline]
fn xor_permute(mut w: u16, x: u32) -> u16 {
    if x & 1 != 0 {
        w = (w & 0x5555) << 1 | (w >> 1) & 0x5555;
    }
    if x & 2 != 0 {
        w = (w & 0x3333) << 2 | (w >> 2) & 0x3333;
    }
    if x & 4 != 0 {
        w = (w & 0x0f0f) << 4 | (w >> 4) & 0x0f0f;
    }
    if x & 8 != 0 {
        w = w.rotate_left(8);
    }
    w
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("bits", &self.cfg.total_bits())
            .field("banks", &self.cfg.banks())
            .field("inserted", &self.inserted)
            .field("occupancy", &format!("{:.3}", self.occupancy()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SignatureConfig {
        SignatureConfig::paper_default()
    }

    #[test]
    fn no_false_negatives() {
        let mut s = Signature::new(cfg());
        let lines: Vec<u64> = (0..200).map(|i| i * 37 + 5).collect();
        for &l in &lines {
            s.insert(l);
        }
        for &l in &lines {
            assert!(s.test(l), "false negative on {l}");
        }
        assert_eq!(s.inserted_count(), 200);
    }

    #[test]
    fn empty_signature_matches_nothing() {
        let s = Signature::new(cfg());
        assert!(s.is_empty());
        for l in 0..100 {
            assert!(!s.test(l));
        }
        assert_eq!(s.false_positive_rate(), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut s = Signature::from_lines(cfg(), [1, 2, 3]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.inserted_count(), 0);
        assert!(!s.test(1));
    }

    #[test]
    fn disjoint_small_sets_usually_do_not_intersect() {
        // With 2 Kbit signatures and ~16 lines each, the false intersection
        // probability is tiny; over 100 trials expect no more than a couple.
        let mut false_hits = 0;
        for trial in 0..100u64 {
            let a = Signature::from_lines(cfg(), (0..16).map(|i| trial * 1000 + i));
            let b = Signature::from_lines(cfg(), (0..16).map(|i| trial * 1000 + 500 + i));
            if a.intersects(&b) {
                false_hits += 1;
            }
        }
        assert!(
            false_hits <= 2,
            "too many false intersections: {false_hits}"
        );
    }

    #[test]
    fn overlapping_sets_always_intersect() {
        for trial in 0..50u64 {
            let mut a = Signature::from_lines(cfg(), (0..30).map(|i| trial * 999 + i));
            let b = Signature::from_lines(cfg(), [trial * 999 + 7, 1_000_000 + trial]);
            assert!(a.intersects(&b));
            // Union makes the overlap permanent.
            a.union_with(&b);
            assert!(a.test(1_000_000 + trial));
        }
    }

    #[test]
    fn intersect_is_symmetric() {
        let a = Signature::from_lines(cfg(), 0..40);
        let b = Signature::from_lines(cfg(), 35..80);
        assert_eq!(a.intersects(&b), b.intersects(&a));
        assert!(a.intersects(&b));
    }

    #[test]
    fn occupancy_grows_with_inserts() {
        let mut s = Signature::new(cfg());
        let mut last = 0.0;
        for chunk in 0..5 {
            for i in 0..50 {
                s.insert(chunk * 1_000 + i * 13);
            }
            let occ = s.occupancy();
            assert!(occ >= last);
            last = occ;
        }
        assert!(last > 0.05 && last < 0.5, "occupancy {last}");
    }

    #[test]
    fn false_positive_rate_tracks_saturation() {
        let small = Signature::from_lines(cfg(), 0..8);
        let big = Signature::from_lines(cfg(), 0..512);
        assert!(small.false_positive_rate() < big.false_positive_rate());
        assert!(big.false_positive_rate() <= 1.0);
    }

    #[test]
    fn smaller_signatures_alias_more() {
        // Dense scattered sets: the small signature saturates and aliases,
        // the paper's 2 Kbit configuration keeps most pairs disjoint.
        let small_cfg = SignatureConfig::new(256, 4);
        let mut small_hits = 0;
        let mut big_hits = 0;
        for trial in 0..100u64 {
            let a_lines: Vec<u64> = (0..12)
                .map(|i: u64| (trial * 7 + i).wrapping_mul(0x9E37_79B9) ^ (i << 23))
                .collect();
            let b_lines: Vec<u64> = (0..12)
                .map(|i: u64| (trial * 7 + i + 500).wrapping_mul(0x6C62_72E5) ^ (i << 19))
                .collect();
            let a_s = Signature::from_lines(small_cfg, a_lines.iter().copied());
            let b_s = Signature::from_lines(small_cfg, b_lines.iter().copied());
            let a_b = Signature::from_lines(cfg(), a_lines.iter().copied());
            let b_b = Signature::from_lines(cfg(), b_lines.iter().copied());
            small_hits += a_s.intersects(&b_s) as u32;
            big_hits += a_b.intersects(&b_b) as u32;
        }
        assert!(
            small_hits > big_hits,
            "expected more aliasing in small sigs: small={small_hits} big={big_hits}"
        );
    }

    #[test]
    fn sequential_disjoint_footprints_rarely_alias() {
        // The locality-preserving encoding keeps realistic chunk
        // footprints (sequential runs over a few pages) from aliasing.
        let mut hits = 0;
        for trial in 0..100u64 {
            let a = Signature::from_lines(cfg(), (0..128).map(|i| trial * 65_536 + i));
            let b = Signature::from_lines(cfg(), (0..128).map(|i| trial * 65_536 + 30_000 + i));
            hits += a.intersects(&b) as u32;
        }
        assert!(hits <= 10, "sequential footprints alias too much: {hits}");
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_geometry_panics() {
        let a = Signature::new(SignatureConfig::new(2048, 4));
        let b = Signature::new(SignatureConfig::new(1024, 4));
        a.intersects(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = Signature::from_lines(cfg(), [1]);
        assert!(format!("{s:?}").contains("Signature"));
    }

    #[test]
    fn bank_set_bits_are_exactly_the_inserted_hashes() {
        use std::collections::HashSet;
        let c = cfg();
        let lines: Vec<u64> = (0..50).map(|i| i * 131 + 7).collect();
        let s = Signature::from_lines(c, lines.iter().copied());
        for bank in 0..c.banks() {
            let got: HashSet<u32> = s.bank_set_bits(bank).collect();
            let want: HashSet<u32> = lines
                .iter()
                .map(|&l| bank_hash(l, bank, c.bits_per_bank()))
                .collect();
            assert_eq!(got, want, "bank {bank}");
        }
        assert_eq!(Signature::new(c).bank_set_bits(0).count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_cfg() -> SignatureConfig {
        SignatureConfig::new(2048, 4)
    }

    proptest! {
        /// Fundamental soundness: inserted lines always test positive.
        #[test]
        fn prop_no_false_negatives(lines in proptest::collection::vec(any::<u64>(), 0..300)) {
            let s = Signature::from_lines(small_cfg(), lines.iter().copied());
            for &l in &lines {
                prop_assert!(s.test(l));
            }
        }

        /// If the true sets share an element, intersection must say so.
        #[test]
        fn prop_intersection_sound(
            a in proptest::collection::vec(any::<u64>(), 1..100),
            b in proptest::collection::vec(any::<u64>(), 1..100),
            pick in any::<proptest::sample::Index>(),
        ) {
            let shared = a[pick.index(a.len())];
            let sa = Signature::from_lines(small_cfg(), a.iter().copied());
            let mut b2 = b.clone();
            b2.push(shared);
            let sb = Signature::from_lines(small_cfg(), b2.iter().copied());
            prop_assert!(sa.intersects(&sb));
        }

        /// Union encodes a superset of both inputs.
        #[test]
        fn prop_union_superset(
            a in proptest::collection::vec(any::<u64>(), 0..100),
            b in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let sa = Signature::from_lines(small_cfg(), a.iter().copied());
            let sb = Signature::from_lines(small_cfg(), b.iter().copied());
            let mut u = sa.clone();
            u.union_with(&sb);
            for &l in a.iter().chain(b.iter()) {
                prop_assert!(u.test(l));
            }
        }

        /// The block identity `block_matches` relies on holds bank by
        /// bank for every geometry (the ablation and golden ones, one
        /// 64-bit bank, sixty-four banks), and `block_matches` agrees
        /// with `test` on all 16 lines of the block.
        #[test]
        fn prop_block_decode_is_exact(
            base in any::<u64>(),
            offsets in proptest::collection::vec(0u64..48, 0..24),
            scattered in proptest::collection::vec(any::<u64>(), 0..24),
            candidates in any::<u16>(),
        ) {
            use crate::hashing::{block_keys, is_line_granular, BLOCK_LINES};
            let base = base.min(u64::MAX - 2 * BLOCK_LINES) & !(BLOCK_LINES - 1);
            for (bits, banks) in [
                (2048, 4), (512, 4), (1024, 4), (4096, 4), (256, 4), (1024, 2),
                (256, 1), (3072, 6), (512, 8), (1024, 16), (64, 1), (4096, 64),
            ] {
                let cfg = SignatureConfig::new(bits, banks);
                let keys: Vec<u32> = block_keys(cfg, base).collect();
                for (bank, &key) in keys.iter().enumerate() {
                    let bank = bank as u32;
                    for j in 0..BLOCK_LINES {
                        let want = if is_line_granular(bank) { key ^ j as u32 } else { key };
                        prop_assert_eq!(bank_hash(base + j, bank, cfg.bits_per_bank()), want);
                    }
                }
                // W holds lines of the block, its neighbours, and
                // scattered lines that alias into it.
                let w = Signature::from_lines(
                    cfg,
                    offsets
                        .iter()
                        .map(|&o| (base + o).wrapping_sub(BLOCK_LINES))
                        .chain(scattered.iter().copied()),
                );
                let m = w.block_matches(&keys, candidates);
                for j in 0..BLOCK_LINES {
                    let want = candidates >> j & 1 == 1 && w.test(base + j);
                    prop_assert_eq!(m >> j & 1 == 1, want, "{}/{} line {}", bits, banks, j);
                }
            }
        }
    }
}
