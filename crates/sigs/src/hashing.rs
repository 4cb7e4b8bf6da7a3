//! Per-bank hash functions.
//!
//! The Bulk hardware derives each bank's index by *permuting and
//! bit-field-extracting* address bits rather than by avalanche hashing
//! (Ceze et al., ISCA 2006, Figure 2). This is essential, not cosmetic: a
//! chunk touches runs of nearby lines, and bit-field extraction maps a
//! whole run onto a handful of signature bits, keeping the signature
//! sparse. An avalanche hash would scatter every line to independent
//! random bits and saturate a 2 Kbit signature at a few hundred lines,
//! making the `Ri ∩ Wj` disambiguation test alias almost always.
//!
//! Bank `k` extracts an index window starting at bit `4k` of the line
//! address and XOR-folds in a mixed copy of the bits above the window, so
//! distant regions place pseudo-randomly while any ≤2^shift-line
//! neighbourhood stays compact. Lower banks are fine-grained (they
//! discriminate lines within a page); higher banks are coarse (they
//! discriminate regions); the all-banks-must-overlap intersection rule
//! then filters false positives from both ends.

use crate::config::SignatureConfig;

/// Lines in an aligned block of the block decode ([`block_keys`]).
pub const BLOCK_LINES: u64 = 16;

/// Bit of `line` at which bank `bank`'s index window starts. Wraps for
/// configurations with more than eight banks.
#[inline]
fn window_shift(bank: u32) -> u32 {
    (4 * bank) % 32
}

/// Whether bank `bank` indexes at line granularity: its window starts at
/// bit 0 (banks 0, 8, 16, …).
///
/// Every bank is at least 64 bits wide, so within an aligned
/// [`BLOCK_LINES`]-line block starting at `base`:
///
/// * a line-granular bank maps line `base + j` to
///   `bank_hash(base, bank, bits) ^ j` — the 16 lines cover one aligned
///   16-bit group of the bank, permuted by the low four bits of the key;
/// * every other bank maps all 16 lines to `bank_hash(base, bank, bits)`,
///   because its window starts at bit 4 or above and the fold reads only
///   bits above the window.
///
/// [`Signature::block_matches`](crate::Signature::block_matches) decodes
/// a whole block from these per-bank keys without hashing.
#[inline]
pub fn is_line_granular(bank: u32) -> bool {
    window_shift(bank) == 0
}

/// The per-bank keys of the aligned block starting at `base`:
/// `bank_hash(base, k, bits)` for every bank `k`, in bank order.
///
/// # Panics
///
/// Panics if `base` is not a multiple of [`BLOCK_LINES`].
///
/// # Examples
///
/// ```
/// use sb_sigs::{bank_hash, block_keys, SignatureConfig};
///
/// let cfg = SignatureConfig::paper_default();
/// let keys: Vec<u32> = block_keys(cfg, 4096).collect();
/// assert_eq!(keys.len(), 4);
/// // Bank 0 is line-granular: line 4096 + 5 sits at key ^ 5.
/// assert_eq!(bank_hash(4096 + 5, 0, 512), keys[0] ^ 5);
/// // Bank 1 is not: the whole block shares one bit.
/// assert_eq!(bank_hash(4096 + 5, 1, 512), keys[1]);
/// ```
pub fn block_keys(cfg: SignatureConfig, base: u64) -> impl Iterator<Item = u32> {
    assert!(
        base.is_multiple_of(BLOCK_LINES),
        "block base {base} is not aligned"
    );
    let bits = cfg.bits_per_bank();
    (0..cfg.banks()).map(move |k| bank_hash(base, k, bits))
}

/// Bit index in `[0, bank_bits)` for `line` in bank `bank`.
///
/// `bank_bits` must be a power of two (enforced by
/// [`SignatureConfig`](crate::SignatureConfig)).
///
/// # Examples
///
/// ```
/// use sb_sigs::bank_hash;
///
/// let i = bank_hash(0xdead_beef, 0, 512);
/// assert!(i < 512);
/// // Sequential lines stay compact in the coarse banks: 8 consecutive
/// // lines map to at most 2 distinct indices in bank 3.
/// let idxs: std::collections::HashSet<u32> =
///     (0..8u64).map(|l| bank_hash(1000 + l, 3, 512)).collect();
/// assert!(idxs.len() <= 2);
/// ```
#[inline]
pub fn bank_hash(line: u64, bank: u32, bank_bits: u32) -> u32 {
    debug_assert!(bank_bits.is_power_of_two());
    let index_bits = bank_bits.trailing_zeros();
    // Window start: bank 0 is finest (line granularity), higher banks
    // coarser.
    let shift = window_shift(bank);
    let window = (line >> shift) & (bank_bits as u64 - 1);
    // Fold the bits above the window through a multiplicative mix so that
    // distant regions land on uncorrelated indices. Within a run shorter
    // than 2^shift lines the fold is (nearly) constant, preserving
    // locality.
    let above = line >> (shift + index_bits);
    let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(bank as u64 + 1);
    let mut fold = above.wrapping_add(salt);
    fold = (fold ^ (fold >> 31)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    fold ^= fold >> 29;
    ((window ^ (fold & (bank_bits as u64 - 1))) & (bank_bits as u64 - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn in_range_for_all_banks() {
        for bank in 0..16 {
            for line in [0u64, 1, 0xffff_ffff, u64::MAX] {
                assert!(bank_hash(line, bank, 512) < 512);
                assert!(bank_hash(line, bank, 64) < 64);
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(bank_hash(1234, 2, 512), bank_hash(1234, 2, 512));
    }

    #[test]
    fn sequential_runs_stay_compact_in_coarse_banks() {
        // A 16-line sequential run (a typical chunk-access run) must not
        // saturate the coarse banks.
        for base in [0u64, 12_345, 1 << 30] {
            let bank2: HashSet<u32> = (0..16).map(|i| bank_hash(base + i, 2, 512)).collect();
            let bank3: HashSet<u32> = (0..16).map(|i| bank_hash(base + i, 3, 512)).collect();
            assert!(bank2.len() <= 3, "bank2 spread {}", bank2.len());
            assert!(bank3.len() <= 2, "bank3 spread {}", bank3.len());
        }
    }

    #[test]
    fn fine_bank_discriminates_within_a_page() {
        // Lines within one 128-line page get distinct bank-0 bits.
        let idxs: HashSet<u32> = (0..128u64).map(|l| bank_hash(4096 + l, 0, 512)).collect();
        assert_eq!(idxs.len(), 128, "bank 0 must be line-granular in a page");
    }

    #[test]
    fn distant_regions_place_differently() {
        // The same window offsets in far-apart regions must not collide
        // systematically: check that region pairs disagree in some bank.
        let mut all_same = 0;
        for r in 0..100u64 {
            let a = r * 1_000_000;
            let b = a + 77_777_777;
            let same = (0..4).all(|k| bank_hash(a, k, 512) == bank_hash(b, k, 512));
            all_same += same as u32;
        }
        assert!(all_same <= 1, "regions alias in every bank: {all_same}");
    }

    #[test]
    fn distribution_of_random_lines_is_roughly_uniform() {
        let bits = 64;
        let mut counts = vec![0u32; bits as usize];
        let n = 64_000u64;
        // Large-stride lines emulate random pages.
        for i in 0..n {
            let line = i.wrapping_mul(0x9E37_79B9) ^ (i << 21);
            counts[bank_hash(line, 1, bits) as usize] += 1;
        }
        let expected = n as f64 / bits as f64;
        for c in counts {
            let ratio = c as f64 / expected;
            assert!((0.5..1.5).contains(&ratio), "bucket skew: {ratio}");
        }
    }
}
