//! The W-signature expansion index shared by directories and caches.
//!
//! A committing chunk's W signature is expanded in two places: each
//! directory in the group matches it against its tracked lines (§3.2.1),
//! and each sharer's caches match it against their resident lines to
//! bulk-invalidate. Both keep the lines they hold in a [`BlockIndex`]:
//! the lines grouped into aligned [`BLOCK_LINES`]-line blocks, each
//! stored once with the mask of its held lines and its per-bank
//! signature keys ([`sb_sigs::block_keys`]). Blocks are grouped by their
//! key in one bank. An expansion visits only the groups of the W
//! signature's set bits in that bank and decodes each block there with
//! [`Signature::block_matches`] — a bit test per bank, no hashing — so it
//! yields exactly the lines [`Signature::test`] accepts.

use sb_sigs::{bank_hash, block_keys, is_line_granular, Signature, SignatureConfig, BLOCK_LINES};

use crate::addr::LineAddr;

/// A set of lines as aligned blocks, grouped by the blocks' key in one
/// bank. A block record is `stride` words: the block's first line (low
/// word, high word), the mask of its lines, and its key in every bank.
/// Records of one group sit back to back.
#[derive(Clone, Debug)]
pub(crate) struct BlockIndex {
    /// The signature geometry the keys are computed for; expanding a
    /// signature of another geometry panics.
    cfg: SignatureConfig,
    /// The bank whose key groups the blocks.
    group_bank: u32,
    /// Shift from that key to the group number: 4 when the bank is
    /// line-granular (a block then covers one aligned 16-bit group of
    /// its bits), else 0.
    group_shift: u32,
    /// Words per block record.
    stride: usize,
    /// The records of each group.
    groups: Vec<Vec<u32>>,
}

/// Record word holding the block's mask of lines.
const MASK_AT: usize = 2;
/// Record word where the keys start.
const KEYS_AT: usize = 3;

impl BlockIndex {
    /// An empty index for W signatures of geometry `cfg`.
    pub(crate) fn new(cfg: SignatureConfig) -> Self {
        // Bank 1 indexes whole blocks: consecutive blocks take distinct
        // keys and the fold scatters far regions, so the blocks spread
        // evenly over the groups and a W signature's set bits there name
        // little more than its own blocks. A one-bank geometry groups on
        // bank 0's 16-bit groups instead.
        let group_bank = if cfg.banks() > 1 { 1 } else { 0 };
        let group_shift = if is_line_granular(group_bank) { 4 } else { 0 };
        BlockIndex {
            cfg,
            group_bank,
            group_shift,
            stride: KEYS_AT + cfg.banks() as usize,
            groups: vec![Vec::new(); (cfg.bits_per_bank() >> group_shift) as usize],
        }
    }

    /// First line of the block containing `line`, and `line`'s bit in the
    /// block's mask.
    #[inline]
    fn block_of(line: LineAddr) -> (u64, u32) {
        let base = line.as_u64() & !(BLOCK_LINES - 1);
        (base, 1 << (line.as_u64() - base))
    }

    /// The group of the block starting at `base`.
    #[inline]
    fn group_of(&self, base: u64) -> usize {
        (bank_hash(base, self.group_bank, self.cfg.bits_per_bank()) >> self.group_shift) as usize
    }

    /// Index of the record of block `base` in `group`, in words.
    #[inline]
    fn find(&self, group: &[u32], base: u64) -> Option<usize> {
        group
            .chunks_exact(self.stride)
            .position(|r| r[0] == base as u32 && r[1] == (base >> 32) as u32)
            .map(|i| i * self.stride)
    }

    /// Adds a line, creating its block (and computing the block's keys)
    /// if it is the block's first line.
    pub(crate) fn insert(&mut self, line: LineAddr) {
        let (base, bit) = Self::block_of(line);
        self.insert_block(base, bit as u16);
    }

    /// Adds the lines of `mask` (bit `j`: line `base + j`) of the block
    /// starting at `base`, with one group lookup for all of them.
    pub(crate) fn insert_block(&mut self, base: u64, mask: u16) {
        debug_assert!(base.is_multiple_of(BLOCK_LINES) && mask != 0);
        let g = self.group_of(base);
        match self.find(&self.groups[g], base) {
            Some(at) => self.groups[g][at + MASK_AT] |= mask as u32,
            None => {
                let group = &mut self.groups[g];
                group.extend([base as u32, (base >> 32) as u32, mask as u32]);
                group.extend(block_keys(self.cfg, base));
            }
        }
    }

    /// Removes an indexed line, and its block with it when it was the
    /// block's last line.
    pub(crate) fn remove(&mut self, line: LineAddr) {
        let (base, bit) = Self::block_of(line);
        let g = self.group_of(base);
        let at = self
            .find(&self.groups[g], base)
            .expect("indexed line has a block");
        let group = &mut self.groups[g];
        group[at + MASK_AT] &= !bit;
        if group[at + MASK_AT] == 0 {
            let last = group.len() - self.stride;
            group.copy_within(last.., at);
            group.truncate(last);
        }
    }

    /// Calls `f` on every indexed line that passes `wsig.test`, once each
    /// and in no particular order.
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the index's.
    #[inline]
    pub(crate) fn visit(&self, wsig: &Signature, mut f: impl FnMut(LineAddr)) {
        self.visit_blocks(wsig, |base, mut m| {
            while m != 0 {
                f(LineAddr(base + m.trailing_zeros() as u64));
                m &= m - 1;
            }
        });
    }

    /// Calls `f(base, mask)` once for every block with indexed lines that
    /// pass `wsig.test`: `base` is the block's first line and `mask`
    /// (never 0) holds those lines (bit `j`: line `base + j`). Blocks
    /// come in no particular order.
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry is not the index's.
    #[inline]
    pub(crate) fn visit_blocks(&self, wsig: &Signature, mut f: impl FnMut(u64, u16)) {
        assert_eq!(wsig.config(), self.cfg, "signature geometry mismatch");
        let mut last = usize::MAX;
        for bit in wsig.bank_set_bits(self.group_bank) {
            let g = (bit >> self.group_shift) as usize;
            if g == last {
                continue;
            }
            last = g;
            for r in self.groups[g].chunks_exact(self.stride) {
                let m = wsig.block_matches(&r[KEYS_AT..], r[MASK_AT] as u16);
                if m != 0 {
                    f(r[0] as u64 | (r[1] as u64) << 32, m);
                }
            }
        }
    }

    /// Checks that every block sits in its group with its keys and a
    /// non-empty mask, and that no line is in two blocks; returns the
    /// indexed lines.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) -> std::collections::BTreeSet<LineAddr> {
        let mut seen = std::collections::BTreeSet::new();
        for (g, group) in self.groups.iter().enumerate() {
            assert_eq!(group.len() % self.stride, 0);
            for r in group.chunks_exact(self.stride) {
                let base = r[0] as u64 | (r[1] as u64) << 32;
                let mask = r[MASK_AT];
                assert!(
                    mask != 0 && mask <= 0xffff,
                    "block {base:#x} mask {mask:#x}"
                );
                assert_eq!(self.group_of(base), g, "block {base:#x} in the wrong group");
                assert!(r[KEYS_AT..].iter().copied().eq(block_keys(self.cfg, base)));
                for j in 0..BLOCK_LINES {
                    if mask >> j & 1 == 1 {
                        let line = LineAddr(base + j);
                        assert!(seen.insert(line), "{line:?} in two blocks");
                    }
                }
            }
        }
        seen
    }
}
