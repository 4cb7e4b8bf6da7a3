//! Address geometry: bytes, cache lines, pages.

use std::fmt;

/// Cache-line size in bytes (Table 2 of the paper: 32 B lines for both L1
/// and L2).
pub const LINE_BYTES: u64 = 32;

/// Virtual-memory page size in bytes.
pub const PAGE_BYTES: u64 = 4096;

/// A byte address in the simulated physical address space.
///
/// # Examples
///
/// ```
/// use sb_mem::{Addr, LINE_BYTES};
///
/// let a = Addr(100);
/// assert_eq!(a.line().as_u64(), 100 / LINE_BYTES);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this byte.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The page containing this byte.
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_BYTES)
    }

    /// Raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A cache-line address (byte address divided by [`LINE_BYTES`]).
///
/// Line addresses are the currency of the coherence layer: signatures,
/// directory entries and invalidations all operate on lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Raw line number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// First byte of the line.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The page containing this line (by division, so every line number
    /// has one).
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / LineAddr::PER_PAGE)
    }

    /// The line's index within its page.
    #[inline]
    pub(crate) const fn index_in_page(self) -> usize {
        (self.0 % LineAddr::PER_PAGE) as usize
    }

    /// Lines per page.
    pub const PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A set of line addresses, Fx-hashed (no per-process seed): for sets
/// that are probed by key and never iterated in an order-sensitive way.
pub type LineSet = sb_engine::FxHashSet<LineAddr>;

/// A virtual page number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(pub u64);

impl PageAddr {
    /// Raw page number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// First line of the page.
    #[inline]
    pub const fn first_line(self) -> LineAddr {
        LineAddr(self.0 * LineAddr::PER_PAGE)
    }

    /// The `i`-th line within the page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LineAddr::PER_PAGE`.
    #[inline]
    pub fn line(self, i: u64) -> LineAddr {
        assert!(i < LineAddr::PER_PAGE, "line index {i} out of page");
        LineAddr(self.0 * LineAddr::PER_PAGE + i)
    }
}

/// The pages that the `count` lines from `first` on cover, ascending,
/// each with the mask of those lines in it (bit `i`: the page's `i`-th
/// line).
///
/// # Examples
///
/// ```
/// use sb_mem::{page_masks, LineAddr, PageAddr};
///
/// let pages: Vec<_> = page_masks(LineAddr(126), 4).collect();
/// assert_eq!(pages, [(PageAddr(0), 0b11 << 126), (PageAddr(1), 0b11)]);
/// ```
pub fn page_masks(first: LineAddr, count: u64) -> impl Iterator<Item = (PageAddr, u128)> {
    // Bits `0..n` of a page mask.
    let below = |n: u64| {
        if n == LineAddr::PER_PAGE {
            u128::MAX
        } else {
            (1 << n) - 1
        }
    };
    let end = first.0 + count;
    let pages = if count == 0 {
        0..0
    } else {
        first.page().0..(end - 1) / LineAddr::PER_PAGE + 1
    };
    pages.map(move |p| {
        let start = p * LineAddr::PER_PAGE;
        let lo = first.0.max(start) - start;
        let hi = end.min(start + LineAddr::PER_PAGE) - start;
        (PageAddr(p), below(hi) & !below(lo))
    })
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_to_line_to_page() {
        let a = Addr(PAGE_BYTES + 3 * LINE_BYTES + 7);
        assert_eq!(a.line(), LineAddr(LineAddr::PER_PAGE + 3));
        assert_eq!(a.page(), PageAddr(1));
        assert_eq!(a.line().page(), PageAddr(1));
    }

    #[test]
    fn line_base_roundtrip() {
        let l = LineAddr(99);
        assert_eq!(l.base().line(), l);
        assert_eq!(l.base().as_u64(), 99 * LINE_BYTES);
    }

    #[test]
    fn page_line_indexing() {
        let p = PageAddr(4);
        assert_eq!(p.first_line(), p.line(0));
        assert_eq!(p.line(5).page(), p);
        assert_eq!(LineAddr::PER_PAGE, 128);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn page_line_out_of_range_panics() {
        PageAddr(0).line(LineAddr::PER_PAGE);
    }

    #[test]
    fn every_line_has_a_page() {
        // `line * LINE_BYTES` overflows from 2^59 on.
        assert_eq!(
            LineAddr(u64::MAX).page(),
            PageAddr(u64::MAX / LineAddr::PER_PAGE)
        );
        assert_eq!(LineAddr(u64::MAX).index_in_page(), 127);
        assert_eq!(LineAddr(1 << 59).page(), PageAddr(1 << 52));
        assert_eq!(LineAddr(1 << 59).page().first_line(), LineAddr(1 << 59));
    }

    #[test]
    fn page_masks_cover_a_run_exactly() {
        for (first, count) in [
            (0, 0),
            (5, 0),
            (0, 128),
            (0, 3072),
            (100, 300),
            (127, 1),
            (1 << 40, 129),
        ] {
            let pages: Vec<(PageAddr, u128)> = page_masks(LineAddr(first), count).collect();
            assert!(pages.iter().all(|&(_, mask)| mask != 0), "{first} {count}");
            assert!(pages.windows(2).all(|w| w[0].0 < w[1].0));
            let lines: Vec<u64> = pages
                .iter()
                .flat_map(|&(p, mask)| {
                    (0..LineAddr::PER_PAGE)
                        .filter(move |&i| mask >> i & 1 == 1)
                        .map(move |i| p.line(i).0)
                })
                .collect();
            assert_eq!(
                lines,
                (first..first + count).collect::<Vec<_>>(),
                "{first} {count}"
            );
        }
    }

    #[test]
    fn displays() {
        assert_eq!(Addr(16).to_string(), "0x10");
        assert!(LineAddr(1).to_string().starts_with('L'));
        assert!(PageAddr(1).to_string().starts_with('P'));
    }
}
