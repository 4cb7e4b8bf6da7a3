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

    /// The page containing this line.
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 * LINE_BYTES / PAGE_BYTES)
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
    fn displays() {
        assert_eq!(Addr(16).to_string(), "0x10");
        assert!(LineAddr(1).to_string().starts_with('L'));
        assert!(PageAddr(1).to_string().starts_with('P'));
    }
}
