//! Virtual-page → directory-module (home) mapping.

use std::collections::HashMap;

use crate::addr::{LineAddr, PageAddr};
use crate::ids::{CoreId, DirId};

/// Policy for assigning a home directory module to a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageMapPolicy {
    /// The paper's policy: "a simple first-touch policy is used to map
    /// virtual pages to physical pages in the directory modules" — a page's
    /// home is the tile of the core that first touches it.
    FirstTouch,
    /// Pages striped round-robin across directories by page number
    /// (ablation alternative).
    Striped,
}

/// Maps pages to their home directory module.
///
/// # Examples
///
/// ```
/// use sb_mem::{Addr, CoreId, DirId, PageMapPolicy, PageMapper};
///
/// let mut m = PageMapper::new(PageMapPolicy::FirstTouch, 8);
/// let line = Addr(0x1234).line();
/// let home = m.home_of_line(line, CoreId(5));
/// assert_eq!(home, DirId(5));              // first touch by core 5
/// assert_eq!(m.home_of_line(line, CoreId(2)), DirId(5)); // sticky
/// ```
#[derive(Clone, Debug)]
pub struct PageMapper {
    policy: PageMapPolicy,
    modules: u16,
    map: HashMap<PageAddr, DirId>,
}

impl PageMapper {
    /// Creates a mapper over `modules` directory modules.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is zero.
    pub fn new(policy: PageMapPolicy, modules: u16) -> Self {
        assert!(modules > 0, "need at least one directory module");
        PageMapper {
            policy,
            modules,
            map: HashMap::new(),
        }
    }

    /// Returns (and on first touch, assigns) the home of `page` when core
    /// `toucher` accesses it.
    pub fn home_of_page(&mut self, page: PageAddr, toucher: CoreId) -> DirId {
        match self.policy {
            PageMapPolicy::Striped => DirId((page.as_u64() % self.modules as u64) as u16),
            PageMapPolicy::FirstTouch => *self
                .map
                .entry(page)
                .or_insert(DirId(toucher.0 % self.modules)),
        }
    }

    /// Convenience: the home of the page containing `line`.
    pub fn home_of_line(&mut self, line: LineAddr, toucher: CoreId) -> DirId {
        self.home_of_page(line.page(), toucher)
    }

    /// The home of `page` if already assigned (never assigns).
    pub fn lookup(&self, page: PageAddr) -> Option<DirId> {
        match self.policy {
            PageMapPolicy::Striped => Some(DirId((page.as_u64() % self.modules as u64) as u16)),
            PageMapPolicy::FirstTouch => self.map.get(&page).copied(),
        }
    }

    /// The home of the page containing `line`, which must already be
    /// assigned. Read-only counterpart of [`PageMapper::home_of_line`]
    /// for runtimes that pre-touch the whole access universe up front
    /// (the machine shares one frozen mapper between all its core units
    /// and the hub, so no first-touch assignment may happen after that).
    ///
    /// # Panics
    ///
    /// Panics if the page was never touched.
    pub fn home_frozen(&self, line: LineAddr) -> DirId {
        self.lookup(line.page())
            .unwrap_or_else(|| panic!("page {:?} not pre-touched", line.page()))
    }

    /// Number of pages assigned so far (always 0 under striping, which is
    /// computed, not stored).
    pub fn assigned_pages(&self) -> usize {
        self.map.len()
    }

    /// Number of directory modules.
    pub fn modules(&self) -> u16 {
        self.modules
    }

    /// The active policy.
    pub fn policy(&self) -> PageMapPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn first_touch_is_sticky_and_local() {
        let mut m = PageMapper::new(PageMapPolicy::FirstTouch, 16);
        let p = PageAddr(7);
        assert_eq!(m.lookup(p), None);
        assert_eq!(m.home_of_page(p, CoreId(3)), DirId(3));
        assert_eq!(m.home_of_page(p, CoreId(9)), DirId(3));
        assert_eq!(m.lookup(p), Some(DirId(3)));
        assert_eq!(m.assigned_pages(), 1);
    }

    #[test]
    fn first_touch_wraps_core_beyond_modules() {
        let mut m = PageMapper::new(PageMapPolicy::FirstTouch, 4);
        assert_eq!(m.home_of_page(PageAddr(1), CoreId(6)), DirId(2));
    }

    #[test]
    fn striped_is_computed() {
        let mut m = PageMapper::new(PageMapPolicy::Striped, 8);
        assert_eq!(m.home_of_page(PageAddr(10), CoreId(0)), DirId(2));
        assert_eq!(m.lookup(PageAddr(10)), Some(DirId(2)));
        assert_eq!(m.assigned_pages(), 0);
    }

    #[test]
    fn line_maps_through_its_page() {
        let mut m = PageMapper::new(PageMapPolicy::FirstTouch, 8);
        let line = Addr(0x2000).line();
        let home = m.home_of_line(line, CoreId(1));
        assert_eq!(m.lookup(line.page()), Some(home));
        assert_eq!(m.home_frozen(line), home);
    }

    #[test]
    #[should_panic(expected = "not pre-touched")]
    fn home_frozen_requires_pre_touch() {
        let m = PageMapper::new(PageMapPolicy::FirstTouch, 8);
        m.home_frozen(Addr(0x9000).line());
    }

    #[test]
    #[should_panic(expected = "at least one directory")]
    fn zero_modules_panics() {
        PageMapper::new(PageMapPolicy::Striped, 0);
    }
}
