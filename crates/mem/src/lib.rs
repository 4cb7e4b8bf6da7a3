//! Memory substrate for the ScalableBulk reproduction.
//!
//! This crate models everything below the coherence protocol:
//!
//! * byte/line/page address geometry ([`Addr`], [`LineAddr`], [`PageAddr`];
//!   32-byte lines and 4 KB pages per Table 2 of the paper),
//! * participant identifiers ([`CoreId`], [`DirId`]) — the simulated machine
//!   is a tiled multicore with one core, one L1/L2 pair and one directory
//!   module per tile,
//! * set-associative LRU caches ([`SetAssocCache`], [`CacheHierarchy`]:
//!   32 KB/4-way write-through L1 + 512 KB/8-way write-back L2),
//! * first-touch virtual-page → directory-module mapping ([`PageMapper`]),
//!   and
//! * per-directory sharer state ([`DirectoryState`]) — the conventional
//!   sharer/owner bookkeeping every chunk protocol consults when it expands
//!   a write signature into invalidations.
//!
//! # Examples
//!
//! ```
//! use sb_mem::{Addr, CacheHierarchy, CacheHierarchyConfig, HitLevel};
//!
//! let mut h = CacheHierarchy::new(CacheHierarchyConfig::paper_default());
//! let line = Addr(0x1000).line();
//! assert_eq!(h.access(line), HitLevel::Miss); // cold
//! h.fill(line);
//! assert_eq!(h.access(line), HitLevel::L1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod blockindex;
mod cache;
mod dirstate;
mod hierarchy;
mod ids;
mod page;

pub use addr::{page_masks, Addr, LineAddr, LineSet, PageAddr, LINE_BYTES, PAGE_BYTES};
pub use cache::{CacheConfig, SetAssocCache};
pub use dirstate::{DirectoryState, ReadSource};
pub use hierarchy::{CacheHierarchy, CacheHierarchyConfig, HitLevel};
pub use ids::{CoreId, CoreSet, DirId, DirSet, MaskIter, TileSet, WideMask};
pub use page::{PageMapPolicy, PageMapper};
