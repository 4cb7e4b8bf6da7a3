//! Hardware address signatures, as used by Bulk, BulkSC and ScalableBulk.
//!
//! A *signature* is a fixed-size register that hash-encodes a set of
//! cache-line addresses (Ceze et al., "Bulk Disambiguation of Speculative
//! Threads in Multiprocessors", ISCA 2006). ScalableBulk uses a 2 Kbit
//! signature per chunk for the read set (R) and the write set (W), and builds
//! the whole commit protocol on three cheap signature operations:
//!
//! * **membership** — is line `a` possibly in the set? (used by directories
//!   to nack loads that collide with a committing chunk's W signature),
//! * **intersection** — do two sets possibly overlap? (chunk disambiguation:
//!   `Ri ∩ Wj` and `Wi ∩ Wj` tests), and
//! * **expansion** — which of the lines a directory or cache holds match
//!   the signature? (used to find sharers and to invalidate cached lines;
//!   [`block_keys`] and [`Signature::block_matches`] decode it per aligned
//!   16-line block).
//!
//! Signatures are *conservative*: they never produce false negatives, but
//! aliasing can produce false positives. The protocol tolerates this — a
//! false positive can only cause an unnecessary nack or squash, never a
//! correctness violation — and the paper reports 2.3% of chunks squashed due
//! to aliasing at 64 processors.
//!
//! This crate implements a banked Bloom encoding: the signature is divided
//! into `banks` equal bit-fields and each inserted address sets exactly one
//! bit per bank (chosen by an independent hash). Two signatures may share an
//! address only if their bitwise AND is non-empty *in every bank*, which is
//! the low-false-positive intersection rule of the Bulk hardware.
//!
//! # Examples
//!
//! ```
//! use sb_sigs::{Signature, SignatureConfig};
//!
//! let cfg = SignatureConfig::paper_default(); // 2 Kbit, 4 banks
//! let mut w = Signature::new(cfg);
//! w.insert(0x1000);
//! w.insert(0x2040);
//! assert!(w.test(0x1000));           // no false negatives, ever
//! let mut r = Signature::new(cfg);
//! r.insert(0x2040);
//! assert!(w.intersects(&r));         // they share line 0x2040
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod handle;
mod hashing;
mod signature;

pub use config::SignatureConfig;
pub use handle::SigHandle;
pub use hashing::{bank_hash, block_keys, is_line_granular, BLOCK_LINES};
pub use signature::Signature;
