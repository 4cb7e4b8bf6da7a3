//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the ScalableBulk reproduction: a tiny,
//! allocation-friendly discrete-event core with
//!
//! * a [`Cycle`] newtype for simulated time,
//! * a deterministic [`EventQueue`], a binary heap with ties broken by
//!   insertion order, so a simulation is a pure function of its inputs
//!   and seed,
//! * seeded pseudo-random number generators ([`SplitMix64`], [`Xoshiro256`])
//!   used everywhere randomness is needed, and
//! * small statistics utilities ([`stats`]) shared by the higher layers.
//!
//! # Examples
//!
//! ```
//! use sb_engine::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "late");
//! q.push(Cycle(5), "early");
//! q.push(Cycle(5), "early-second");
//! assert_eq!(q.pop(), Some((Cycle(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle(5), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle(10), "late")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod events;
pub mod hash;
mod rng;
pub mod stats;

pub use clock::Cycle;
pub use events::{EventQueue, QueueStats};
pub use hash::{FxHashMap, FxHashSet};
pub use rng::{SplitMix64, Xoshiro256};
