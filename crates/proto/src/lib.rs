//! Shared protocol API for chunk-commit coherence protocols.
//!
//! The paper evaluates four protocols (Table 3): **ScalableBulk** (the
//! contribution, in `sb-core`), **Scalable TCC**, **SEQ-PRO** and **BulkSC**
//! (baselines, in `sb-baselines`). All four are message-driven state
//! machines over the same machine: cores that request chunk commits, and
//! per-tile directory modules (plus, for BulkSC, a central arbiter).
//!
//! This crate defines the seam between a protocol and its host:
//!
//! * [`CommitProtocol`] — the trait every protocol implements. A protocol
//!   never touches the network or the clock directly; it consumes delivered
//!   messages and pushes [`Command`]s into an [`Outbox`] that the host
//!   executes (send a message, report commit success/failure, issue a bulk
//!   invalidation, update directory state, emit a statistics event).
//! * [`MachineView`] — the read-only machine state a protocol may consult
//!   synchronously (current time, sharer lookup by signature expansion).
//! * [`ProtoEvent`] — statistics events (group formation, queue depth)
//!   that the figure collectors aggregate.
//! * [`Fabric`] — a deterministic miniature host with uniform link latency,
//!   used to unit- and property-test protocols without the full simulator.
//!
//! Two hosts exist: [`Fabric`] here, and the full-system simulator in
//! `sb-sim` (real torus latencies, caches, workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choice;
mod command;
mod fabric;
mod flow;
mod kind;
mod protocol;
mod view;

pub use choice::{AddrFootprint, ChoiceMeta};
pub use command::{Command, Endpoint, Outbox, ProtoEvent};
pub use fabric::{Channel, Fabric, FabricConfig, FabricReport, Outcome};
pub use flow::FlowId;
pub use kind::ProtocolKind;
pub use protocol::{AbortedCommit, BulkInvAck, CommitProtocol};
pub use view::MachineView;
