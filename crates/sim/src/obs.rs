//! Directory-side observability log.
//!
//! When [`SimConfig::obs`](crate::SimConfig) is on, the machine records
//! the events the correctness trace does not carry: directory occupancy
//! (every [`ProtoEvent::DirGrabbed`]/[`ProtoEvent::DirReleased`] pair a
//! protocol emits), commit recalls (a squash that killed an in-flight
//! commit, §3.4's lookout case), held-invalidation queue depths
//! (conservative mode, Figure 4(c)) and periodic event-queue depth
//! samples. The stream feeds the Perfetto exporter
//! ([`perfetto_trace`](crate::perfetto_trace)) and the histogram metrics
//! of [`RunResult::metrics`](crate::RunResult).
//!
//! Like the correctness trace, the log is purely observational: it is
//! recorded from events the protocols emit anyway and never changes
//! timing or behaviour.
//!
//! [`ProtoEvent::DirGrabbed`]: sb_proto::ProtoEvent::DirGrabbed
//! [`ProtoEvent::DirReleased`]: sb_proto::ProtoEvent::DirReleased

use sb_chunks::ChunkTag;
use sb_engine::Cycle;
use sb_mem::DirId;
use sb_net::SendInfo;
use sb_proto::{Endpoint, FlowId};

/// One observability event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsKind {
    /// A directory module entered a blocking state for `tag`'s commit.
    DirGrabbed {
        /// The grabbed module.
        dir: DirId,
        /// The committing chunk.
        tag: ChunkTag,
    },
    /// The matching release of an earlier grab.
    DirReleased {
        /// The released module.
        dir: DirId,
        /// The chunk whose grab ended.
        tag: ChunkTag,
    },
    /// A squash killed an in-flight commit: the protocol must recall the
    /// partially formed group (§3.4).
    CommitRecalled {
        /// The recalled chunk.
        tag: ChunkTag,
    },
    /// Depth of a core's held-invalidation queue after a bulk
    /// invalidation was parked there (conservative mode, Figure 4(c)).
    HeldInvDepth {
        /// The holding core.
        core: u16,
        /// Queue depth including the newly held invalidation.
        depth: u32,
    },
    /// Periodic sample of the machine's future-event-list length.
    QueueDepth {
        /// Pending events at the sample point.
        depth: u64,
    },
    /// A chunk reached a terminal state (committed or squashed), with the
    /// execution cycles invested in it. Mirrors the machine's internal
    /// `invested` ledger exactly, so a Figure-7-style breakdown can be
    /// reconstructed from the trace and reconciled against the aggregate
    /// [`Breakdown`](sb_stats::Breakdown).
    ChunkDone {
        /// The executing core.
        core: u16,
        /// The terminal chunk.
        tag: ChunkTag,
        /// `true` for a commit, `false` for a squash.
        committed: bool,
        /// Useful execution cycles invested in the chunk.
        useful: u64,
        /// Cache-miss stall cycles invested in the chunk.
        cache: u64,
    },
    /// A core's commit-window stall ended: it waited `cycles` for a
    /// commit slot (the aggregate `Breakdown::commit` credit points).
    CommitStall {
        /// The stalled core.
        core: u16,
        /// Stall length in cycles.
        cycles: u64,
    },
}

/// Why a causal-flow node exists: the kind of hand-off it records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Root of a commit's causal chain: the core sealed the chunk and
    /// issued (or deferred) its commit request.
    CommitStart,
    /// A protocol message send ([`Command::Send`](sb_proto::Command)).
    Proto,
    /// A protocol self-timer ([`Command::After`](sb_proto::Command)).
    Timer,
    /// The commit-success notification travelling back to the core.
    CommitSuccess,
    /// The commit-failure notification travelling back to the core.
    CommitFailure,
    /// A bulk invalidation fanning out to a sharer core.
    BulkInv,
    /// The sharer's acknowledgement travelling back to the directory.
    BulkInvAck,
    /// The host's commit-retry backoff timer.
    Backoff,
}

/// One node of the causal message graph (`SimConfig::obs`): a message,
/// timer, or notification with its cause, endpoints, and timing.
///
/// Ids are dense (1-based, allocation order) and every parent id is
/// smaller than its child's — the graph is acyclic by construction,
/// which `verify_observability` checks. `delivered_at` is the time the
/// receiving handler actually ran (the machine patches it on dispatch),
/// so consecutive links of a causal chain tile time exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    /// This flow's id (1-based; [`FlowId::NONE`] never appears here).
    pub id: FlowId,
    /// The flow whose handler created this one ([`FlowId::NONE`] =
    /// external cause, e.g. a core's instruction stream).
    pub parent: FlowId,
    /// What kind of hand-off this is.
    pub kind: FlowKind,
    /// Short static label ("grab", "occupy", "commit success", ...).
    pub label: &'static str,
    /// The committing chunk this flow serves, when the message carries
    /// one (arbitration-slot style messages do not).
    pub tag: Option<ChunkTag>,
    /// Sending actor.
    pub src: Endpoint,
    /// Receiving actor.
    pub dst: Endpoint,
    /// When the causing handler issued it.
    pub sent_at: Cycle,
    /// When the receiving handler ran.
    pub delivered_at: Cycle,
    /// Network latency decomposition, for flows that crossed the torus
    /// (`None` for timers and roots).
    pub net: Option<SendInfo>,
}

/// One timestamped observability event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated time of the observation.
    pub at: Cycle,
    /// What was observed.
    pub kind: ObsKind,
}

/// The ordered observability stream of one run.
#[derive(Clone, Debug, Default)]
pub struct ObsLog {
    /// Events in recording order (global event-dispatch order).
    pub events: Vec<ObsEvent>,
    /// Causal message flows in allocation (= id) order.
    pub flows: Vec<FlowEvent>,
}

impl ObsLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&ObsKind) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.kind)).count() as u64
    }
}
