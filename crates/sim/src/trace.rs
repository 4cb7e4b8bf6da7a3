//! Correctness trace: the chunk-lifecycle event stream one run emits.
//!
//! When [`SimConfig::trace`](crate::SimConfig) is on, the machine records
//! every chunk-instance lifecycle transition — execution start, commit
//! (with the exact line footprint), squash, and every bulk invalidation
//! *processed* at a core (with a snapshot of what the core's in-flight
//! chunks had read and written at that moment). The `sb-check` fuzzer
//! replays this stream through an independent serializability oracle:
//!
//! * chunk tags are never reused (a squashed chunk re-executes under a
//!   fresh tag), so tags identify chunk *instances* and "no tag is both
//!   committed and squashed" is well defined;
//! * the commit order itself is the candidate serial order. It is a valid
//!   serialization witness iff no committed chunk had a foreign write set
//!   applied at its core, mid-execution, that intersected what the chunk
//!   had already read or written — exactly the condition the machine's
//!   squash filter is supposed to enforce. The oracle recomputes that
//!   intersection from the recorded snapshots, independently of the
//!   machine's own conflict check, which is what gives it teeth against
//!   an injected conflict-detection bug.
//!
//! Tracing is off by default and entirely passive: it never changes
//! timing or behaviour, only observes it.

use sb_chunks::ChunkTag;
use sb_engine::hash::Fnv1a;
use sb_engine::Cycle;
use sb_mem::{DirId, LineAddr};
use sb_sigs::SigHandle;

/// What one in-flight chunk had accessed when a bulk invalidation was
/// processed at its core.
#[derive(Clone, Debug)]
pub struct ChunkSnapshot {
    /// The in-flight chunk.
    pub tag: ChunkTag,
    /// Lines it had read so far.
    pub reads: Vec<LineAddr>,
    /// Lines it had written so far.
    pub writes: Vec<LineAddr>,
}

/// One chunk-lifecycle event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A chunk instance began executing at a core.
    ExecStart {
        /// Executing core.
        core: u16,
        /// The fresh chunk instance (tags are never reused).
        tag: ChunkTag,
        /// Simulated time.
        at: Cycle,
    },
    /// A chunk instance committed (the success outcome reached its core
    /// and the chunk retired).
    Committed {
        /// Committing core.
        core: u16,
        /// The committed instance.
        tag: ChunkTag,
        /// Simulated time.
        at: Cycle,
        /// Exact lines the chunk read.
        reads: Vec<LineAddr>,
        /// Exact lines the chunk wrote.
        writes: Vec<LineAddr>,
    },
    /// A chunk instance was squashed (it will re-execute under a new tag).
    Squashed {
        /// Squashed core.
        core: u16,
        /// The squashed instance.
        tag: ChunkTag,
        /// Simulated time.
        at: Cycle,
    },
    /// A bulk invalidation was processed at a core: its W signature was
    /// applied against the core's in-flight chunks (in conservative mode
    /// a held invalidation is recorded when actually processed, not when
    /// delivered).
    InvProcessed {
        /// The core that processed the invalidation.
        core: u16,
        /// The committing chunk whose writes are being published.
        committer: ChunkTag,
        /// The issuing directory.
        from: DirId,
        /// Simulated time.
        at: Cycle,
        /// The published W signature (shared handle, O(1) to record).
        wsig: SigHandle,
        /// What each in-flight chunk at this core had accessed so far.
        inflight: Vec<ChunkSnapshot>,
    },
}

impl TraceEvent {
    fn fold_fingerprint(&self, h: &mut Fnv1a) {
        match self {
            TraceEvent::ExecStart { core, tag, at } => {
                h.byte(1).u64(*core as u64).tag(*tag).u64(at.as_u64());
            }
            TraceEvent::Committed {
                core,
                tag,
                at,
                reads,
                writes,
            } => {
                h.byte(2).u64(*core as u64).tag(*tag).u64(at.as_u64());
                for l in reads {
                    h.u64(l.as_u64());
                }
                h.byte(0xfe);
                for l in writes {
                    h.u64(l.as_u64());
                }
            }
            TraceEvent::Squashed { core, tag, at } => {
                h.byte(3).u64(*core as u64).tag(*tag).u64(at.as_u64());
            }
            TraceEvent::InvProcessed {
                core,
                committer,
                from,
                at,
                wsig: _,
                inflight,
            } => {
                h.byte(4)
                    .u64(*core as u64)
                    .tag(*committer)
                    .u64(from.0 as u64)
                    .u64(at.as_u64());
                for s in inflight {
                    h.tag(s.tag)
                        .u64(s.reads.len() as u64)
                        .u64(s.writes.len() as u64);
                }
            }
        }
    }
}

/// The ordered event stream of one traced run, plus end-of-run probes.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Events in processing order (the global event-dispatch order, which
    /// breaks simulated-time ties deterministically).
    pub events: Vec<TraceEvent>,
    /// The protocol's `in_flight()` count at quiescence — per-protocol
    /// cleanup invariant (e.g. ScalableBulk's CSTs must drain to empty).
    pub final_in_flight: usize,
}

impl RunTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// FNV-1a fingerprint of the whole stream. Two runs of the same
    /// `(config, workload seed, perturbation seed)` triple must produce
    /// the same fingerprint — this is what makes a one-line replay
    /// command an exact reproduction, not just a similar failure.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for e in &self.events {
            e.fold_fingerprint(&mut h);
        }
        h.u64(self.final_in_flight as u64);
        h.finish()
    }
}

/// Folds a chunk tag into a fingerprint.
trait FoldTag {
    fn tag(&mut self, t: ChunkTag) -> &mut Self;
}

impl FoldTag for Fnv1a {
    fn tag(&mut self, t: ChunkTag) -> &mut Self {
        self.u64(t.core().0 as u64).u64(t.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_mem::CoreId;

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let e1 = TraceEvent::ExecStart {
            core: 0,
            tag: ChunkTag::new(CoreId(0), 1),
            at: Cycle(5),
        };
        let e2 = TraceEvent::Squashed {
            core: 0,
            tag: ChunkTag::new(CoreId(0), 1),
            at: Cycle(9),
        };
        let ab = RunTrace {
            events: vec![e1.clone(), e2.clone()],
            final_in_flight: 0,
        };
        let ba = RunTrace {
            events: vec![e2, e1],
            final_in_flight: 0,
        };
        assert_eq!(ab.fingerprint(), ab.clone().fingerprint());
        assert_ne!(ab.fingerprint(), ba.fingerprint());
        assert_ne!(ab.fingerprint(), RunTrace::new().fingerprint());
        let mut drained = ab.clone();
        drained.final_in_flight = 3;
        assert_ne!(ab.fingerprint(), drained.fingerprint());
    }
}
