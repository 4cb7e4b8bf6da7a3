//! A deterministic miniature host for protocol-level testing.
//!
//! The fabric wires a [`CommitProtocol`] to a toy machine: uniform link
//! latency between any two actors, per-directory sharer state, and a core
//! model that does nothing but issue scripted commit requests and react to
//! bulk invalidations. It is the harness behind `sb-core`'s protocol unit
//! and property tests (group-formation safety and liveness, OCI recall
//! paths) — scenarios that would be awkward to stage through the full
//! simulator.

use std::collections::HashMap;

use sb_chunks::{ChunkTag, CommitRequest};
use sb_engine::{Cycle, EventQueue};
use sb_mem::{CoreId, CoreSet, DirId, DirectoryState, LineAddr};
use sb_sigs::{SigHandle, Signature};

use crate::command::{Command, Endpoint, ProtoEvent};
use crate::protocol::{AbortedCommit, BulkInvAck, CommitProtocol};
use crate::view::MachineView;

/// Fabric parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Number of cores.
    pub cores: u16,
    /// Number of directory modules.
    pub dirs: u16,
    /// Uniform actor-to-actor message latency, cycles.
    pub link_latency: u64,
    /// Processing delay at a core before it acks a bulk invalidation.
    pub ack_delay: u64,
    /// Backoff before a failed commit is retried.
    pub retry_backoff: u64,
    /// Retries before a commit is abandoned (tests of liveness use a high
    /// value; the paper's protocol should never need it).
    pub max_retries: u32,
}

impl FabricConfig {
    /// A small 8-core, 8-directory machine with 10-cycle links.
    pub fn small() -> Self {
        FabricConfig {
            cores: 8,
            dirs: 8,
            link_latency: 10,
            ack_delay: 2,
            retry_backoff: 50,
            max_retries: 100,
        }
    }
}

/// Terminal state of one scripted commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The chunk committed; `latency` is from the *first* commit request to
    /// the commit-success arrival at the core.
    Committed {
        /// The chunk.
        tag: ChunkTag,
        /// First-request-to-success latency in cycles.
        latency: u64,
        /// Number of failed attempts before success.
        retries: u32,
    },
    /// The chunk was squashed by an incoming bulk invalidation while its
    /// commit was in flight (the OCI path: ack carried a commit recall).
    Squashed {
        /// The chunk.
        tag: ChunkTag,
    },
    /// Retry budget exhausted (indicates starvation — a protocol bug or an
    /// intentionally adversarial test).
    GaveUp {
        /// The chunk.
        tag: ChunkTag,
    },
}

impl Outcome {
    /// The chunk this outcome is about.
    pub fn tag(&self) -> ChunkTag {
        match *self {
            Outcome::Committed { tag, .. }
            | Outcome::Squashed { tag }
            | Outcome::GaveUp { tag } => tag,
        }
    }

    /// Whether the chunk committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, Outcome::Committed { .. })
    }
}

/// What the fabric observed during a run.
#[derive(Clone, Debug, Default)]
pub struct FabricReport {
    /// Terminal outcomes in completion order.
    pub outcomes: Vec<Outcome>,
    /// Statistics events with timestamps.
    pub events: Vec<(Cycle, ProtoEvent)>,
    /// Whether the run ended because the step limit was hit (suggests
    /// livelock) rather than by draining all events.
    pub hit_step_limit: bool,
    /// Final simulated time.
    pub finished_at: Cycle,
}

impl FabricReport {
    /// Outcomes that committed.
    pub fn committed(&self) -> Vec<ChunkTag> {
        self.outcomes
            .iter()
            .filter(|o| o.is_committed())
            .map(|o| o.tag())
            .collect()
    }

    /// The outcome for `tag`, if terminal.
    pub fn outcome_of(&self, tag: ChunkTag) -> Option<Outcome> {
        self.outcomes.iter().copied().find(|o| o.tag() == tag)
    }

    /// Count of events matching a predicate.
    pub fn count_events<F: Fn(&ProtoEvent) -> bool>(&self, f: F) -> usize {
        self.events.iter().filter(|(_, e)| f(e)).count()
    }
}

/// Per-core in-flight scripted commit.
#[derive(Clone, Debug)]
struct PendingCommit {
    req: CommitRequest,
    first_requested: Cycle,
    retries: u32,
}

enum Ev<M> {
    Deliver {
        dst: Endpoint,
        msg: M,
    },
    StartCommit {
        req: CommitRequest,
    },
    BulkInvAtCore {
        from: DirId,
        to: CoreId,
        tag: ChunkTag,
        wsig: SigHandle,
    },
    AckAtDir {
        ack: BulkInvAck,
    },
    SuccessAtCore {
        core: CoreId,
        tag: ChunkTag,
    },
    FailureAtCore {
        core: CoreId,
        tag: ChunkTag,
    },
}

/// The machine-state part of the fabric (separated so the host loop can
/// borrow it immutably for protocol upcalls while mutating the rest).
#[derive(Debug)]
struct FabricView {
    now: Cycle,
    cores: u16,
    dirs: u16,
    dirstate: Vec<DirectoryState>,
}

impl MachineView for FabricView {
    fn now(&self) -> Cycle {
        self.now
    }
    fn cores(&self) -> u16 {
        self.cores
    }
    fn dirs(&self) -> u16 {
        self.dirs
    }
    fn sharers_matching(&self, dir: DirId, wsig: &Signature, committer: CoreId) -> CoreSet {
        self.dirstate[dir.idx()].sharers_matching(wsig, committer)
    }
}

/// The deterministic test host. See the module docs.
///
/// # Examples
///
/// See the integration tests of `sb-core`, which drive ScalableBulk group
/// formation through a `Fabric`.
pub struct Fabric<M> {
    cfg: FabricConfig,
    view: FabricView,
    queue: EventQueue<Ev<M>>,
    pending: HashMap<CoreId, PendingCommit>,
    /// Tags squashed by a bulk invalidation; never retried (the host
    /// guarantee of [`CommitProtocol`]).
    dead: std::collections::HashSet<ChunkTag>,
    report: FabricReport,
}

impl<M: Clone + std::fmt::Debug> Fabric<M> {
    /// Creates an idle fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric {
            view: FabricView {
                now: Cycle::ZERO,
                cores: cfg.cores,
                dirs: cfg.dirs,
                dirstate: (0..cfg.dirs).map(|_| DirectoryState::new()).collect(),
            },
            cfg,
            queue: EventQueue::new(),
            pending: HashMap::new(),
            dead: std::collections::HashSet::new(),
            report: FabricReport::default(),
        }
    }

    /// Seeds directory state: `core` is a sharer of `line` homed at `dir`.
    pub fn seed_sharer(&mut self, dir: DirId, line: LineAddr, core: CoreId) {
        self.view.dirstate[dir.idx()].record_read(line, core);
    }

    /// Read-only access to a directory's sharer state.
    pub fn dir_state(&self, dir: DirId) -> &DirectoryState {
        &self.view.dirstate[dir.idx()]
    }

    /// Schedules a commit request to be issued at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the core already has a scheduled/in-flight commit at `at`
    /// (the fabric models one outstanding commit per core).
    pub fn schedule_commit(&mut self, at: Cycle, req: CommitRequest) {
        self.queue.push(at, Ev::StartCommit { req });
    }

    /// Runs the event loop until quiescence or `max_steps` events.
    /// Returns the report (also retrievable via [`Fabric::report`]).
    pub fn run<P>(&mut self, proto: &mut P, max_steps: usize) -> FabricReport
    where
        P: CommitProtocol<Msg = M>,
    {
        let mut steps = 0;
        while let Some((at, ev)) = self.queue.pop() {
            steps += 1;
            if steps > max_steps {
                self.report.hit_step_limit = true;
                break;
            }
            debug_assert!(at >= self.view.now, "time went backwards");
            self.view.now = at;
            let mut out = crate::command::Outbox::new();
            match ev {
                Ev::Deliver { dst, msg } => proto.deliver(&self.view, &mut out, dst, msg),
                Ev::StartCommit { req } => {
                    if self.dead.contains(&req.tag) {
                        continue; // squashed while a retry was queued
                    }
                    let core = req.tag.core();
                    let entry = self.pending.entry(core).or_insert_with(|| PendingCommit {
                        req: req.clone(),
                        first_requested: at,
                        retries: 0,
                    });
                    // A retry reuses the stored first_requested/retries.
                    entry.req = req.clone();
                    proto.start_commit(&self.view, &mut out, req);
                }
                Ev::BulkInvAtCore {
                    from,
                    to,
                    tag,
                    wsig,
                } => {
                    // Core-side: does this invalidation squash an in-flight
                    // commit of ours? (OCI: consume it, squash, recall.)
                    let mut aborted = None;
                    if let Some(p) = self.pending.get(&to) {
                        let conflicts =
                            wsig.intersects(&p.req.rsig) || wsig.intersects(&p.req.wsig);
                        if conflicts && p.req.tag != tag {
                            aborted = Some(AbortedCommit {
                                tag: p.req.tag,
                                g_vec: p.req.g_vec.clone(),
                            });
                            self.report
                                .outcomes
                                .push(Outcome::Squashed { tag: p.req.tag });
                            self.dead.insert(p.req.tag);
                            self.pending.remove(&to);
                        }
                    }
                    let ack_at = at + self.cfg.ack_delay + self.cfg.link_latency;
                    self.queue.push(
                        ack_at,
                        Ev::AckAtDir {
                            ack: BulkInvAck {
                                dir: from,
                                from: to,
                                tag,
                                aborted,
                            },
                        },
                    );
                    // Also drop the sharer from every directory (cache
                    // invalidation effect), conservatively at all dirs.
                    for d in &mut self.view.dirstate {
                        for l in d.lines_matching(&wsig) {
                            d.drop_sharer(l, to);
                        }
                    }
                }
                Ev::AckAtDir { ack } => proto.bulk_inv_acked(&self.view, &mut out, ack),
                Ev::SuccessAtCore { core, tag } => {
                    if let Some(p) = self.pending.get(&core) {
                        if p.req.tag == tag {
                            let p = self.pending.remove(&core).expect("just found");
                            self.report.outcomes.push(Outcome::Committed {
                                tag,
                                latency: (at - p.first_requested).as_u64(),
                                retries: p.retries,
                            });
                        }
                    }
                }
                Ev::FailureAtCore { core, tag } => {
                    // OCI: a failure for an already-squashed chunk is
                    // discarded (the pending entry is gone).
                    if let Some(p) = self.pending.get_mut(&core) {
                        if p.req.tag == tag {
                            p.retries += 1;
                            if p.retries > self.cfg.max_retries {
                                self.pending.remove(&core);
                                self.report.outcomes.push(Outcome::GaveUp { tag });
                            } else {
                                let req = p.req.clone();
                                self.queue
                                    .push(at + self.cfg.retry_backoff, Ev::StartCommit { req });
                            }
                        }
                    }
                }
            }
            self.execute(out.drain());
        }
        self.report.finished_at = self.view.now;
        self.report.clone()
    }

    fn execute(&mut self, cmds: Vec<Command<M>>) {
        let now = self.view.now;
        let lat = self.cfg.link_latency;
        for cmd in cmds {
            match cmd {
                Command::Send { dst, msg, .. } => {
                    self.queue.push(now + lat, Ev::Deliver { dst, msg });
                }
                Command::After { delay, dst, msg } => {
                    self.queue.push(now + delay, Ev::Deliver { dst, msg });
                }
                Command::CommitSuccess { core, tag, .. } => {
                    self.queue.push(now + lat, Ev::SuccessAtCore { core, tag });
                }
                Command::CommitFailure { core, tag, .. } => {
                    self.queue.push(now + lat, Ev::FailureAtCore { core, tag });
                }
                Command::BulkInv {
                    from,
                    to,
                    tag,
                    wsig,
                    size: _,
                } => {
                    self.queue.push(
                        now + lat,
                        Ev::BulkInvAtCore {
                            from,
                            to,
                            tag,
                            wsig,
                        },
                    );
                }
                Command::ApplyCommit {
                    dir,
                    wsig,
                    committer,
                } => {
                    self.view.dirstate[dir.idx()].apply_commit(&wsig, committer);
                }
                Command::Event(ev) => self.report.events.push((now, ev)),
            }
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &FabricReport {
        &self.report
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.view.now
    }

    /// The configuration.
    pub fn config(&self) -> FabricConfig {
        self.cfg
    }
}

impl<M> std::fmt::Debug for Fabric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("now", &self.view.now)
            .field("pending", &self.pending.len())
            .field("outcomes", &self.report.outcomes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Outbox;
    use crate::kind::ProtocolKind;
    use sb_chunks::ActiveChunk;
    use sb_sigs::SignatureConfig;

    /// A protocol that, on commit request, sends itself a message through
    /// the network and only then grants — exercising Deliver plumbing.
    #[derive(Default)]
    struct TwoPhase {
        in_flight: usize,
    }

    #[derive(Clone, Debug)]
    struct Grant(ChunkTag);

    impl CommitProtocol for TwoPhase {
        type Msg = Grant;

        fn kind(&self) -> ProtocolKind {
            ProtocolKind::BulkSc
        }

        fn start_commit(
            &mut self,
            _v: &dyn MachineView,
            out: &mut Outbox<Grant>,
            req: CommitRequest,
        ) {
            self.in_flight += 1;
            out.send(
                Endpoint::Core(req.tag.core()),
                Endpoint::Dir(DirId(0)),
                sb_net::MsgSize::SignaturePair,
                sb_net::TrafficClass::LargeCMessage,
                Grant(req.tag),
            );
        }

        fn deliver(
            &mut self,
            _v: &dyn MachineView,
            out: &mut Outbox<Grant>,
            dst: Endpoint,
            msg: Grant,
        ) {
            assert_eq!(dst, Endpoint::Dir(DirId(0)));
            self.in_flight -= 1;
            out.commit_success(msg.0.core(), msg.0, DirId(0));
        }

        fn bulk_inv_acked(
            &mut self,
            _v: &dyn MachineView,
            _out: &mut Outbox<Grant>,
            _ack: BulkInvAck,
        ) {
        }

        fn in_flight(&self) -> usize {
            self.in_flight
        }
    }

    fn request(core: u16, seq: u64) -> CommitRequest {
        let mut c = ActiveChunk::new(
            ChunkTag::new(CoreId(core), seq),
            SignatureConfig::paper_default(),
        );
        c.record_write(LineAddr(core as u64 * 100), DirId(0));
        c.to_commit_request()
    }

    #[test]
    fn two_phase_commit_completes_with_correct_latency() {
        let mut f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        let req = request(1, 0);
        let tag = req.tag;
        f.schedule_commit(Cycle(100), req);
        let mut p = TwoPhase::default();
        let report = f.run(&mut p, 10_000);
        assert!(!report.hit_step_limit);
        assert_eq!(report.committed(), vec![tag]);
        match report.outcome_of(tag).unwrap() {
            Outcome::Committed {
                latency, retries, ..
            } => {
                // request->dir (10) + success->core (10) = 20.
                assert_eq!(latency, 20);
                assert_eq!(retries, 0);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn concurrent_commits_from_different_cores_all_complete() {
        let mut f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        let mut tags = Vec::new();
        for core in 0..8u16 {
            let req = request(core, 0);
            tags.push(req.tag);
            f.schedule_commit(Cycle(core as u64), req);
        }
        let mut p = TwoPhase::default();
        let report = f.run(&mut p, 10_000);
        let mut committed = report.committed();
        committed.sort();
        tags.sort();
        assert_eq!(committed, tags);
    }

    #[test]
    fn seeded_sharers_visible_through_view() {
        let mut f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        f.seed_sharer(DirId(2), LineAddr(5), CoreId(3));
        let w = Signature::from_lines(SignatureConfig::paper_default(), [5u64]);
        let sharers = f.view.sharers_matching(DirId(2), &w, CoreId(0));
        assert!(sharers.contains(CoreId(3)));
        // Committer excluded.
        let sharers = f.view.sharers_matching(DirId(2), &w, CoreId(3));
        assert!(sharers.is_empty());
    }

    #[test]
    fn debug_impl_nonempty() {
        let f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        assert!(format!("{f:?}").contains("Fabric"));
    }
}
