//! A deterministic miniature host for protocol-level testing.
//!
//! The fabric wires a [`CommitProtocol`] to a toy machine: uniform link
//! latency between any two actors, per-directory sharer state, and a core
//! model that does nothing but issue scripted commit requests and react to
//! bulk invalidations. It is the harness behind `sb-core`'s protocol unit
//! and property tests (group-formation safety and liveness, OCI recall
//! paths) and behind its exhaustive delivery-order exploration —
//! scenarios that would be awkward to stage through the full simulator.
//!
//! Every pending event waits on its [`Channel`], the (source,
//! destination) endpoint pair it travels on, in (time, issue) order: the
//! point-to-point order the [`CommitProtocol`] contract promises. A
//! timed [`Fabric::run`] repeatedly delivers the earliest channel head;
//! an explorer instead picks any head from [`Fabric::heads`] and
//! delivers it with [`Fabric::step`], walking every order the channels
//! allow.

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use sb_chunks::{ChunkTag, CommitRequest};
use sb_engine::Cycle;
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
    /// Commit successes that reached their core after the chunk was
    /// squashed: a committed chunk was also squashed, which the
    /// per-channel order of a correct protocol rules out.
    pub late_successes: Vec<ChunkTag>,
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

/// The (source, destination) endpoint pair an event travels on. A
/// core's scripted commit starts and a directory's local timers travel
/// on the endpoint's channel to itself.
pub type Channel = (Endpoint, Endpoint);

/// Per-core in-flight scripted commit.
#[derive(Clone, Debug)]
struct PendingCommit {
    req: CommitRequest,
    first_requested: Cycle,
    retries: u32,
}

#[derive(Clone, Debug)]
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
/// Directory state is shared between clones until one of them writes
/// it, so an explorer's clone per visited state stays cheap.
#[derive(Clone, Debug)]
struct FabricView {
    now: Cycle,
    cores: u16,
    dirs: u16,
    dirstate: Vec<Rc<DirectoryState>>,
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
#[derive(Clone)]
pub struct Fabric<M> {
    cfg: FabricConfig,
    view: FabricView,
    /// Every pending event with its channel, keyed by (time, issue). A
    /// channel's events leave in this order, so its head is its first
    /// event here, and the earliest head is the first event overall.
    queue: BTreeMap<(Cycle, u64), (Channel, Ev<M>)>,
    next_seq: u64,
    pending: BTreeMap<CoreId, PendingCommit>,
    /// Tags squashed by a bulk invalidation; never retried (the host
    /// guarantee of [`CommitProtocol`]).
    dead: HashSet<ChunkTag>,
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
                dirstate: (0..cfg.dirs)
                    .map(|_| Rc::new(DirectoryState::new()))
                    .collect(),
            },
            cfg,
            queue: BTreeMap::new(),
            next_seq: 0,
            pending: BTreeMap::new(),
            dead: HashSet::new(),
            report: FabricReport::default(),
        }
    }

    /// Seeds directory state: `core` is a sharer of `line` homed at `dir`.
    pub fn seed_sharer(&mut self, dir: DirId, line: LineAddr, core: CoreId) {
        Rc::make_mut(&mut self.view.dirstate[dir.idx()]).record_read(line, core);
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
        let core = Endpoint::Core(req.tag.core());
        self.push((core, core), at, Ev::StartCommit { req });
    }

    /// Runs until quiescence or `max_steps` deliveries, always delivering
    /// the earliest channel head. Returns the report (also retrievable
    /// via [`Fabric::report`]).
    pub fn run<P>(&mut self, proto: &mut P, max_steps: usize) -> FabricReport
    where
        P: CommitProtocol<Msg = M>,
    {
        for _ in 0..max_steps {
            let Some((_, &(chan, _))) = self.queue.first_key_value() else {
                break;
            };
            self.step(proto, chan);
        }
        self.report.hit_step_limit |= !self.queue.is_empty();
        self.report.finished_at = self.view.now;
        self.report.clone()
    }

    /// The channels with a pending event, earliest head first.
    pub fn heads(&self) -> Vec<Channel> {
        let mut heads = Vec::new();
        for (chan, _) in self.queue.values() {
            if !heads.contains(chan) {
                heads.push(*chan);
            }
        }
        heads
    }

    /// Delivers the head of `chan`, whatever other channel's head is
    /// earlier. Time never runs backwards: the clock advances to the
    /// event's time only if that is later.
    ///
    /// # Panics
    ///
    /// Panics if nothing is pending on `chan`.
    pub fn step<P>(&mut self, proto: &mut P, chan: Channel)
    where
        P: CommitProtocol<Msg = M>,
    {
        let (&key, _) = (self.queue.iter())
            .find(|(_, (c, _))| *c == chan)
            .unwrap_or_else(|| panic!("nothing pending on channel {chan:?}"));
        let (_, ev) = self.queue.remove(&key).expect("just found");
        self.view.now = self.view.now.max(key.0);
        let at = self.view.now;
        let mut out = crate::command::Outbox::new();
        match ev {
            Ev::Deliver { dst, msg } => proto.deliver(&self.view, &mut out, dst, msg),
            Ev::StartCommit { req } => {
                if self.dead.contains(&req.tag) {
                    return; // squashed while a retry was queued
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
                    let conflicts = wsig.intersects(&p.req.rsig) || wsig.intersects(&p.req.wsig);
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
                let ack = BulkInvAck {
                    dir: from,
                    from: to,
                    tag,
                    aborted,
                };
                let ack_at = at + self.cfg.ack_delay + self.cfg.link_latency;
                self.push(
                    (Endpoint::Core(to), Endpoint::Dir(from)),
                    ack_at,
                    Ev::AckAtDir { ack },
                );
                // Also drop the sharer from every directory (cache
                // invalidation effect), conservatively at all dirs.
                for d in &mut self.view.dirstate {
                    let lines = d.lines_matching(&wsig);
                    if !lines.is_empty() {
                        let d = Rc::make_mut(d);
                        for l in lines {
                            d.drop_sharer(l, to);
                        }
                    }
                }
            }
            Ev::AckAtDir { ack } => proto.bulk_inv_acked(&self.view, &mut out, ack),
            Ev::SuccessAtCore { core, tag } => match self.pending.get(&core) {
                Some(p) if p.req.tag == tag => {
                    let p = self.pending.remove(&core).expect("just found");
                    self.report.outcomes.push(Outcome::Committed {
                        tag,
                        latency: (at - p.first_requested).as_u64(),
                        retries: p.retries,
                    });
                }
                _ if self.dead.contains(&tag) => self.report.late_successes.push(tag),
                _ => {}
            },
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
                            let core = Endpoint::Core(core);
                            let retry_at = at + self.cfg.retry_backoff;
                            self.push((core, core), retry_at, Ev::StartCommit { req });
                        }
                    }
                }
            }
        }
        self.execute(out.drain());
    }

    /// Queues `ev` on `chan` behind every event due no later than `at`.
    fn push(&mut self, chan: Channel, at: Cycle, ev: Ev<M>) {
        self.queue.insert((at, self.next_seq), (chan, ev));
        self.next_seq += 1;
    }

    fn execute(&mut self, cmds: Vec<Command<M>>) {
        let at = self.view.now + self.cfg.link_latency;
        for cmd in cmds {
            match cmd {
                Command::Send { src, dst, msg, .. } => {
                    self.push((src, dst), at, Ev::Deliver { dst, msg });
                }
                Command::After { delay, dst, msg } => {
                    self.push((dst, dst), self.view.now + delay, Ev::Deliver { dst, msg });
                }
                Command::CommitSuccess { core, tag, from } => {
                    let chan = (Endpoint::Dir(from), Endpoint::Core(core));
                    self.push(chan, at, Ev::SuccessAtCore { core, tag });
                }
                Command::CommitFailure { core, tag, from } => {
                    let chan = (Endpoint::Dir(from), Endpoint::Core(core));
                    self.push(chan, at, Ev::FailureAtCore { core, tag });
                }
                Command::BulkInv {
                    from,
                    to,
                    tag,
                    wsig,
                    ..
                } => {
                    let chan = (Endpoint::Dir(from), Endpoint::Core(to));
                    let ev = Ev::BulkInvAtCore {
                        from,
                        to,
                        tag,
                        wsig,
                    };
                    self.push(chan, at, ev);
                }
                Command::ApplyCommit {
                    dir,
                    wsig,
                    committer,
                } => {
                    Rc::make_mut(&mut self.view.dirstate[dir.idx()]).apply_commit(&wsig, committer);
                }
                Command::Event(ev) => self.report.events.push((self.view.now, ev)),
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

/// The delivery state, comparable across histories: every pending event
/// in channel order with its due time counted from now (0 once due), the
/// in-flight commits, each finished chunk's outcome kind and the late
/// successes. Two fabrics that print alike deliver alike from here on,
/// given equal protocol and directory state, which are not printed; an
/// explorer can key visited states by it.
impl<M: std::fmt::Debug> std::fmt::Debug for Fabric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let now = self.view.now.as_u64();
        let mut channels: BTreeMap<&Channel, Vec<_>> = BTreeMap::new();
        for (&(at, _), (chan, ev)) in &self.queue {
            let due = at.as_u64().saturating_sub(now);
            channels.entry(chan).or_default().push((due, ev));
        }
        let outcomes: Vec<_> = self
            .report
            .outcomes
            .iter()
            .map(|o| match o {
                Outcome::Committed { tag, .. } => (tag, "committed"),
                Outcome::Squashed { tag } => (tag, "squashed"),
                Outcome::GaveUp { tag } => (tag, "gave up"),
            })
            .collect();
        f.debug_struct("Fabric")
            .field("channels", &channels)
            .field("pending", &self.pending.keys().collect::<Vec<_>>())
            .field("outcomes", &outcomes)
            .field("late_successes", &self.report.late_successes)
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
        /// Core 0's requests also bulk-invalidate core 1 with core 0's
        /// write set, straight from the directory.
        invalidate: bool,
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
            if self.invalidate && req.tag.core() == CoreId(0) {
                out.bulk_inv(DirId(0), CoreId(1), req.tag, req.wsig.clone());
            }
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
    fn a_success_reaching_a_squashed_chunk_is_a_late_success() {
        let writer = |core: u16| {
            let mut c = ActiveChunk::new(
                ChunkTag::new(CoreId(core), 0),
                SignatureConfig::paper_default(),
            );
            c.record_write(LineAddr(100), DirId(0));
            c.to_commit_request()
        };
        let (a, b) = (writer(0), writer(1));
        let (ta, tb) = (a.tag, b.tag);
        let mut f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        // Core 1's grant is decided at cycle 10; core 0's invalidation
        // squashes core 1's chunk at cycle 11, before the success lands.
        f.schedule_commit(Cycle(0), b);
        f.schedule_commit(Cycle(1), a);
        let mut p = TwoPhase {
            invalidate: true,
            ..TwoPhase::default()
        };
        let report = f.run(&mut p, 10_000);
        assert_eq!(report.outcome_of(tb), Some(Outcome::Squashed { tag: tb }));
        assert!(report.outcome_of(ta).unwrap().is_committed());
        assert_eq!(report.late_successes, vec![tb]);
    }

    #[test]
    fn debug_impl_nonempty() {
        let f: Fabric<Grant> = Fabric::new(FabricConfig::small());
        assert!(format!("{f:?}").contains("Fabric"));
    }
}
