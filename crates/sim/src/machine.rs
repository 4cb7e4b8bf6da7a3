//! The full-system discrete-event machine.
//!
//! # Two-plane superphase executor
//!
//! The machine's event space is partitioned into two planes:
//!
//! * **Plane A** — one [`CoreUnit`] per simulated core: instruction
//!   execution, the private cache hierarchy, chunk windows, squash
//!   handling, and the core-side injection port of the torus. Units
//!   never touch each other's state.
//! * **Plane B** — the [`Hub`]: the commit protocol, the directory
//!   modules, and the directory-side injection ports. All protocol
//!   serialization decisions live here.
//!
//! The planes exchange *mail*: units emit [`CoreToB`] messages (read
//! requests arriving at a home directory, commit requests, bulk-inv
//! acks), the hub emits [`AEv`] messages back (read responses, bulk
//! invalidations, commit outcomes). Execution alternates A and B
//! *superphases* under a conservative horizon:
//!
//! * `G` = the earliest pending event anywhere (hub queue, unit queues);
//! * the A phase lets every unit, in index order, drain events strictly
//!   below `G + margin`, where `margin = fixed_overhead.max(1)`: any
//!   hub→core message sent at or after `G` arrives at
//!   `G + fixed_overhead` at the earliest (perturbation only *adds*
//!   delay);
//! * the B phase then drains the hub strictly below the earliest
//!   unit-side pending event, dynamically clamped to each hub→core
//!   mail arrival it generates, so the hub never runs past a message a
//!   unit still has to see.
//!
//! The superphase schedule defines simulated timing (the goldens pin
//! it). Mail crosses the plane boundary in a fixed (unit index,
//! generation) order. A unit with no event below the horizon would
//! drain nothing, so the loop tracks each unit's next event time and
//! skips it; with hundreds of cores most units are idle in any one
//! superphase.
//!
//! Observability (causal flows, the chunk-lifecycle trace, the obs log)
//! goes to one [`Recorder`] owned by the machine and lent to whichever
//! plane is running. Recording happens in execution order, so flows get
//! dense 1-based ids as they are allocated (parents always precede
//! children) and `delivered_at` is patched in place.

use std::collections::VecDeque;
use std::sync::Arc;

use sb_chunks::{ChunkSpec, ChunkTag, ChunkWindow, CommitRequest};
use sb_engine::{Cycle, EventQueue, FxHashMap, FxHashSet, SplitMix64};
use sb_mem::{
    page_masks, CacheHierarchy, CoreId, CoreSet, DirId, DirectoryState, HitLevel, LineAddr,
    LineSet, PageMapper, ReadSource, TileSet,
};
use sb_net::{MsgSize, Network, PerturbationConfig, TrafficClass};
use sb_proto::{
    AbortedCommit, AddrFootprint, BulkInvAck, ChoiceMeta, Command, CommitProtocol, Endpoint,
    FlowId, MachineView, Outbox, ProtoEvent,
};
use sb_sigs::{SigHandle, Signature};
use sb_stats::{
    Breakdown, DirsPerCommit, LatencyDist, MetricsRegistry, PerfReport, SerializationGauges,
};
use sb_workloads::WorkloadGen;

use crate::config::{InjectedBug, SimConfig};
use crate::obs::{FlowEvent, FlowKind, ObsEvent, ObsKind, ObsLog};
use crate::result::RunResult;
use crate::sched::{ChoiceSite, Scheduler};
use crate::trace::{ChunkSnapshot, RunTrace, TraceEvent};

/// Cap on how many accesses one `Step` event may process. Batching cuts
/// event counts by an order of magnitude while keeping the time skew
/// between a core's local progress and cross-core events small.
const STEP_BATCH: usize = 32;

/// Reborrows an optional scheduler for a nested call. (A plain
/// `as_deref_mut` can't shorten the trait object's lifetime bound behind
/// `&mut`; the explicit `&mut **` reborrow hits the coercion site.)
fn resched<'s>(sched: &'s mut Option<&mut dyn Scheduler>) -> Option<&'s mut dyn Scheduler> {
    match sched {
        Some(s) => Some(&mut **s),
        None => None,
    }
}

/// The lines of `set`, ascending.
fn ascending(set: &LineSet) -> Vec<LineAddr> {
    let mut lines: Vec<LineAddr> = set.iter().copied().collect();
    lines.sort_unstable();
    lines
}

/// The lines `spec` reads and the lines it writes, each ascending and
/// without repeats. Only traced runs call this, once per commit, so it
/// stays out of line rather than grow the unit's hot loop.
#[inline(never)]
fn footprint(spec: &ChunkSpec) -> (Vec<LineAddr>, Vec<LineAddr>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for a in spec.accesses() {
        if a.is_write {
            writes.push(a.line);
        } else {
            reads.push(a.line);
        }
    }
    for lines in [&mut reads, &mut writes] {
        lines.sort_unstable();
        lines.dedup();
        lines.shrink_to_fit();
    }
    (reads, writes)
}

/// Plane-A event: core-local, dispatched by the owning [`CoreUnit`].
enum AEv {
    /// Core resumes executing its instruction stream.
    Step { epoch: u64 },
    /// The read response (or nack retry timer) arrives back at the core.
    ReadDone {
        line: LineAddr,
        epoch: u64,
        stall_start: Cycle,
        nacked: bool,
    },
    /// A store-miss fill completes (no core stall).
    StoreFill { line: LineAddr },
    /// A bulk invalidation arrives at the core. The W signature travels
    /// as a [`SigHandle`]: fanning one commit out to `n` sharers is `n`
    /// refcount bumps, not `n` signature copies.
    BulkInv {
        from: DirId,
        tag: ChunkTag,
        wsig: SigHandle,
        cause: FlowId,
    },
    /// Commit success/failure notification arrives at the core.
    Outcome {
        tag: ChunkTag,
        success: bool,
        cause: FlowId,
    },
    /// Commit retry backoff expired.
    Retry { tag: ChunkTag, cause: FlowId },
}

impl AEv {
    /// The causal flow that scheduled this event ([`FlowId::NONE`] for
    /// core-execution events, which tracing treats as external causes).
    fn cause(&self) -> FlowId {
        match self {
            AEv::BulkInv { cause, .. } | AEv::Outcome { cause, .. } | AEv::Retry { cause, .. } => {
                *cause
            }
            _ => FlowId::NONE,
        }
    }
}

/// Plane A → plane B mail: a unit-side event whose handler lives at the
/// directories or the protocol.
enum CoreToB {
    /// A read request arrives at the home directory.
    ReadAtDir {
        core: u16,
        line: LineAddr,
        epoch: u64,
        stall_start: Cycle,
    },
    /// A store fetch arrives at the home directory.
    StoreAtDir { core: u16, line: LineAddr },
    /// A bulk-invalidation ack arrives back at the issuing directory.
    AckAtDir { ack: BulkInvAck, cause: FlowId },
    /// The core hands a sealed chunk to the commit protocol.
    CommitStart { req: CommitRequest, cause: FlowId },
}

impl CoreToB {
    fn cause(&self) -> FlowId {
        match self {
            CoreToB::AckAtDir { cause, .. } | CoreToB::CommitStart { cause, .. } => *cause,
            _ => FlowId::NONE,
        }
    }
}

/// Plane-B event: dispatched by the serial [`Hub`].
enum BEv<M> {
    /// Mail from a core unit.
    FromCore(CoreToB),
    /// A read is ready to be served (memory access / owner lookup done):
    /// the response message is injected *now*, keeping per-node
    /// injection timestamps monotonic.
    ReadServe {
        core: u16,
        line: LineAddr,
        epoch: u64,
        stall_start: Cycle,
        from: sb_net::NodeId,
        class: TrafficClass,
    },
    /// A store fetch is ready to be served.
    StoreServe {
        core: u16,
        line: LineAddr,
        from: sb_net::NodeId,
        class: TrafficClass,
    },
    /// A protocol message is delivered.
    Proto {
        dst: Endpoint,
        msg: M,
        cause: FlowId,
    },
}

impl<M> BEv<M> {
    fn cause(&self) -> FlowId {
        match self {
            BEv::FromCore(m) => m.cause(),
            BEv::Proto { cause, .. } => *cause,
            _ => FlowId::NONE,
        }
    }
}

/// Machine state visible to protocols: the hub's clock plus read access
/// to the directory modules.
struct BView<'a> {
    now: Cycle,
    cores: u16,
    dirs: &'a [DirectoryState],
}

impl MachineView for BView<'_> {
    fn now(&self) -> Cycle {
        self.now
    }
    fn cores(&self) -> u16 {
        self.cores
    }
    fn dirs(&self) -> u16 {
        self.dirs.len() as u16
    }
    fn sharers_matching(&self, dir: DirId, wsig: &Signature, committer: CoreId) -> CoreSet {
        self.dirs[dir.idx()].sharers_matching(wsig, committer)
    }
}

/// Traffic class of a read served from `src` (§6.5's three read
/// classes). Shared by both planes: units classify their outgoing
/// requests against the frozen phase-boundary directory state, the hub
/// classifies while serving.
fn read_class(src: ReadSource) -> TrafficClass {
    match src {
        ReadSource::Owner(_) => TrafficClass::RemoteDirtyRd,
        ReadSource::Cache => TrafficClass::RemoteShRd,
        ReadSource::Memory => TrafficClass::MemRd,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Running,
    WaitRead,
    WaitCommitSlot,
    Finished,
}

struct PendingCommit {
    tag: ChunkTag,
    req: CommitRequest,
    /// The spec, kept for re-execution if the chunk is squashed.
    spec: ChunkSpec,
    started: Cycle,
    retries: u64,
    retry_scheduled: bool,
}

/// Cycles invested in an in-flight chunk, for squash re-accounting.
#[derive(Clone, Copy, Default)]
struct Invested {
    useful: u64,
    cache: u64,
}

struct CoreCtx {
    window: ChunkWindow,
    hier: CacheHierarchy,
    /// Lines with a store fetch in flight (merge duplicate fetches).
    /// Fx-hashed: probed on every store retirement, and only ever
    /// accessed by key, so the hasher cannot affect simulated results.
    store_pending: FxHashSet<LineAddr>,
    spec: Option<ChunkSpec>,
    pos: usize,
    per_gap: u64,
    leading: u64,
    respec: VecDeque<ChunkSpec>,
    epoch: u64,
    phase: Phase,
    committed_insns: u64,
    target: u64,
    pending_commit: Option<PendingCommit>,
    /// A chunk that finished executing while an older chunk's commit was
    /// still in flight: chunks from one core commit in order, so its
    /// commit request is deferred until the older one retires.
    waiting_commit: Option<PendingCommit>,
    /// Conservatively-held bulk invalidations (OCI disabled).
    held_invs: Vec<(DirId, ChunkTag, SigHandle)>,
    commit_wait_since: Option<Cycle>,
    breakdown: Breakdown,
    /// Keyed-access only (never iterated) — safe to Fx-hash.
    invested: FxHashMap<ChunkTag, Invested>,
    thread: usize,
    finished_at: Cycle,
}

impl CoreCtx {
    /// Charges `*useful` cycles to the executing chunk and zeroes it.
    fn charge_useful(&mut self, useful: &mut u64) {
        let n = std::mem::take(useful);
        if n == 0 {
            return;
        }
        let tag = self
            .window
            .youngest_mut()
            .expect("executing chunk")
            .chunk
            .tag();
        self.breakdown.useful += n;
        self.invested.entry(tag).or_default().useful += n;
    }

    fn charge_cache(&mut self, n: u64, tag: ChunkTag) {
        self.breakdown.cache_miss += n;
        self.invested.entry(tag).or_default().cache += n;
    }
}

/// The run's one observation recorder: the chunk-lifecycle trace, the
/// obs log, and the causal flow DAG, in execution order. Owned by the
/// [`Machine`] and lent to whichever plane is dispatching.
struct Recorder {
    trace_on: bool,
    obs_on: bool,
    trace: Vec<TraceEvent>,
    obs: Vec<ObsEvent>,
    flows: Vec<FlowEvent>,
    /// The flow being dispatched: parent of every flow its handler records.
    cause: FlowId,
}

impl Recorder {
    /// Enters the handler of an event caused by `cause` at `t`, patching
    /// the cause's `delivered_at` up to the handler time (the
    /// critical-path exactness invariant).
    fn dispatch(&mut self, cause: FlowId, t: Cycle) {
        self.cause = cause;
        if !self.obs_on || cause.is_none() {
            return;
        }
        let f = &mut self.flows[(cause.0 - 1) as usize];
        if f.delivered_at < t {
            f.delivered_at = t;
        }
    }

    /// Allocates the next dense flow id, parented to the flow being
    /// dispatched. Returns [`FlowId::NONE`] (and records nothing) when
    /// observability is off.
    #[allow(clippy::too_many_arguments)]
    fn flow(
        &mut self,
        kind: FlowKind,
        label: &'static str,
        tag: Option<ChunkTag>,
        src: Endpoint,
        dst: Endpoint,
        sent_at: Cycle,
        delivered_at: Cycle,
        net: Option<sb_net::SendInfo>,
    ) -> FlowId {
        if !self.obs_on {
            return FlowId::NONE;
        }
        let id = FlowId(self.flows.len() as u64 + 1);
        self.flows.push(FlowEvent {
            id,
            parent: self.cause,
            kind,
            label,
            tag,
            src,
            dst,
            sent_at,
            delivered_at,
            net,
        });
        id
    }

    fn obs(&mut self, at: Cycle, kind: ObsKind) {
        if self.obs_on {
            self.obs.push(ObsEvent { at, kind });
        }
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.trace_on {
            self.trace.push(ev);
        }
    }
}

/// One plane-A scheduler: a core, its caches and chunk window, its own
/// event queue, clock, injection port, and statistics. Its thread's
/// chunks come from the machine's one [`WorkloadGen`], lent to the unit
/// while it runs.
struct CoreUnit {
    core: u16,
    cfg: SimConfig,
    ctx: CoreCtx,
    queue: EventQueue<AEv>,
    batch: VecDeque<(Cycle, AEv)>,
    now: Cycle,
    /// Core-side network ports: this unit's requests and acks inject
    /// here. Directory-side traffic uses the hub's network; the split
    /// keeps injection-port state unit-local.
    net: Network,
    mapper: Arc<PageMapper>,
    /// Mail to the hub, in generation order; drained at the phase edge.
    to_b: Vec<(Cycle, CoreToB)>,
    events: u64,
    /// Accesses executed, and the (line, kind) pairs among them that
    /// were new to their chunk (host-profile counters).
    accesses: u64,
    lines_recorded: u64,
    // ---- unit-local statistics, merged at freeze ----
    remote_reads: u64,
    commits: u64,
    squash_conflict: u64,
    squash_alias: u64,
    commit_retries: u64,
    latency: LatencyDist,
    dirs_stat: DirsPerCommit,
    supports_held_invs: bool,
    finish_reported: bool,
}

impl CoreUnit {
    /// Drains every pending event strictly below `horizon`, in exact
    /// `(cycle, seq)` order — or, when a [`Scheduler`] is plugged in, in
    /// the order it picks within each same-cycle batch. Plane B only
    /// mutates directories while no A phase is running.
    fn run_phase(
        &mut self,
        horizon: Cycle,
        dirs: &[DirectoryState],
        rec: &mut Recorder,
        workload: &mut WorkloadGen,
        mut sched: Option<&mut dyn Scheduler>,
    ) {
        loop {
            if self.batch.is_empty() {
                // `advance_until` refills with exactly one cycle's
                // events (the choice-point contract), so a scheduler
                // pick below never reorders across cycles.
                self.queue.advance_until(horizon, &mut self.batch);
            }
            let next = match resched(&mut sched) {
                Some(s) if self.batch.len() > 1 => {
                    let ready: Vec<ChoiceMeta> = self
                        .batch
                        .iter()
                        .map(|(_, e)| self.choice_meta(e))
                        .collect();
                    let i = s
                        .choose(ChoiceSite::Core(self.core), &ready)
                        .min(self.batch.len() - 1);
                    self.batch.remove(i)
                }
                _ => self.batch.pop_front(),
            };
            let Some((at, ev)) = next else { break };
            self.now = self.now.max_of(at);
            self.events += 1;
            self.dispatch(ev, dirs, rec, workload);
        }
    }

    /// Resource footprint of a plane-A event, for the explorer. Every
    /// unit event runs against this core's private state, so any two at
    /// the same core are dependent; the footprint's job is to describe
    /// the *shared* state a pick may touch (invalidation signatures,
    /// lines being filled) for cross-checking against hub events.
    fn choice_meta(&self, ev: &AEv) -> ChoiceMeta {
        let tile = TileSet::single(self.core);
        let m = ChoiceMeta::at_tiles(
            match ev {
                AEv::Step { .. } => "step",
                AEv::ReadDone { .. } => "read-done",
                AEv::StoreFill { .. } => "store-fill",
                AEv::BulkInv { .. } => "bulk-inv",
                AEv::Outcome { .. } => "outcome",
                AEv::Retry { .. } => "retry",
            },
            tile,
        )
        .at_core(self.core);
        match ev {
            AEv::ReadDone { line, .. } | AEv::StoreFill { line } => {
                m.reads(AddrFootprint::Line(line.0))
            }
            AEv::BulkInv { tag, wsig, .. } => {
                m.with_tag(*tag).writes(AddrFootprint::Sig(wsig.share()))
            }
            AEv::Outcome { tag, .. } | AEv::Retry { tag, .. } => m.with_tag(*tag),
            AEv::Step { .. } => m,
        }
    }

    fn dispatch(
        &mut self,
        ev: AEv,
        dirs: &[DirectoryState],
        rec: &mut Recorder,
        workload: &mut WorkloadGen,
    ) {
        rec.dispatch(ev.cause(), self.now);
        match ev {
            AEv::Step { epoch } => {
                if self.ctx.epoch == epoch {
                    self.step(dirs, rec, workload);
                }
            }
            AEv::ReadDone {
                line,
                epoch,
                stall_start,
                nacked,
            } => self.read_done(line, epoch, stall_start, nacked),
            AEv::StoreFill { line } => {
                self.ctx.store_pending.remove(&line);
                self.ctx.hier.fill(line);
                self.ctx.hier.mark_written(line);
            }
            AEv::BulkInv {
                from,
                tag,
                wsig,
                cause: _,
            } => self.bulk_inv_at_core(from, tag, wsig, rec),
            AEv::Outcome {
                tag,
                success,
                cause: _,
            } => self.outcome(tag, success, rec),
            AEv::Retry { tag, cause: _ } => self.retry(tag, rec),
        }
    }

    // ----- core execution -------------------------------------------------

    /// Ensures the core has a chunk to execute; returns false if the core
    /// is (now) finished or must wait.
    fn ensure_chunk(&mut self, rec: &mut Recorder, workload: &mut WorkloadGen) -> bool {
        let t = self.now;
        let core = self.core;
        let c = &mut self.ctx;
        if c.spec.is_some() {
            return true;
        }
        let wants_work = !c.respec.is_empty() || c.committed_insns < c.target;
        if !wants_work {
            if c.window.in_flight() == 0 && c.phase != Phase::Finished {
                c.phase = Phase::Finished;
                c.finished_at = t;
            }
            return false;
        }
        if !c.window.has_free_slot() {
            if c.phase != Phase::WaitCommitSlot {
                c.phase = Phase::WaitCommitSlot;
                c.commit_wait_since = Some(t);
            }
            return false;
        }
        let spec = match c.respec.pop_front() {
            Some(s) => s,
            None => {
                if self.cfg.cores == 1 {
                    workload.next_chunk_any()
                } else {
                    workload.next_chunk(c.thread)
                }
            }
        };
        let c = &mut self.ctx;
        let (leading, per_gap) = spec.compute_gaps();
        let tag = c.window.start_chunk().expect("slot checked");
        c.leading = leading;
        c.per_gap = per_gap;
        c.pos = 0;
        c.spec = Some(spec);
        c.phase = Phase::Running;
        rec.trace(TraceEvent::ExecStart { core, tag, at: t });
        true
    }

    /// Executes up to [`STEP_BATCH`] accesses of the core's current chunk.
    fn step(&mut self, dirs: &[DirectoryState], rec: &mut Recorder, workload: &mut WorkloadGen) {
        let mut t = self.now;
        // Useful cycles are summed here and charged when the chunk
        // finishes or the batch ends: nothing in the loop reads them.
        let mut useful = 0;
        let mut yielded = true;
        for _ in 0..STEP_BATCH {
            if !self.ensure_chunk(rec, workload) {
                yielded = false;
                break;
            }
            let c = &mut self.ctx;
            let slot = c.window.youngest_mut().expect("executing chunk");
            let tag = slot.chunk.tag();
            let spec = c.spec.as_ref().expect("ensured");
            let Some(&access) = spec.accesses().get(c.pos) else {
                // Chunk finished executing (possibly with zero accesses).
                c.charge_useful(&mut useful);
                self.finish_chunk(t, rec);
                continue;
            };
            // Non-memory instructions before this access, plus the access.
            let lead = if c.pos == 0 { c.leading } else { 0 };
            let insns = lead + c.per_gap + 1;
            useful += insns;
            t += insns;
            c.pos += 1;
            // The home is looked up only for a line new to the chunk, or
            // below for a miss.
            let line = access.line;
            let mapper = &self.mapper;
            let mut home = None;
            let new = slot.chunk.record(line, access.is_write, || {
                *home.insert(mapper.home_frozen(line))
            });
            self.accesses += 1;
            self.lines_recorded += u64::from(new);
            if access.is_write {
                self.do_store(line, home, t, dirs);
            } else if !self.do_load(line, home, t, tag, dirs) {
                // Remote load: the core stalls until the response.
                yielded = false;
                break;
            }
        }
        self.ctx.charge_useful(&mut useful);
        if yielded {
            // Batch exhausted: yield and continue at the local cursor time.
            let epoch = self.ctx.epoch;
            self.queue.push(t, AEv::Step { epoch });
        }
    }

    /// Handles a load; returns `true` if the core can continue (hit),
    /// `false` if it stalls on a remote access. `home` is the line's
    /// home directory if already looked up.
    fn do_load(
        &mut self,
        line: LineAddr,
        home: Option<DirId>,
        t: Cycle,
        tag: ChunkTag,
        dirs: &[DirectoryState],
    ) -> bool {
        let hit = self.ctx.hier.access(line);
        match hit {
            HitLevel::L1 => true,
            HitLevel::L2 => {
                let stall = self.cfg.hier.l2_round_trip;
                self.ctx.charge_cache(stall, tag);
                true
            }
            HitLevel::Miss => {
                self.remote_reads += 1;
                self.ctx.phase = Phase::WaitRead;
                let epoch = self.ctx.epoch;
                let home = home.unwrap_or_else(|| self.mapper.home_frozen(line));
                let class = read_class(dirs[home.idx()].read_source(line));
                let arrive = self.net.send(
                    t,
                    sb_net::NodeId(self.core),
                    sb_net::NodeId(home.0),
                    MsgSize::Small,
                    class,
                );
                self.to_b.push((
                    arrive,
                    CoreToB::ReadAtDir {
                        core: self.core,
                        line,
                        epoch,
                        stall_start: t,
                    },
                ));
                false
            }
        }
    }

    /// Handles a store: local mark, plus a non-blocking fetch on a miss.
    /// `home` is the line's home directory if already looked up.
    fn do_store(&mut self, line: LineAddr, home: Option<DirId>, t: Cycle, dirs: &[DirectoryState]) {
        let c = &mut self.ctx;
        if c.hier.contains(line) {
            c.hier.mark_written(line);
            return;
        }
        if !c.store_pending.insert(line) {
            return; // fetch already in flight
        }
        // Read-for-write: fetch the line without stalling (store buffer).
        let home = home.unwrap_or_else(|| self.mapper.home_frozen(line));
        let class = read_class(dirs[home.idx()].read_source(line));
        let req_arrive = self.net.send(
            t,
            sb_net::NodeId(self.core),
            sb_net::NodeId(home.0),
            MsgSize::Small,
            class,
        );
        self.to_b.push((
            req_arrive,
            CoreToB::StoreAtDir {
                core: self.core,
                line,
            },
        ));
    }

    fn read_done(&mut self, line: LineAddr, epoch: u64, stall_start: Cycle, nacked: bool) {
        let t = self.now;
        if self.ctx.epoch != epoch {
            return; // the chunk this read belonged to was squashed
        }
        if nacked {
            // Retry the read from scratch.
            let home = self.mapper.home_frozen(line);
            let arrive = self.net.send(
                t,
                sb_net::NodeId(self.core),
                sb_net::NodeId(home.0),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
            );
            self.to_b.push((
                arrive,
                CoreToB::ReadAtDir {
                    core: self.core,
                    line,
                    epoch,
                    stall_start,
                },
            ));
            return;
        }
        let tag = {
            let c = &mut self.ctx;
            c.hier.fill(line);
            c.phase = Phase::Running;
            c.window
                .youngest_mut()
                .expect("stalled chunk still in flight")
                .chunk
                .tag()
        };
        let stall = (t - stall_start).as_u64();
        self.ctx.charge_cache(stall, tag);
        self.queue.push(t, AEv::Step { epoch });
    }

    // ----- commit lifecycle -----------------------------------------------

    fn finish_chunk(&mut self, t: Cycle, rec: &mut Recorder) {
        let core = self.core;
        let (tag, req, spec) = {
            let c = &mut self.ctx;
            let spec = c.spec.take().expect("finishing chunk");
            let slot = c.window.youngest_mut().expect("executing chunk");
            slot.chunk.retire_instructions(spec.instructions());
            let tag = slot.chunk.tag();
            let req = slot.chunk.to_commit_request();
            c.window.mark_commit_pending(tag);
            (tag, req, spec)
        };
        let pending = PendingCommit {
            tag,
            req: req.clone(),
            spec,
            started: t,
            retries: 0,
            retry_scheduled: false,
        };
        self.now = self.now.max_of(t);
        if self.ctx.pending_commit.is_some() {
            // An older chunk's commit is still in flight: chunks commit in
            // order, so this one waits (it will show up as commit stall —
            // the window is now full).
            debug_assert!(self.ctx.waiting_commit.is_none());
            self.ctx.waiting_commit = Some(pending);
            return;
        }
        self.ctx.pending_commit = Some(pending);
        // Root the chunk's causal chain at the commit-request instant
        // (`started`, the origin of the recorded latency); the protocol
        // commands the hub issues parent to it across the plane boundary.
        let cause = rec.flow(
            FlowKind::CommitStart,
            "commit start",
            Some(tag),
            Endpoint::Core(CoreId(core)),
            Endpoint::Core(CoreId(core)),
            t,
            t,
            None,
        );
        self.to_b.push((t, CoreToB::CommitStart { req, cause }));
    }

    // ----- commit outcomes ------------------------------------------------

    fn outcome(&mut self, tag: ChunkTag, success: bool, rec: &mut Recorder) {
        let t = self.now;
        let core = self.core;
        let matches = self
            .ctx
            .pending_commit
            .as_ref()
            .is_some_and(|p| p.tag == tag);
        if !matches {
            return; // stale outcome for a squashed chunk (OCI discard)
        }
        if success {
            let p = self.ctx.pending_commit.take().expect("matched");
            let inv = {
                let c = &mut self.ctx;
                let retired = c.window.retire_oldest();
                debug_assert_eq!(retired, tag);
                c.committed_insns += p.spec.instructions();
                c.invested.remove(&tag).unwrap_or_default()
            };
            rec.obs(
                t,
                ObsKind::ChunkDone {
                    core,
                    tag,
                    committed: true,
                    useful: inv.useful,
                    cache: inv.cache,
                },
            );
            if rec.trace_on {
                // Exact footprint from the spec: `step` records every spec
                // access into the chunk's sets, so this reconstructs the
                // retired chunk's read/write sets independently.
                let (reads, writes) = footprint(&p.spec);
                rec.trace(TraceEvent::Committed {
                    core,
                    tag,
                    at: t,
                    reads,
                    writes,
                });
            }
            self.commits += 1;
            self.commit_retries += p.retries;
            self.latency.record((t - p.started).as_u64());
            // `write_dirs ⊆ g_vec`: the rest of `g_vec` only read.
            let writes = p.req.write_dirs.len();
            self.dirs_stat.record(writes, p.req.g_vec.len() - writes);
            // A younger chunk that finished executing in the meantime can
            // now issue its (deferred) commit request.
            if let Some(mut w) = self.ctx.waiting_commit.take() {
                w.started = t;
                let wtag = w.tag;
                let req = w.req.clone();
                self.ctx.pending_commit = Some(w);
                // The deferred chunk's latency is measured from here, so
                // its causal chain gets a fresh root at `t` (still
                // parented to the older chunk's success flow — truthful
                // causality for the graph; the walk stops at the root).
                let cause = rec.flow(
                    FlowKind::CommitStart,
                    "commit start",
                    Some(wtag),
                    Endpoint::Core(CoreId(core)),
                    Endpoint::Core(CoreId(core)),
                    t,
                    t,
                    None,
                );
                self.to_b.push((t, CoreToB::CommitStart { req, cause }));
            }
            // Conservative mode: invalidations held during the commit are
            // processed now.
            self.process_held_invs(rec);
            self.resume_after_window_change(t, rec);
        } else {
            let mut backoff = None;
            {
                let c = &mut self.ctx;
                let p = c.pending_commit.as_mut().expect("matched");
                if !p.retry_scheduled {
                    p.retry_scheduled = true;
                    p.retries += 1;
                    // Exponential backoff with deterministic jitter:
                    // collision storms among wide groups need spreading
                    // out.
                    let shift = p.retries.min(5) as u32;
                    let jitter = (tag.seq().wrapping_mul(0x9E37_79B9) ^ p.retries) % 37;
                    backoff = Some(self.cfg.retry_backoff * (1u64 << shift) / 2 + jitter);
                }
            }
            if let Some(delay) = backoff {
                let cause = rec.flow(
                    FlowKind::Backoff,
                    "retry backoff",
                    Some(tag),
                    Endpoint::Core(CoreId(core)),
                    Endpoint::Core(CoreId(core)),
                    t,
                    t + delay,
                    None,
                );
                self.queue.push(t + delay, AEv::Retry { tag, cause });
            }
            // Conservative mode: a failed commit lets held invalidations
            // squash us now (Figure 4(c)).
            if !self.cfg.oci && !self.ctx.held_invs.is_empty() {
                self.ctx
                    .pending_commit
                    .as_mut()
                    .expect("matched")
                    .retry_scheduled = true; // the squash below kills the retry
                self.process_held_invs(rec);
            }
        }
    }

    fn retry(&mut self, tag: ChunkTag, rec: &Recorder) {
        let Some(p) = self.ctx.pending_commit.as_mut() else {
            return; // squashed while the retry was pending
        };
        if p.tag != tag {
            return;
        }
        p.retry_scheduled = false;
        // Cheap: the request's signatures are shared handles.
        let req = p.req.clone();
        let cause = rec.cause;
        self.to_b
            .push((self.now, CoreToB::CommitStart { req, cause }));
    }

    /// If the core was blocked on a full window, credit the commit-stall
    /// time and resume execution.
    fn resume_after_window_change(&mut self, t: Cycle, rec: &mut Recorder) {
        let core = self.core;
        let c = &mut self.ctx;
        if c.phase == Phase::WaitCommitSlot {
            let since = c.commit_wait_since.take().expect("waiting");
            let cycles = (t - since).as_u64();
            c.breakdown.commit += cycles;
            c.phase = Phase::Running;
            let epoch = c.epoch;
            rec.obs(t, ObsKind::CommitStall { core, cycles });
            self.queue.push(t, AEv::Step { epoch });
        } else if c.phase == Phase::Finished || c.spec.is_some() {
            // Running or already done — nothing to do.
        } else if c.phase == Phase::Running {
            // Between chunks (e.g. outcome arrived while idle after
            // target reached): poke the core so it can finish or continue.
            let epoch = c.epoch;
            self.queue.push(t, AEv::Step { epoch });
        }
    }

    // ----- bulk invalidation / squash -------------------------------------

    fn bulk_inv_at_core(
        &mut self,
        from: DirId,
        tag: ChunkTag,
        wsig: SigHandle,
        rec: &mut Recorder,
    ) {
        let t = self.now;
        let core = self.core;
        self.ctx.hier.bulk_invalidate(&wsig);
        // Find the oldest in-flight chunk that conflicts (disambiguation
        // against both in-flight chunks' signatures).
        let victim = Self::find_victim(&self.ctx, tag, &wsig, self.cfg.inject_bug);
        let mut aborted = None;
        if let (Some((_vtag, true)), false) = (victim, self.cfg.oci) {
            // Conservative: hold this invalidation until our commit
            // resolves; do not ack yet (Figure 4(c)). Not recorded as
            // processed — it has not been applied to the window yet.
            // Only where the protocol supports it: under a globally
            // ordered commit service, withholding the winner's ack while
            // waiting for one's own later turn deadlocks (see
            // `CommitProtocol::supports_held_invs`).
            if self.supports_held_invs {
                self.ctx.held_invs.push((from, tag, wsig));
                let depth = self.ctx.held_invs.len() as u32;
                rec.obs(t, ObsKind::HeldInvDepth { core, depth });
                return;
            }
        }
        self.record_inv_processed(tag, from, &wsig, rec);
        if let Some((vtag, is_pending)) = victim {
            aborted = self.squash(vtag, is_pending, &wsig, rec);
        }
        self.send_ack(from, tag, aborted, t, rec);
    }

    /// Trace hook: a foreign W signature is being applied against this
    /// core's in-flight chunks right now; snapshot what they have accessed
    /// so far so the `sb-check` oracle can recompute the conflict decision
    /// independently of [`CoreUnit::find_victim`].
    fn record_inv_processed(
        &self,
        committer: ChunkTag,
        from: DirId,
        wsig: &SigHandle,
        rec: &mut Recorder,
    ) {
        if !rec.trace_on {
            return;
        }
        let at = self.now;
        let core = self.core;
        let c = &self.ctx;
        let mut inflight = Vec::new();
        if let Some(oldest) = c.window.oldest() {
            let mut tags = vec![oldest.chunk.tag()];
            if let Some(young) = c.window.get(oldest.chunk.tag().next()) {
                tags.push(young.chunk.tag());
            }
            for vt in tags {
                if let Some(s) = c.window.get(vt) {
                    inflight.push(ChunkSnapshot {
                        tag: vt,
                        reads: ascending(s.chunk.read_set()),
                        writes: ascending(s.chunk.write_set()),
                    });
                }
            }
        }
        rec.trace(TraceEvent::InvProcessed {
            core,
            committer,
            from,
            at,
            wsig: wsig.share(),
            inflight,
        });
    }

    /// Oldest in-flight chunk of `c` (excluding `incoming` itself) whose
    /// signatures conflict with `wsig`; the bool says whether its commit
    /// request is in flight (a squash must then carry a commit recall).
    fn find_victim(
        c: &CoreCtx,
        incoming: ChunkTag,
        wsig: &Signature,
        inject: Option<InjectedBug>,
    ) -> Option<(ChunkTag, bool)> {
        let oldest = c.window.oldest()?;
        let mut slots = vec![oldest.chunk.tag()];
        if let Some(young) = c.window.get(oldest.chunk.tag().next()) {
            slots.push(young.chunk.tag());
        }
        for vt in slots {
            if vt == incoming {
                continue;
            }
            // Exact-line disambiguation: the cache expands the incoming W
            // signature against its (speculatively-tagged) lines, so the
            // squash test is per-line membership — false positives are a
            // per-line signature alias, not a whole-signature
            // intersection. (Directory-side *group* checks remain
            // signature-intersection based, per §3.1 — a false positive
            // there only retries a commit.)
            let conflicts = c.window.get(vt).is_some_and(|s| {
                // Test-only sabotage (`sb-check` oracle self-test): drop
                // the read set from the conflict check, letting
                // write-after-read conflicts slip through un-squashed.
                let reads = if matches!(inject, Some(InjectedBug::SkipReadSetConflicts)) {
                    None
                } else {
                    Some(s.chunk.read_set().iter())
                };
                reads
                    .into_iter()
                    .flatten()
                    .chain(s.chunk.write_set().iter())
                    .any(|l| wsig.test(l.as_u64()))
            });
            if conflicts {
                let in_flight = c.pending_commit.as_ref().is_some_and(|p| p.tag == vt);
                return Some((vt, in_flight));
            }
        }
        None
    }

    fn send_ack(
        &mut self,
        from: DirId,
        tag: ChunkTag,
        aborted: Option<AbortedCommit>,
        t: Cycle,
        rec: &mut Recorder,
    ) {
        let core = self.core;
        let (arrive, info) = self.net.send_info(
            t + self.cfg.ack_delay,
            sb_net::NodeId(core),
            sb_net::NodeId(from.0),
            MsgSize::Small,
            TrafficClass::SmallCMessage,
        );
        // `sent_at` is `t` (before the core's ack-processing delay): the
        // decomposition then shows the delay as pre-send service, keeping
        // the flow's segments contiguous from cause to delivery.
        let cause = rec.flow(
            FlowKind::BulkInvAck,
            "bulk inv ack",
            Some(tag),
            Endpoint::Core(CoreId(core)),
            Endpoint::Dir(from),
            t,
            arrive,
            Some(info),
        );
        self.to_b.push((
            arrive,
            CoreToB::AckAtDir {
                ack: BulkInvAck {
                    dir: from,
                    from: CoreId(core),
                    tag,
                    aborted,
                },
                cause,
            },
        ));
    }

    /// Squashes `vtag` (and younger) on this core. Returns the commit
    /// recall payload if an in-flight commit died.
    fn squash(
        &mut self,
        vtag: ChunkTag,
        was_pending: bool,
        wsig: &Signature,
        rec: &mut Recorder,
    ) -> Option<AbortedCommit> {
        let t = self.now;
        let core = self.core;
        let mut aborted = None;
        // Classify: exact conflict or pure signature aliasing.
        let exact = {
            let c = &self.ctx;
            c.window.get(vtag).is_some_and(|s| {
                s.chunk
                    .read_set()
                    .iter()
                    .chain(s.chunk.write_set().iter())
                    .any(|l| wsig.test(l.as_u64()))
            })
        };
        let squashed = self.ctx.window.squash_from(vtag);
        if squashed.is_empty() {
            return None;
        }
        for tag in &squashed {
            if exact {
                self.squash_conflict += 1;
            } else {
                self.squash_alias += 1;
            }
            rec.trace(TraceEvent::Squashed {
                core,
                tag: *tag,
                at: t,
            });
        }
        let c = &mut self.ctx;
        let _ = was_pending;
        // Re-queue the squashed work in age order: the chunk with the
        // in-flight commit (carrying the recall), then a deferred-commit
        // chunk, then the executing chunk.
        let mut respecs = Vec::new();
        for tag in &squashed {
            if c.pending_commit.as_ref().is_some_and(|p| p.tag == *tag) {
                let p = c.pending_commit.take().expect("checked");
                aborted = Some(AbortedCommit {
                    tag: p.tag,
                    g_vec: p.req.g_vec,
                });
                respecs.push(p.spec);
            } else if c.waiting_commit.as_ref().is_some_and(|w| w.tag == *tag) {
                // Its commit request was never sent: no recall needed.
                let w = c.waiting_commit.take().expect("checked");
                respecs.push(w.spec);
            } else if let Some(spec) = c.spec.take() {
                respecs.push(spec);
            }
        }
        for spec in respecs.into_iter().rev() {
            c.respec.push_front(spec);
        }
        // Move the invested cycles of the squashed chunks into Squash.
        for tag in squashed {
            let inv = self.ctx.invested.remove(&tag).unwrap_or_default();
            let c = &mut self.ctx;
            c.breakdown.useful -= inv.useful;
            c.breakdown.cache_miss -= inv.cache;
            c.breakdown.squash += inv.useful + inv.cache;
            rec.obs(
                t,
                ObsKind::ChunkDone {
                    core,
                    tag,
                    committed: false,
                    useful: inv.useful,
                    cache: inv.cache,
                },
            );
        }
        let c = &mut self.ctx;
        c.epoch += 1;
        let epoch = c.epoch;
        // Whatever the core was doing, it restarts the squashed work.
        let stall = if c.phase == Phase::WaitCommitSlot {
            let since = c.commit_wait_since.take().expect("waiting");
            Some((t - since).as_u64())
        } else {
            None
        };
        if let Some(cycles) = stall {
            self.ctx.breakdown.commit += cycles;
            rec.obs(t, ObsKind::CommitStall { core, cycles });
        }
        self.ctx.phase = Phase::Running;
        self.ctx.pos = 0;
        self.queue.push(t + 1, AEv::Step { epoch });
        if let Some(a) = aborted.as_ref() {
            // The squash killed an in-flight commit: its partially formed
            // group will be recalled (§3.4's lookout case).
            let atag = a.tag;
            rec.obs(t, ObsKind::CommitRecalled { tag: atag });
        }
        aborted
    }

    /// Conservative-mode backlog: apply invalidations that were held while
    /// a commit was in flight.
    fn process_held_invs(&mut self, rec: &mut Recorder) {
        let held = std::mem::take(&mut self.ctx.held_invs);
        let t = self.now;
        for (from, tag, wsig) in held {
            // Re-run the squash check now that the commit resolved.
            let victim = Self::find_victim(&self.ctx, tag, &wsig, self.cfg.inject_bug);
            self.record_inv_processed(tag, from, &wsig, rec);
            let aborted = match victim {
                Some((vtag, is_pending)) => self.squash(vtag, is_pending, &wsig, rec),
                None => None,
            };
            self.send_ack(from, tag, aborted, t, rec);
        }
    }
}

/// Plane B: the protocol/directory scheduler. Owns the commit protocol,
/// the directory-side network ports, and the serialization gauges;
/// mutates the directory modules, which the machine lends it for the B
/// phase.
struct Hub<P: CommitProtocol> {
    cfg: SimConfig,
    proto: P,
    /// Directory-side network ports (responses, protocol messages,
    /// bulk invalidations, outcomes).
    net: Network,
    mapper: Arc<PageMapper>,
    bq: EventQueue<BEv<P::Msg>>,
    batch: VecDeque<(Cycle, BEv<P::Msg>)>,
    now: Cycle,
    outbox: Outbox<P::Msg>,
    cmd_scratch: Vec<Command<P::Msg>>,
    protocol_steps: u64,
    gauges: SerializationGauges,
    read_nacks: u64,
    events: u64,
    /// Mail to the units, in generation order; distributed at the phase
    /// edge.
    mail: Vec<(u16, Cycle, AEv)>,
    /// The B phase's dynamic horizon: clamped to every hub→core mail
    /// arrival so the hub never advances past a message a unit has not
    /// seen yet (a core can react to mail in the very cycle it arrives —
    /// e.g. seal and commit-start a next chunk).
    hb: Cycle,
}

impl<P: CommitProtocol> Hub<P> {
    /// Drains hub events strictly below `horizon` (dynamically clamped
    /// by generated mail), in exact `(cycle, seq)` order — or in the
    /// plugged-in [`Scheduler`]'s order within each same-cycle batch.
    fn b_phase(
        &mut self,
        horizon: Cycle,
        dirs: &mut [DirectoryState],
        rec: &mut Recorder,
        mut sched: Option<&mut dyn Scheduler>,
    ) {
        self.hb = horizon;
        loop {
            if self.batch.is_empty() {
                let hb = self.hb;
                self.bq.advance_until(hb, &mut self.batch);
            }
            let next = match resched(&mut sched) {
                Some(s) if self.batch.len() > 1 => {
                    let ready: Vec<ChoiceMeta> = self
                        .batch
                        .iter()
                        .map(|(_, e)| self.choice_meta(e))
                        .collect();
                    let i = s.choose(ChoiceSite::Hub, &ready).min(self.batch.len() - 1);
                    self.batch.remove(i)
                }
                _ => self.batch.pop_front(),
            };
            let Some((at, ev)) = next else { break };
            self.dispatch(at, ev, dirs, rec);
        }
    }

    /// Resource footprint of a plane-B event, for the explorer. Reads
    /// and stores are footprinted precisely (home tile + line) under
    /// every protocol; protocol up-calls are per-tile only when the
    /// protocol declares its commit state directory-partitioned, and
    /// wire messages defer to [`CommitProtocol::msg_meta`].
    fn choice_meta(&self, ev: &BEv<P::Msg>) -> ChoiceMeta {
        let bit = TileSet::single;
        match ev {
            BEv::FromCore(m) => match m {
                CoreToB::ReadAtDir { line, .. } => {
                    // The handler mutates only home-tile state: the
                    // line's directory entry and the home's injection
                    // port. The reply lands at the requester as a
                    // *future* event whose same-cycle ordering is its
                    // own choice point, so the requester's tile is not
                    // part of this footprint.
                    let home = self.mapper.home_frozen(*line);
                    ChoiceMeta::at_tiles("read@dir", bit(home.0)).reads(AddrFootprint::Line(line.0))
                }
                CoreToB::StoreAtDir { line, .. } => {
                    let home = self.mapper.home_frozen(*line);
                    ChoiceMeta::at_tiles("store@dir", bit(home.0))
                        .writes(AddrFootprint::Line(line.0))
                }
                CoreToB::AckAtDir { ack, .. } => {
                    if self.proto.per_dir_commit_state() {
                        ChoiceMeta::at_tiles("inv-ack", bit(ack.dir.0)).with_tag(ack.tag)
                    } else {
                        ChoiceMeta::global("inv-ack").with_tag(ack.tag)
                    }
                }
                CoreToB::CommitStart { req, .. } => {
                    if self.proto.per_dir_commit_state() {
                        let mut tiles = bit(req.tag.core().0);
                        for d in req.g_vec.iter() {
                            tiles.insert(d.0);
                        }
                        ChoiceMeta::at_tiles("commit-start", tiles)
                            .with_tag(req.tag)
                            .reads(AddrFootprint::Sig(req.rsig.share()))
                            .writes(AddrFootprint::Sig(req.wsig.share()))
                    } else {
                        ChoiceMeta::global("commit-start").with_tag(req.tag)
                    }
                }
            },
            // Serves mutate only the serving tile's injection port; the
            // fill at the requester is a future event (see ReadAtDir).
            BEv::ReadServe { line, from, .. } => {
                ChoiceMeta::at_tiles("read-serve", bit(from.0)).reads(AddrFootprint::Line(line.0))
            }
            BEv::StoreServe { line, from, .. } => {
                ChoiceMeta::at_tiles("store-serve", bit(from.0)).writes(AddrFootprint::Line(line.0))
            }
            BEv::Proto { dst, msg, .. } => self.proto.msg_meta(*dst, msg),
        }
    }

    fn push_mail(&mut self, core: u16, at: Cycle, ev: AEv) {
        if at < self.hb {
            self.hb = at;
        }
        self.mail.push((core, at, ev));
    }

    fn dispatch(
        &mut self,
        at: Cycle,
        ev: BEv<P::Msg>,
        dirs: &mut [DirectoryState],
        rec: &mut Recorder,
    ) {
        self.now = self.now.max_of(at);
        self.events += 1;
        rec.dispatch(ev.cause(), self.now);
        if self.events.is_multiple_of(1024) {
            // Hub-local depth sample (the units' queues are small and
            // bounded; the hub queue is where protocol storms pile up).
            let depth = (self.bq.len() + self.batch.len()) as u64;
            rec.obs(self.now, ObsKind::QueueDepth { depth });
        }
        match ev {
            BEv::FromCore(m) => match m {
                CoreToB::ReadAtDir {
                    core,
                    line,
                    epoch,
                    stall_start,
                } => self.read_at_dir(core, line, epoch, stall_start, dirs),
                CoreToB::StoreAtDir { core, line } => self.store_at_dir(core, line, dirs),
                CoreToB::AckAtDir { ack, cause: _ } => {
                    let view = BView {
                        now: self.now,
                        cores: self.cfg.cores,
                        dirs,
                    };
                    self.proto.bulk_inv_acked(&view, &mut self.outbox, ack);
                    self.flush_outbox(dirs, rec);
                }
                CoreToB::CommitStart { req, cause: _ } => {
                    let view = BView {
                        now: self.now,
                        cores: self.cfg.cores,
                        dirs,
                    };
                    self.proto.start_commit(&view, &mut self.outbox, req);
                    self.flush_outbox(dirs, rec);
                }
            },
            BEv::ReadServe {
                core,
                line,
                epoch,
                stall_start,
                from,
                class,
            } => {
                let arrive =
                    self.net
                        .send(self.now, from, sb_net::NodeId(core), MsgSize::Line, class);
                self.push_mail(
                    core,
                    arrive,
                    AEv::ReadDone {
                        line,
                        epoch,
                        stall_start,
                        nacked: false,
                    },
                );
            }
            BEv::StoreServe {
                core,
                line,
                from,
                class,
            } => {
                let arrive =
                    self.net
                        .send(self.now, from, sb_net::NodeId(core), MsgSize::Line, class);
                self.push_mail(core, arrive, AEv::StoreFill { line });
            }
            BEv::Proto { dst, msg, cause: _ } => {
                let view = BView {
                    now: self.now,
                    cores: self.cfg.cores,
                    dirs,
                };
                self.proto.deliver(&view, &mut self.outbox, dst, msg);
                self.flush_outbox(dirs, rec);
            }
        }
    }

    /// Home-side handling of a read request (§3.1 nacks, three-hop dirty
    /// forwards, memory latency).
    fn read_at_dir(
        &mut self,
        core: u16,
        line: LineAddr,
        epoch: u64,
        stall_start: Cycle,
        dirs: &mut [DirectoryState],
    ) {
        let t = self.now;
        let home = self.mapper.home_frozen(line);
        if self.proto.read_blocked(home, line) {
            // §3.1: the line belongs to a committing chunk's W signature —
            // nack and let the requester retry.
            self.read_nacks += 1;
            let arrive = self.net.send(
                t,
                sb_net::NodeId(home.0),
                sb_net::NodeId(core),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
            );
            self.push_mail(
                core,
                arrive + self.cfg.nack_backoff,
                AEv::ReadDone {
                    line,
                    epoch,
                    stall_start,
                    nacked: true,
                },
            );
            return;
        }
        let src = dirs[home.idx()].read_source(line);
        let (serve_from, serve_at) = match src {
            ReadSource::Owner(owner) => {
                // 3-hop: home forwards to the owner, which replies.
                let fwd = self.net.send(
                    t,
                    sb_net::NodeId(home.0),
                    sb_net::NodeId(owner.0),
                    MsgSize::Small,
                    TrafficClass::RemoteDirtyRd,
                );
                (sb_net::NodeId(owner.0), fwd)
            }
            ReadSource::Memory => (sb_net::NodeId(home.0), t + self.cfg.mem_latency),
            ReadSource::Cache => (sb_net::NodeId(home.0), t),
        };
        dirs[home.idx()].record_read(line, CoreId(core));
        let class = read_class(src);
        self.bq.push(
            serve_at,
            BEv::ReadServe {
                core,
                line,
                epoch,
                stall_start,
                from: serve_from,
                class,
            },
        );
    }

    /// Home-side handling of a store fetch: register the sharer and serve
    /// the line (from memory after the memory latency, or cache-to-cache).
    fn store_at_dir(&mut self, core: u16, line: LineAddr, dirs: &mut [DirectoryState]) {
        let t = self.now;
        let home = self.mapper.home_frozen(line);
        let src = dirs[home.idx()].read_source(line);
        dirs[home.idx()].record_read(line, CoreId(core));
        let from = match src {
            ReadSource::Owner(owner) => sb_net::NodeId(owner.0),
            _ => sb_net::NodeId(home.0),
        };
        let extra = if src == ReadSource::Memory {
            self.cfg.mem_latency
        } else {
            0
        };
        let class = read_class(src);
        self.bq.push(
            t + extra,
            BEv::StoreServe {
                core,
                line,
                from,
                class,
            },
        );
    }

    /// Counts the finished protocol step, drains the reusable outbox into
    /// the scratch buffer, and executes the commands. Both allocations
    /// are reused for the lifetime of the run — the steady-state event
    /// loop does not allocate per protocol step.
    fn flush_outbox(&mut self, dirs: &mut [DirectoryState], rec: &mut Recorder) {
        self.protocol_steps += 1;
        // Temporarily move the scratch out of `self` so `execute` can
        // borrow the rest of the hub mutably; the (possibly grown)
        // buffer is put back afterwards.
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        self.outbox.drain_into(&mut cmds);
        self.execute(&mut cmds, dirs, rec);
        self.cmd_scratch = cmds;
    }

    fn execute(
        &mut self,
        cmds: &mut Vec<Command<P::Msg>>,
        dirs: &mut [DirectoryState],
        rec: &mut Recorder,
    ) {
        let now = self.now;
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send {
                    src,
                    dst,
                    size,
                    class,
                    msg,
                } => {
                    let (arrive, info) = self.net.send_info(
                        now,
                        sb_net::NodeId(src.tile()),
                        sb_net::NodeId(dst.tile()),
                        size,
                        class,
                    );
                    let cause = rec.flow(
                        FlowKind::Proto,
                        P::msg_label(&msg),
                        P::msg_tag(&msg),
                        src,
                        dst,
                        now,
                        arrive,
                        Some(info),
                    );
                    self.bq.push(arrive, BEv::Proto { dst, msg, cause });
                }
                Command::After { delay, dst, msg } => {
                    let cause = rec.flow(
                        FlowKind::Timer,
                        P::msg_label(&msg),
                        P::msg_tag(&msg),
                        dst,
                        dst,
                        now,
                        now + delay,
                        None,
                    );
                    self.bq.push(now + delay, BEv::Proto { dst, msg, cause });
                }
                Command::CommitSuccess { core, tag, from } => {
                    let (arrive, info) = self.net.send_info(
                        now,
                        sb_net::NodeId(from.0),
                        sb_net::NodeId(core.0),
                        MsgSize::Small,
                        TrafficClass::SmallCMessage,
                    );
                    let cause = rec.flow(
                        FlowKind::CommitSuccess,
                        "commit success",
                        Some(tag),
                        Endpoint::Dir(from),
                        Endpoint::Core(core),
                        now,
                        arrive,
                        Some(info),
                    );
                    self.push_mail(
                        core.0,
                        arrive,
                        AEv::Outcome {
                            tag,
                            success: true,
                            cause,
                        },
                    );
                }
                Command::CommitFailure { core, tag, from } => {
                    let (arrive, info) = self.net.send_info(
                        now,
                        sb_net::NodeId(from.0),
                        sb_net::NodeId(core.0),
                        MsgSize::Small,
                        TrafficClass::SmallCMessage,
                    );
                    let cause = rec.flow(
                        FlowKind::CommitFailure,
                        "commit failure",
                        Some(tag),
                        Endpoint::Dir(from),
                        Endpoint::Core(core),
                        now,
                        arrive,
                        Some(info),
                    );
                    self.push_mail(
                        core.0,
                        arrive,
                        AEv::Outcome {
                            tag,
                            success: false,
                            cause,
                        },
                    );
                }
                Command::BulkInv {
                    from,
                    to,
                    tag,
                    wsig,
                    size,
                } => {
                    let class = if size.is_large() {
                        TrafficClass::LargeCMessage
                    } else {
                        TrafficClass::SmallCMessage
                    };
                    let (arrive, info) = self.net.send_info(
                        now,
                        sb_net::NodeId(from.0),
                        sb_net::NodeId(to.0),
                        size,
                        class,
                    );
                    let cause = rec.flow(
                        FlowKind::BulkInv,
                        "bulk inv",
                        Some(tag),
                        Endpoint::Dir(from),
                        Endpoint::Core(to),
                        now,
                        arrive,
                        Some(info),
                    );
                    self.push_mail(
                        to.0,
                        arrive,
                        AEv::BulkInv {
                            from,
                            tag,
                            wsig,
                            cause,
                        },
                    );
                }
                Command::ApplyCommit {
                    dir,
                    wsig,
                    committer,
                } => {
                    dirs[dir.idx()].apply_commit(&wsig, committer);
                }
                Command::Event(ev) => {
                    if rec.obs_on {
                        match &ev {
                            ProtoEvent::DirGrabbed { dir, tag } => {
                                let (dir, tag) = (*dir, *tag);
                                rec.obs(now, ObsKind::DirGrabbed { dir, tag });
                            }
                            ProtoEvent::DirReleased { dir, tag } => {
                                let (dir, tag) = (*dir, *tag);
                                rec.obs(now, ObsKind::DirReleased { dir, tag });
                            }
                            _ => {}
                        }
                    }
                    self.gauges.on_event(&ev);
                }
            }
        }
    }
}

/// Host-side self-profiling accumulators for the two-plane executor.
/// Only populated when [`ObsConfig::profile`](crate::ObsConfig) is on;
/// otherwise the run loops pay at most one branch per superphase.
/// Wall-clock only — profiling never reads or writes simulated state, so
/// results stay bit-identical (the golden snapshots pin this).
#[derive(Clone, Debug, Default)]
struct Prof {
    /// Superphases executed in the measured run.
    superphases: u64,
    /// Superphases executed in the post-run observability drain.
    drain_superphases: u64,
    /// Plane-A (core unit) busy wall-nanoseconds.
    a_busy_ns: u64,
    /// Hub B-phase busy wall-nanoseconds.
    b_busy_ns: u64,
    /// B phases that dispatched at least one hub event (the hub-horizon
    /// utilization numerator; a low ratio means most superphases exist
    /// only to advance the conservative horizon).
    b_busy_phases: u64,
    /// Total B phases.
    b_phases: u64,
    /// Core units run in the measured run's A phases (units with no event
    /// before the horizon are skipped, so this is at most
    /// `superphases × cores`).
    unit_visits: u64,
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`; falls back to the current `VmRSS` on kernels
/// that don't expose the high-water mark), or `None` where procfs is
/// unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = ["VmHWM:", "VmRSS:"]
        .iter()
        .find_map(|key| status.lines().find(|l| l.starts_with(key)))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Minor page faults this process has taken so far (`minflt`, the 10th
/// field of `/proc/self/stat`), or `None` where procfs is unavailable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may itself hold spaces and `)`: count
    // from the field after its closing parenthesis (field 3).
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// The passes of [`Machine::new`] timed for the host profile, in order:
/// page pre-touch, shared-pool residency, the L2 prefill's cache pass and
/// its directory pass, the warm-up chunks, and unit and hub construction.
/// With `obs.profile` each is reported as the gauge
/// `prof.setup.<pass>_secs` and, where procfs is available, the counter
/// `prof.setup.<pass>_faults` (minor page faults); what they leave of
/// `phase.setup_secs` is building the workload generator, the core
/// contexts and the directories, whose faults are
/// `prof.setup.other_faults`.
pub const SETUP_PASSES: [&str; 6] = [
    "pages",
    "pool",
    "prefill_cache",
    "prefill_dir",
    "warmup",
    "units",
];

/// The simulated machine: per-core plane-A units, the shared directory
/// modules, the plane-B hub, the workload generator, and the observation
/// recorder.
pub struct Machine<P: CommitProtocol> {
    cfg: SimConfig,
    units: Vec<CoreUnit>,
    dirs: Vec<DirectoryState>,
    hub: Hub<P>,
    rec: Recorder,
    /// Every thread's chunk stream, lent to the running unit.
    /// `next_chunk(t)` advances only thread `t`'s state and each unit
    /// runs its own thread, so each stream is what a private copy per
    /// unit would produce.
    workload: WorkloadGen,
    setup_wall: std::time::Duration,
    /// Wall time of each of the [`SETUP_PASSES`].
    setup_split: [std::time::Duration; SETUP_PASSES.len()],
    /// Minor page faults of each of the [`SETUP_PASSES`] and of the rest
    /// of setup (`None` unless profiling with procfs available).
    setup_faults: Option<[u64; SETUP_PASSES.len() + 1]>,
    /// Host self-profiling accumulators (empty unless `cfg.obs.profile`).
    prof: Prof,
}

impl<P: CommitProtocol> Machine<P> {
    /// Builds the machine for `cfg` with protocol instance `proto`:
    /// pre-touches (and thereby freezes) the page map, warms the caches,
    /// and splits the state into per-core units plus the hub.
    pub fn new(cfg: SimConfig, proto: P) -> Self {
        let setup_start = std::time::Instant::now();
        let faults = || cfg.obs.profile.then(minor_faults).flatten();
        let start_faults = faults();
        let mut workload = WorkloadGen::new(cfg.app, cfg.threads, cfg.seed);
        let ctxs: Vec<CoreCtx> = (0..cfg.cores)
            .map(|i| CoreCtx {
                window: ChunkWindow::new(CoreId(i), cfg.max_active_chunks, cfg.sig),
                hier: CacheHierarchy::with_signature_config(cfg.hier, cfg.sig),
                store_pending: FxHashSet::default(),
                spec: None,
                pos: 0,
                per_gap: 0,
                leading: 0,
                respec: VecDeque::new(),
                epoch: 0,
                phase: Phase::Running,
                committed_insns: 0,
                target: if cfg.cores == 1 {
                    cfg.total_insns()
                } else {
                    cfg.insns_per_thread
                },
                pending_commit: None,
                waiting_commit: None,
                held_invs: Vec::new(),
                commit_wait_since: None,
                breakdown: Breakdown::new(),
                invested: FxHashMap::default(),
                thread: i as usize,
                finished_at: Cycle::ZERO,
            })
            .collect();
        let mut mapper = PageMapper::new(cfg.page_policy, cfg.cores);
        let mut dirs: Vec<DirectoryState> = (0..cfg.cores)
            .map(|_| DirectoryState::with_signature_config(cfg.sig))
            .collect();
        // The end of each of the `SETUP_PASSES`, after their start, with
        // the minor faults taken by then.
        let mut marks = [(std::time::Instant::now(), faults()); SETUP_PASSES.len() + 1];
        let mark = || (std::time::Instant::now(), faults());
        // Model the parallel initialization loops of the benchmarks:
        // shared pages are first-touched round-robin across tiles before
        // the measured region, distributing homes across the directory
        // modules (private pages still first-touch to their owner).
        let pool = workload.shared_pool_pages();
        for &page in &pool {
            // Hash the page number so homes are uncorrelated with the
            // generator's per-thread page sharding.
            let h = page.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            mapper.home_of_page(page, CoreId((h % cfg.cores as u64) as u16));
        }
        // Freeze the page map: pre-touch every private page each thread
        // can ever access, attributed to the core that runs the thread —
        // exactly the home runtime first-touch would have assigned, but
        // assigned up front so the measured run only ever *reads* the
        // mapper (shared immutably by every unit). `max(1)`: the
        // generator clamps its private-index modulus the same way, so a
        // zero-sized region still accesses its base line.
        for t in 0..cfg.threads {
            let (base, count) = workload.private_region(t);
            let toucher = CoreId((t % cfg.cores as usize) as u16);
            for (page, _) in page_masks(base, count.max(1)) {
                mapper.home_of_page(page, toucher);
            }
        }
        marks[1] = mark();
        // In a parallel run, the shared working set lives spread across
        // the machine's aggregate L2 capacity at steady state: register a
        // resident sharer for every pool line so reads are served
        // cache-to-cache. A 1-processor run has a single L2 and gets no
        // such help — which is precisely the paper's superlinear-speedup
        // mechanism for Ocean/Cholesky/Raytrace (§6.1).
        if cfg.cores > 1 {
            for &page in &pool {
                let home = mapper.lookup(page).expect("pool pages were pre-touched");
                dirs[home.idx()].mark_page_resident(page);
            }
        }
        marks[2] = mark();
        let mut ctxs = ctxs;
        // A steady-state thread has its private scratch resident in its
        // L2: pre-fill as much of it as one L2 can reasonably hold. A
        // partitioned problem scaled up for a 1-processor normalization
        // run overflows this on purpose (§6.1 superlinear mechanism).
        // The caches and the directories are filled in separate passes:
        // neither reads what the other writes. Each hierarchy is still
        // empty, so it takes the run in one `fill_run`.
        let l2_lines = cfg.hier.l2.capacity_lines() * 3 / 4;
        for ctx in &mut ctxs {
            let (base, count) = workload.private_region(ctx.thread);
            ctx.hier.fill_run(base, count.min(l2_lines));
        }
        marks[3] = mark();
        for i in 0..cfg.cores {
            let (base, count) = workload.private_region(ctxs[i as usize].thread);
            for (page, mask) in page_masks(base, count.min(l2_lines)) {
                let home = mapper.home_of_page(page, CoreId(i));
                dirs[home.idx()].record_page_reads(page, mask, CoreId(i));
            }
        }
        marks[4] = mark();
        // Warm-up: execute a few chunks per thread "instantly" — fill the
        // touched lines into the core's caches and register sharers —
        // so measurement starts from steady state rather than from the
        // compulsory-miss transient.
        for i in 0..cfg.cores {
            for _ in 0..cfg.warmup_chunks {
                let spec = if cfg.cores == 1 {
                    workload.next_chunk_any()
                } else {
                    workload.next_chunk(i as usize)
                };
                let core: &mut CoreCtx = &mut ctxs[i as usize];
                for a in spec.accesses() {
                    let home = mapper.home_of_line(a.line, CoreId(i));
                    core.hier.fill(a.line);
                    if a.is_write {
                        core.hier.mark_written(a.line);
                    }
                    dirs[home.idx()].record_read(a.line, CoreId(i));
                }
            }
        }
        marks[5] = mark();
        let mapper = Arc::new(mapper);
        let held_ok = proto.supports_held_invs();
        let hub = Hub {
            cfg: cfg.clone(),
            proto,
            net: match cfg.perturb {
                None => Network::new(cfg.net),
                Some(p) => Network::with_perturbation(cfg.net, p),
            },
            mapper: Arc::clone(&mapper),
            // Scales with the machine: the hub's queue carries O(cores)
            // in-flight deliveries (commits fan out one event per group
            // member), and growth reallocations at 1024 tiles are pure
            // waste.
            bq: EventQueue::with_capacity((cfg.cores as usize * 64).max(4096)),
            batch: VecDeque::new(),
            now: Cycle::ZERO,
            outbox: Outbox::new(),
            cmd_scratch: Vec::new(),
            protocol_steps: 0,
            gauges: SerializationGauges::new(),
            read_nacks: 0,
            events: 0,
            mail: Vec::new(),
            hb: Cycle::MAX,
        };
        let units: Vec<CoreUnit> = ctxs
            .into_iter()
            .enumerate()
            .map(|(i, ctx)| {
                let mut queue = EventQueue::with_capacity(64);
                queue.push(Cycle(0), AEv::Step { epoch: 0 });
                CoreUnit {
                    core: i as u16,
                    cfg: cfg.clone(),
                    ctx,
                    queue,
                    batch: VecDeque::new(),
                    now: Cycle::ZERO,
                    net: match cfg.perturb {
                        None => Network::new(cfg.net),
                        // Re-seed per unit (SplitMix-spread) so every
                        // unit draws an independent jitter stream.
                        Some(p) => Network::with_perturbation(
                            cfg.net,
                            PerturbationConfig {
                                seed: p.seed ^ SplitMix64::new(i as u64 + 1).next_u64(),
                                ..p
                            },
                        ),
                    },
                    mapper: Arc::clone(&mapper),
                    to_b: Vec::new(),
                    events: 0,
                    accesses: 0,
                    lines_recorded: 0,
                    remote_reads: 0,
                    commits: 0,
                    squash_conflict: 0,
                    squash_alias: 0,
                    commit_retries: 0,
                    latency: LatencyDist::new(),
                    dirs_stat: DirsPerCommit::new(),
                    supports_held_invs: held_ok,
                    finish_reported: false,
                }
            })
            .collect();
        let rec = Recorder {
            trace_on: cfg.trace,
            obs_on: cfg.obs.enabled,
            trace: Vec::new(),
            obs: Vec::new(),
            flows: Vec::new(),
            cause: FlowId::NONE,
        };
        marks[6] = mark();
        // Each pass's faults, then those taken before the first (`other`).
        let setup_faults = (|| {
            let at: Vec<u64> = marks.iter().map(|m| m.1).collect::<Option<_>>()?;
            let mut split = [0; SETUP_PASSES.len() + 1];
            for (k, pass) in at.windows(2).enumerate() {
                split[k] = pass[1] - pass[0];
            }
            split[SETUP_PASSES.len()] = at[0] - start_faults?;
            Some(split)
        })();
        Machine {
            cfg,
            units,
            dirs,
            hub,
            rec,
            workload,
            setup_wall: setup_start.elapsed(),
            setup_split: std::array::from_fn(|k| marks[k + 1].0 - marks[k].0),
            setup_faults,
            prof: Prof::default(),
        }
    }

    /// Runs to completion and returns the collected metrics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (every queue drains while cores
    /// are unfinished) — that would be a protocol bug.
    pub fn run(self) -> RunResult {
        self.run_with(None)
    }

    /// Like [`Machine::run`], with a pluggable same-cycle dispatch order
    /// (see [`Scheduler`]). `None` is byte-identical to [`Machine::run`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock, like [`Machine::run`] — the explorer treats
    /// the panic as a liveness counterexample.
    pub fn run_with(mut self, mut sched: Option<&mut dyn Scheduler>) -> RunResult {
        let wall_start = std::time::Instant::now();
        if self.run_superphases(false, resched(&mut sched)) {
            self.panic_deadlock();
        }
        let run_wall = wall_start.elapsed();
        let mut result = self.freeze(run_wall);
        // The quiescence probe for the `sb-check` oracle must observe
        // *true* quiescence: when the last core finishes, trailing
        // protocol cleanup (releases, acks, skip turns) may still be
        // queued, so drain it before reading `in_flight()`. All metrics
        // above are already frozen — the untraced result is unaffected.
        // The drain terminates: every queued event is a reaction to prior
        // work, and finished cores issue no new chunks or retries. The
        // observability log drains too, so grab/release spans balance.
        let drain_start = std::time::Instant::now();
        if self.cfg.trace || self.cfg.obs.enabled {
            let late_deadlock = self.run_superphases(true, resched(&mut sched));
            debug_assert!(!late_deadlock);
            if self.cfg.trace {
                let mut trace = RunTrace::new();
                trace.events = std::mem::take(&mut self.rec.trace);
                trace.final_in_flight = self.hub.proto.in_flight();
                result.trace = Some(trace);
            }
        }
        let drain_wall = drain_start.elapsed();
        if self.cfg.obs.enabled {
            let mut obs = ObsLog::new();
            obs.events = std::mem::take(&mut self.rec.obs);
            obs.flows = std::mem::take(&mut self.rec.flows);
            result.obs = Some(obs);
        }
        result.metrics = self.build_registry(&result, run_wall, drain_wall);
        result
    }

    /// The superphase loop, for the measured run and for the post-run
    /// observability drain (`drain = true`, which ignores the
    /// all-finished break and stops at global quiescence instead).
    /// Returns `true` on deadlock.
    fn run_superphases(&mut self, drain: bool, mut sched: Option<&mut dyn Scheduler>) -> bool {
        let margin = self.cfg.net.fixed_overhead.max(1);
        let total = self.units.len();
        let profile = self.cfg.obs.profile;
        let mut finished = self.units.iter().filter(|u| u.finish_reported).count();
        // Active-unit index: the time of each unit's earliest pending
        // event (`Cycle::MAX` when idle). Refreshed after the unit runs
        // and lowered when hub mail lands, so G, the hub horizon and the
        // set of units to run come from one dense array instead of a
        // queue peek per unit per superphase.
        let mut next_at: Vec<Cycle> = self
            .units
            .iter()
            .map(|u| u.queue.peek_time().unwrap_or(Cycle::MAX))
            .collect();
        loop {
            if !drain && finished == total {
                break;
            }
            // G: the earliest pending event anywhere. Mail is already in
            // the unit queues (delivered below), so two terms suffice.
            let hub_next = self.hub.bq.peek_time().unwrap_or(Cycle::MAX);
            let g = next_at.iter().copied().fold(hub_next, Cycle::min);
            if g == Cycle::MAX {
                return !drain && finished < total;
            }
            let ha = g + margin;
            let t_a = profile.then(std::time::Instant::now);
            // Only units with an event before the horizon have work; they
            // run in ascending index order, as a full sweep would, so hub
            // mail, recorder order and flow ids are unchanged.
            let mut visits = 0u64;
            for (i, next) in next_at.iter_mut().enumerate() {
                if *next >= ha {
                    continue;
                }
                visits += 1;
                let u = &mut self.units[i];
                u.run_phase(
                    ha,
                    &self.dirs,
                    &mut self.rec,
                    &mut self.workload,
                    resched(&mut sched),
                );
                *next = u.queue.peek_time().unwrap_or(Cycle::MAX);
                for (at, m) in u.to_b.drain(..) {
                    self.hub.bq.push(at, BEv::FromCore(m));
                }
                if u.ctx.phase == Phase::Finished && !u.finish_reported {
                    u.finish_reported = true;
                    finished += 1;
                }
            }
            if let Some(t) = t_a {
                self.prof.a_busy_ns += t.elapsed().as_nanos() as u64;
                if drain {
                    self.prof.drain_superphases += 1;
                } else {
                    self.prof.superphases += 1;
                    self.prof.unit_visits += visits;
                }
            }
            if !drain && finished == total {
                break;
            }
            let hb0 = next_at.iter().copied().fold(Cycle::MAX, Cycle::min);
            if profile {
                let ev0 = self.hub.events;
                let t = std::time::Instant::now();
                self.hub
                    .b_phase(hb0, &mut self.dirs, &mut self.rec, resched(&mut sched));
                self.prof.b_busy_ns += t.elapsed().as_nanos() as u64;
                self.prof.b_phases += 1;
                if self.hub.events > ev0 {
                    self.prof.b_busy_phases += 1;
                }
            } else {
                self.hub
                    .b_phase(hb0, &mut self.dirs, &mut self.rec, resched(&mut sched));
            }
            for (core, at, ev) in self.hub.mail.drain(..) {
                self.units[core as usize].queue.push(at, ev);
                let next = &mut next_at[core as usize];
                *next = (*next).min(at);
            }
        }
        false
    }

    fn panic_deadlock(&self) -> ! {
        let now = self
            .units
            .iter()
            .map(|u| u.now)
            .chain([self.hub.now])
            .max()
            .unwrap_or(Cycle::ZERO);
        let stuck: Vec<String> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.ctx.phase != Phase::Finished)
            .map(|(i, u)| {
                format!(
                    "core {i}: {:?} in-flight {}",
                    u.ctx.phase,
                    u.ctx.window.in_flight()
                )
            })
            .collect();
        let proto = &self.hub.proto;
        let state = proto.debug_state();
        panic!(
            "machine deadlock at {} under {:?}: {stuck:?}; protocol in flight {}{}{state}",
            now,
            self.cfg.protocol,
            proto.in_flight(),
            if state.is_empty() { "" } else { ": " },
        );
    }

    /// Snapshots the measured-run metrics (pre-drain) into a result.
    fn freeze(&self, run_wall: std::time::Duration) -> RunResult {
        let wall = self
            .units
            .iter()
            .map(|u| u.ctx.finished_at)
            .max()
            .unwrap_or(self.hub.now)
            .as_u64();
        let mut breakdown = Breakdown::new();
        let mut dirs_stat = DirsPerCommit::new();
        let mut latency = LatencyDist::new();
        let mut traffic = self.hub.net.counters().clone();
        for u in &self.units {
            breakdown.merge(&u.ctx.breakdown);
            dirs_stat.merge(&u.dirs_stat);
            latency.merge(&u.latency);
            traffic.merge(u.net.counters());
        }
        let events = self.units.iter().map(|u| u.events).sum::<u64>() + self.hub.events;
        let perf = PerfReport {
            events_dispatched: events,
            protocol_steps: self.hub.protocol_steps,
            sim_cycles: wall,
            wall: run_wall,
        };
        RunResult {
            wall_cycles: wall,
            breakdown,
            dirs: dirs_stat,
            latency,
            gauges: self.hub.gauges.clone(),
            traffic,
            commits: self.units.iter().map(|u| u.commits).sum(),
            squashes_conflict: self.units.iter().map(|u| u.squash_conflict).sum(),
            squashes_alias: self.units.iter().map(|u| u.squash_alias).sum(),
            read_nacks: self.hub.read_nacks,
            remote_reads: self.units.iter().map(|u| u.remote_reads).sum(),
            commit_retries: self.units.iter().map(|u| u.commit_retries).sum(),
            perf,
            metrics: MetricsRegistry::new(),
            trace: None,
            obs: None,
        }
    }

    /// Builds the end-of-run metrics registry from the frozen result
    /// (one source of truth for counters and phase wall-times). Purely
    /// derived — never feeds back into simulated state.
    fn build_registry(
        &self,
        r: &RunResult,
        run_wall: std::time::Duration,
        drain_wall: std::time::Duration,
    ) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("events.dispatched", r.perf.events_dispatched);
        reg.add_counter("protocol.steps", r.perf.protocol_steps);
        reg.add_counter("commits", r.commits);
        reg.add_counter("squashes.conflict", r.squashes_conflict);
        reg.add_counter("squashes.alias", r.squashes_alias);
        reg.add_counter("read.nacks", r.read_nacks);
        reg.add_counter("remote.reads", r.remote_reads);
        reg.add_counter("commit.retries", r.commit_retries);
        for class in TrafficClass::ALL {
            reg.add_counter(
                &format!("traffic.msgs.{}", class.label()),
                r.traffic.count(class),
            );
            reg.add_counter(
                &format!("traffic.bytes.{}", class.label()),
                r.traffic.bytes(class),
            );
        }
        reg.set_gauge("sim.wall_cycles", r.wall_cycles as f64);
        // Commit-latency distribution (Figure 13): the full histogram
        // (merges exactly across runs) plus per-run quantile gauges.
        // Gauges *sum* under `MetricsRegistry::merge`, so read the
        // quantiles per run before merging sweep results.
        reg.insert_histogram("commit.latency_cycles", r.latency.histogram().clone());
        reg.set_gauge("latency.mean", r.latency.mean());
        reg.set_gauge("latency.p50", r.latency.p50() as f64);
        reg.set_gauge("latency.p95", r.latency.p95() as f64);
        reg.set_gauge("latency.p99", r.latency.p99() as f64);
        reg.set_gauge("latency.max", r.latency.max() as f64);
        reg.set_gauge("phase.setup_secs", self.setup_wall.as_secs_f64());
        reg.set_gauge("phase.run_secs", run_wall.as_secs_f64());
        reg.set_gauge("phase.drain_secs", drain_wall.as_secs_f64());
        if let Some(obs) = r.obs.as_ref() {
            // One pass over the events. Grab-hold durations: match each
            // release to its open grab per (dir, tag) in stream order.
            // The running totals are the exact counters the derived
            // time-series reconciles against (`verify_observability`
            // asserts Σ windows == these).
            let mut open: Vec<((DirId, ChunkTag), Cycle)> = Vec::new();
            let (mut grabs, mut releases, mut recalls) = (0u64, 0u64, 0u64);
            let mut hold_total = 0u64;
            let mut held_sum = 0u64;
            let mut held_samples = 0u64;
            let mut depth_sum = 0u64;
            let mut depth_samples = 0u64;
            let mut stall_total = 0u64;
            let mut committed = 0u64;
            let mut squashed = 0u64;
            for e in &obs.events {
                match e.kind {
                    ObsKind::DirGrabbed { dir, tag } => {
                        grabs += 1;
                        open.push(((dir, tag), e.at));
                    }
                    ObsKind::DirReleased { dir, tag } => {
                        releases += 1;
                        if let Some(i) = open.iter().position(|(k, _)| *k == (dir, tag)) {
                            let (_, start) = open.swap_remove(i);
                            let held = (e.at - start).as_u64();
                            hold_total += held;
                            reg.observe("obs.grab_hold_cycles", held, 64, 16);
                        }
                    }
                    ObsKind::HeldInvDepth { depth, .. } => {
                        held_sum += depth as u64;
                        held_samples += 1;
                        reg.observe("obs.held_inv_depth", depth as u64, 16, 1);
                    }
                    ObsKind::QueueDepth { depth } => {
                        depth_sum += depth;
                        depth_samples += 1;
                        reg.observe("obs.event_queue_depth", depth, 64, 256);
                    }
                    ObsKind::CommitStall { cycles, .. } => {
                        stall_total += cycles;
                        reg.observe("obs.commit_stall_cycles", cycles, 64, 64);
                    }
                    ObsKind::ChunkDone { committed: c, .. } => {
                        if c {
                            committed += 1;
                        } else {
                            squashed += 1;
                        }
                    }
                    ObsKind::CommitRecalled { .. } => recalls += 1,
                }
            }
            reg.add_counter("obs.dir_grabs", grabs);
            reg.add_counter("obs.dir_releases", releases);
            reg.add_counter("obs.commit_recalls", recalls);
            reg.add_counter("obs.grab_hold_total_cycles", hold_total);
            reg.add_counter("obs.held_inv_depth_sum", held_sum);
            reg.add_counter("obs.held_inv_samples", held_samples);
            reg.add_counter("obs.queue_depth_sum", depth_sum);
            reg.add_counter("obs.queue_depth_samples", depth_samples);
            reg.add_counter("obs.commit_stall_total_cycles", stall_total);
            reg.add_counter("obs.chunks_committed", committed);
            reg.add_counter("obs.chunks_squashed", squashed);
            reg.add_counter("obs.chunks_done", committed + squashed);
            let (mut sends, mut inject_wait) = (0u64, 0u64);
            for n in obs.flows.iter().filter_map(|f| f.net) {
                sends += 1;
                inject_wait += n.queue_wait;
            }
            reg.add_counter("obs.net_inject_wait_cycles", inject_wait);
            reg.add_counter("obs.net_sends", sends);
            reg.add_counter("obs.flows", obs.flows.len() as u64);
        }
        if self.cfg.obs.profile {
            let p = &self.prof;
            reg.add_counter("prof.superphases", p.superphases);
            reg.add_counter("prof.drain_superphases", p.drain_superphases);
            reg.add_counter("prof.hub_phases", p.b_phases);
            reg.add_counter("prof.hub_busy_phases", p.b_busy_phases);
            reg.add_counter("prof.unit_visits", p.unit_visits);
            for (pass, secs) in SETUP_PASSES.iter().zip(&self.setup_split) {
                reg.set_gauge(&format!("prof.setup.{pass}_secs"), secs.as_secs_f64());
            }
            let passes = SETUP_PASSES.iter().chain(&["other"]);
            for (pass, &faults) in passes.zip(self.setup_faults.iter().flatten()) {
                reg.add_counter(&format!("prof.setup.{pass}_faults"), faults);
            }
            let (expansions, matched) = self
                .dirs
                .iter()
                .map(DirectoryState::expansion_counts)
                .fold((0, 0), |(e, m), (de, dm)| (e + de, m + dm));
            reg.add_counter("prof.dir_expansions", expansions);
            reg.add_counter("prof.dir_lines_matched", matched);
            reg.add_counter(
                "prof.dir_pages",
                self.dirs.iter().map(|d| d.page_records() as u64).sum(),
            );
            reg.add_counter(
                "prof.dir_spilled_sets",
                self.dirs.iter().map(|d| d.spilled_sets() as u64).sum(),
            );
            let (expansions, matched) = self
                .units
                .iter()
                .map(|u| u.ctx.hier.expansion_counts())
                .fold((0, 0), |(e, m), (ue, um)| (e + ue, m + um));
            reg.add_counter("prof.core_expansions", expansions);
            reg.add_counter("prof.core_lines_matched", matched);
            reg.add_counter("prof.accesses", self.units.iter().map(|u| u.accesses).sum());
            reg.add_counter(
                "prof.lines_recorded",
                self.units.iter().map(|u| u.lines_recorded).sum(),
            );
            reg.set_gauge(
                "prof.hub_utilization",
                if p.b_phases == 0 {
                    0.0
                } else {
                    p.b_busy_phases as f64 / p.b_phases as f64
                },
            );
            reg.set_gauge("prof.hub_busy_secs", p.b_busy_ns as f64 * 1e-9);
            // Plane-A busy time; the `.d0` name is what consumers read.
            reg.set_gauge("prof.domain_busy_secs.d0", p.a_busy_ns as f64 * 1e-9);
            // Every push and the summed per-queue peak lengths, under the
            // `ring_*` names perfbench reads.
            let mut queues = self.hub.bq.stats();
            for u in &self.units {
                queues.merge(&u.queue.stats());
            }
            reg.add_counter("prof.queue.ring_pushes", queues.pushes);
            reg.set_gauge("prof.queue.ring_hwm", queues.peak_len as f64);
            if let Some(rss) = peak_rss_bytes() {
                reg.set_gauge("prof.peak_rss_bytes", rss as f64);
            }
        }
        reg
    }
}
