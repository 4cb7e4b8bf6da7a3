//! The traced pass: per-layer host numbers for one workload, measured
//! from outside the simulator.
//!
//! A pass runs the workload three times (as configured, with executor
//! self-profiling, and with observability toggled), then replays the
//! machine's setup one public constructor at a time and replays each
//! layer's hot call on inputs drawn from the workload's own generator.
//! Every call sits in a span; layer times are span self times.

use std::collections::VecDeque;
use std::hint::black_box;

use sb_baselines::Tcc;
use sb_chunks::{ActiveChunk, ChunkSpec, ChunkTag, CommitRequest};
use sb_core::ScalableBulk;
use sb_engine::{Cycle, EventQueue};
use sb_mem::{CacheHierarchy, CoreId, DirId, DirectoryState, HitLevel, LineAddr, PageMapper};
use sb_net::{MsgSize, Network, NodeId, TrafficClass};
use sb_proto::{CommitProtocol, Fabric, FabricConfig};
use sb_sigs::Signature;
use sb_sim::{ObsConfig, SimConfig};
use sb_workloads::WorkloadGen;

use crate::run::{simulate, Outcome, Tally};
use crate::spans::Tracer;
use crate::workloads::Workload;

/// Every per-layer metric a pass reports, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.plane_a_s", "s"),
    ("sim.hub_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.superphases", "count"),
    ("sim.unit_visits", "count"),
    ("sim.events", "count"),
    ("sim.visits_per_event", "ratio"),
    ("sim.hub_busy_frac", "ratio"),
    ("sim.protocol_steps", "count"),
    ("sim.steps_per_commit", "ratio"),
    ("engine.ring_pushes", "count"),
    ("engine.far_pushes", "count"),
    ("engine.ring_hwm", "count"),
    ("obs.record_s", "s"),
    ("obs.export_s", "s"),
    ("obs.log_events", "count"),
    ("obs.trace_events", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_pct", "%"),
    ("setup.total_s", "s"),
    ("setup.workloads_s", "s"),
    ("setup.mem_caches_s", "s"),
    ("setup.mem_dirs_s", "s"),
    ("setup.net_s", "s"),
    ("setup.mem_pages_s", "s"),
    ("setup.mem_prefill_s", "s"),
    ("setup.unattributed_s", "s"),
    ("workloads.next_chunk_ns", "ns"),
    ("workloads.next_chunk.calls", "count"),
    ("sigs.build_ns", "ns"),
    ("sigs.build.calls", "count"),
    ("sigs.intersect_ns", "ns"),
    ("sigs.intersect.calls", "count"),
    ("mem.cache_access_ns", "ns"),
    ("mem.cache_access.calls", "count"),
    ("mem.dir_commit_ns", "ns"),
    ("mem.dir_commit.calls", "count"),
    ("net.send_ns", "ns"),
    ("net.send.calls", "count"),
    ("engine.queue_ns", "ns"),
    ("engine.queue.calls", "count"),
    ("core.commit_ns", "ns"),
    ("core.commit.calls", "count"),
    ("baselines.commit_ns", "ns"),
    ("baselines.commit.calls", "count"),
];

/// Setup-split spans; span `x` reports its self time as `x_s`.
const SETUP_PARTS: [&str; 6] = [
    "setup.workloads",
    "setup.mem_caches",
    "setup.mem_dirs",
    "setup.net",
    "setup.mem_pages",
    "setup.mem_prefill",
];

/// Replay spans; span `x` reports `x_ns` per call and `x.calls`.
const REPLAYS: [&str; 9] = [
    "workloads.next_chunk",
    "sigs.build",
    "sigs.intersect",
    "mem.cache_access",
    "mem.dir_commit",
    "net.send",
    "engine.queue",
    "core.commit",
    "baselines.commit",
];

/// The [`PER_LAYER`] name equal to `name`.
fn metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .0
}

/// What one traced pass measured.
#[derive(Clone, Debug)]
pub struct Pass {
    /// `Machine::run` time of the pass's untraced run.
    pub untraced_run_s: f64,
    /// `Machine::run` time of the self-profiled run.
    pub traced_run_s: f64,
    /// Per-layer values, named as in [`PER_LAYER`]; the caller adds
    /// `trace.overhead_pct`, which needs the untraced median.
    pub values: Vec<(&'static str, f64)>,
}

/// Runs one traced pass of `w` at `cfg`, recording spans in `tr` and
/// every run and check in `tally`. `None` when a run or replay failed
/// (`tally` holds the reason).
pub fn traced_pass(
    w: &Workload,
    cfg: &SimConfig,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Option<Pass> {
    let root = tr.begin("pass");
    let pass = pass_body(w, cfg, tally, tr, root);
    tr.end();
    pass
}

fn pass_body(
    w: &Workload,
    cfg: &SimConfig,
    tally: &mut Tally,
    tr: &mut Tracer,
    root: usize,
) -> Option<Pass> {
    let base = tr.span("sim.untraced", || simulate(cfg, w.observed, None));
    let base = tally.record("untraced run", base)?;

    let mut pcfg = cfg.clone();
    pcfg.obs.profile = true;
    let prof = tr.span("sim.profiled", || simulate(&pcfg, false, None));
    let prof = tally.record("profiled run", prof)?;
    if w.observed {
        let violations = sb_sim::verify_observability(&prof.result);
        if !violations.is_empty() {
            tally.fail(format!("verify_observability: {}", violations.join("; ")));
            return None;
        }
    }

    // The same configuration with trace and observability flipped: the
    // run-time difference is what recording costs.
    let mut tcfg = cfg.clone();
    tcfg.trace = !w.observed;
    tcfg.obs = if w.observed {
        ObsConfig::default()
    } else {
        ObsConfig::on()
    };
    let toggled = tr.span("sim.obs_toggled", || simulate(&tcfg, !w.observed, None));
    let toggled = tally.record("obs-toggled run", toggled)?;

    let mut values = profile_values(cfg, &prof);
    let (on, off) = if w.observed {
        (&base, &toggled)
    } else {
        (&toggled, &base)
    };
    values.push(("obs.record_s", on.sample.run_s - off.sample.run_s));
    values.push(("obs.export_s", on.sample.export_s));
    let log = on.result.obs.as_ref();
    let log_events = log.map_or(0, |o| o.events.len() + o.flows.len());
    values.push(("obs.log_events", log_events as f64));
    let trace_events = on.result.trace.as_ref().map_or(0, |t| t.events.len());
    values.push(("obs.trace_events", trace_events as f64));

    let untraced_run_s = base.sample.run_s;
    let traced_run_s = prof.sample.run_s;
    let setup_total = base.sample.setup_s;
    let calls = base.sample.digest.commits as usize;
    let ring_hwm = prof
        .result
        .metrics
        .gauge("prof.queue.ring_hwm")
        .unwrap_or(1.0) as usize;
    drop((base, prof, toggled));

    let mut state = setup_split(cfg, tr);
    values.push(("setup.total_s", setup_total));
    let mut attributed = 0.0;
    for span in SETUP_PARTS {
        let s = tr.self_ns_within(root, span) as f64 * 1e-9;
        attributed += s;
        values.push((metric(&format!("{span}_s")), s));
    }
    values.push(("setup.unattributed_s", setup_total - attributed));

    if let Err(e) = replay_layers(cfg, &mut state, calls, ring_hwm, tr) {
        tally.fail(format!("layer replay: {e}"));
        return None;
    }
    for span in REPLAYS {
        let ns = tr.self_ns_within(root, span) as f64;
        values.push((metric(&format!("{span}_ns")), ns / calls.max(1) as f64));
        values.push((metric(&format!("{span}.calls")), calls as f64));
    }
    Some(Pass {
        untraced_run_s,
        traced_run_s,
        values,
    })
}

/// The executor's own split of the self-profiled run. Plane A, hub and
/// loop add up to the run time by construction: the loop is whatever the
/// two planes' busy time leaves of it (superphase min-scans, mail
/// delivery, result assembly).
fn profile_values(cfg: &SimConfig, prof: &Outcome) -> Vec<(&'static str, f64)> {
    let m = &prof.result.metrics;
    let count = |name| m.counter(name).unwrap_or(0) as f64;
    let gauge = |name| m.gauge(name).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let run = prof.sample.run_s;
    let plane_a = gauge("prof.domain_busy_secs.d0");
    let hub = gauge("prof.hub_busy_secs");
    let superphases = count("prof.superphases");
    let unit_visits = superphases * cfg.cores as f64;
    let events = count("events.dispatched");
    let steps = count("protocol.steps");
    vec![
        ("sim.plane_a_s", plane_a),
        ("sim.hub_s", hub),
        ("sim.loop_s", run - plane_a - hub),
        ("sim.superphases", superphases),
        ("sim.unit_visits", unit_visits),
        ("sim.events", events),
        ("sim.visits_per_event", ratio(unit_visits, events)),
        (
            "sim.hub_busy_frac",
            ratio(count("prof.hub_busy_phases"), count("prof.hub_phases")),
        ),
        ("sim.protocol_steps", steps),
        ("sim.steps_per_commit", ratio(steps, count("commits"))),
        ("engine.ring_pushes", count("prof.queue.ring_pushes")),
        ("engine.far_pushes", count("prof.queue.far_pushes")),
        ("engine.ring_hwm", gauge("prof.queue.ring_hwm")),
        ("trace.run_s", run),
    ]
}

/// The state `Machine::new` builds, rebuilt one constructor group at a
/// time; the replays then run against it.
struct SetupState {
    workload: WorkloadGen,
    hiers: Vec<CacheHierarchy>,
    dirs: Vec<DirectoryState>,
    nets: Vec<Network>,
    mapper: PageMapper,
}

/// Times the public constructors `Machine::new` calls, at the workload's
/// size, in the order it calls them. What `Machine::new` does beyond
/// these (the warm-up chunks, splitting state into units and hub) is
/// left to `setup.unattributed_s`.
fn setup_split(cfg: &SimConfig, tr: &mut Tracer) -> SetupState {
    let cores = cfg.cores as usize;
    let (workload, clones) = tr.span("setup.workloads", || {
        let g = WorkloadGen::new(cfg.app, cfg.threads, cfg.seed);
        let clones: Vec<WorkloadGen> = (0..cores).map(|_| g.clone()).collect();
        (g, clones)
    });
    let mut hiers = tr.span("setup.mem_caches", || {
        (0..cores)
            .map(|_| CacheHierarchy::with_signature_config(cfg.hier, cfg.sig))
            .collect::<Vec<_>>()
    });
    let mut dirs = tr.span("setup.mem_dirs", || {
        (0..cores)
            .map(|_| DirectoryState::with_signature_config(cfg.sig))
            .collect::<Vec<_>>()
    });
    let nets = tr.span("setup.net", || {
        (0..=cores)
            .map(|_| Network::new(cfg.net))
            .collect::<Vec<_>>()
    });
    let mut mapper = tr.span("setup.mem_pages", || {
        let mut m = PageMapper::new(cfg.page_policy, cfg.cores);
        // The same round-robin-by-hash homes `Machine::new` gives the
        // shared pool, so the replays see the run's directory spread.
        for page in workload.shared_pool_pages() {
            let h = page.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            m.home_of_page(page, CoreId((h % cfg.cores as u64) as u16));
        }
        for t in 0..cfg.threads {
            let (base, count) = workload.private_region(t);
            let toucher = CoreId((t % cores) as u16);
            for l in 0..count.max(1) {
                m.home_of_line(LineAddr(base.as_u64() + l), toucher);
            }
        }
        m
    });
    tr.span("setup.mem_prefill", || {
        if cfg.cores > 1 {
            for page in workload.shared_pool_pages() {
                let home = mapper.lookup(page).expect("pool pages were homed");
                for i in 0..LineAddr::PER_PAGE {
                    dirs[home.idx()].mark_resident(page.line(i));
                }
            }
        }
        let l2_lines = cfg.hier.l2.capacity_lines() * 3 / 4;
        for (i, hier) in hiers.iter_mut().enumerate() {
            let core = CoreId(i as u16);
            let (base, count) = workload.private_region(i);
            for l in 0..count.min(l2_lines) {
                let line = LineAddr(base.as_u64() + l);
                hier.fill(line);
                let home = mapper.home_of_line(line, core);
                dirs[home.idx()].record_read(line, core);
            }
        }
    });
    drop(clones);
    SetupState {
        workload,
        hiers,
        dirs,
        nets,
        mapper,
    }
}

/// One generated chunk and everything the replays derive from it.
struct Input {
    core: CoreId,
    spec: ChunkSpec,
    /// Distinct homes of the lines the chunk writes.
    write_homes: Vec<DirId>,
    /// Homes of the accesses outside the thread's private region.
    shared_homes: Vec<NodeId>,
    req: CommitRequest,
}

/// Replays each layer's hot call once per committed chunk of the run,
/// all on the same inputs: `calls` chunks drawn round-robin over the
/// threads from the workload's generator at the benchmark seed, their
/// lines, and those lines' homes.
fn replay_layers(
    cfg: &SimConfig,
    st: &mut SetupState,
    calls: usize,
    ring_hwm: usize,
    tr: &mut Tracer,
) -> Result<(), String> {
    let threads = cfg.threads;
    let workload = &mut st.workload;
    let specs: Vec<(usize, ChunkSpec)> = tr.span("workloads.next_chunk", || {
        (0..calls)
            .map(|i| (i % threads, workload.next_chunk(i % threads)))
            .collect()
    });
    let inputs = derive_inputs(cfg, st, specs);

    let sigs: Vec<(Signature, Signature)> = tr.span("sigs.build", || {
        inputs
            .iter()
            .map(|c| {
                let (mut r, mut w) = (Signature::new(cfg.sig), Signature::new(cfg.sig));
                for a in c.spec.accesses() {
                    let sig = if a.is_write { &mut w } else { &mut r };
                    sig.insert(a.line.as_u64());
                }
                (r, w)
            })
            .collect()
    });
    tr.span("sigs.intersect", || {
        // Each chunk's writes against the next chunk's reads and writes,
        // as bulk disambiguation tests an incoming commit.
        let n = sigs.len();
        let hits = (0..n)
            .filter(|&i| {
                let (r, w) = &sigs[(i + 1) % n];
                sigs[i].1.intersects(r) || sigs[i].1.intersects(w)
            })
            .count();
        black_box(hits);
    });
    let hiers = &mut st.hiers;
    tr.span("mem.cache_access", || {
        for c in &inputs {
            let h = &mut hiers[c.core.idx()];
            for a in c.spec.accesses() {
                if h.access(a.line) == HitLevel::Miss {
                    h.fill(a.line);
                }
                if a.is_write {
                    h.mark_written(a.line);
                }
            }
        }
    });
    let dirs = &mut st.dirs;
    tr.span("mem.dir_commit", || {
        let mut updated = 0u64;
        for (c, (_, w)) in inputs.iter().zip(&sigs) {
            for home in &c.write_homes {
                updated += dirs[home.idx()].apply_commit(w, c.core) as u64;
            }
        }
        black_box(updated);
    });
    let nets = &mut st.nets;
    tr.span("net.send", || {
        for (i, c) in inputs.iter().enumerate() {
            let net = &mut nets[c.core.idx()];
            let now = Cycle(i as u64 * 16);
            for &home in &c.shared_homes {
                let at = net.send(
                    now,
                    NodeId(c.core.0),
                    home,
                    MsgSize::Small,
                    TrafficClass::RemoteShRd,
                );
                black_box(at);
            }
        }
    });
    replay_queue(&inputs, ring_hwm.max(1), tr);
    let fabric = FabricConfig {
        cores: cfg.cores,
        dirs: cfg.cores,
        link_latency: cfg.net.link_latency,
        ack_delay: cfg.ack_delay,
        retry_backoff: cfg.retry_backoff,
        max_retries: u32::MAX,
    };
    replay_commits(
        "core.commit",
        fabric,
        ScalableBulk::new(cfg.sb, cfg.cores),
        &inputs,
        tr,
    )?;
    replay_commits(
        "baselines.commit",
        fabric,
        Tcc::new(cfg.tcc, cfg.cores),
        &inputs,
        tr,
    )
}

fn derive_inputs(
    cfg: &SimConfig,
    st: &mut SetupState,
    specs: Vec<(usize, ChunkSpec)>,
) -> Vec<Input> {
    let mut seq = vec![0u64; cfg.cores as usize];
    specs
        .into_iter()
        .map(|(t, spec)| {
            let core = CoreId((t % cfg.cores as usize) as u16);
            let (base, count) = st.workload.private_region(t);
            let private = base.as_u64()..base.as_u64() + count;
            let mut chunk = ActiveChunk::new(ChunkTag::new(core, seq[core.idx()]), cfg.sig);
            seq[core.idx()] += 1;
            let mut write_homes = Vec::new();
            let mut shared_homes = Vec::new();
            for a in spec.accesses() {
                let home = st.mapper.home_of_line(a.line, core);
                if a.is_write {
                    chunk.record_write(a.line, home);
                    write_homes.push(home);
                } else {
                    chunk.record_read(a.line, home);
                }
                if !private.contains(&a.line.as_u64()) {
                    shared_homes.push(NodeId(home.0));
                }
            }
            write_homes.sort_unstable();
            write_homes.dedup();
            Input {
                core,
                req: chunk.to_commit_request(),
                spec,
                write_homes,
                shared_homes,
            }
        })
        .collect()
}

/// `EventQueue` push + `drain_cycle` with the queue held at `hold`
/// pending events: each call drains the earliest cycle and pushes as
/// many events back, delayed by amounts hashed from the chunk's lines.
fn replay_queue(inputs: &[Input], hold: usize, tr: &mut Tracer) {
    let delay = |line: LineAddr| 1 + (line.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(hold);
    let lines = inputs
        .iter()
        .flat_map(|c| c.spec.accesses())
        .map(|a| a.line);
    for (i, line) in lines.cycle().take(hold).enumerate() {
        q.push(Cycle(delay(line)), i as u32);
    }
    let mut batch = VecDeque::new();
    tr.span("engine.queue", || {
        for c in inputs {
            let lines = c.spec.accesses();
            let now = q.drain_cycle(&mut batch).expect("the queue is never empty");
            for (j, (_, ev)) in batch.drain(..).enumerate() {
                q.push(now + delay(lines[j % lines.len()].line), ev);
            }
        }
    });
    black_box(q.len());
}

/// Drives `proto` through an `sb_proto::Fabric` with every chunk's
/// commit request. A core's chunks are spaced far enough apart that each
/// resolves before the next starts (the fabric models one outstanding
/// commit per core); the cores of one wave contend.
fn replay_commits<P: CommitProtocol>(
    span: &str,
    cfg: FabricConfig,
    mut proto: P,
    inputs: &[Input],
    tr: &mut Tracer,
) -> Result<(), String> {
    const WAVE: u64 = 1 << 20;
    let mut fabric: Fabric<P::Msg> = Fabric::new(cfg);
    let mut seq = vec![0u64; cfg.cores as usize];
    for c in inputs {
        let s = &mut seq[c.core.idx()];
        fabric.schedule_commit(Cycle(*s * WAVE + c.core.0 as u64), c.req.clone());
        *s += 1;
    }
    let report = tr.span(span, || fabric.run(&mut proto, usize::MAX));
    let committed = report.committed().len();
    if committed != inputs.len() {
        return Err(format!(
            "{span}: {committed} of {} commit requests committed",
            inputs.len()
        ));
    }
    Ok(())
}
