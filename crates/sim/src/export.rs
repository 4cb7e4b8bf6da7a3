//! Perfetto export and observability verification.
//!
//! [`perfetto_trace`] converts a run's chunk-lifecycle trace
//! ([`RunTrace`](crate::RunTrace)) plus its directory-side observability
//! log ([`ObsLog`](crate::ObsLog)) into a chrome-trace JSON document
//! that `chrome://tracing` and ui.perfetto.dev load directly:
//!
//! * **pid 0 "cores"** — one track per core: a complete span per chunk
//!   instance (exec start → commit/squash, with the outcome and
//!   footprint sizes as args), instants for processed bulk
//!   invalidations and commit recalls, and a `held_invs` depth counter;
//! * **pid 1 "directories"** — one track per directory module: a
//!   complete span per occupancy interval (grab → release, named after
//!   the holding chunk);
//! * **pid 2 "machine"** — the event-queue depth counter.
//!
//! When the run recorded causal flows ([`ObsLog::flows`](crate::ObsLog)),
//! each becomes a Perfetto flow arrow: an `"s"` event at `sent_at` on the
//! sender's track bound to an `"f"` event at `delivered_at` on the
//! receiver's track, both carrying the flow id — so ui.perfetto.dev draws
//! the causal message graph over the chunk/occupancy spans.
//!
//! [`verify_observability`] is the matching oracle: exec spans must
//! close exactly once, grab/release must alternate and balance per
//! `(dir, chunk)`, the causal flow graph must be acyclic with exact
//! per-link time tiling, every commit's reconstructed critical path must
//! reconcile with the recorded latency distribution (sum, max, count),
//! the obs-reconstructed Figure-7 breakdown must equal the aggregate
//! exactly, the export must round-trip through the JSON parser and pass
//! the structural validator, and the event counts in the document must
//! reconcile exactly with the run's frozen aggregates.

use std::collections::BTreeSet;

use sb_chunks::ChunkTag;
use sb_mem::DirId;
use sb_obs::json::JsonValue;
use sb_obs::perfetto::{self, PerfettoDocument, PerfettoTrace};
use sb_proto::Endpoint;

use crate::critical_path::{breakdown_from_obs, commit_paths, Segment};
use crate::obs::ObsKind;
use crate::result::RunResult;
use crate::trace::TraceEvent;

/// Track group for per-core chunk lifecycles.
const PID_CORES: u64 = 0;
/// Track group for per-directory occupancy spans.
const PID_DIRS: u64 = 1;
/// Track group for machine-global counters.
const PID_MACHINE: u64 = 2;
/// Track group for derived time-series counter tracks (opt-in via
/// [`perfetto_trace_with_series`]; never present in the default export,
/// which the golden snapshot pins byte-for-byte).
const PID_SERIES: u64 = 3;

/// Converts `r`'s trace + observability log into a chrome-trace JSON
/// document, whose `Display` writes its compact text. Runs without a
/// trace or log produce a document with only the parts that were
/// recorded (an empty run is still valid JSON).
pub fn perfetto_trace(r: &RunResult) -> PerfettoDocument {
    build_perfetto(r).finish()
}

/// Like [`perfetto_trace`], plus one counter track per derived
/// time-series track (window width `window` cycles, sampled at each
/// window's start) under a dedicated "series" process — the windowed
/// commit/squash/occupancy/network rates rendered over the chunk spans.
pub fn perfetto_trace_with_series(r: &RunResult, window: u64) -> PerfettoDocument {
    let mut t = build_perfetto(r);
    if let Some(obs) = r.obs.as_ref() {
        let ts = crate::series::time_series_from_obs(obs, window);
        t.process_name(PID_SERIES, "series");
        let names: Vec<&str> = ts.track_names().collect();
        for (tid, name) in names.iter().enumerate() {
            t.thread_name(PID_SERIES, tid as u64, name);
            let values = ts.track(name).unwrap_or(&[]);
            for (w, value) in values.iter().enumerate() {
                t.counter(
                    PID_SERIES,
                    tid as u64,
                    name,
                    w as u64 * ts.window(),
                    "value",
                    *value,
                );
            }
        }
    }
    t.finish()
}

fn build_perfetto(r: &RunResult) -> PerfettoTrace {
    let mut t = PerfettoTrace::new();
    t.process_name(PID_CORES, "cores");
    t.process_name(PID_DIRS, "directories");
    t.process_name(PID_MACHINE, "machine");
    t.thread_name(PID_MACHINE, 0, "event queue");

    let mut cores: BTreeSet<u16> = BTreeSet::new();
    let mut dirs: BTreeSet<u16> = BTreeSet::new();
    // The latest timestamp anywhere, used to close dangling spans (a
    // quiesced run has none; a mid-run export stays well-formed).
    let mut end: u64 = 0;

    if let Some(trace) = r.trace.as_ref() {
        let mut open: Vec<(ChunkTag, (u16, u64))> = Vec::new();
        for e in &trace.events {
            match e {
                TraceEvent::ExecStart { core, tag, at } => {
                    cores.insert(*core);
                    end = end.max(at.as_u64());
                    open.push((*tag, (*core, at.as_u64())));
                }
                TraceEvent::Committed {
                    core,
                    tag,
                    at,
                    reads,
                    writes,
                } => {
                    cores.insert(*core);
                    end = end.max(at.as_u64());
                    let start = take_open(&mut open, *tag).map_or(at.as_u64(), |(_, s)| s);
                    t.complete(
                        PID_CORES,
                        *core as u64,
                        &format!("{tag}"),
                        "chunk",
                        start,
                        at.as_u64() - start,
                        vec![
                            ("outcome".to_string(), JsonValue::from("commit")),
                            ("reads".to_string(), JsonValue::from(reads.len() as u64)),
                            ("writes".to_string(), JsonValue::from(writes.len() as u64)),
                        ],
                    );
                }
                TraceEvent::Squashed { core, tag, at } => {
                    cores.insert(*core);
                    end = end.max(at.as_u64());
                    let start = take_open(&mut open, *tag).map_or(at.as_u64(), |(_, s)| s);
                    t.complete(
                        PID_CORES,
                        *core as u64,
                        &format!("{tag}"),
                        "chunk",
                        start,
                        at.as_u64() - start,
                        vec![("outcome".to_string(), JsonValue::from("squash"))],
                    );
                }
                TraceEvent::InvProcessed {
                    core,
                    committer,
                    at,
                    ..
                } => {
                    cores.insert(*core);
                    end = end.max(at.as_u64());
                    t.instant(
                        PID_CORES,
                        *core as u64,
                        &format!("inv {committer}"),
                        "inv",
                        at.as_u64(),
                    );
                }
            }
        }
        // A chunk still executing at export time (never in a quiesced
        // run): emit it as an open-ended span to `end`.
        for (tag, (core, start)) in open {
            t.complete(
                PID_CORES,
                core as u64,
                &format!("{tag}"),
                "chunk",
                start,
                end.saturating_sub(start),
                vec![("outcome".to_string(), JsonValue::from("open"))],
            );
        }
    }

    if let Some(obs) = r.obs.as_ref() {
        let mut open: Vec<((DirId, ChunkTag), u64)> = Vec::new();
        for e in &obs.events {
            end = end.max(e.at.as_u64());
            match e.kind {
                ObsKind::DirGrabbed { dir, tag } => {
                    dirs.insert(dir.0);
                    open.push(((dir, tag), e.at.as_u64()));
                }
                ObsKind::DirReleased { dir, tag } => {
                    dirs.insert(dir.0);
                    let start = match open.iter().position(|(k, _)| *k == (dir, tag)) {
                        Some(i) => open.remove(i).1,
                        None => e.at.as_u64(),
                    };
                    t.complete(
                        PID_DIRS,
                        dir.0 as u64,
                        &format!("{tag}"),
                        "grab",
                        start,
                        e.at.as_u64() - start,
                        vec![],
                    );
                }
                ObsKind::CommitRecalled { tag } => {
                    cores.insert(tag.core().0);
                    t.instant(
                        PID_CORES,
                        tag.core().0 as u64,
                        &format!("recall {tag}"),
                        "recall",
                        e.at.as_u64(),
                    );
                }
                ObsKind::HeldInvDepth { core, depth } => {
                    cores.insert(core);
                    t.counter(
                        PID_CORES,
                        core as u64,
                        "held_invs",
                        e.at.as_u64(),
                        "depth",
                        depth as u64,
                    );
                }
                ObsKind::QueueDepth { depth } => {
                    t.counter(PID_MACHINE, 0, "event_queue", e.at.as_u64(), "depth", depth);
                }
                // Terminal accounting and stall credits are reconciliation
                // material (`breakdown_from_obs`), not renderable spans.
                ObsKind::ChunkDone { .. } | ObsKind::CommitStall { .. } => {}
            }
        }
        for ((dir, tag), start) in open {
            t.complete(
                PID_DIRS,
                dir.0 as u64,
                &format!("{tag} (open)"),
                "grab",
                start,
                end.saturating_sub(start),
                vec![],
            );
        }
        for f in &obs.flows {
            let (spid, stid) = endpoint_track(f.src, &mut cores, &mut dirs);
            let (dpid, dtid) = endpoint_track(f.dst, &mut cores, &mut dirs);
            t.flow_start(spid, stid, f.label, "flow", f.sent_at.as_u64(), f.id.0);
            t.flow_end(dpid, dtid, f.label, "flow", f.delivered_at.as_u64(), f.id.0);
        }
    }

    for core in cores {
        t.thread_name(PID_CORES, core as u64, &format!("core {core}"));
    }
    for dir in dirs {
        t.thread_name(PID_DIRS, dir as u64, &format!("dir {dir}"));
    }
    t
}

fn take_open(open: &mut Vec<(ChunkTag, (u16, u64))>, tag: ChunkTag) -> Option<(u16, u64)> {
    let i = open.iter().position(|(t, _)| *t == tag)?;
    Some(open.remove(i).1)
}

/// Maps a flow endpoint onto its Perfetto track, registering the track
/// for thread naming.
fn endpoint_track(e: Endpoint, cores: &mut BTreeSet<u16>, dirs: &mut BTreeSet<u16>) -> (u64, u64) {
    match e {
        Endpoint::Core(c) => {
            cores.insert(c.0);
            (PID_CORES, c.0 as u64)
        }
        Endpoint::Dir(d) => {
            dirs.insert(d.0);
            (PID_DIRS, d.0 as u64)
        }
    }
}

/// Validates the whole observability pipeline of a traced run. Returns
/// human-readable violations (empty = clean):
///
/// 1. every `ExecStart` is closed by exactly one commit or squash, and
///    the terminal counts equal the run's `commits`/`squashes()`;
/// 2. grab/release alternate strictly per `(dir, chunk)` and balance at
///    quiescence (`final_in_flight == 0`);
/// 3. the Perfetto export's text parses, passes the structural
///    validator, and re-serializes from the parsed tree byte-identically;
/// 4. event counts in the exported document reconcile exactly with the
///    run's aggregates and metrics registry;
/// 5. the derived time-series reconciles exactly: every track sums over
///    its windows to the matching aggregate counter at several window
///    widths, and per-home directory tracks sum to their aggregate.
pub fn verify_observability(r: &RunResult) -> Vec<String> {
    let mut v = Vec::new();
    let Some(trace) = r.trace.as_ref() else {
        return vec!["run carries no trace; enable SimConfig::trace".into()];
    };
    let Some(obs) = r.obs.as_ref() else {
        return vec!["run carries no observability log; enable SimConfig::obs".into()];
    };

    // 1. Exec-span closure.
    let mut open: BTreeSet<ChunkTag> = BTreeSet::new();
    let mut closed: BTreeSet<ChunkTag> = BTreeSet::new();
    let (mut commits, mut squashes, mut invs) = (0u64, 0u64, 0u64);
    for (i, e) in trace.events.iter().enumerate() {
        match e {
            TraceEvent::ExecStart { tag, .. } => {
                if !open.insert(*tag) || closed.contains(tag) {
                    v.push(format!("event {i}: {tag} starts executing twice"));
                }
            }
            TraceEvent::Committed { tag, .. } => {
                commits += 1;
                if !open.remove(tag) {
                    v.push(format!(
                        "event {i}: {tag} commits without an open exec span"
                    ));
                }
                closed.insert(*tag);
            }
            TraceEvent::Squashed { tag, .. } => {
                squashes += 1;
                if !open.remove(tag) {
                    v.push(format!(
                        "event {i}: {tag} squashed without an open exec span"
                    ));
                }
                closed.insert(*tag);
            }
            TraceEvent::InvProcessed { .. } => invs += 1,
        }
    }
    for tag in &open {
        v.push(format!("{tag}: exec span never closed"));
    }
    if commits != r.commits {
        v.push(format!(
            "trace has {commits} commit events, result counted {}",
            r.commits
        ));
    }
    if squashes != r.squashes() {
        v.push(format!(
            "trace has {squashes} squash events, result counted {}",
            r.squashes()
        ));
    }

    // 2. Occupancy alternation and balance.
    let mut held: BTreeSet<(u16, ChunkTag)> = BTreeSet::new();
    let (mut grabs, mut releases) = (0u64, 0u64);
    for (i, e) in obs.events.iter().enumerate() {
        match e.kind {
            ObsKind::DirGrabbed { dir, tag } => {
                grabs += 1;
                if !held.insert((dir.0, tag)) {
                    v.push(format!("obs event {i}: dir {dir} grabbed twice by {tag}"));
                }
            }
            ObsKind::DirReleased { dir, tag } => {
                releases += 1;
                if !held.remove(&(dir.0, tag)) {
                    v.push(format!(
                        "obs event {i}: dir {dir} released by {tag} without a grab"
                    ));
                }
            }
            _ => {}
        }
    }
    if trace.final_in_flight == 0 {
        for (dir, tag) in &held {
            v.push(format!(
                "dir {dir}: grab by {tag} never released at quiescence"
            ));
        }
        if grabs != releases {
            v.push(format!(
                "{grabs} grabs vs {releases} releases at quiescence"
            ));
        }
    }

    // 2b. Causal flow graph: dense ids, acyclic by parent < child,
    // per-link time tiling, and a network decomposition that fits inside
    // the flow's span.
    for (i, f) in obs.flows.iter().enumerate() {
        if f.id.0 != i as u64 + 1 {
            v.push(format!("flow {i}: id {} is not dense", f.id));
        }
        if f.parent.0 >= f.id.0 {
            v.push(format!("{}: parent {} is not older", f.id, f.parent));
        }
        if f.delivered_at < f.sent_at {
            v.push(format!("{}: delivered before sent", f.id));
        }
        if let Some(n) = f.net {
            if n.depart.as_u64() < n.queue_wait
                || n.depart.as_u64() - n.queue_wait < f.sent_at.as_u64()
            {
                v.push(format!("{}: injected before it was sent", f.id));
            }
            if (n.depart + n.wire + n.perturb_extra) > f.delivered_at {
                v.push(format!("{}: wire time overruns delivery", f.id));
            }
        }
    }

    // 2c. Per-commit critical paths: every commit reconstructs, its
    // segments tile the latency interval exactly, and the multiset of
    // path lengths reconciles with the recorded distribution.
    match commit_paths(r) {
        Err(e) => v.push(format!("critical path: {e}")),
        Ok(paths) => {
            if paths.len() as u64 != r.latency.count() {
                v.push(format!(
                    "{} critical paths vs {} recorded latencies",
                    paths.len(),
                    r.latency.count()
                ));
            }
            let (mut sum, mut max) = (0u128, 0u64);
            for p in &paths {
                let tiled: u64 = p.segments.iter().map(Segment::len).sum();
                if tiled != p.latency() {
                    v.push(format!(
                        "{}: segments cover {tiled} of {} latency cycles",
                        p.tag,
                        p.latency()
                    ));
                }
                sum += p.latency() as u128;
                max = max.max(p.latency());
            }
            if sum != r.latency.sum() {
                v.push(format!(
                    "critical paths sum to {sum} cycles, latency dist recorded {}",
                    r.latency.sum()
                ));
            }
            if max != r.latency.max() {
                v.push(format!(
                    "longest critical path is {max} cycles, latency dist max is {}",
                    r.latency.max()
                ));
            }
        }
    }

    // 2d. Figure-7 breakdown reconstructed from the obs stream must equal
    // the frozen aggregate exactly (quiesced runs only: in-flight chunks
    // still hold invested cycles).
    if trace.final_in_flight == 0 {
        let b = breakdown_from_obs(obs);
        if b != r.breakdown {
            v.push(format!(
                "obs breakdown {b:?} differs from aggregate {:?}",
                r.breakdown
            ));
        }
    }

    // 3. The export's text parses, validates, and round-trips.
    let text = perfetto_trace(r).to_string();
    let json = match JsonValue::parse(&text) {
        Ok(json) => {
            for problem in perfetto::validate(&json) {
                v.push(format!("perfetto: {problem}"));
            }
            if json.to_string() != text {
                v.push("perfetto JSON re-serialization is not byte-identical".into());
            }
            json
        }
        Err(e) => {
            v.push(format!("perfetto JSON does not parse: {e}"));
            JsonValue::Null
        }
    };

    // 4. Count reconciliation against the document itself.
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .unwrap_or(&[]);
    let outcome_count = |want: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("chunk")
                    && e.get("args")
                        .and_then(|a| a.get("outcome"))
                        .and_then(|o| o.as_str())
                        == Some(want)
            })
            .count() as u64
    };
    let cat_count = |want: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some(want))
            .count() as u64
    };
    if outcome_count("commit") != r.commits {
        v.push(format!(
            "export has {} commit spans, result counted {}",
            outcome_count("commit"),
            r.commits
        ));
    }
    if outcome_count("squash") != r.squashes() {
        v.push(format!(
            "export has {} squash spans, result counted {}",
            outcome_count("squash"),
            r.squashes()
        ));
    }
    if cat_count("inv") != invs {
        v.push(format!(
            "export has {} inv instants, trace recorded {invs}",
            cat_count("inv")
        ));
    }
    if trace.final_in_flight == 0 && cat_count("grab") != releases {
        v.push(format!(
            "export has {} grab spans, obs recorded {releases} releases",
            cat_count("grab")
        ));
    }
    // Every flow exports exactly one start + one end binding (the
    // structural validator already paired the ids one-to-one).
    if cat_count("flow") != 2 * obs.flows.len() as u64 {
        v.push(format!(
            "export has {} flow events, log recorded {} flows",
            cat_count("flow"),
            obs.flows.len()
        ));
    }
    for (name, want) in [
        ("commits", r.commits),
        ("obs.dir_grabs", grabs),
        ("obs.dir_releases", releases),
        ("obs.flows", obs.flows.len() as u64),
    ] {
        if r.metrics.counter(name) != Some(want) {
            v.push(format!(
                "metrics counter {name:?} is {:?}, expected {want}",
                r.metrics.counter(name)
            ));
        }
    }
    // The parsed document and its text are the largest things alive
    // here; free them before the series folds below allocate theirs.
    drop(json);
    drop(text);

    // 5. Time-series reconciliation: every derived track must sum over
    // its windows to the matching aggregate registry counter *exactly*,
    // at a degenerate 1-cycle window, an odd width, and the run's
    // default width — the span-splitting arithmetic may not lose or
    // invent a single cycle. Per-home directory tracks must also sum to
    // their aggregate track.
    for window in [1, 509, crate::series::default_series_window(r.wall_cycles)] {
        let ts = crate::series::time_series_from_obs(obs, window);
        for (track, counter) in [
            ("commits", "obs.chunks_committed"),
            ("squashes", "obs.chunks_squashed"),
            ("recalls", "obs.commit_recalls"),
            ("dir.grabs", "obs.dir_grabs"),
            ("dir.hold_cycles", "obs.grab_hold_total_cycles"),
            ("net.sends", "obs.net_sends"),
            ("net.inject_wait_cycles", "obs.net_inject_wait_cycles"),
            ("queue.depth_sum", "obs.queue_depth_sum"),
            ("queue.samples", "obs.queue_depth_samples"),
            ("held_inv.depth_sum", "obs.held_inv_depth_sum"),
            ("held_inv.samples", "obs.held_inv_samples"),
            ("commit_stall_cycles", "obs.commit_stall_total_cycles"),
        ] {
            let got = ts.total(track);
            let want = r.metrics.counter(counter).unwrap_or(0);
            if got != want {
                v.push(format!(
                    "series track {track:?} sums to {got} at window {window}, \
                     counter {counter:?} is {want}"
                ));
            }
        }
        for (agg, prefix) in [
            ("dir.grabs", "dir.grabs.d"),
            ("dir.hold_cycles", "dir.hold_cycles.d"),
        ] {
            let split: u64 = ts
                .track_names()
                .filter(|n| n.starts_with(prefix))
                .map(|n| ts.total(n))
                .sum();
            if split != ts.total(agg) {
                v.push(format!(
                    "per-home tracks {prefix}* sum to {split} at window {window}, \
                     aggregate {agg:?} is {}",
                    ts.total(agg)
                ));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_simulation, SimConfig};
    use sb_proto::ProtocolKind;
    use sb_workloads::AppProfile;

    fn observed_run(protocol: ProtocolKind) -> RunResult {
        let mut cfg = SimConfig::paper_default(4, AppProfile::fft(), protocol);
        cfg.insns_per_thread = 4_000;
        cfg.trace = true;
        cfg.obs = crate::ObsConfig::on();
        run_simulation(&cfg)
    }

    #[test]
    fn export_is_valid_and_reconciles_for_scalablebulk() {
        let r = observed_run(ProtocolKind::ScalableBulk);
        assert!(r.commits > 0);
        let violations = verify_observability(&r);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn export_has_both_core_and_directory_tracks() {
        let r = observed_run(ProtocolKind::ScalableBulk);
        let json = perfetto_trace(&r).to_json();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        let has_cat = |want: &str| {
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(want))
        };
        assert!(has_cat("chunk"), "core chunk-lifecycle track missing");
        assert!(has_cat("grab"), "directory occupancy track missing");
    }

    #[test]
    fn untraced_run_is_reported_not_exported() {
        let mut cfg = SimConfig::paper_default(4, AppProfile::fft(), ProtocolKind::ScalableBulk);
        cfg.insns_per_thread = 2_000;
        let r = run_simulation(&cfg);
        assert_eq!(verify_observability(&r).len(), 1);
        // The exporter still produces a valid (metadata-only) document.
        let json = perfetto_trace(&r).to_json();
        assert!(perfetto::validate(&json).is_empty());
    }
}
