//! Derived simulated-time telemetry: windowed [`TimeSeries`] views of
//! the observability log.
//!
//! The series is *derived*, not recorded: [`time_series_from_obs`] is a
//! pure post-run fold over the merged [`ObsLog`], so it can never
//! perturb simulated results and is byte-identical at any `--jobs`
//! count (the log itself already is). Counts land in the window
//! of their event cycle; durations (directory hold time, inject wait,
//! commit stalls) are split *exactly* across the windows they overlap,
//! so the sum of any track over all windows equals the corresponding
//! aggregate counter in [`RunResult::metrics`] — the invariant
//! `verify_observability` enforces for every fuzzed run.

use sb_stats::TimeSeries;

use crate::critical_path::{commit_paths, Attribution};
use crate::obs::{ObsKind, ObsLog};
use crate::{RunResult, SimConfig};
use sb_obs::json::JsonValue;

/// Default window width for a run of `wall_cycles` simulated cycles:
/// the power of two giving roughly 64 windows, never narrower than 64
/// cycles. Deterministic in the run's (deterministic) length, so derived
/// series need no external configuration to be reproducible.
pub fn default_series_window(wall_cycles: u64) -> u64 {
    (wall_cycles / 64).next_power_of_two().max(64)
}

/// The window width a config asks for: `cfg.obs.series_window`, or the
/// [`default_series_window`] for `r` when unset (0).
pub fn configured_series_window(cfg: &SimConfig, r: &RunResult) -> u64 {
    if cfg.obs.series_window > 0 {
        cfg.obs.series_window
    } else {
        default_series_window(r.wall_cycles)
    }
}

/// Builds the windowed telemetry tracks from an observability log.
///
/// Tracks (aggregate, plus `dir.grabs.dNNNN` / `dir.hold_cycles.dNNNN`
/// per directory home):
///
/// - `commits`, `squashes`, `recalls` — terminal chunk outcomes and
///   commit recalls per window.
/// - `dir.grabs`, `dir.hold_cycles` — directory occupancy: grab counts
///   and grab→release hold time, spans split exactly across windows.
/// - `net.sends`, `net.inject_wait_cycles` — network sends and their
///   injection-queue wait, spanning from the send cycle.
/// - `queue.depth_sum`, `queue.samples` — periodic future-event-list
///   depth samples.
/// - `held_inv.depth_sum`, `held_inv.samples` — held-invalidation queue
///   depth samples.
/// - `commit_stall_cycles` — commit-window stall time, spanning
///   backwards from the stall's end.
pub fn time_series_from_obs(obs: &ObsLog, window: u64) -> TimeSeries {
    let mut ts = TimeSeries::new(window);
    // Open grabs matched release-to-grab per (dir, tag) in stream order —
    // the same matching `build_registry` uses for the aggregate counter,
    // so unmatched grabs contribute to neither side.
    let mut open: Vec<((u64, sb_chunks::ChunkTag), u64)> = Vec::new();
    for e in &obs.events {
        let at = e.at.as_u64();
        match e.kind {
            ObsKind::ChunkDone { committed, .. } => {
                ts.add(if committed { "commits" } else { "squashes" }, at, 1);
            }
            ObsKind::CommitRecalled { .. } => ts.add("recalls", at, 1),
            ObsKind::DirGrabbed { dir, tag } => {
                ts.add("dir.grabs", at, 1);
                ts.add(&format!("dir.grabs.d{:04}", dir.idx()), at, 1);
                open.push(((dir.idx() as u64, tag), at));
            }
            ObsKind::DirReleased { dir, tag } => {
                let key = (dir.idx() as u64, tag);
                if let Some(i) = open.iter().position(|(k, _)| *k == key) {
                    let (_, start) = open.swap_remove(i);
                    ts.add_span("dir.hold_cycles", start, at);
                    ts.add_span(&format!("dir.hold_cycles.d{:04}", dir.idx()), start, at);
                }
            }
            ObsKind::HeldInvDepth { depth, .. } => {
                ts.add("held_inv.depth_sum", at, depth as u64);
                ts.add("held_inv.samples", at, 1);
            }
            ObsKind::QueueDepth { depth } => {
                ts.add("queue.depth_sum", at, depth);
                ts.add("queue.samples", at, 1);
            }
            ObsKind::CommitStall { cycles, .. } => {
                let start = at.saturating_sub(cycles);
                ts.add_span("commit_stall_cycles", start, start + cycles);
            }
        }
    }
    for f in &obs.flows {
        if let Some(net) = f.net {
            let sent = f.sent_at.as_u64();
            ts.add("net.sends", sent, 1);
            ts.add_span("net.inject_wait_cycles", sent, sent + net.queue_wait);
        }
    }
    ts
}

/// The deterministic per-run series report `figures --series-out` (and
/// the run-diff tooling) consume: run identity, aggregate counters, the
/// per-segment critical-path attribution when the run carried a trace,
/// and the windowed series.
pub fn series_report(cfg: &SimConfig, r: &RunResult, window: u64) -> Result<JsonValue, String> {
    let obs = r
        .obs
        .as_ref()
        .ok_or("series_report needs a run with cfg.obs enabled")?;
    let mut members = vec![
        (
            "meta",
            JsonValue::obj([
                ("protocol", JsonValue::from(format!("{:?}", cfg.protocol))),
                ("app", JsonValue::from(cfg.app.name)),
                ("cores", JsonValue::from(cfg.cores as u64)),
                ("insns_per_thread", JsonValue::from(cfg.insns_per_thread)),
                ("seed", JsonValue::from(format!("{:#x}", cfg.seed))),
            ]),
        ),
        (
            "aggregates",
            JsonValue::obj([
                ("wall_cycles", JsonValue::from(r.wall_cycles)),
                ("commits", JsonValue::from(r.commits)),
                ("squashes", JsonValue::from(r.squashes())),
                ("read_nacks", JsonValue::from(r.read_nacks)),
                ("commit_retries", JsonValue::from(r.commit_retries)),
            ]),
        ),
    ];
    if r.trace.is_some() {
        let paths = commit_paths(r)?;
        let attr = Attribution::from_paths(&paths);
        members.push((
            "attribution",
            JsonValue::obj(
                std::iter::once(("commits".to_string(), JsonValue::from(attr.commits))).chain(
                    attr.cycles.iter().map(|(seg, cycles)| {
                        (seg.as_str().to_string(), JsonValue::from(*cycles as u64))
                    }),
                ),
            ),
        ));
    }
    members.push(("series", time_series_from_obs(obs, window).to_json()));
    Ok(JsonValue::obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_simulation;
    use sb_proto::ProtocolKind;
    use sb_workloads::AppProfile;

    fn observed_run() -> (SimConfig, RunResult) {
        let mut cfg = SimConfig::paper_default(4, AppProfile::fft(), ProtocolKind::ScalableBulk);
        cfg.insns_per_thread = 3_000;
        cfg.trace = true;
        cfg.obs = crate::ObsConfig::on();
        let r = run_simulation(&cfg);
        (cfg, r)
    }

    #[test]
    fn default_window_tracks_run_length() {
        assert_eq!(default_series_window(0), 64);
        assert_eq!(default_series_window(64 * 64), 64);
        assert_eq!(default_series_window(1_000_000), 16384);
    }

    #[test]
    fn series_totals_match_registry_counters() {
        let (_, r) = observed_run();
        let obs = r.obs.as_ref().unwrap();
        for window in [1, 509, 4096, u64::MAX / 2] {
            let ts = time_series_from_obs(obs, window);
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
                assert_eq!(
                    ts.total(track),
                    r.metrics.counter(counter).unwrap_or(0),
                    "track {track} vs counter {counter} at window {window}"
                );
            }
        }
    }

    #[test]
    fn per_home_tracks_sum_to_the_aggregate() {
        let (_, r) = observed_run();
        let ts = time_series_from_obs(r.obs.as_ref().unwrap(), 1024);
        for (agg, prefix) in [
            ("dir.grabs", "dir.grabs.d"),
            ("dir.hold_cycles", "dir.hold_cycles.d"),
        ] {
            let split: u64 = ts
                .track_names()
                .filter(|n| n.starts_with(prefix))
                .map(|n| ts.total(n))
                .sum();
            assert_eq!(split, ts.total(agg), "{prefix}* vs {agg}");
        }
    }

    #[test]
    fn series_report_is_deterministic_and_parses() {
        let (cfg, r) = observed_run();
        let window = configured_series_window(&cfg, &r);
        let a = series_report(&cfg, &r, window).unwrap().to_string();
        let b = series_report(&cfg, &r, window).unwrap().to_string();
        assert_eq!(a, b);
        let v = JsonValue::parse(&a).unwrap();
        assert!(v.get("attribution").is_some());
        assert_eq!(
            v.get("series").unwrap().get("window").unwrap().as_i64(),
            Some(window as i64)
        );
    }
}
