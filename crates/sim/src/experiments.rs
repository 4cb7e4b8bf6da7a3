//! One function per table/figure of the paper's evaluation (§5–§6).
//!
//! Every function returns a [`TextTable`] whose rows are the series the
//! paper plots. The `figures` binary exposes them on the command line;
//! `EXPERIMENTS.md` records paper-vs-measured for each.
//!
//! Runs are deterministic; independent runs are executed on worker
//! threads.

use std::collections::HashMap;

use sb_core::MessageType;
use sb_net::TrafficClass;
use sb_proto::ProtocolKind;
use sb_stats::{TextTable, TrafficReport};
use sb_workloads::{AppProfile, Suite};

use crate::config::SimConfig;
use crate::parallel::{parallel_map, AUTO_JOBS};
use crate::result::RunResult;
use crate::runner::run_simulation;

/// Knobs for an experiment sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Committed instructions per thread (the paper runs to completion on
    /// reference inputs; we run a fixed steady-state window).
    pub insns_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for independent runs ([`AUTO_JOBS`] = one per
    /// hardware thread). Only wall-clock depends on this; every table is
    /// byte-identical at any value.
    pub jobs: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            insns_per_thread: 20_000,
            seed: 0x5ca1ab1e,
            jobs: AUTO_JOBS,
        }
    }
}

/// A cache of completed runs keyed by (app, cores, protocol), filled in
/// parallel. The 1-processor normalization runs are keyed with
/// `cores == 0`.
pub struct RunSet {
    sweep: Sweep,
    runs: HashMap<(String, u16, ProtocolKind), RunResult>,
}

impl RunSet {
    /// Executes every (app × cores × protocol) combination plus the
    /// 1-processor normalization runs, in parallel across OS threads.
    pub fn collect(
        apps: &[AppProfile],
        cores_list: &[u16],
        protocols: &[ProtocolKind],
        sweep: &Sweep,
        with_single: bool,
    ) -> RunSet {
        let mut work: Vec<(String, u16, ProtocolKind, SimConfig)> = Vec::new();
        for app in apps {
            for &cores in cores_list {
                for &p in protocols {
                    let mut cfg = SimConfig::paper_default(cores, *app, p);
                    cfg.insns_per_thread = sweep.insns_per_thread;
                    cfg.seed = sweep.seed;
                    work.push((app.name.to_string(), cores, p, cfg));
                }
            }
            if with_single {
                // One normalization run per (app, parallel size): the
                // single processor executes the whole problem.
                for &cores in cores_list {
                    let mut cfg = SimConfig::single_processor(*app, cores, sweep.insns_per_thread);
                    cfg.seed = sweep.seed;
                    work.push((
                        format!("{}@1p{}", app.name, cores),
                        0,
                        ProtocolKind::ScalableBulk,
                        cfg,
                    ));
                }
            }
        }
        let results = parallel_map(&work, sweep.jobs, |(_, _, _, cfg)| run_simulation(cfg));
        RunSet {
            sweep: sweep.clone(),
            runs: work
                .into_iter()
                .zip(results)
                .map(|((name, cores, p, _), r)| ((name, cores, p), r))
                .collect(),
        }
    }

    /// The run for (app, cores, protocol).
    pub fn get(&self, app: &str, cores: u16, p: ProtocolKind) -> &RunResult {
        self.runs
            .get(&(app.to_string(), cores, p))
            .unwrap_or_else(|| panic!("missing run {app}/{cores}/{p}"))
    }

    /// The 1-processor normalization run for `app` matched to a
    /// `cores`-way parallel run.
    pub fn single(&self, app: &str, cores: u16) -> &RunResult {
        let key = (format!("{app}@1p{cores}"), 0u16, ProtocolKind::ScalableBulk);
        self.runs
            .get(&key)
            .unwrap_or_else(|| panic!("missing 1p run for {app}@{cores}"))
    }

    /// The sweep parameters used.
    pub fn sweep(&self) -> &Sweep {
        &self.sweep
    }
}

fn suite_apps(suite: Suite) -> Vec<AppProfile> {
    match suite {
        Suite::Splash2 => AppProfile::splash2(),
        Suite::Parsec => AppProfile::parsec(),
    }
}

/// Figures 7 (SPLASH-2) and 8 (PARSEC): normalized execution time broken
/// into Useful / Cache Miss / Commit / Squash, with the speedup over the
/// 1-processor run, per application × core count × protocol.
pub fn exec_time_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let set = RunSet::collect(&apps, &[32, 64], &ProtocolKind::ALL, sweep, true);
    exec_time_table_from(&apps, &set)
}

/// Figures 7/8 from an existing [`RunSet`].
pub fn exec_time_table_from(apps: &[AppProfile], set: &RunSet) -> TextTable {
    let mut t = TextTable::new(vec![
        "app", "cores", "protocol", "useful%", "cache%", "commit%", "squash%", "speedup",
    ]);
    let mut sums: HashMap<(u16, ProtocolKind), (f64, [f64; 4])> = HashMap::new();
    for app in apps {
        for cores in [32u16, 64] {
            let t1 = set.single(app.name, cores).wall_cycles;
            for p in ProtocolKind::ALL {
                let r = set.get(app.name, cores, p);
                let b = &r.breakdown;
                let speedup = t1 as f64 / r.wall_cycles.max(1) as f64;
                t.row(vec![
                    app.name.into(),
                    cores.to_string(),
                    p.label().into(),
                    format!("{:.1}", b.fraction_useful() * 100.0),
                    format!("{:.1}", b.fraction_cache_miss() * 100.0),
                    format!("{:.1}", b.fraction_commit() * 100.0),
                    format!("{:.2}", b.fraction_squash() * 100.0),
                    format!("{speedup:.1}"),
                ]);
                let e = sums.entry((cores, p)).or_insert((0.0, [0.0; 4]));
                e.0 += speedup;
                e.1[0] += b.fraction_useful();
                e.1[1] += b.fraction_cache_miss();
                e.1[2] += b.fraction_commit();
                e.1[3] += b.fraction_squash();
            }
        }
    }
    let n = apps.len() as f64;
    for cores in [32u16, 64] {
        for p in ProtocolKind::ALL {
            let (sp, fr) = sums[&(cores, p)];
            t.row(vec![
                "AVERAGE".into(),
                cores.to_string(),
                p.label().into(),
                format!("{:.1}", fr[0] / n * 100.0),
                format!("{:.1}", fr[1] / n * 100.0),
                format!("{:.1}", fr[2] / n * 100.0),
                format!("{:.2}", fr[3] / n * 100.0),
                format!("{:.1}", sp / n),
            ]);
        }
    }
    t
}

/// Figures 9 (SPLASH-2) / 10 (PARSEC): average number of directories per
/// chunk commit, split into write group and read group, for 32 and 64
/// processors under ScalableBulk.
pub fn dirs_per_commit_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let set = RunSet::collect(
        &apps,
        &[32, 64],
        &[ProtocolKind::ScalableBulk],
        sweep,
        false,
    );
    let mut t = TextTable::new(vec!["app", "cores", "write_group", "read_group", "total"]);
    let mut sums: HashMap<u16, (f64, f64)> = HashMap::new();
    for app in &apps {
        for cores in [32u16, 64] {
            let r = set.get(app.name, cores, ProtocolKind::ScalableBulk);
            let (w, rd) = (r.dirs.mean_write_group(), r.dirs.mean_read_group());
            t.row(vec![
                app.name.into(),
                cores.to_string(),
                format!("{w:.2}"),
                format!("{rd:.2}"),
                format!("{:.2}", w + rd),
            ]);
            let e = sums.entry(cores).or_insert((0.0, 0.0));
            e.0 += w;
            e.1 += rd;
        }
    }
    for cores in [32u16, 64] {
        let (w, rd) = sums[&cores];
        let n = apps.len() as f64;
        t.row(vec![
            "AVERAGE".into(),
            cores.to_string(),
            format!("{:.2}", w / n),
            format!("{:.2}", rd / n),
            format!("{:.2}", (w + rd) / n),
        ]);
    }
    t
}

/// Figures 11 (SPLASH-2) / 12 (PARSEC): the distribution of directories
/// accessed per chunk commit at 64 processors (percent of commits in
/// buckets 0..=14 plus "more").
pub fn dirs_distribution_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let set = RunSet::collect(&apps, &[64], &[ProtocolKind::ScalableBulk], sweep, false);
    let mut header: Vec<String> = vec!["app".into()];
    header.extend((0..=14).map(|k| k.to_string()));
    header.push("more".into());
    let mut t = TextTable::new(header);
    for app in &apps {
        let r = set.get(app.name, 64, ProtocolKind::ScalableBulk);
        let mut row = vec![app.name.to_string()];
        for k in 0..=15 {
            row.push(format!("{:.1}", r.dirs.percent(k)));
        }
        t.row(row);
    }
    t
}

/// Figure 13: distribution (and mean) of chunk-commit latency per
/// protocol, averaged over all 18 applications, for 32 and 64 processors.
/// The paper's 64-processor means are 91 / 411 / 153 / 2954 cycles for
/// ScalableBulk / TCC / SEQ / BulkSC.
pub fn commit_latency_table(sweep: &Sweep) -> TextTable {
    let apps = AppProfile::all();
    let set = RunSet::collect(&apps, &[32, 64], &ProtocolKind::ALL, sweep, false);
    let mut t = TextTable::new(vec![
        "cores", "protocol", "mean", "p50", "p90", "p99", "max",
    ]);
    for cores in [32u16, 64] {
        for p in ProtocolKind::ALL {
            let mut agg = sb_stats::LatencyDist::new();
            for app in &apps {
                agg.merge(&set.get(app.name, cores, p).latency);
            }
            t.row(vec![
                cores.to_string(),
                p.label().into(),
                format!("{:.0}", agg.mean()),
                agg.quantile(0.5).to_string(),
                agg.quantile(0.9).to_string(),
                agg.quantile(0.99).to_string(),
                agg.max().to_string(),
            ]);
        }
    }
    t
}

/// Figures 14 (SPLASH-2) / 15 (PARSEC): the bottleneck ratio per
/// application for ScalableBulk, TCC and SEQ (BulkSC forms no groups) at
/// 64 processors.
pub fn bottleneck_ratio_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let protos = [
        ProtocolKind::ScalableBulk,
        ProtocolKind::Tcc,
        ProtocolKind::Seq,
    ];
    let set = RunSet::collect(&apps, &[64], &protos, sweep, false);
    let mut t = TextTable::new(vec!["app", "ScalableBulk", "TCC", "SEQ"]);
    let mut sums = [0.0f64; 3];
    for app in &apps {
        let vals: Vec<f64> = protos
            .iter()
            .map(|p| set.get(app.name, 64, *p).gauges.bottleneck_ratio())
            .collect();
        for (i, v) in vals.iter().enumerate() {
            sums[i] += v;
        }
        t.row(vec![
            app.name.into(),
            format!("{:.2}", vals[0]),
            format!("{:.2}", vals[1]),
            format!("{:.2}", vals[2]),
        ]);
    }
    let n = apps.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        format!("{:.2}", sums[0] / n),
        format!("{:.2}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
    ]);
    t
}

/// Figures 16 (SPLASH-2) / 17 (PARSEC): average chunk queue length for
/// TCC and SEQ at 64 processors (chunks do not queue in ScalableBulk).
pub fn queue_length_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let protos = [
        ProtocolKind::Tcc,
        ProtocolKind::Seq,
        ProtocolKind::ScalableBulk,
    ];
    let set = RunSet::collect(&apps, &[64], &protos, sweep, false);
    let mut t = TextTable::new(vec!["app", "TCC", "SEQ", "ScalableBulk"]);
    for app in &apps {
        t.row(vec![
            app.name.into(),
            format!(
                "{:.2}",
                set.get(app.name, 64, ProtocolKind::Tcc)
                    .gauges
                    .mean_queue_length()
            ),
            format!(
                "{:.2}",
                set.get(app.name, 64, ProtocolKind::Seq)
                    .gauges
                    .mean_queue_length()
            ),
            format!(
                "{:.2}",
                set.get(app.name, 64, ProtocolKind::ScalableBulk)
                    .gauges
                    .mean_queue_length()
            ),
        ]);
    }
    t
}

/// Figures 18 (SPLASH-2) / 19 (PARSEC): number and class mix of network
/// messages per protocol at 64 processors, normalized to TCC (=100).
pub fn traffic_table(suite: Suite, sweep: &Sweep) -> TextTable {
    let apps = suite_apps(suite);
    let set = RunSet::collect(&apps, &[64], &ProtocolKind::ALL, sweep, false);
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "MemRd",
        "RemoteShRd",
        "RemoteDirtyRd",
        "LargeCMsg",
        "SmallCMsg",
        "total%",
    ]);
    for app in &apps {
        let reference = &set.get(app.name, 64, ProtocolKind::Tcc).traffic;
        for p in ProtocolKind::ALL {
            let rep = TrafficReport::normalized(&set.get(app.name, 64, p).traffic, reference);
            t.row(vec![
                app.name.into(),
                format!("{}", p.letter()),
                format!("{:.1}", rep.percent(TrafficClass::MemRd)),
                format!("{:.1}", rep.percent(TrafficClass::RemoteShRd)),
                format!("{:.1}", rep.percent(TrafficClass::RemoteDirtyRd)),
                format!("{:.1}", rep.percent(TrafficClass::LargeCMessage)),
                format!("{:.1}", rep.percent(TrafficClass::SmallCMessage)),
                format!("{:.1}", rep.total_percent()),
            ]);
        }
    }
    t
}

/// Table 1: the ten ScalableBulk message types.
pub fn message_types_table() -> TextTable {
    let mut t = TextTable::new(vec!["message", "format", "direction", "carries signature"]);
    for m in MessageType::TABLE_1 {
        t.row(vec![
            m.name.into(),
            m.format.into(),
            format!("{:?}", m.direction),
            if m.carries_signature { "yes" } else { "no" }.into(),
        ]);
    }
    t
}

/// Table 2: the simulated system configuration.
pub fn system_config_table() -> TextTable {
    let cfg = SimConfig::paper_default(64, AppProfile::fft(), ProtocolKind::ScalableBulk);
    let mut t = TextTable::new(vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("cores", "32 or 64 in a multicore".into()),
        ("signature size", format!("{} bits", cfg.sig.total_bits())),
        (
            "max active chunks per core",
            cfg.max_active_chunks.to_string(),
        ),
        ("chunk size", "2000 instructions".into()),
        ("interconnect", cfg.net.topology.describe()),
        (
            "interconnect link latency",
            format!("{} cycles", cfg.net.link_latency),
        ),
        ("coherence protocol", "ScalableBulk".into()),
        (
            "L1",
            format!(
                "{}KB/{}-way/32B write-through, {}-cycle round trip",
                cfg.hier.l1.size_bytes / 1024,
                cfg.hier.l1.assoc,
                cfg.hier.l1_round_trip
            ),
        ),
        (
            "L2",
            format!(
                "{}KB/{}-way/32B write-back, {}-cycle round trip",
                cfg.hier.l2.size_bytes / 1024,
                cfg.hier.l2.assoc,
                cfg.hier.l2_round_trip
            ),
        ),
        ("memory roundtrip", format!("{} cycles", cfg.mem_latency)),
        ("page mapping", "first touch".into()),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    t
}

/// Table 3: the simulated protocols.
pub fn protocols_table() -> TextTable {
    let mut t = TextTable::new(vec!["name", "protocol"]);
    t.row(vec!["ScalableBulk".into(), "Protocol proposed".into()]);
    t.row(vec!["TCC".into(), "Scalable TCC [6]".into()]);
    t.row(vec!["SEQ".into(), "SEQ-PRO from [14]".into()]);
    t.row(vec![
        "BulkSC".into(),
        "Protocol from [5] with arbiter in the center".into(),
    ]);
    t
}

/// Ablation: ScalableBulk with and without Optimistic Commit Initiation
/// (§3.3), per application at 64 processors.
pub fn ablation_oci_table(apps: &[AppProfile], sweep: &Sweep) -> TextTable {
    let mut t = TextTable::new(vec!["app", "oci", "wall_cycles", "mean_latency", "commit%"]);
    let mut work: Vec<(&AppProfile, bool, SimConfig)> = Vec::new();
    for app in apps {
        for oci in [true, false] {
            let mut cfg = SimConfig::paper_default(64, *app, ProtocolKind::ScalableBulk);
            cfg.insns_per_thread = sweep.insns_per_thread;
            cfg.seed = sweep.seed;
            cfg.oci = oci;
            work.push((app, oci, cfg));
        }
    }
    let results = parallel_map(&work, sweep.jobs, |(_, _, cfg)| run_simulation(cfg));
    for ((app, oci, _), r) in work.iter().zip(&results) {
        t.row(vec![
            app.name.into(),
            oci.to_string(),
            r.wall_cycles.to_string(),
            format!("{:.0}", r.latency.mean()),
            format!("{:.1}", r.breakdown.fraction_commit() * 100.0),
        ]);
    }
    t
}

/// Ablation: signature size sweep (512b..4Kb) under ScalableBulk —
/// squash rate and commit latency vs the Table 2 default of 2 Kbit.
pub fn ablation_signature_table(app: AppProfile, sweep: &Sweep) -> TextTable {
    let mut t = TextTable::new(vec![
        "sig_bits",
        "squash_rate%",
        "alias_squash%",
        "mean_latency",
        "wall_cycles",
    ]);
    let work: Vec<(u32, SimConfig)> = [512u32, 1024, 2048, 4096]
        .into_iter()
        .map(|bits| {
            let mut cfg = SimConfig::paper_default(64, app, ProtocolKind::ScalableBulk);
            cfg.insns_per_thread = sweep.insns_per_thread;
            cfg.seed = sweep.seed;
            cfg.sig = sb_sigs::SignatureConfig::new(bits, 4);
            (bits, cfg)
        })
        .collect();
    let results = parallel_map(&work, sweep.jobs, |(_, cfg)| run_simulation(cfg));
    for ((bits, _), r) in work.iter().zip(&results) {
        let total = (r.commits + r.squashes()).max(1) as f64;
        t.row(vec![
            bits.to_string(),
            format!("{:.2}", r.squash_rate() * 100.0),
            format!("{:.2}", r.squashes_alias as f64 * 100.0 / total),
            format!("{:.0}", r.latency.mean()),
            r.wall_cycles.to_string(),
        ]);
    }
    t
}

/// Extension: SEQ-PRO vs SEQ-TS vs ScalableBulk (§2.1's discussion of
/// SRC's stealing optimization) on directory-hungry applications at 64
/// processors.
pub fn seq_ts_table(sweep: &Sweep) -> TextTable {
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "wall_cycles",
        "commit%",
        "mean_latency",
        "queue_len",
    ]);
    let mut work: Vec<(AppProfile, ProtocolKind, SimConfig)> = Vec::new();
    for app in [
        AppProfile::radix(),
        AppProfile::canneal(),
        AppProfile::fft(),
    ] {
        for proto in [
            ProtocolKind::Seq,
            ProtocolKind::SeqTs,
            ProtocolKind::ScalableBulk,
        ] {
            let mut cfg = SimConfig::paper_default(64, app, proto);
            cfg.insns_per_thread = sweep.insns_per_thread;
            cfg.seed = sweep.seed;
            work.push((app, proto, cfg));
        }
    }
    let results = parallel_map(&work, sweep.jobs, |(_, _, cfg)| run_simulation(cfg));
    for ((app, proto, _), r) in work.iter().zip(&results) {
        t.row(vec![
            app.name.into(),
            proto.label().into(),
            r.wall_cycles.to_string(),
            format!("{:.1}", r.breakdown.fraction_commit() * 100.0),
            format!("{:.0}", r.latency.mean()),
            format!("{:.2}", r.gauges.mean_queue_length()),
        ]);
    }
    t
}

/// Ablation: leader-priority rotation (§3.2.2 fairness) on/off — total
/// commit retries as the unfairness proxy.
pub fn ablation_rotation_table(app: AppProfile, sweep: &Sweep) -> TextTable {
    let mut t = TextTable::new(vec!["rotation", "wall_cycles", "retries", "mean_latency"]);
    let work: Vec<(Option<u64>, SimConfig)> = [None, Some(10_000u64)]
        .into_iter()
        .map(|interval| {
            let mut cfg = SimConfig::paper_default(64, app, ProtocolKind::ScalableBulk);
            cfg.insns_per_thread = sweep.insns_per_thread;
            cfg.seed = sweep.seed;
            cfg.sb.rotation_interval = interval;
            (interval, cfg)
        })
        .collect();
    let results = parallel_map(&work, sweep.jobs, |(_, cfg)| run_simulation(cfg));
    for ((interval, _), r) in work.iter().zip(&results) {
        t.row(vec![
            interval.map_or("off".to_string(), |i| format!("every {i}")),
            r.wall_cycles.to_string(),
            r.commit_retries.to_string(),
            format!("{:.0}", r.latency.mean()),
        ]);
    }
    t
}

/// Scaling sweep (beyond the paper's 64 cores): FFT under every Table-3
/// protocol at each core count on each interconnect fabric. Reports
/// commit throughput (commits per 10k cycles), its scaling relative to
/// the smallest swept machine of the same (fabric, protocol) series,
/// mean/p95 commit latency, and the dominant critical-path segment —
/// the column that names each protocol's scaling cliff.
///
/// `fabrics` are [`Topology::by_name`](sb_net::Topology::by_name)
/// names (`torus`, `cmesh`, `xtorus`).
///
/// # Panics
///
/// Panics on an unknown fabric name.
pub fn scaling_table(sweep: &Sweep, cores_list: &[u16], fabrics: &[String]) -> TextTable {
    use crate::critical_path::{commit_paths, Attribution};
    use sb_net::Topology;

    let mut cells: Vec<(String, u16, ProtocolKind)> = Vec::new();
    for fabric in fabrics {
        for &cores in cores_list {
            for p in ProtocolKind::ALL {
                cells.push((fabric.clone(), cores, p));
            }
        }
    }
    let rows = parallel_map(&cells, sweep.jobs, |(fabric, cores, p)| {
        let mut cfg = SimConfig::paper_default(*cores, AppProfile::fft(), *p);
        cfg.insns_per_thread = sweep.insns_per_thread;
        cfg.seed = sweep.seed;
        cfg.trace = true;
        cfg.obs = crate::ObsConfig::on();
        let topo = Topology::by_name(fabric, *cores)
            .unwrap_or_else(|| panic!("unknown fabric {fabric:?}"));
        cfg.set_topology(topo);
        let r = run_simulation(&cfg);
        let paths = commit_paths(&r).expect("trace+obs on, so paths reconstruct");
        let a = Attribution::from_paths(&paths);
        let top = a
            .rows()
            .into_iter()
            .max_by_key(|&(_, cycles, _)| cycles)
            .map(|(name, _, frac)| format!("{name} {:.0}%", frac * 100.0))
            .unwrap_or_else(|| "-".into());
        let throughput = r.commits as f64 / r.wall_cycles.max(1) as f64 * 10_000.0;
        (throughput, r, top)
    });
    let mut t = TextTable::new(vec![
        "fabric",
        "cores",
        "protocol",
        "wall_cycles",
        "commits",
        "commits/10kcyc",
        "scaling",
        "lat_mean",
        "lat_p95",
        "top_path_segment",
    ]);
    // Scaling baseline: the smallest swept machine of each
    // (fabric, protocol) series.
    let base_cores = cores_list.iter().copied().min().unwrap_or(0);
    let mut base: HashMap<(&str, ProtocolKind), f64> = HashMap::new();
    for ((fabric, cores, p), (tp, _, _)) in cells.iter().zip(&rows) {
        if *cores == base_cores {
            base.insert((fabric.as_str(), *p), *tp);
        }
    }
    for ((fabric, cores, p), (tp, r, top)) in cells.iter().zip(&rows) {
        let b = base.get(&(fabric.as_str(), *p)).copied().unwrap_or(0.0);
        let scaling = if b > 0.0 { tp / b } else { 0.0 };
        t.row(vec![
            fabric.clone(),
            cores.to_string(),
            p.label().into(),
            r.wall_cycles.to_string(),
            r.commits.to_string(),
            format!("{tp:.2}"),
            format!("{scaling:.2}x"),
            format!("{:.0}", r.latency.mean()),
            r.latency.p95().to_string(),
            top.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> Sweep {
        Sweep {
            insns_per_thread: 6_000,
            seed: 7,
            jobs: AUTO_JOBS,
        }
    }

    #[test]
    fn static_tables_match_paper() {
        let t1 = message_types_table();
        assert_eq!(t1.len(), 10, "Table 1 has ten message types");
        let t2 = system_config_table();
        assert!(t2.render().contains("2D torus 8x8"));
        assert!(t2.render().contains("2048 bits"));
        let t3 = protocols_table();
        assert_eq!(t3.len(), 4);
        assert!(t3.render().contains("SEQ-PRO"));
    }

    #[test]
    fn runset_collects_and_indexes() {
        let apps = [AppProfile::fft()];
        let set = RunSet::collect(
            &apps,
            &[8],
            &[ProtocolKind::ScalableBulk],
            &quick_sweep(),
            true,
        );
        let r = set.get("FFT", 8, ProtocolKind::ScalableBulk);
        assert!(r.commits > 0);
        let s = set.single("FFT", 8);
        assert!(s.wall_cycles > r.wall_cycles, "1p run does 8x the work");
        assert_eq!(set.sweep().insns_per_thread, 6_000);
    }

    #[test]
    fn scaling_table_covers_fabrics_and_scales_from_smallest() {
        let sweep = quick_sweep();
        let fabrics = vec!["torus".to_string(), "cmesh".to_string()];
        let t = scaling_table(&sweep, &[8, 16], &fabrics);
        assert_eq!(t.len(), 2 * 2 * 4);
        let text = t.render();
        assert!(text.contains("cmesh"));
        // The smallest machine of each series is its own baseline.
        assert!(text.contains("1.00x"));
    }

    #[test]
    fn exec_time_table_has_all_rows() {
        let apps = [AppProfile::fft(), AppProfile::lu()];
        let set = RunSet::collect(&apps, &[32, 64], &ProtocolKind::ALL, &quick_sweep(), true);
        let t = exec_time_table_from(&apps, &set);
        assert_eq!(t.len(), 2 * 2 * 4 + 2 * 4);
        let text = t.render();
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("BulkSC"));
    }
}
