//! One function per table/figure of the paper's evaluation (§5–§6).
//!
//! Every function returns a [`TextTable`] whose rows are the series the
//! paper plots. The `figures` binary exposes them on the command line;
//! `EXPERIMENTS.md` records paper-vs-measured for each.
//!
//! The figures are views of one grid of runs, so every table reads its
//! runs from one [`RunCache`]: a config is simulated the first time any
//! table asks for it, and independent runs execute on worker threads.

use std::collections::HashMap;

use sb_core::MessageType;
use sb_net::{Topology, TrafficClass};
use sb_proto::ProtocolKind;
use sb_stats::{TextTable, TrafficReport};
use sb_workloads::AppProfile;

use crate::config::{ObsConfig, SimConfig};
use crate::critical_path::{commit_paths, Attribution};
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

impl Sweep {
    /// The Table 2 machine with `cores` cores running `app` under
    /// `protocol`, at this sweep's size and seed.
    pub fn config(&self, cores: u16, app: AppProfile, protocol: ProtocolKind) -> SimConfig {
        let mut cfg = SimConfig::paper_default(cores, app, protocol);
        cfg.insns_per_thread = self.insns_per_thread;
        cfg.seed = self.seed;
        cfg
    }

    /// [`Sweep::config`] for every app × core count × protocol.
    pub fn grid(
        &self,
        apps: &[AppProfile],
        cores_list: &[u16],
        protocols: &[ProtocolKind],
    ) -> Vec<SimConfig> {
        let mut configs = Vec::new();
        for app in apps {
            for &cores in cores_list {
                for &p in protocols {
                    configs.push(self.config(cores, *app, p));
                }
            }
        }
        configs
    }
}

/// Every run simulated so far, keyed by its full [`SimConfig`].
///
/// A run is a pure function of its config, so handing a held result to a
/// second table cannot change a number. A figure sweep holds fewer than
/// 200 runs, so lookups are linear and nothing is ever evicted.
pub struct RunCache {
    sweep: Sweep,
    runs: Vec<(SimConfig, RunResult)>,
    reused: usize,
}

impl RunCache {
    /// An empty cache for `sweep`'s size, seed and worker count.
    pub fn new(sweep: Sweep) -> Self {
        RunCache {
            sweep,
            runs: Vec::new(),
            reused: 0,
        }
    }

    /// The sweep parameters used.
    pub fn sweep(&self) -> &Sweep {
        &self.sweep
    }

    /// Simulates every config of `configs` the cache does not hold yet,
    /// each once, on `sweep.jobs` workers in request order.
    pub fn fill(&mut self, configs: &[SimConfig]) {
        let mut missing: Vec<SimConfig> = Vec::new();
        for cfg in configs {
            if self.runs.iter().any(|(c, _)| c == cfg) || missing.contains(cfg) {
                self.reused += 1;
            } else {
                missing.push(cfg.clone());
            }
        }
        let results = parallel_map(&missing, self.sweep.jobs, run_simulation);
        // Keep copies made on this thread: results allocated by worker
        // threads and held for the whole process fragment the workers'
        // allocator arenas, which raised `figures all` peak RSS by a
        // third at two workers.
        let copies = results.iter().map(RunResult::clone);
        self.runs.extend(missing.into_iter().zip(copies));
    }

    /// The run of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was never passed to [`RunCache::fill`].
    pub fn get(&self, cfg: &SimConfig) -> &RunResult {
        self.runs
            .iter()
            .find(|(c, _)| c == cfg)
            .map(|(_, r)| r)
            .unwrap_or_else(|| {
                panic!(
                    "run not filled: {}/{}/{}",
                    cfg.app.name, cfg.cores, cfg.protocol
                )
            })
    }

    /// The [`Sweep::config`] run of `app` under `protocol` on `cores`
    /// cores.
    pub fn run(&self, cores: u16, app: &AppProfile, protocol: ProtocolKind) -> &RunResult {
        self.get(&self.sweep.config(cores, *app, protocol))
    }

    /// Distinct runs simulated so far.
    pub fn simulated(&self) -> usize {
        self.runs.len()
    }

    /// Requests served by a run that was already held.
    pub fn reused(&self) -> usize {
        self.reused
    }
}

/// Figures 7 (SPLASH-2) and 8 (PARSEC): normalized execution time broken
/// into Useful / Cache Miss / Commit / Squash, with the speedup over the
/// 1-processor run, per application × core count × protocol.
pub fn exec_time_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let sweep = cache.sweep().clone();
    // One normalization run per (app, parallel size): the single
    // processor executes the whole problem.
    let single = |app: &AppProfile, cores: u16| {
        let mut cfg = SimConfig::single_processor(*app, cores, sweep.insns_per_thread);
        cfg.seed = sweep.seed;
        cfg
    };
    let mut configs = Vec::new();
    for app in apps {
        configs.extend(sweep.grid(&[*app], &[32, 64], &ProtocolKind::ALL));
        configs.extend([32, 64].map(|cores| single(app, cores)));
    }
    cache.fill(&configs);
    let mut t = TextTable::new(vec![
        "app", "cores", "protocol", "useful%", "cache%", "commit%", "squash%", "speedup",
    ]);
    let mut sums: HashMap<(u16, ProtocolKind), (f64, [f64; 4])> = HashMap::new();
    for app in apps {
        for cores in [32u16, 64] {
            let t1 = cache.get(&single(app, cores)).wall_cycles;
            for p in ProtocolKind::ALL {
                let r = cache.run(cores, app, p);
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
pub fn dirs_per_commit_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let configs = cache
        .sweep()
        .grid(apps, &[32, 64], &[ProtocolKind::ScalableBulk]);
    cache.fill(&configs);
    let mut t = TextTable::new(vec!["app", "cores", "write_group", "read_group", "total"]);
    let mut sums: HashMap<u16, (f64, f64)> = HashMap::new();
    for app in apps {
        for cores in [32u16, 64] {
            let r = cache.run(cores, app, ProtocolKind::ScalableBulk);
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
pub fn dirs_distribution_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let configs = cache
        .sweep()
        .grid(apps, &[64], &[ProtocolKind::ScalableBulk]);
    cache.fill(&configs);
    let mut header: Vec<String> = vec!["app".into()];
    header.extend((0..=14).map(|k| k.to_string()));
    header.push("more".into());
    let mut t = TextTable::new(header);
    for app in apps {
        let r = cache.run(64, app, ProtocolKind::ScalableBulk);
        let mut row = vec![app.name.to_string()];
        for k in 0..=15 {
            row.push(format!("{:.1}", r.dirs.percent(k)));
        }
        t.row(row);
    }
    t
}

/// Figure 13: distribution (and mean) of chunk-commit latency per
/// protocol, averaged over `apps` (the paper: all 18 applications), for
/// 32 and 64 processors. The paper's 64-processor means are
/// 91 / 411 / 153 / 2954 cycles for ScalableBulk / TCC / SEQ / BulkSC.
pub fn commit_latency_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let configs = cache.sweep().grid(apps, &[32, 64], &ProtocolKind::ALL);
    cache.fill(&configs);
    let mut t = TextTable::new(vec![
        "cores", "protocol", "mean", "p50", "p90", "p99", "max",
    ]);
    for cores in [32u16, 64] {
        for p in ProtocolKind::ALL {
            let mut agg = sb_stats::LatencyDist::new();
            for app in apps {
                agg.merge(&cache.run(cores, app, p).latency);
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
pub fn bottleneck_ratio_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let protos = [
        ProtocolKind::ScalableBulk,
        ProtocolKind::Tcc,
        ProtocolKind::Seq,
    ];
    let configs = cache.sweep().grid(apps, &[64], &protos);
    cache.fill(&configs);
    let mut t = TextTable::new(vec!["app", "ScalableBulk", "TCC", "SEQ"]);
    let mut sums = [0.0f64; 3];
    for app in apps {
        let vals: Vec<f64> = protos
            .iter()
            .map(|p| cache.run(64, app, *p).gauges.bottleneck_ratio())
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
pub fn queue_length_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let protos = [
        ProtocolKind::Tcc,
        ProtocolKind::Seq,
        ProtocolKind::ScalableBulk,
    ];
    let configs = cache.sweep().grid(apps, &[64], &protos);
    cache.fill(&configs);
    let mut t = TextTable::new(vec!["app", "TCC", "SEQ", "ScalableBulk"]);
    for app in apps {
        let mut row = vec![app.name.to_string()];
        for p in protos {
            row.push(format!(
                "{:.2}",
                cache.run(64, app, p).gauges.mean_queue_length()
            ));
        }
        t.row(row);
    }
    t
}

/// Figures 18 (SPLASH-2) / 19 (PARSEC): number and class mix of network
/// messages per protocol at 64 processors, normalized to TCC (=100).
pub fn traffic_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let configs = cache.sweep().grid(apps, &[64], &ProtocolKind::ALL);
    cache.fill(&configs);
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
    for app in apps {
        let reference = &cache.run(64, app, ProtocolKind::Tcc).traffic;
        for p in ProtocolKind::ALL {
            let rep = TrafficReport::normalized(&cache.run(64, app, p).traffic, reference);
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
pub fn ablation_oci_table(apps: &[AppProfile], cache: &mut RunCache) -> TextTable {
    let mut configs = Vec::new();
    for app in apps {
        for oci in [true, false] {
            let mut cfg = cache.sweep().config(64, *app, ProtocolKind::ScalableBulk);
            cfg.oci = oci;
            configs.push(cfg);
        }
    }
    cache.fill(&configs);
    let mut t = TextTable::new(vec!["app", "oci", "wall_cycles", "mean_latency", "commit%"]);
    for cfg in &configs {
        let r = cache.get(cfg);
        t.row(vec![
            cfg.app.name.into(),
            cfg.oci.to_string(),
            r.wall_cycles.to_string(),
            format!("{:.0}", r.latency.mean()),
            format!("{:.1}", r.breakdown.fraction_commit() * 100.0),
        ]);
    }
    t
}

/// Ablation: signature size sweep (512b..4Kb) under ScalableBulk —
/// squash rate and commit latency vs the Table 2 default of 2 Kbit.
pub fn ablation_signature_table(app: AppProfile, cache: &mut RunCache) -> TextTable {
    let configs: Vec<SimConfig> = [512u32, 1024, 2048, 4096]
        .into_iter()
        .map(|bits| {
            let mut cfg = cache.sweep().config(64, app, ProtocolKind::ScalableBulk);
            cfg.sig = sb_sigs::SignatureConfig::new(bits, 4);
            cfg
        })
        .collect();
    cache.fill(&configs);
    let mut t = TextTable::new(vec![
        "sig_bits",
        "squash_rate%",
        "alias_squash%",
        "mean_latency",
        "wall_cycles",
    ]);
    for cfg in &configs {
        let r = cache.get(cfg);
        let total = (r.commits + r.squashes()).max(1) as f64;
        t.row(vec![
            cfg.sig.total_bits().to_string(),
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
pub fn seq_ts_table(cache: &mut RunCache) -> TextTable {
    let configs = cache.sweep().grid(
        &[
            AppProfile::radix(),
            AppProfile::canneal(),
            AppProfile::fft(),
        ],
        &[64],
        &[
            ProtocolKind::Seq,
            ProtocolKind::SeqTs,
            ProtocolKind::ScalableBulk,
        ],
    );
    cache.fill(&configs);
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "wall_cycles",
        "commit%",
        "mean_latency",
        "queue_len",
    ]);
    for cfg in &configs {
        let r = cache.get(cfg);
        t.row(vec![
            cfg.app.name.into(),
            cfg.protocol.label().into(),
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
pub fn ablation_rotation_table(app: AppProfile, cache: &mut RunCache) -> TextTable {
    let configs: Vec<SimConfig> = [None, Some(10_000u64)]
        .into_iter()
        .map(|interval| {
            let mut cfg = cache.sweep().config(64, app, ProtocolKind::ScalableBulk);
            cfg.sb.rotation_interval = interval;
            cfg
        })
        .collect();
    cache.fill(&configs);
    let mut t = TextTable::new(vec!["rotation", "wall_cycles", "retries", "mean_latency"]);
    for cfg in &configs {
        let r = cache.get(cfg);
        t.row(vec![
            cfg.sb
                .rotation_interval
                .map_or("off".to_string(), |i| format!("every {i}")),
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
/// `fabrics` are [`Topology::by_name`] names (`torus`, `cmesh`,
/// `xtorus`).
///
/// # Panics
///
/// Panics on an unknown fabric name.
pub fn scaling_table(cache: &mut RunCache, cores_list: &[u16], fabrics: &[String]) -> TextTable {
    let mut configs = Vec::new();
    for fabric in fabrics {
        for &cores in cores_list {
            for p in ProtocolKind::ALL {
                let mut cfg = cache.sweep().config(cores, AppProfile::fft(), p);
                cfg.trace = true;
                cfg.obs = ObsConfig::on();
                let topo = Topology::by_name(fabric, cores)
                    .unwrap_or_else(|| panic!("unknown fabric {fabric:?}"));
                cfg.set_topology(topo);
                configs.push(cfg);
            }
        }
    }
    cache.fill(&configs);
    let rows: Vec<(f64, &RunResult, String)> = configs
        .iter()
        .map(|cfg| {
            let r = cache.get(cfg);
            let paths = commit_paths(r).expect("trace+obs on, so paths reconstruct");
            let a = Attribution::from_paths(&paths);
            let top = a
                .rows()
                .into_iter()
                .max_by_key(|&(_, cycles, _)| cycles)
                .map(|(name, _, frac)| format!("{name} {:.0}%", frac * 100.0))
                .unwrap_or_else(|| "-".into());
            let throughput = r.commits as f64 / r.wall_cycles.max(1) as f64 * 10_000.0;
            (throughput, r, top)
        })
        .collect();
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
    for (cfg, (tp, _, _)) in configs.iter().zip(&rows) {
        if cfg.cores == base_cores {
            base.insert((cfg.net.topology.name(), cfg.protocol), *tp);
        }
    }
    for (cfg, (tp, r, top)) in configs.iter().zip(&rows) {
        let fabric = cfg.net.topology.name();
        let b = base.get(&(fabric, cfg.protocol)).copied().unwrap_or(0.0);
        let scaling = if b > 0.0 { tp / b } else { 0.0 };
        t.row(vec![
            fabric.into(),
            cfg.cores.to_string(),
            cfg.protocol.label().into(),
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

    fn quick_cache() -> RunCache {
        RunCache::new(Sweep {
            insns_per_thread: 6_000,
            seed: 7,
            jobs: AUTO_JOBS,
        })
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

    /// Configs that differ only in `oci` or only in `protocol` are
    /// distinct runs; a config requested again, in a later batch or twice
    /// in one batch, is simulated once.
    #[test]
    fn cache_simulates_each_config_once() {
        let mut cache = quick_cache();
        let sb = cache
            .sweep()
            .config(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
        let mut no_oci = sb.clone();
        no_oci.oci = false;
        let mut tcc = sb.clone();
        tcc.protocol = ProtocolKind::Tcc;
        let configs = [sb.clone(), no_oci, tcc];
        cache.fill(&configs);
        assert_eq!((cache.simulated(), cache.reused()), (3, 0));
        cache.fill(&configs);
        assert_eq!((cache.simulated(), cache.reused()), (3, 3));
        let lu = cache.sweep().config(8, AppProfile::lu(), ProtocolKind::Seq);
        cache.fill(&[lu.clone(), lu]);
        assert_eq!((cache.simulated(), cache.reused()), (4, 4));
        assert!(cache.get(&sb).commits > 0);
    }

    /// A table rendered from a cache another table already filled reads
    /// runs it did not simulate itself; a key that ignored a config field
    /// those runs differ in would hand it the wrong ones.
    #[test]
    fn warm_cache_renders_the_same_table_as_a_fresh_one() {
        let apps = [AppProfile::fft()];
        let mut warm = quick_cache();
        queue_length_table(&apps, &mut warm);
        let from_warm = ablation_oci_table(&apps, &mut warm).render();
        let from_fresh = ablation_oci_table(&apps, &mut quick_cache()).render();
        assert_eq!(from_warm, from_fresh);
        assert_eq!(warm.reused(), 1, "oci on is fig16's ScalableBulk run");
    }

    #[test]
    fn scaling_table_covers_fabrics_and_scales_from_smallest() {
        let fabrics = vec!["torus".to_string(), "cmesh".to_string()];
        let t = scaling_table(&mut quick_cache(), &[8, 16], &fabrics);
        assert_eq!(t.len(), 2 * 2 * 4);
        let text = t.render();
        assert!(text.contains("cmesh"));
        // The smallest machine of each series is its own baseline.
        assert!(text.contains("1.00x"));
    }

    #[test]
    fn exec_time_table_has_all_rows() {
        let apps = [AppProfile::fft(), AppProfile::lu()];
        let t = exec_time_table(&apps, &mut quick_cache());
        assert_eq!(t.len(), 2 * 2 * 4 + 2 * 4);
        let text = t.render();
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("BulkSC"));
    }
}
