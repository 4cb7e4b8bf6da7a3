//! The benchmark's workload table and the simulated digest each run is
//! checked against.

use sb_proto::ProtocolKind;
use sb_sim::{ObsConfig, RunResult, SimConfig};
use sb_workloads::AppProfile;

/// Seed used when the command line names none. The pinned digests hold
/// for this seed at each workload's full size.
pub const DEFAULT_SEED: u64 = 0x5ca1_ab1e;

/// The simulated outcome of one run. Host-side changes must leave it
/// untouched, so a run whose digest moves is counted as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Simulated cycles until every core finished.
    pub wall_cycles: u64,
    /// Chunks committed.
    pub commits: u64,
    /// Chunks squashed (conflicts plus signature aliasing).
    pub squashes: u64,
    /// Network messages of every traffic class.
    pub messages: u64,
    /// Sum of all commit latencies, in cycles.
    pub latency_sum: u128,
}

impl Digest {
    /// The digest of a finished run.
    pub fn of(r: &RunResult) -> Self {
        Digest {
            wall_cycles: r.wall_cycles,
            commits: r.commits,
            squashes: r.squashes(),
            messages: r.traffic.total_messages(),
            latency_sum: r.latency.sum(),
        }
    }
}

/// One named simulation configuration of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload` and printed in reports.
    pub name: &'static str,
    /// Commit protocol.
    pub protocol: ProtocolKind,
    /// Application model.
    pub app: fn() -> AppProfile,
    /// Cores (= tiles = directory modules) on the Table 2 torus.
    pub cores: u16,
    /// Committed instructions per thread at full size.
    pub insns_per_thread: u64,
    /// Whether the run records the chunk trace and the observability log
    /// and exports them (Perfetto trace with series, series report), as
    /// the `trace`/`analyze` tools do.
    pub observed: bool,
    /// Why the benchmark carries this workload.
    pub why: &'static str,
    /// Digest at [`DEFAULT_SEED`] and full size.
    pub pinned: Digest,
}

/// Every workload, in report order. The mix loads different layers:
/// wide-and-idle superphase scans (`sb-fft-256`), hub and directory work
/// from wide write groups (`sb-radix-64`), core-side caches and remote
/// reads (`sb-canneal-64`), a protocol with 2.4x the steps per commit
/// (`tcc-radix-64`), and observability recording plus export
/// (`sb-fft-64-obs`).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sb-fft-256",
        protocol: ProtocolKind::ScalableBulk,
        app: AppProfile::fft,
        cores: 256,
        insns_per_thread: 40_000,
        observed: false,
        why: "wide machine with few active cores per superphase: O(cores) scans and setup dominate",
        pinned: Digest {
            wall_cycles: 122_385,
            commits: 5_647,
            squashes: 1_161,
            messages: 204_010,
            latency_sum: 1_794_517,
        },
    },
    Workload {
        name: "sb-radix-64",
        protocol: ProtocolKind::ScalableBulk,
        app: AppProfile::radix,
        cores: 64,
        insns_per_thread: 100_000,
        observed: false,
        why:
            "write groups of ~11 directories: hub dispatch, DirectoryState and signatures dominate",
        pinned: Digest {
            wall_cycles: 131_377,
            commits: 3_388,
            squashes: 3,
            messages: 283_384,
            latency_sum: 1_240_856,
        },
    },
    Workload {
        name: "sb-canneal-64",
        protocol: ProtocolKind::ScalableBulk,
        app: AppProfile::canneal,
        cores: 64,
        insns_per_thread: 60_000,
        observed: false,
        why: "read-heavy, low locality: core-side caches, remote reads and network sends",
        pinned: Digest {
            wall_cycles: 133_600,
            commits: 2_070,
            squashes: 208,
            messages: 419_150,
            latency_sum: 622_246,
        },
    },
    Workload {
        name: "tcc-radix-64",
        protocol: ProtocolKind::Tcc,
        app: AppProfile::radix,
        cores: 64,
        insns_per_thread: 160_000,
        observed: false,
        why: "Radix under TCC, ~2.4x the protocol steps per commit: guards shared Machine code",
        pinned: Digest {
            wall_cycles: 331_445,
            commits: 5_356,
            squashes: 32,
            messages: 683_255,
            latency_sum: 19_628_906,
        },
    },
    Workload {
        name: "sb-fft-64-obs",
        protocol: ProtocolKind::ScalableBulk,
        app: AppProfile::fft,
        cores: 64,
        insns_per_thread: 120_000,
        observed: true,
        why: "the trace/analyze path: only workload that records and exports observability",
        pinned: Digest {
            wall_cycles: 170_227,
            commits: 4_028,
            squashes: 127,
            messages: 146_893,
            latency_sum: 672_534,
        },
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The simulation this workload runs at `seed` with `insns`
    /// committed instructions per thread: the Table 2 machine on a
    /// single-threaded executor, with caches and page homes warmed.
    pub fn config(&self, seed: u64, insns: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.cores, (self.app)(), self.protocol);
        cfg.insns_per_thread = insns;
        cfg.seed = seed;
        cfg.domains = 1;
        if self.observed {
            cfg.trace = true;
            cfg.obs = ObsConfig::on();
        }
        cfg
    }

    /// The digest a run must reproduce, when one is pinned for this
    /// seed and size.
    pub fn expected(&self, seed: u64, insns: u64) -> Option<Digest> {
        (seed == DEFAULT_SEED && insns == self.insns_per_thread).then_some(self.pinned)
    }
}
