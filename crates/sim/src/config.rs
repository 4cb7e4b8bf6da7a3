//! Simulated system configuration (Table 2).

use sb_baselines::{BulkScConfig, TccConfig};
use sb_core::SbConfig;
use sb_mem::{CacheHierarchyConfig, DirId, PageMapPolicy};
use sb_net::{NetworkConfig, PerturbationConfig, Topology};
use sb_proto::ProtocolKind;
use sb_sigs::SignatureConfig;
use sb_workloads::AppProfile;

/// Configuration of one simulation run: the Table 2 machine plus the
/// workload and protocol choice.
///
/// # Examples
///
/// ```
/// use sb_sim::SimConfig;
/// use sb_proto::ProtocolKind;
/// use sb_workloads::AppProfile;
///
/// let cfg = SimConfig::paper_default(64, AppProfile::fft(), ProtocolKind::ScalableBulk);
/// assert_eq!(cfg.cores, 64);
/// assert_eq!(cfg.net.link_latency, 7);
/// assert_eq!(cfg.sig.total_bits(), 2048);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of cores (= tiles = directory modules): 32 or 64 in the
    /// paper, 1 for normalization runs.
    pub cores: u16,
    /// Number of workload threads (equals `cores` for parallel runs; a
    /// 1-core run still executes all threads' work, round-robin).
    pub threads: usize,
    /// The application model.
    pub app: AppProfile,
    /// The commit protocol.
    pub protocol: ProtocolKind,
    /// Committed instructions each thread must retire before the run ends.
    pub insns_per_thread: u64,
    /// RNG seed (runs are deterministic given the config and seed).
    pub seed: u64,
    /// Optimistic Commit Initiation (§3.3): if false, a core nacks bulk
    /// invalidations that hit its in-flight commit until the commit
    /// resolves (the conservative Figure 4(c) behaviour).
    pub oci: bool,
    /// Signature geometry (Table 2: 2 Kbit).
    pub sig: SignatureConfig,
    /// Private cache hierarchy (Table 2).
    pub hier: CacheHierarchyConfig,
    /// Interconnect (Table 2: 2D torus, 7-cycle links).
    pub net: NetworkConfig,
    /// Page-to-directory mapping policy (first touch in §5).
    pub page_policy: PageMapPolicy,
    /// Memory round trip, cycles (Table 2: 300).
    pub mem_latency: u64,
    /// Max in-flight chunks per core (Table 2: 2).
    pub max_active_chunks: usize,
    /// Backoff before retrying a failed commit.
    pub retry_backoff: u64,
    /// Backoff before retrying a nacked read.
    pub nack_backoff: u64,
    /// Core-side processing delay before acking a bulk invalidation.
    pub ack_delay: u64,
    /// Chunks per thread executed instantly before measurement to warm
    /// caches and page homes (papers measure steady state, not the
    /// compulsory-miss transient).
    pub warmup_chunks: usize,
    /// ScalableBulk protocol parameters.
    pub sb: SbConfig,
    /// Scalable TCC parameters.
    pub tcc: TccConfig,
    /// BulkSC parameters (arbiter placed at the torus centre).
    pub bulksc: BulkScConfig,
    /// Optional seeded network-timing adversary (`sb-check` fuzzing).
    /// `None` (the default) leaves the delivery path bit-identical to the
    /// unperturbed model — guarded by the golden fig-7 snapshot.
    pub perturb: Option<PerturbationConfig>,
    /// Record the chunk-lifecycle [`RunTrace`](crate::RunTrace) for the
    /// serializability oracle. Off by default (pure observation, but the
    /// event stream costs memory on big runs).
    pub trace: bool,
    /// Observability knobs: whether the directory-side
    /// [`ObsLog`](crate::ObsLog) is recorded, the simulated-cycle window
    /// width for derived time-series, and whether the executor profiles
    /// its own host-side costs. All off by default — purely observational
    /// but the log costs memory. Assigning an [`ObsConfig`] never changes
    /// simulated results.
    pub obs: ObsConfig,
    /// Deliberate, test-only protocol sabotage for proving the `sb-check`
    /// oracle detects real bugs. Must stay `None` outside oracle
    /// self-tests.
    pub inject_bug: Option<InjectedBug>,
    /// Ignored; the machine is serial; kept only because the benchmark
    /// package assigns it.
    pub domains: usize,
}

/// Observability configuration (see [`SimConfig::obs`]).
///
/// `enabled` turns on the [`ObsLog`](crate::ObsLog): grab/release
/// occupancy spans, commit recalls, held-invalidation and event-queue
/// depth samples, and the causal flow DAG. It feeds the Perfetto
/// exporter, the histogram metrics, and the derived
/// [`TimeSeries`](sb_stats::TimeSeries).
///
/// `series_window` sets the fixed window width (simulated cycles) used
/// when a time-series is derived from the log; `0` means "use the
/// exporter's default". The window only affects *derived* views, never
/// the recorded log or simulated results.
///
/// `profile` turns on host self-profiling of the two-plane executor
/// (per-plane phase wall-time, hub-horizon utilization, event-queue
/// pushes and peak lengths, peak RSS), surfaced as `prof.*` metrics.
/// Profiling measures only wall-clock and allocator behaviour of the
/// host — simulated results stay bit-identical.
///
/// # Examples
///
/// ```
/// use sb_sim::ObsConfig;
///
/// let obs = ObsConfig::on();
/// assert!(obs.enabled && !obs.profile);
/// assert!(!ObsConfig::default().enabled);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record the observability log during the run.
    pub enabled: bool,
    /// Window width in simulated cycles for derived time-series
    /// (`0` = exporter default).
    pub series_window: u64,
    /// Profile the executor's own host-side costs (`prof.*` metrics).
    pub profile: bool,
}

impl ObsConfig {
    /// Observability on, default window, no host profiling — the common
    /// test/tooling setting (replaces the old `cfg.obs = true`).
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Observability and host profiling both on.
    pub fn profiled() -> Self {
        ObsConfig {
            enabled: true,
            profile: true,
            ..Default::default()
        }
    }
}

/// A deliberately introduced machine bug (see [`SimConfig::inject_bug`]).
///
/// The fuzzer's acceptance test flips one of these on, reruns a workload
/// and asserts the oracle reports a violation — demonstrating the harness
/// can catch the class of bug it exists for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Conflict detection ignores the read sets of in-flight chunks when
    /// a foreign bulk invalidation is processed: a chunk that read a line
    /// another chunk then committed a write to is *not* squashed, which
    /// silently breaks serializability (write-after-read conflicts slip
    /// through).
    SkipReadSetConflicts,
}

impl SimConfig {
    /// The Table 2 machine with `cores` cores running `app` under
    /// `protocol`. Workload size defaults to 40'000 committed
    /// instructions per thread (≈20 chunks) — enough for stable commit
    /// statistics while keeping full sweeps fast; experiments override it.
    pub fn paper_default(cores: u16, app: AppProfile, protocol: ProtocolKind) -> Self {
        let topology = Topology::for_tiles(cores);
        SimConfig {
            cores,
            threads: cores as usize,
            app,
            protocol,
            insns_per_thread: 40_000,
            seed: 0x5ca1ab1e,
            oci: true,
            sig: SignatureConfig::paper_default(),
            hier: CacheHierarchyConfig::paper_default(),
            net: NetworkConfig::paper_default(cores),
            page_policy: PageMapPolicy::FirstTouch,
            mem_latency: 300,
            max_active_chunks: 2,
            retry_backoff: 60,
            nack_backoff: 30,
            ack_delay: 2,
            warmup_chunks: 4,
            sb: SbConfig::paper_default(),
            tcc: TccConfig::paper_default(),
            bulksc: BulkScConfig::paper_default(DirId(topology.center().0)),
            perturb: None,
            trace: false,
            obs: ObsConfig::default(),
            inject_bug: None,
            domains: 1,
        }
    }

    /// The 1-processor normalization run matching a parallel run on
    /// `parallel_cores` cores: one thread executes the whole problem
    /// (`parallel_cores ×` the per-thread instruction budget). If the
    /// application's per-thread data is a partition of the problem
    /// (`private_is_partition`), the single thread owns all of it — far
    /// more than one L2 can hold, which is what makes the parallel runs
    /// of Ocean/Cholesky/Raytrace superlinear (§6.1).
    pub fn single_processor(app: AppProfile, parallel_cores: u16, insns_per_thread: u64) -> Self {
        let mut app = app;
        if app.private_is_partition {
            app.private_ws_kb = app.private_ws_kb.saturating_mul(parallel_cores as u32);
        }
        let mut cfg = Self::paper_default(1, app, ProtocolKind::ScalableBulk);
        cfg.threads = 1;
        cfg.insns_per_thread = insns_per_thread * parallel_cores as u64;
        cfg
    }

    /// Total committed instructions the run must retire.
    pub fn total_insns(&self) -> u64 {
        self.threads as u64 * self.insns_per_thread
    }

    /// Swaps the interconnect fabric, keeping everything that derives
    /// from it consistent: BulkSC's centralized arbiter moves to the new
    /// fabric's centre tile.
    ///
    /// # Panics
    ///
    /// Panics if `topology` has fewer tiles than the machine has cores.
    pub fn set_topology(&mut self, topology: Topology) {
        assert!(
            topology.tiles() >= self.cores,
            "fabric has {} tiles, machine has {} cores",
            topology.tiles(),
            self.cores
        );
        self.net.topology = topology;
        self.bulksc.arbiter = DirId(topology.center().0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let cfg = SimConfig::paper_default(64, AppProfile::radix(), ProtocolKind::Tcc);
        assert_eq!(cfg.cores, 64);
        assert_eq!(cfg.threads, 64);
        assert_eq!(cfg.sig.total_bits(), 2048);
        assert_eq!(cfg.net.link_latency, 7);
        assert_eq!(cfg.net.topology, Topology::for_tiles(64));
        assert_eq!(cfg.net.topology.describe(), "2D torus 8x8");
        assert_eq!(cfg.mem_latency, 300);
        assert_eq!(cfg.max_active_chunks, 2);
        assert_eq!(cfg.hier.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.hier.l2.size_bytes, 512 * 1024);
        assert_eq!(cfg.page_policy, PageMapPolicy::FirstTouch);
        // BulkSC's arbiter sits at the torus centre.
        assert_eq!(
            DirId(Topology::for_tiles(64).center().0),
            cfg.bulksc.arbiter
        );
        // Fuzzing and observability machinery is strictly opt-in.
        assert_eq!(cfg.perturb, None);
        assert!(!cfg.trace);
        assert_eq!(cfg.obs, ObsConfig::default());
        assert!(!cfg.obs.enabled && !cfg.obs.profile);
        assert_eq!(cfg.obs.series_window, 0);
        assert_eq!(cfg.inject_bug, None);
    }

    #[test]
    fn single_processor_runs_all_threads_work() {
        let cfg = SimConfig::single_processor(AppProfile::fft(), 32, 10_000);
        assert_eq!(cfg.cores, 1);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.total_insns(), 320_000);
        // Scratch working sets do not scale with thread count...
        assert_eq!(cfg.app.private_ws_kb, AppProfile::fft().private_ws_kb);
        // ...but problem partitions do.
        let ocean = SimConfig::single_processor(AppProfile::ocean(), 32, 10_000);
        assert_eq!(
            ocean.app.private_ws_kb,
            AppProfile::ocean().private_ws_kb * 32
        );
    }

    #[test]
    fn set_topology_moves_the_bulksc_arbiter() {
        let mut cfg = SimConfig::paper_default(64, AppProfile::fft(), ProtocolKind::BulkSc);
        let cmesh = Topology::by_name("cmesh", 64).unwrap();
        cfg.set_topology(cmesh);
        assert_eq!(cfg.net.topology, cmesh);
        assert_eq!(cfg.bulksc.arbiter, DirId(cmesh.center().0));
    }

    #[test]
    #[should_panic(expected = "fabric has 16 tiles")]
    fn set_topology_rejects_small_fabrics() {
        let mut cfg = SimConfig::paper_default(64, AppProfile::fft(), ProtocolKind::ScalableBulk);
        cfg.set_topology(Topology::for_tiles(16));
    }
}
