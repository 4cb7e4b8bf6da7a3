//! Host self-profiling report for the two-plane superphase executor.
//!
//! ```text
//! cargo run --release -p sb-sim --bin profile -- \
//!     [--cores N] [--app NAME] [--proto P] [--insns N] [--seed S] \
//!     [--max-squash N] [--out PATH]
//! ```
//!
//! Runs one simulation with `cfg.obs.profile` on (independent of the
//! observability log — profiling alone allocates nothing per event) and
//! prints the run's headline metrics on one line, its message counts per
//! traffic class, and where the *host* time went: core-unit (plane A)
//! busy time and unit visits (units actually run, per dispatched event),
//! hub-plane utilization, directory signature expansions and the lines
//! they matched, the directories' page records and their host bytes
//! (`directory:`), the accesses the cores executed and how many of them
//! were new to their chunk, the event queues' pushes and summed peak
//! length, and peak RSS. Its `setup:` line splits the time `Machine::new`
//! took over its passes ([`SETUP_PASSES`]), with `other` for the rest;
//! its `setup faults:` line splits the minor page faults the same way
//! (host counters read from `/proc/self/stat`; absent without procfs).
//!
//! The binary installs a counting global allocator (the library crates
//! stay allocator-agnostic and free of `unsafe`). Its `allocations:`
//! line gives the allocation and reallocation calls, with the bytes they
//! requested, made while the machine is built (protocol construction
//! plus `Machine::new`) and while it runs, and the run's calls per
//! dispatched event.
//!
//! Profiling never touches simulated state: wall cycles and commits are
//! bit-identical with profiling on or off (the golden-trace battery
//! pins this), and with `obs` fully off the run is byte-identical to an
//! unprofiled one.
//!
//! `--max-squash N` sets ScalableBulk's starvation-reservation threshold
//! (squashes before a chunk reserves its directories; default 16).
//! `--out PATH` additionally writes the full metrics registry (simulated
//! counters + `prof.*` fields) as canonical JSON for CI artifacts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use sb_mem::DirectoryState;
use sb_net::TrafficClass::*;
use sb_obs::json::JsonValue;
use sb_proto::ProtocolKind;
use sb_sim::cli::{self, Args};
use sb_sim::experiments::Sweep;
use sb_sim::{run_simulation_split, SETUP_PASSES};
use sb_workloads::AppProfile;

/// The system allocator, counting allocation and reallocation calls and
/// the bytes they request.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s contract, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and requested bytes so far.
fn allocated() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

const USAGE: &str = "profile -- [--cores N] [--app NAME] [--proto P] [--insns N] [--seed S] \
                     [--max-squash N] [--out PATH]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut cores: u16 = 64;
    let mut app = AppProfile::fft();
    let mut proto = ProtocolKind::ScalableBulk;
    let mut sweep = Sweep {
        insns_per_thread: 10_000,
        ..Sweep::default()
    };
    let mut max_squash: Option<u32> = None;
    let mut out: Option<std::path::PathBuf> = None;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--cores" => cores = args.value(cli::cores),
            "--app" => app = args.value(AppProfile::by_name),
            "--proto" => proto = args.value(cli::parse),
            "--insns" => sweep.insns_per_thread = args.value(cli::parse),
            "--seed" => sweep.seed = args.value(cli::seed),
            "--max-squash" => max_squash = Some(args.value(cli::parse)),
            "--out" => out = Some(args.value(cli::parse)),
            _ => args.usage(),
        }
    }

    let mut cfg = sweep.config(cores, app, proto);
    cfg.obs.profile = true;
    if let Some(n) = max_squash {
        cfg.sb.max_squashes_before_reservation = n;
    }
    let start = allocated();
    let mut built = start;
    let r = run_simulation_split(&cfg, &mut || built = allocated());
    let end = allocated();
    let (setup_calls, setup_bytes) = (built.0 - start.0, built.1 - start.1);
    let (run_calls, run_bytes) = (end.0 - built.0, end.1 - built.1);
    let m = &r.metrics;
    let c = |name: &str| m.counter(name).unwrap_or(0);
    let g = |name: &str| m.gauge(name).unwrap_or(0.0);

    println!(
        "== executor profile: {} on {cores} cores under {proto} ({} insns/thread, seed {:#x}) ==",
        app.name, sweep.insns_per_thread, sweep.seed
    );
    println!(
        "simulated: {} commits in {} wall cycles (bit-identical with profiling off)",
        r.commits, r.wall_cycles
    );
    println!(
        "{} {proto} cores={cores} wall={} commits={} lat={:.1} dW={:.2} dR={:.2} br={:.2} q={:.2} sq={:.4} nacks={} u%={:.2} c%={:.2} co%={:.3} s%={:.4} msgs={} rr={}",
        app.name, r.wall_cycles, r.commits, r.latency.mean(),
        r.dirs.mean_write_group(), r.dirs.mean_read_group(),
        r.gauges.bottleneck_ratio(), r.gauges.mean_queue_length(),
        r.squash_rate(), r.read_nacks,
        r.breakdown.fraction_useful(), r.breakdown.fraction_cache_miss(),
        r.breakdown.fraction_commit(), r.breakdown.fraction_squash(),
        r.traffic.total_messages(), r.remote_reads
    );
    println!(
        "  classes: MemRd={} ShRd={} DirtyRd={} Large={} SmallC={}",
        r.traffic.count(MemRd),
        r.traffic.count(RemoteShRd),
        r.traffic.count(RemoteDirtyRd),
        r.traffic.count(LargeCMessage),
        r.traffic.count(SmallCMessage)
    );
    println!("host:      {}", r.perf.render());
    println!();

    let setup = g("phase.setup_secs");
    let passes: Vec<(&str, f64)> = SETUP_PASSES
        .iter()
        .map(|&pass| (pass, g(&format!("prof.setup.{pass}_secs"))))
        .collect();
    let other = setup - passes.iter().map(|(_, s)| s).sum::<f64>();
    let split: Vec<String> = passes
        .iter()
        .chain([("other", other)].iter())
        .map(|(pass, s)| format!("{pass} {:.1}", s * 1e3))
        .collect();
    println!("setup: {:.1} ms = {} ms", setup * 1e3, split.join(" + "));
    let faults: Vec<(&str, u64)> = SETUP_PASSES
        .iter()
        .chain(&["other"])
        .filter_map(|&pass| Some((pass, m.counter(&format!("prof.setup.{pass}_faults"))?)))
        .collect();
    if !faults.is_empty() {
        let split: Vec<String> = faults
            .iter()
            .map(|(pass, n)| format!("{pass} {n}"))
            .collect();
        let total: u64 = faults.iter().map(|(_, n)| n).sum();
        println!("setup faults: {total} = {}", split.join(" + "));
    }

    let superphases = c("prof.superphases");
    println!(
        "superphases: {superphases} ({} in drain)",
        c("prof.drain_superphases")
    );
    let visits = c("prof.unit_visits");
    let events = r.perf.events_dispatched.max(1);
    println!(
        "core units plane A: {:.6}s busy, {visits} unit visits ({:.3} per event)",
        g("prof.domain_busy_secs.d0"),
        visits as f64 / events as f64
    );
    println!(
        "hub plane B: busy {}/{} phases (utilization {:.3}), {:.6}s",
        c("prof.hub_busy_phases"),
        c("prof.hub_phases"),
        g("prof.hub_utilization"),
        g("prof.hub_busy_secs")
    );
    println!(
        "directory expansions: {} (sharers_matching + apply_commit), {} lines matched",
        c("prof.dir_expansions"),
        c("prof.dir_lines_matched")
    );
    let pages = c("prof.dir_pages");
    let page_bytes = DirectoryState::PAGE_RECORD_BYTES as u64;
    println!(
        "directory: {pages} page records × {page_bytes} B = {:.1} MiB",
        (pages * page_bytes) as f64 / (1024.0 * 1024.0)
    );
    println!(
        "core-side expansions: {} (bulk_invalidate), {} lines matched",
        c("prof.core_expansions"),
        c("prof.core_lines_matched")
    );
    println!(
        "chunk recording: {} accesses, {} (line, kind) pairs new to their chunk",
        c("prof.accesses"),
        c("prof.lines_recorded")
    );
    println!(
        "event queues: {} pushes, summed peak length {}",
        c("prof.queue.ring_pushes"),
        g("prof.queue.ring_hwm") as u64
    );
    let per_event = run_calls as f64 / events as f64;
    println!(
        "allocations: setup {setup_calls} ({setup_bytes} B), run {run_calls} ({run_bytes} B, {per_event:.3} per event)"
    );
    let rss = g("prof.peak_rss_bytes");
    if rss > 0.0 {
        println!("peak RSS: {:.1} MiB", rss / (1024.0 * 1024.0));
    }

    if let Some(path) = out {
        let doc = JsonValue::obj([
            (
                "meta",
                JsonValue::obj([
                    ("protocol", format!("{proto:?}").into()),
                    ("app", app.name.into()),
                    ("cores", (cores as u64).into()),
                    ("insns_per_thread", sweep.insns_per_thread.into()),
                    ("seed", format!("{:#x}", sweep.seed).into()),
                    (
                        "max_squashes_before_reservation",
                        u64::from(cfg.sb.max_squashes_before_reservation).into(),
                    ),
                ]),
            ),
            (
                "simulated",
                JsonValue::obj([
                    ("wall_cycles", r.wall_cycles.into()),
                    ("commits", r.commits.into()),
                ]),
            ),
            (
                "allocations",
                JsonValue::obj([
                    ("setup", setup_calls.into()),
                    ("setup_bytes", setup_bytes.into()),
                    ("run", run_calls.into()),
                    ("run_bytes", run_bytes.into()),
                    ("run_per_event", per_event.into()),
                ]),
            ),
            ("metrics", m.to_json()),
        ]);
        cli::write_or_exit("profile", &path, &doc.to_string_pretty());
        cli::note(format_args!("[profile -> {}]", path.display()));
    }
}
