//! Pins the timed delivery order of `sb_proto::Fabric`: a timed run
//! delivers every event in (time, issue) order, so every
//! `group_formation.rs` scenario and a fixed seeded batch of
//! `properties.rs`-style commit mixes produce exactly the reports below —
//! each outcome with its latency and retries, the finish time and the
//! statistics-event count.

use sb_chunks::{ActiveChunk, ChunkTag, CommitRequest};
use sb_core::{SbConfig, SbMsg, ScalableBulk};
use sb_engine::hash::fnv1a;
use sb_engine::{Cycle, SplitMix64};
use sb_mem::{CoreId, DirId, LineAddr};
use sb_proto::{Fabric, FabricConfig, FabricReport, Outcome};
use sb_sigs::SignatureConfig;

fn request(core: u16, seq: u64, reads: &[(u64, u16)], writes: &[(u64, u16)]) -> CommitRequest {
    let mut c = ActiveChunk::new(
        ChunkTag::new(CoreId(core), seq),
        SignatureConfig::paper_default(),
    );
    for &(line, dir) in reads {
        c.record_read(LineAddr(line), DirId(dir));
    }
    for &(line, dir) in writes {
        c.record_write(LineAddr(line), DirId(dir));
    }
    c.to_commit_request()
}

/// One outcome as `<kind><core>.<seq>[:<latency>/<retries>]`.
fn outcome(o: &Outcome) -> String {
    let t = |tag: ChunkTag| format!("{}.{}", tag.core().0, tag.seq());
    match *o {
        Outcome::Committed {
            tag,
            latency,
            retries,
        } => format!("C{}:{latency}/{retries}", t(tag)),
        Outcome::Squashed { tag } => format!("S{}", t(tag)),
        Outcome::GaveUp { tag } => format!("G{}", t(tag)),
    }
}

fn summary(r: &FabricReport) -> String {
    let outcomes: Vec<String> = r.outcomes.iter().map(outcome).collect();
    format!(
        "end {} events {} limit {} [{}]",
        r.finished_at.as_u64(),
        r.events.len(),
        u8::from(r.hit_step_limit),
        outcomes.join(" ")
    )
}

/// Runs `reqs` (each with its issue time) on a fresh fabric.
fn run(
    cfg: FabricConfig,
    proto: SbConfig,
    sharers: &[(u16, u64, u16)],
    reqs: Vec<(u64, CommitRequest)>,
) -> FabricReport {
    let mut f: Fabric<SbMsg> = Fabric::new(cfg);
    let mut p = ScalableBulk::new(proto, cfg.dirs);
    for &(dir, line, core) in sharers {
        f.seed_sharer(DirId(dir), LineAddr(line), CoreId(core));
    }
    for (at, req) in reqs {
        f.schedule_commit(Cycle(at), req);
    }
    f.run(&mut p, 1_000_000)
}

/// A scripted chunk: core, issue time, (line, home) reads and writes.
type Chunk = (u16, u64, &'static [(u64, u16)], &'static [(u64, u16)]);

/// A one-run scenario: name, cores (= directories), ScalableBulk's
/// rotation period (0 = off), sharers as (dir, line, core), the chunks.
type Scenario = (
    &'static str,
    u16,
    u64,
    &'static [(u16, u64, u16)],
    &'static [Chunk],
);

/// The one-run scenarios of `group_formation.rs`, in file order.
#[rustfmt::skip]
const GROUP_FORMATION: &[Scenario] = &[
    ("singleton", 8, 0, &[], &[(0, 0, &[], &[(100, 3)])]),
    ("multi_directory", 8, 0, &[], &[(0, 0, &[(10, 1)], &[(20, 2), (50, 5)])]),
    ("empty_footprint", 8, 0, &[], &[(2, 5, &[], &[])]),
    ("disjoint_sharing_dirs", 8, 0, &[], &[
        (0, 0, &[(200, 2)], &[(300, 3)]),
        (1, 0, &[(210, 2)], &[(310, 3)]),
    ]),
    ("eight_disjoint_one_dir", 8, 0, &[], &[
        (0, 0, &[], &[(1000, 4)]), (1, 0, &[], &[(1001, 4)]),
        (2, 0, &[], &[(1002, 4)]), (3, 0, &[], &[(1003, 4)]),
        (4, 0, &[], &[(1004, 4)]), (5, 0, &[], &[(1005, 4)]),
        (6, 0, &[], &[(1006, 4)]), (7, 0, &[], &[(1007, 4)]),
    ]),
    ("overlapping_serialize", 8, 0, &[], &[
        (0, 0, &[], &[(500, 2), (600, 3)]),
        (1, 0, &[], &[(500, 2), (700, 4)]),
    ]),
    ("oci_squash_recall", 8, 0, &[(2, 500, 1)], &[
        (0, 0, &[], &[(500, 2), (600, 3)]),
        (1, 1, &[(500, 2)], &[(700, 4)]),
    ]),
    ("fig3g", 9, 0, &[], &[
        (0, 0, &[], &[(10, 0), (12, 2), (13, 3), (14, 4)]),
        (1, 0, &[], &[(11, 1), (12, 2), (13, 3), (17, 7), (18, 8)]),
        (2, 0, &[], &[(16, 6), (17, 7)]),
    ]),
    ("rotation", 8, 1_000, &[], &[
        (0, 0, &[(8000, 1)], &[(9000, 5)]), (1, 7, &[(8001, 1)], &[(9001, 5)]),
        (2, 14, &[(8002, 1)], &[(9002, 5)]), (3, 21, &[(8003, 1)], &[(9003, 5)]),
        (4, 28, &[(8004, 1)], &[(9004, 5)]), (5, 35, &[(8005, 1)], &[(9005, 5)]),
        (6, 42, &[(8006, 1)], &[(9006, 5)]), (7, 49, &[(8007, 1)], &[(9007, 5)]),
    ]),
    ("commit_updates_dir_state", 8, 0, &[(2, 500, 4)], &[(0, 0, &[], &[(500, 2)])]),
];

/// Every `group_formation.rs` scenario's report, in file order.
fn scenarios() -> Vec<(&'static str, FabricReport)> {
    let mut out: Vec<_> = GROUP_FORMATION
        .iter()
        .map(|&(name, n, rotation, sharers, chunks)| {
            let cfg = FabricConfig {
                cores: n,
                dirs: n,
                ..FabricConfig::small()
            };
            let sb = match rotation {
                0 => SbConfig::paper_default(),
                period => SbConfig::with_rotation(period),
            };
            let reqs = (chunks.iter())
                .map(|&(core, at, reads, writes)| (at, request(core, 0, reads, writes)))
                .collect();
            (name, run(cfg, sb, sharers, reqs))
        })
        .collect();
    // Back-to-back chunks from one core: two runs on one fabric.
    let mut f: Fabric<SbMsg> = Fabric::new(FabricConfig::small());
    let mut p = ScalableBulk::new(SbConfig::paper_default(), 8);
    f.schedule_commit(Cycle(0), request(3, 0, &[], &[(42, 2)]));
    let first = f.run(&mut p, 10_000);
    f.schedule_commit(first.finished_at + 10, request(3, 1, &[], &[(42, 2)]));
    out.push(("back_to_back", f.run(&mut p, 10_000)));
    out
}

const DIRS: u16 = 8;

/// Mix `i`: 1–11 chunks on random cores at random start times, each with
/// 1–7 random references into an 8 × 4-line universe (the
/// `properties.rs` liveness mix), every line a chunk reads seeded as
/// cached at its core so that writers' bulk invalidations squash and
/// recall; or — every fourth mix — `2 + i % 6` chunks all writing one
/// line (its total-conflict mix).
fn mix(i: u64) -> FabricReport {
    let mut rng = SplitMix64::new(0x7157_0bde ^ i);
    let mut next = |n: u64| rng.next_u64() % n;
    let line = |idx: u64| {
        let idx = idx % (DIRS as u64 * 4);
        (1000 + idx, (idx / 4) as u16)
    };
    let (mut reqs, mut sharers) = (Vec::new(), Vec::new());
    let (backoff, retries) = if i % 4 == 3 {
        for core in 0..2 + (i % 6) as u16 {
            let (hot, hot_dir) = line(0);
            let (own, own_dir) = line(8 + core as u64);
            reqs.push((
                core as u64,
                request(core, 0, &[], &[(hot, hot_dir), (own, own_dir)]),
            ));
        }
        (40, 500)
    } else {
        let mut seq = [0u64; 8];
        for k in 0..1 + next(11) {
            let core = next(8) as u16;
            let at = next(100);
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            for _ in 0..1 + next(7) {
                let l = line(next(256));
                if next(2) == 1 {
                    writes.push(l);
                } else {
                    reads.push(l);
                    sharers.push((l.1, l.0, core));
                }
            }
            let s = seq[core as usize];
            seq[core as usize] += 1;
            reqs.push((at + s * 1_000_000 + k, request(core, s, &reads, &writes)));
        }
        (60, 200)
    };
    let cfg = FabricConfig {
        cores: 8,
        dirs: DIRS,
        link_latency: 10,
        ack_delay: 2,
        retry_backoff: backoff,
        max_retries: retries,
    };
    run(cfg, SbConfig::paper_default(), &sharers, reqs)
}

/// Each scenario's report, in scenario order.
const SCENARIOS: &[&str] = &[
    "singleton: end 20 events 5 limit 0 [C0.0:20/0]",
    "multi_directory: end 50 events 9 limit 0 [C0.0:50/0]",
    "empty_footprint: end 15 events 2 limit 0 [C2.0:10/0]",
    "disjoint_sharing_dirs: end 40 events 14 limit 0 [C0.0:40/0 C1.0:40/0]",
    "eight_disjoint_one_dir: end 20 events 40 limit 0 [C0.0:20/0 C1.0:20/0 C2.0:20/0 C3.0:20/0 C4.0:20/0 C5.0:20/0 C6.0:20/0 C7.0:20/0]",
    "overlapping_serialize: end 110 events 16 limit 0 [C0.0:40/0 C1.0:110/1]",
    "oci_squash_recall: end 71 events 9 limit 0 [C0.0:40/0 S1.0]",
    "fig3g: end 160 events 35 limit 0 [C2.0:40/0 C0.0:60/0 C1.0:160/1]",
    "rotation: end 89 events 56 limit 0 [C0.0:40/0 C1.0:40/0 C2.0:40/0 C3.0:40/0 C4.0:40/0 C5.0:40/0 C6.0:40/0 C7.0:40/0]",
    "commit_updates_dir_state: end 32 events 5 limit 0 [C0.0:20/0]",
    "back_to_back: end 50 events 10 limit 0 [C3.0:20/0 C3.1:20/0]",
];

/// Per mix: `<finish> <events> <committed> <squashed> <digest>`, the
/// digest over the mix's full [`summary`].
const MIXES: &[&str] = &[
    "145 33 3 1 0xf2afb2493a12793f",
    "1000039 35 3 1 0x8743289c1e2c1b40",
    "2000087 47 5 1 0xdc7fc33da9833e58",
    "284 55 5 0 0xee4b168360dcab98",
    "2000119 93 9 1 0x344df36cf23c846f",
    "2000156 105 9 1 0x0f748e1c4d752804",
    "131 15 1 0 0x231b32743efb25c2",
    "162 27 3 0 0x82efd79b02941bce",
    "1000126 84 8 2 0x72aa01e67e3d294b",
    "1000098 53 7 0 0x22381e1034e8ee5c",
    "2000049 92 10 1 0xc231d6333a4f6694",
    "406 91 7 0 0x11019fdfc7e60fbd",
    "2000122 63 7 0 0x0af74b83f6570a72",
    "1000215 67 7 1 0x303accfc5442c43e",
    "1000054 62 6 2 0x96b98b541c47a7a7",
    "284 55 5 0 0xee4b168360dcab98",
    "1000074 29 3 0 0x2c609b472ac5e034",
    "1000250 61 5 1 0xb35d38a763401b93",
    "1000107 20 2 0 0xa18e7659238d98f9",
    "162 27 3 0 0x82efd79b02941bce",
    "3000105 86 8 2 0x17255cbf4c6ee749",
    "1000038 55 5 2 0x4367ba55750905d7",
    "1000132 60 6 0 0x9f58bdfc59176a4b",
    "406 91 7 0 0x11019fdfc7e60fbd",
    "3000173 82 10 0 0x8658b3b4750ba1ab",
    "119 5 1 0 0x7e4ba0cecf693f35",
    "3000161 85 9 0 0xcedc16eb298e44ab",
    "284 55 5 0 0xee4b168360dcab98",
    "1000081 38 4 0 0x31ee65cf2724ac1d",
    "225 27 3 0 0xcfa74805e1401926",
    "1000056 50 4 2 0xda826c84ae9af0d8",
    "162 27 3 0 0x82efd79b02941bce",
];

#[test]
fn group_formation_reports_keep_their_timing() {
    let got: Vec<String> = scenarios()
        .into_iter()
        .map(|(name, r)| format!("{name}: {}", summary(&r)))
        .collect();
    assert_eq!(got, SCENARIOS);
}

#[test]
fn commit_mix_reports_keep_their_timing() {
    let got: Vec<String> = (0..32)
        .map(|i| {
            let r = mix(i);
            let squashed = r
                .outcomes
                .iter()
                .filter(|o| matches!(o, Outcome::Squashed { .. }))
                .count();
            format!(
                "{} {} {} {squashed} {:#018x}",
                r.finished_at.as_u64(),
                r.events.len(),
                r.committed().len(),
                fnv1a(summary(&r).as_bytes())
            )
        })
        .collect();
    assert_eq!(got, MIXES);
}
