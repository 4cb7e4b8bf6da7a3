//! Microbenchmarks of the substrates: signature operations and handle
//! sharing, chunk recording, cache accesses and bulk invalidation,
//! directory signature expansion, torus routing, workload generation and
//! event-queue churn — the inner loops the simulator's throughput depends
//! on.
//!
//! Run with `cargo bench -p sb-bench`.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_chunks::{ActiveChunk, ChunkSpec, ChunkTag};
use sb_engine::{Cycle, EventQueue, SplitMix64};
use sb_mem::{
    page_masks, CacheConfig, CacheHierarchy, CacheHierarchyConfig, CoreId, DirId, DirectoryState,
    LineAddr, PageMapPolicy, PageMapper, ReadSource, SetAssocCache,
};
use sb_net::{MsgSize, Network, NetworkConfig, NodeId, TrafficClass};
use sb_sigs::{SigHandle, Signature, SignatureConfig};
use sb_workloads::{AppProfile, WorkloadGen};
use std::hint::black_box;

fn signatures(c: &mut Criterion) {
    let cfg = SignatureConfig::paper_default();
    c.bench_function("signature_insert_64_lines", |b| {
        b.iter(|| {
            let mut s = Signature::new(cfg);
            for i in 0..64u64 {
                s.insert(black_box(i * 37));
            }
            s
        })
    });
    let a = Signature::from_lines(cfg, (0..64).map(|i| i * 37));
    let d = Signature::from_lines(cfg, (0..64).map(|i| 1_000_000 + i * 41));
    c.bench_function("signature_intersects", |b| {
        b.iter(|| black_box(&a).intersects(black_box(&d)))
    });
    c.bench_function("signature_test_membership", |b| {
        b.iter(|| black_box(&a).test(black_box(999)))
    });

    // A commit's W fan-out: one deep copy of the signature per
    // bulk-invalidation target, against one refcount bump per target.
    let handle = SigHandle::from(a.clone());
    c.bench_function("wsig_deep_clone", |b| b.iter(|| black_box(&a).clone()));
    c.bench_function("wsig_handle_share", |b| {
        b.iter(|| black_box(&handle).share())
    });
    // Copy-on-write: mutating an unshared handle is free — the
    // chunk-execution insert path.
    c.bench_function("sighandle_unshared_insert", |b| {
        let mut h = SigHandle::empty(cfg);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(97);
            h.make_mut().insert(i);
        })
    });
    let other = SigHandle::from(d.clone());
    c.bench_function("sig_intersects_via_handle", |b| {
        b.iter(|| black_box(&handle).intersects(black_box(&other)))
    });
}

fn chunks(c: &mut Criterion) {
    // A core executing chunks: 64 FFT chunks, one per thread, recorded
    // access by access into fresh `ActiveChunk`s with homes from a
    // frozen page map, the way a core unit's `step` records them (the
    // home is looked up only for a (line, kind) pair new to the chunk).
    // A chunk has ~430 accesses and ~70 distinct pairs.
    c.bench_function("chunk_record_fft", |b| {
        const CORES: u16 = 64;
        let sig = SignatureConfig::paper_default();
        let mut gen = WorkloadGen::new(AppProfile::fft(), CORES as usize, 0x5ca1_ab1e);
        let mut mapper = PageMapper::new(PageMapPolicy::FirstTouch, CORES);
        for page in gen.shared_pool_pages() {
            let h = page.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            mapper.home_of_page(page, CoreId((h % CORES as u64) as u16));
        }
        for core in 0..CORES {
            let (base, count) = gen.private_region(core as usize);
            for l in 0..count.max(1) {
                mapper.home_of_line(LineAddr(base.as_u64() + l), CoreId(core));
            }
        }
        let specs: Vec<ChunkSpec> = (0..CORES).map(|t| gen.next_chunk(t as usize)).collect();
        let mapper = mapper;
        b.iter(|| {
            let mut new_pairs = 0u32;
            for (t, spec) in specs.iter().enumerate() {
                let mut chunk = ActiveChunk::new(ChunkTag::new(CoreId(t as u16), 0), sig);
                for a in spec.accesses() {
                    let home = || mapper.home_frozen(a.line);
                    new_pairs += u32::from(chunk.record(a.line, a.is_write, home));
                }
                black_box(&chunk);
            }
            new_pairs
        })
    });
}

fn caches(c: &mut Criterion) {
    c.bench_function("l2_access_hit", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::paper_l2());
        for i in 0..4096u64 {
            cache.fill(LineAddr(i), false);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            cache.access(LineAddr(i), false)
        })
    });
    // The wide-machine regime: one access per core in turn across 256
    // private hierarchies, each with ¾ of its L2 prefilled in one
    // `fill_run` as `Machine::new` does, so the combined tag state far
    // exceeds the host cache and every access pays for where its cache
    // lives.
    c.bench_function("hierarchy_access_256", |b| {
        const CORES: u64 = 256;
        let cfg = CacheHierarchyConfig::paper_default();
        let fill = cfg.l2.capacity_lines() * 3 / 4;
        let base = |core: u64| core << 24;
        let mut hiers: Vec<CacheHierarchy> = (0..CORES)
            .map(|core| {
                let mut h = CacheHierarchy::new(cfg);
                h.fill_run(LineAddr(base(core)), fill);
                h
            })
            .collect();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let core = i % CORES;
            // Stride through the prefilled lines so most accesses miss L1.
            let line = (i / CORES).wrapping_mul(7919) % fill;
            hiers[core as usize].access(LineAddr(base(core) + line))
        })
    });
    // BulkSC's broadcast: the arbiter sends every committing chunk's W
    // to all other cores, and almost every such expansion matches
    // nothing. 64 hierarchies are warmed as `Machine::new` warms them (¾
    // of L2 from the thread's private region, then four warm-up chunks'
    // lines); one iteration expands one FFT chunk's W at the other 63.
    c.bench_function("hierarchy_bulk_invalidate", |b| {
        const CORES: usize = 64;
        let cfg = CacheHierarchyConfig::paper_default();
        let sig = SignatureConfig::paper_default();
        let mut gen = WorkloadGen::new(AppProfile::fft(), CORES, 0x5ca1_ab1e);
        let fill = cfg.l2.capacity_lines() * 3 / 4;
        let mut hiers: Vec<CacheHierarchy> = (0..CORES)
            .map(|core| {
                let mut h = CacheHierarchy::with_signature_config(cfg, sig);
                let (base, count) = gen.private_region(core);
                for l in 0..count.min(fill) {
                    h.fill(LineAddr(base.as_u64() + l));
                }
                for _ in 0..4 {
                    for a in gen.next_chunk(core).accesses() {
                        h.fill(a.line);
                        if a.is_write {
                            h.mark_written(a.line);
                        }
                    }
                }
                h
            })
            .collect();
        let commits: Vec<(usize, Signature)> = (0..4 * CORES)
            .map(|i| {
                let core = i % CORES;
                let spec = gen.next_chunk(core);
                let writes = spec.accesses().iter().filter(|a| a.is_write);
                (
                    core,
                    Signature::from_lines(sig, writes.map(|a| a.line.as_u64())),
                )
            })
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % commits.len();
            let (committer, w) = &commits[i];
            let mut matched = 0u32;
            for (core, h) in hiers.iter_mut().enumerate() {
                if core != *committer {
                    matched += h.bulk_invalidate(w);
                }
            }
            matched
        })
    });
}

/// Cores (and directories) of the directory benches.
const DIR_CORES: u16 = 64;

/// 64 directories warmed as `Machine::new` warms them for Radix: every
/// shared pool line resident at its hashed home, and ¾ of each L2's
/// worth of private lines read by their owner. Returns them with the
/// workload generator, ready for chunks, and the page mapper.
fn warm_directories_64() -> (WorkloadGen, PageMapper, Vec<DirectoryState>) {
    let sig = SignatureConfig::paper_default();
    let gen = WorkloadGen::new(AppProfile::radix(), DIR_CORES as usize, 0x5ca1_ab1e);
    let mut mapper = PageMapper::new(PageMapPolicy::FirstTouch, DIR_CORES);
    let mut dirs: Vec<DirectoryState> = (0..DIR_CORES)
        .map(|_| DirectoryState::with_signature_config(sig))
        .collect();
    for page in gen.shared_pool_pages() {
        let h = page.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let home = mapper.home_of_page(page, CoreId((h % DIR_CORES as u64) as u16));
        dirs[home.idx()].mark_page_resident(page);
    }
    let fill = CacheHierarchyConfig::paper_default().l2.capacity_lines() * 3 / 4;
    for core in 0..DIR_CORES {
        let (base, count) = gen.private_region(core as usize);
        for (page, mask) in page_masks(base, count.min(fill)) {
            let home = mapper.home_of_page(page, CoreId(core));
            dirs[home.idx()].record_page_reads(page, mask, CoreId(core));
        }
    }
    (gen, mapper, dirs)
}

/// The next chunk of `core`'s thread: its W signature, the distinct
/// homes of its writes, and every line it accesses.
fn chunk_at_homes(
    gen: &mut WorkloadGen,
    mapper: &mut PageMapper,
    core: CoreId,
) -> (Signature, Vec<DirId>, Vec<LineAddr>) {
    let spec = gen.next_chunk(core.idx());
    let lines: Vec<LineAddr> = spec.accesses().iter().map(|a| a.line).collect();
    let writes: Vec<LineAddr> = spec
        .accesses()
        .iter()
        .filter(|a| a.is_write)
        .map(|a| a.line)
        .collect();
    let mut homes: Vec<DirId> = writes
        .iter()
        .map(|&l| mapper.home_of_line(l, core))
        .collect();
    homes.sort_unstable();
    homes.dedup();
    let w = Signature::from_lines(
        SignatureConfig::paper_default(),
        writes.iter().map(|l| l.as_u64()),
    );
    (w, homes, lines)
}

fn directories(c: &mut Criterion) {
    // One commit's directory work at each write home of a Radix chunk on
    // the warmed directories.
    c.bench_function("directory_expand_64", |b| {
        let (mut gen, mut mapper, mut dirs) = warm_directories_64();
        // Four chunks per thread: each committer's W signature and the
        // distinct homes of its writes.
        let commits: Vec<(CoreId, Signature, Vec<DirId>)> = (0..4 * DIR_CORES)
            .map(|i| {
                let core = CoreId(i % DIR_CORES);
                let (w, homes, _) = chunk_at_homes(&mut gen, &mut mapper, core);
                (core, w, homes)
            })
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % commits.len();
            let (core, w, homes) = &commits[i];
            let mut touched = 0u32;
            for home in homes {
                let d = &mut dirs[home.idx()];
                touched += d.sharers_matching(w, *core).len();
                touched += d.apply_commit(w, *core);
            }
            touched
        })
    });
    // A home read's classification (`read_source`) over the lines of
    // Radix chunks, after one committed chunk per thread and the eviction
    // of another's lines: committed lines read as owned, pool and warmed
    // private lines as cached, and evicted private lines as in memory.
    c.bench_function("directory_read_source_64", |b| {
        let (mut gen, mut mapper, mut dirs) = warm_directories_64();
        for core in (0..DIR_CORES).map(CoreId) {
            let (w, homes, _) = chunk_at_homes(&mut gen, &mut mapper, core);
            for home in homes {
                dirs[home.idx()].apply_commit(&w, core);
            }
            let (_, _, evicted) = chunk_at_homes(&mut gen, &mut mapper, core);
            for line in evicted {
                dirs[mapper.home_of_line(line, core).idx()].drop_sharer(line, core);
            }
        }
        let mut reads: Vec<(DirId, LineAddr)> = Vec::new();
        for i in 0..4 * DIR_CORES {
            let core = CoreId(i % DIR_CORES);
            let (_, _, lines) = chunk_at_homes(&mut gen, &mut mapper, core);
            reads.extend(lines.into_iter().map(|l| (mapper.home_of_line(l, core), l)));
        }
        let mut outcomes = [0usize; 3];
        for &(home, line) in &reads {
            outcomes[match dirs[home.idx()].read_source(line) {
                ReadSource::Owner(_) => 0,
                ReadSource::Cache => 1,
                ReadSource::Memory => 2,
            }] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 0), "outcomes {outcomes:?}");
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % reads.len();
            let (home, line) = reads[i];
            dirs[home.idx()].read_source(black_box(line))
        })
    });
}

fn torus(c: &mut Criterion) {
    c.bench_function("torus_send_64", |b| {
        let mut net = Network::new(NetworkConfig::paper_default(64));
        let mut i = 0u16;
        b.iter(|| {
            i = (i + 1) % 64;
            net.send(
                Cycle(i as u64),
                NodeId(i),
                NodeId(63 - i),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
            )
        })
    });
}

fn workload(c: &mut Criterion) {
    c.bench_function("workload_next_chunk_barnes", |b| {
        let mut g = WorkloadGen::new(AppProfile::barnes(), 64, 1);
        let mut t = 0usize;
        b.iter(|| {
            t = (t + 1) % 64;
            g.next_chunk(t)
        })
    });
}

fn event_queue(c: &mut Criterion) {
    // A queue held at a fixed depth: one iteration drains the earliest
    // cycle with `advance_until` and pushes each drained event back 1–64
    // cycles later. 8 pending events is a core unit's depth, 160 the
    // hub's (the obs log's depth samples average 136 on sb-radix-64).
    let mut group = c.benchmark_group("event_queue_churn");
    for hold in [8usize, 160] {
        group.bench_with_input(BenchmarkId::new("depth", hold), &hold, |b, &hold| {
            let mut rng = SplitMix64::new(0x5ca1_ab1e);
            let mut delay = move || 1 + rng.next_u64() % 64;
            let mut q = EventQueue::with_capacity(hold);
            for i in 0..hold {
                q.push(Cycle(delay()), i as u32);
            }
            let mut out = VecDeque::new();
            b.iter(|| {
                let now = q
                    .advance_until(Cycle::MAX, &mut out)
                    .expect("the queue is never empty");
                for (_, ev) in out.drain(..) {
                    q.push(now + delay(), ev);
                }
                now
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    signatures,
    chunks,
    caches,
    directories,
    torus,
    workload,
    event_queue
);
criterion_main!(benches);
