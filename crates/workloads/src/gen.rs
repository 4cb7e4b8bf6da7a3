//! The chunk-stream generator.

use std::collections::VecDeque;

use sb_chunks::{ChunkSpec, MemAccess};
use sb_engine::hash::fnv1a;
use sb_engine::{FxHashMap, Xoshiro256};
use sb_mem::{Addr, LineAddr, PAGE_BYTES};

use crate::profiles::AppProfile;

/// Address-space layout of the synthetic programs: each thread gets a
/// private heap, all threads share a common heap, and scatter-writing
/// apps (Radix) additionally target a large bucket region.
const PRIVATE_BASE: u64 = 0x1000_0000;
const PRIVATE_STRIDE: u64 = 0x0100_0000; // 16 MB per thread
const SHARED_BASE: u64 = 0x8000_0000;
const BUCKET_BASE: u64 = 0xC000_0000;
const BUCKET_PAGES: u64 = 4096; // 16 MB of buckets

const LINES_PER_PAGE: u64 = PAGE_BYTES / sb_mem::LINE_BYTES;
const RECENT_PAGES: usize = 24;
/// Shared-page accesses cycle within a sub-page window: real kernels work
/// on blocks, not whole pages, so a visited page turns cache-hot after a
/// couple of visits instead of supplying cold lines forever.
const PAGE_WINDOW: u64 = 32;

/// A 32-byte line holds several words; real code touches a line multiple
/// times before moving on. Without this, every access would be a distinct
/// line, the L1 would never hit, and signatures would saturate.
const TOUCHES_PER_PRIVATE_LINE: u64 = 8;
const TOUCHES_PER_SHARED_LINE: u64 = 6;
const TOUCHES_PER_SCATTER_LINE: usize = 3;

#[derive(Clone, Debug)]
struct ThreadState {
    rng: Xoshiro256,
    /// Streaming cursor over the private working set, in *touches*
    /// (``TOUCHES_PER_PRIVATE_LINE`` touches advance one line).
    private_cursor: u64,
    /// Recently used shared pages (temporal locality pool).
    recent: VecDeque<u64>,
    /// Sequential consumption cursor per recent page: re-visits continue
    /// where the last run stopped, so previously-touched lines stay hot
    /// and fresh-line (miss) rates match real locality-tuned codes.
    /// Only ever accessed by key, so the hasher cannot affect the stream.
    page_cursor: FxHashMap<u64, u64>,
}

/// Deterministic per-thread chunk streams for one application.
///
/// # Examples
///
/// ```
/// use sb_workloads::{AppProfile, WorkloadGen};
///
/// let mut g = WorkloadGen::new(AppProfile::fft(), 4, 42);
/// let chunk = g.next_chunk(0);
/// assert!(chunk.instructions() >= 500 && chunk.instructions() <= 2300);
/// assert!(!chunk.accesses().is_empty());
/// // Same profile + seed => same stream.
/// let mut g2 = WorkloadGen::new(AppProfile::fft(), 4, 42);
/// assert_eq!(g2.next_chunk(0), chunk);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadGen {
    profile: AppProfile,
    threads: Vec<ThreadState>,
    nthreads: usize,
    rr_next: usize,
}

impl WorkloadGen {
    /// Creates streams for `threads` threads of `profile`, seeded by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(profile: AppProfile, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "need at least one thread");
        let mut root = Xoshiro256::new(seed ^ fnv1a(profile.name.as_bytes()));
        let nthreads = threads;
        let threads_vec = (0..nthreads)
            .map(|t| ThreadState {
                rng: root.fork(t as u64),
                private_cursor: 0,
                recent: VecDeque::with_capacity(RECENT_PAGES),
                page_cursor: FxHashMap::default(),
            })
            .collect();
        WorkloadGen {
            profile,
            threads: threads_vec,
            nthreads,
            rr_next: 0,
        }
    }

    /// Pages of the shared (and, for scatter apps, bucket) pools. The
    /// simulator pre-touches these round-robin across tiles, modelling the
    /// parallel initialization loops that, under first-touch mapping,
    /// distribute shared data across directory modules before the
    /// measured region begins.
    pub fn shared_pool_pages(&self) -> Vec<sb_mem::PageAddr> {
        let p = self.profile;
        let shared_pages = (p.shared_ws_kb as u64 * 1024) / PAGE_BYTES;
        let mut v: Vec<sb_mem::PageAddr> = (0..shared_pages)
            .map(|i| sb_mem::PageAddr(SHARED_BASE / PAGE_BYTES + i))
            .collect();
        if p.write_scatter {
            v.extend((0..BUCKET_PAGES).map(|i| sb_mem::PageAddr(BUCKET_BASE / PAGE_BYTES + i)));
        }
        v
    }

    /// The private working-set region of thread `t`: (first line, line
    /// count). The simulator pre-fills it into the core's caches (a
    /// steady-state thread has its scratch resident).
    pub fn private_region(&self, t: usize) -> (sb_mem::LineAddr, u64) {
        let base = (PRIVATE_BASE + t as u64 * PRIVATE_STRIDE) / sb_mem::LINE_BYTES;
        let lines = (self.profile.private_ws_kb as u64 * 1024) / sb_mem::LINE_BYTES;
        (sb_mem::LineAddr(base), lines)
    }

    /// The profile being generated.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Generates thread `t`'s next chunk.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn next_chunk(&mut self, t: usize) -> ChunkSpec {
        let p = self.profile;
        let private_lines = (p.private_ws_kb as u64 * 1024) / sb_mem::LINE_BYTES;
        let shared_pages = (p.shared_ws_kb as u64 * 1024) / PAGE_BYTES;
        let st = &mut self.threads[t];
        let rng = &mut st.rng;

        // ±10% jitter on the chunk size; cache overflows and system calls
        // "can further reduce the average size" (§2.2) — modelled by the
        // occasional short chunk.
        let insns = if rng.gen_bool(0.05) {
            500 + rng.gen_range(1000)
        } else {
            let base = p.chunk_insns;
            base - base / 10 + rng.gen_range(base / 5 + 1)
        };
        let n_acc = ((insns as f64 * p.mem_ratio) as usize).max(1);
        let n_wr = ((n_acc as f64 * p.write_frac) as usize).max(1);
        let n_rd = n_acc - n_wr;

        // --- choose this chunk's page working set ---
        let jitter = |rng: &mut Xoshiro256, mean: f64| -> usize {
            // Log-ish spread producing the long tails of Figures 11–12.
            let f = 0.5
                + rng.gen_f64()
                + if rng.gen_bool(0.08) {
                    rng.gen_f64() * 2.0
                } else {
                    0.0
                };
            ((mean * f).round() as usize).max(1)
        };
        let n_wpages = jitter(rng, p.write_pages);
        let n_rpages = jitter(rng, p.read_pages);

        // The shared pool is split: the lower half is read-mostly data,
        // the upper half holds the per-thread write shards. Reads stray
        // into the write region with probability `rw_overlap` (producer-
        // consumer sharing); occasional writes hit the read-mostly region
        // (`shared_write_frac`), invalidating its reader population.
        let read_region = (shared_pages / 2).max(1);
        let pick_shared_page = |rng: &mut Xoshiro256, recent: &mut VecDeque<u64>| -> u64 {
            let page = if !recent.is_empty() && rng.gen_bool(p.reuse_frac) {
                recent[rng.gen_range(recent.len() as u64) as usize]
            } else if rng.gen_bool(p.rw_overlap) {
                SHARED_BASE / PAGE_BYTES
                    + read_region
                    + rng.gen_range((shared_pages - read_region).max(1))
            } else {
                SHARED_BASE / PAGE_BYTES + rng.gen_range(read_region)
            };
            if !recent.contains(&page) {
                if recent.len() == RECENT_PAGES {
                    recent.pop_front();
                }
                recent.push_back(page);
            }
            page
        };

        // Write pages are sharded per thread (page % threads == t): real
        // codes mostly write thread-owned tiles/buckets, so concurrent
        // write-write page collisions are rare; cross-thread conflicts
        // come from reads of other threads' pages and from the hot lines.
        let nthreads = self.nthreads as u64;
        let mut wpages: Vec<u64> = Vec::with_capacity(n_wpages);
        for _ in 0..n_wpages {
            for _attempt in 0..4 {
                let page = if p.write_scatter {
                    let shard = BUCKET_PAGES / nthreads;
                    BUCKET_BASE / PAGE_BYTES + t as u64 + nthreads * rng.gen_range(shard.max(1))
                } else {
                    let write_region = shared_pages - read_region;
                    let shard = write_region / nthreads;
                    if shard == 0 || rng.gen_bool(p.shared_write_frac) {
                        // A minority of writes hit the read-mostly region.
                        SHARED_BASE / PAGE_BYTES + rng.gen_range(read_region)
                    } else {
                        SHARED_BASE / PAGE_BYTES
                            + read_region
                            + t as u64
                            + nthreads * rng.gen_range(shard)
                    }
                };
                if !wpages.contains(&page) {
                    wpages.push(page);
                    break;
                }
            }
        }
        if wpages.is_empty() {
            wpages.push(SHARED_BASE / PAGE_BYTES + t as u64);
        }
        let mut rpages: Vec<u64> = Vec::with_capacity(n_rpages);
        for _ in 0..n_rpages {
            for _attempt in 0..4 {
                let page = pick_shared_page(rng, &mut st.recent);
                if !rpages.contains(&page) {
                    rpages.push(page);
                    break;
                }
            }
        }
        if rpages.is_empty() {
            rpages.push(SHARED_BASE / PAGE_BYTES);
        }

        // --- generate the access list ---
        let mut accesses = Vec::with_capacity(n_acc);
        let private_base_line = (PRIVATE_BASE + t as u64 * PRIVATE_STRIDE) / sb_mem::LINE_BYTES;

        // Reads: sequential runs over private working set or shared pages.
        let mut reads_left = n_rd;
        while reads_left > 0 {
            let run = rng
                .gen_run_len(p.seq_run * TOUCHES_PER_SHARED_LINE as f64)
                .min(reads_left as u64);
            if rng.gen_bool(p.private_frac) {
                for _ in 0..run {
                    let line = private_base_line
                        + (st.private_cursor / TOUCHES_PER_PRIVATE_LINE) % private_lines.max(1);
                    st.private_cursor += 1;
                    accesses.push(MemAccess::read(LineAddr(line)));
                }
            } else {
                let page = rpages[rng.gen_range(rpages.len() as u64) as usize];
                // Mostly continue consuming the page where we left off
                // (hot lines); occasionally re-read an earlier offset.
                let cur = st.page_cursor.entry(page).or_insert(0);
                let start = if rng.gen_bool(0.25) && *cur > 0 {
                    rng.gen_range(*cur)
                } else {
                    let s = *cur;
                    *cur = (*cur + run / TOUCHES_PER_SHARED_LINE + 1) % PAGE_WINDOW;
                    s
                };
                for i in 0..run {
                    let line =
                        page * LINES_PER_PAGE + (start + i / TOUCHES_PER_SHARED_LINE) % PAGE_WINDOW;
                    accesses.push(MemAccess::read(LineAddr(line)));
                }
            }
            reads_left -= run as usize;
        }

        // Writes: spread over the chunk's write pages. Scatter apps
        // (Radix) touch one or two bucket slots per page — wide directory
        // spread but few distinct lines, so the 2 Kbit W signature stays
        // sparse; other apps run short sequential bursts.
        let scatter_slots: Vec<u64> = if p.write_scatter {
            wpages
                .iter()
                .flat_map(|&page| {
                    let base = page * LINES_PER_PAGE;
                    vec![base + rng.gen_range(LINES_PER_PAGE)]
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut scatter_next = 0usize;
        let mut writes_left = n_wr;
        while writes_left > 0 {
            if rng.gen_bool(p.private_frac * 0.6) {
                // Private write (local page, local directory).
                let line = private_base_line
                    + (st.private_cursor / TOUCHES_PER_PRIVATE_LINE) % private_lines.max(1);
                st.private_cursor += 1;
                accesses.push(MemAccess::write(LineAddr(line)));
                writes_left -= 1;
                continue;
            }
            let page = wpages[rng.gen_range(wpages.len() as u64) as usize];
            if p.write_scatter {
                let line = scatter_slots[scatter_next % scatter_slots.len()];
                scatter_next += 1;
                let reps = TOUCHES_PER_SCATTER_LINE.min(writes_left);
                for _ in 0..reps {
                    accesses.push(MemAccess::write(LineAddr(line)));
                }
                writes_left -= reps;
            } else {
                let run = rng
                    .gen_run_len((p.seq_run / 2.0).max(1.0))
                    .min(writes_left as u64);
                let cur = st.page_cursor.entry(page).or_insert(0);
                let start = *cur;
                *cur = (*cur + run / TOUCHES_PER_SHARED_LINE + 1) % PAGE_WINDOW;
                for i in 0..run {
                    let line =
                        page * LINES_PER_PAGE + (start + i / TOUCHES_PER_SHARED_LINE) % PAGE_WINDOW;
                    accesses.push(MemAccess::write(LineAddr(line)));
                }
                writes_left -= run as usize;
            }
        }

        // Conflict injection: touch a hot shared line.
        if rng.gen_bool(p.conflict_prob) {
            let hot = Addr(SHARED_BASE).line().as_u64() + rng.gen_range(p.hot_lines.max(1) as u64);
            let acc = if rng.gen_bool(p.hot_write_frac) {
                MemAccess::write(LineAddr(hot))
            } else {
                MemAccess::read(LineAddr(hot))
            };
            accesses.push(acc);
        }

        // Interleave deterministically: shuffle with the thread RNG so
        // reads and writes mix as in real code.
        for i in (1..accesses.len()).rev() {
            let j = rng.gen_range((i + 1) as u64) as usize;
            accesses.swap(i, j);
        }
        let insns = insns.max(accesses.len() as u64);
        ChunkSpec::new(insns, accesses)
    }

    /// Round-robin across threads: used by the single-processor
    /// normalization runs, where one core executes every thread's work.
    pub fn next_chunk_any(&mut self) -> ChunkSpec {
        let t = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.threads.len();
        self.next_chunk(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::AppProfile;
    use sb_chunks::{ActiveChunk, ChunkTag};
    use sb_mem::CoreId;
    use sb_sigs::SignatureConfig;

    /// Hash-based page→directory mapping, mirroring the simulator's
    /// parallel-initialization first touch (a plain modulo would correlate
    /// with the generator's per-thread page sharding).
    fn dirs_of_chunk(spec: &ChunkSpec, core: CoreId) -> (u32, u32) {
        let mut c = ActiveChunk::new(ChunkTag::new(core, 0), SignatureConfig::paper_default());
        for a in spec.accesses() {
            let page = a.line.page().as_u64();
            let home =
                sb_mem::DirId(((page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 64) as u16);
            if a.is_write {
                c.record_write(a.line, home);
            } else {
                c.record_read(a.line, home);
            }
        }
        (c.write_dirs().len(), c.read_only_dirs().len())
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = WorkloadGen::new(AppProfile::barnes(), 8, 7);
        let mut b = WorkloadGen::new(AppProfile::barnes(), 8, 7);
        for t in 0..8 {
            assert_eq!(a.next_chunk(t), b.next_chunk(t));
        }
        let mut c = WorkloadGen::new(AppProfile::barnes(), 8, 8);
        assert_ne!(a.next_chunk(0), c.next_chunk(0));
    }

    #[test]
    fn threads_get_distinct_streams() {
        let mut g = WorkloadGen::new(AppProfile::fft(), 4, 1);
        let c0 = g.next_chunk(0);
        let c1 = g.next_chunk(1);
        assert_ne!(c0, c1);
    }

    #[test]
    fn chunk_sizes_near_2000() {
        let mut g = WorkloadGen::new(AppProfile::lu(), 2, 3);
        let mut total = 0u64;
        let n = 200;
        for _ in 0..n {
            let c = g.next_chunk(0);
            assert!(c.instructions() >= 500 && c.instructions() <= 2300);
            assert!(c.accesses().len() as u64 <= c.instructions());
            total += c.instructions();
        }
        let mean = total as f64 / n as f64;
        assert!((1700.0..2100.0).contains(&mean), "mean insns {mean}");
    }

    #[test]
    fn access_mix_tracks_profile() {
        let p = AppProfile::radix();
        let mut g = WorkloadGen::new(p, 2, 5);
        let mut reads = 0usize;
        let mut writes = 0usize;
        for _ in 0..100 {
            let c = g.next_chunk(0);
            reads += c.read_count();
            writes += c.write_count();
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!(
            (p.write_frac - 0.1..p.write_frac + 0.1).contains(&frac),
            "write fraction {frac}"
        );
    }

    /// The generator's whole purpose: directories-per-commit must land in
    /// the bands the paper reports (Figures 9–10).
    #[test]
    fn radix_write_group_is_wide_fft_is_narrow() {
        let stats = |name: &str| -> (f64, f64) {
            let p = AppProfile::by_name(name).unwrap();
            let mut g = WorkloadGen::new(p, 16, 11);
            let (mut w, mut r) = (0u32, 0u32);
            let n = 60;
            for i in 0..n {
                let spec = g.next_chunk(i % 16);
                let (wd, rd) = dirs_of_chunk(&spec, CoreId((i % 16) as u16));
                w += wd;
                r += rd;
            }
            (w as f64 / n as f64, r as f64 / n as f64)
        };
        let (radix_w, radix_r) = stats("Radix");
        assert!(radix_w > 8.0, "Radix write group {radix_w}");
        assert!(
            radix_r < radix_w / 3.0,
            "Radix is write-dominated ({radix_r})"
        );
        let (fft_w, _fft_r) = stats("FFT");
        assert!(fft_w < 5.0, "FFT stays narrow ({fft_w})");
        let (can_w, can_r) = stats("Canneal");
        assert!(can_r > can_w, "Canneal is read-dominated ({can_w}/{can_r})");
        assert!(can_w + can_r > 5.0, "Canneal groups are wide");
    }

    #[test]
    fn round_robin_covers_all_threads() {
        let mut g = WorkloadGen::new(AppProfile::vips(), 3, 2);
        // Consume 3 chunks round-robin; compare against per-thread stream.
        let mut g2 = WorkloadGen::new(AppProfile::vips(), 3, 2);
        let rr: Vec<ChunkSpec> = (0..3).map(|_| g.next_chunk_any()).collect();
        for (t, c) in rr.iter().enumerate() {
            assert_eq!(*c, g2.next_chunk(t));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        WorkloadGen::new(AppProfile::fft(), 0, 1);
    }

    /// Signature health: a 2 Kbit register only stays useful if chunks
    /// touch at most a ~hundred distinct lines. Every application model
    /// must respect that envelope.
    #[test]
    fn distinct_lines_per_chunk_stay_signature_friendly() {
        use std::collections::HashSet;
        for p in AppProfile::all() {
            let mut g = WorkloadGen::new(p, 8, 3);
            let mut worst = 0usize;
            for i in 0..40 {
                let spec = g.next_chunk(i % 8);
                let distinct: HashSet<u64> =
                    spec.accesses().iter().map(|a| a.line.as_u64()).collect();
                worst = worst.max(distinct.len());
            }
            assert!(
                worst <= 160,
                "{}: {worst} distinct lines per chunk saturates 2Kbit signatures",
                p.name
            );
        }
    }

    /// Write sharding: two threads' (non-scatter) write pages rarely
    /// collide, so write-write page conflicts come from the explicit
    /// shared-write fraction, not from accident.
    #[test]
    fn write_pages_are_thread_sharded() {
        use std::collections::HashSet;
        let p = AppProfile::fft();
        let mut g = WorkloadGen::new(p, 4, 9);
        let pages = |spec: &ChunkSpec| -> HashSet<u64> {
            spec.accesses()
                .iter()
                .filter(|a| a.is_write)
                .map(|a| a.line.page().as_u64())
                // Only shared-region pages (private pages are per-thread
                // by construction).
                .filter(|pg| pg * PAGE_BYTES >= SHARED_BASE && pg * PAGE_BYTES < BUCKET_BASE)
                .collect()
        };
        let mut collisions = 0;
        let mut total = 0;
        for _ in 0..30 {
            let a = pages(&g.next_chunk(0));
            let b = pages(&g.next_chunk(1));
            total += a.len().min(b.len()).max(1);
            collisions += a.intersection(&b).count();
        }
        assert!(
            (collisions as f64) < 0.2 * total as f64,
            "sharded write pages collide too much: {collisions}/{total}"
        );
    }
}
