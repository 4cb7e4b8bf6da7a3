//! Deterministic fan-out of independent runs across OS threads.
//!
//! Every sweep, benchmark, and fuzz driver in this workspace executes a
//! work-list of *independent* simulations: each run is a pure function
//! of its `SimConfig` (or fuzz case), so the only thing parallelism may
//! change is wall-clock time. [`parallel_map`] encodes that contract:
//! workers claim items from a shared counter in any order, but results
//! land in a slot per input index and are returned **in input order** —
//! so the caller's output (figure text, JSON, fuzz verdicts, merged
//! metrics) is byte-identical at any worker count, including `jobs = 1`,
//! which runs inline on the calling thread with no pool at all.
//!
//! Built on `std::thread::scope` only — no external dependencies, per
//! the offline shim policy.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `jobs` value meaning "use every available hardware thread".
pub const AUTO_JOBS: usize = 0;

/// Number of hardware threads the host exposes (at least 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--jobs` setting: [`AUTO_JOBS`] (0) becomes the host's
/// available parallelism, and explicit values are capped at it — more
/// workers than hardware threads can never help a CPU-bound simulation,
/// only oversubscribe it (the honest slowdown EXPERIMENTS.md measured on
/// a 1-CPU host).
pub fn effective_jobs(jobs: usize) -> usize {
    let avail = available_jobs();
    if jobs == AUTO_JOBS {
        avail
    } else {
        jobs.min(avail).max(1)
    }
}

/// Applies `f` to every item and returns the outputs **in input order**,
/// using up to `jobs` worker threads ([`AUTO_JOBS`] = all hardware
/// threads; the count is further capped at the item count).
///
/// Scheduling is work-stealing-by-counter: workers grab the next
/// unclaimed index, so long and short items interleave freely — but each
/// output is written to its input's slot, which makes the returned `Vec`
/// independent of claim order. With `jobs <= 1` no threads are spawned
/// and `f` runs inline, which keeps single-job runs easy to profile and
/// free of pool overhead.
///
/// # Panics
///
/// If `f` panics on any item the panic is re-raised on the calling
/// thread after the remaining workers wind down.
pub fn parallel_map<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len()).max(1);
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    // Claimed indices and their outputs; merged into the
                    // ordered slot vector after the worker joins.
                    let mut produced: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        produced.push((i, f(item)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, out) in produced {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

/// Parses a `--jobs` command-line value: a positive integer, or `auto`
/// for [`AUTO_JOBS`].
pub fn parse_jobs(v: &str) -> Option<usize> {
    if v == "auto" {
        return Some(AUTO_JOBS);
    }
    v.parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, AUTO_JOBS] {
            let got = parallel_map(&items, jobs, |x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_item_costs_still_merge_in_order() {
        // Early items sleep longest, so claim order and completion order
        // both differ from input order.
        let items: Vec<u64> = (0..16).collect();
        let got = parallel_map(&items, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(parallel_map(&[41u32], AUTO_JOBS, |x| x + 1), vec![42]);
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("auto"), Some(AUTO_JOBS));
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("12"), Some(12));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-3"), None);
        assert_eq!(parse_jobs("fast"), None);
    }

    #[test]
    fn effective_jobs_never_oversubscribes() {
        let avail = available_jobs();
        assert_eq!(effective_jobs(AUTO_JOBS), avail);
        assert_eq!(effective_jobs(1), 1);
        // Explicit values are capped at the hardware thread count: a
        // `--jobs 64` on a 1-CPU host must not spawn 64 workers.
        assert_eq!(effective_jobs(usize::MAX), avail);
        assert_eq!(effective_jobs(avail + 7), avail);
        assert!(effective_jobs(2) <= avail.max(2));
    }

    #[test]
    #[should_panic(expected = "boom on 7")]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..32).collect();
        parallel_map(&items, 4, |&x| {
            assert!(x != 7, "boom on {x}");
            x
        });
    }
}
