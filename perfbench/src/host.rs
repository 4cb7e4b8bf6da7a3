//! The host's memory-latency factor, measured around each simulation.
//!
//! The benchmark shares its machine with other tenants. When they load
//! the memory system, every simulation slows by the same factor for
//! minutes at a time: on the 2-CPU host of the README, runs of one
//! workload drifted 1.6x between consecutive minutes while a pointer
//! chase slowed by the same ratio and pure arithmetic did not. The
//! simulator is bound by memory latency, so host times divided by the
//! latency factor of their own window compare across such episodes.

use std::hint::black_box;
use std::time::Instant;

/// Dependent loads through a buffer far larger than any cache, so each
/// load waits on memory (and a TLB walk), as the simulator's large hash
/// maps do.
#[derive(Debug)]
pub struct LatencyProbe {
    next: Vec<u32>,
}

/// Loads per measurement: about 60 ms on the reference host.
const LOADS: usize = 500_000;

/// Nanoseconds per dependent load on the reference host when no other
/// tenant loads its memory system; a factor of 1.0 means that speed.
pub const REFERENCE_NS: f64 = 120.0;

impl LatencyProbe {
    /// Size of the buffer, which stays resident for the process lifetime.
    pub const BYTES: usize = 64 << 20;

    /// Builds the buffer: `next[i]` is the successor of `i` in a
    /// full-period linear congruential sequence over its indices, so a
    /// chase visits every slot in an order the prefetchers cannot follow.
    pub fn new() -> Self {
        let n = Self::BYTES / std::mem::size_of::<u32>();
        let mask = n as u64 - 1;
        // Full period modulo a power of two: odd increment, multiplier
        // congruent to 1 modulo 4.
        let next = (0..n as u64)
            .map(|i| {
                (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x632B_E59B)
                    & mask) as u32
            })
            .collect();
        LatencyProbe { next }
    }

    /// Current latency of one dependent load, in nanoseconds.
    pub fn ns_per_load(&self) -> f64 {
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..LOADS {
            i = self.next[i as usize];
        }
        black_box(i);
        t.elapsed().as_nanos() as f64 / LOADS as f64
    }

    /// The buffer's resident size in MiB, to take out of peak-memory
    /// readings.
    pub fn mib() -> f64 {
        Self::BYTES as f64 / (1 << 20) as f64
    }
}

impl Default for LatencyProbe {
    fn default() -> Self {
        Self::new()
    }
}
