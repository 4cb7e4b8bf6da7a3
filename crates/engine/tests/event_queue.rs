//! The `EventQueue` contract, checked against a stable-sorted reference.
//!
//! Random scripts of push / pop / `drain_cycle` / `advance_until` run
//! on the queue and on the reference side by side; every return value,
//! `len`, `peek_time` and the push and peak-length counters must agree
//! after every step. Pushes come in same-cycle bursts and land both
//! ahead of and behind the last popped cycle.

use std::collections::VecDeque;

use proptest::TestRng;
use sb_engine::{Cycle, EventQueue};

/// The contract spelled out: pending events kept in push order, and the
/// next event is the first one after a stable sort by cycle.
#[derive(Default)]
struct Reference {
    pending: Vec<(Cycle, u64)>,
    pushes: u64,
    peak_len: u64,
}

impl Reference {
    fn push(&mut self, at: Cycle, tag: u64) {
        self.pending.push((at, tag));
        self.pushes += 1;
        self.peak_len = self.peak_len.max(self.pending.len() as u64);
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.pending.iter().map(|&(at, _)| at).min()
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        self.pending.sort_by_key(|&(at, _)| at);
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn drain_cycle(&mut self, out: &mut VecDeque<(Cycle, u64)>) -> Option<Cycle> {
        let at = self.peek_time()?;
        self.pending.sort_by_key(|&(at, _)| at);
        let n = self.pending.iter().take_while(|e| e.0 == at).count();
        out.extend(self.pending.drain(..n));
        Some(at)
    }

    fn advance_until(&mut self, horizon: Cycle, out: &mut VecDeque<(Cycle, u64)>) -> Option<Cycle> {
        if self.peek_time()? >= horizon {
            return None;
        }
        self.drain_cycle(out)
    }
}

/// Runs one random script of `ops` operations on both sides.
fn run_script(rng: &mut TestRng, ops: usize) {
    let mut q = EventQueue::new();
    let mut r = Reference::default();
    let (mut qo, mut ro) = (VecDeque::new(), VecDeque::new());
    let mut tag = 0u64; // distinct payloads, so a FIFO mix-up cannot hide
    let mut last = 0u64; // cycle of the last event taken out
    for _ in 0..ops {
        match rng.below(10) {
            // A burst of 1–4 pushes at one cycle: at the last popped
            // cycle, a few cycles ahead, far ahead, or behind it.
            0..=3 => {
                let at = match rng.below(8) {
                    0 => last,
                    1 => last.saturating_sub(1 + rng.below(50)),
                    2 => last + 2_000 + rng.below(100_000),
                    _ => last + 1 + rng.below(20),
                };
                for _ in 0..1 + rng.below(4) {
                    q.push(Cycle(at), tag);
                    r.push(Cycle(at), tag);
                    tag += 1;
                }
            }
            4 | 5 => {
                let got = q.pop();
                assert_eq!(got, r.pop());
                if let Some((at, _)) = got {
                    last = at.as_u64();
                }
            }
            6 | 7 => {
                let got = q.drain_cycle(&mut qo);
                assert_eq!(got, r.drain_cycle(&mut ro));
                if let Some(at) = got {
                    last = at.as_u64();
                }
            }
            _ => {
                // Horizons just below, at and just past the next event.
                let head = r.peek_time().map_or(last, Cycle::as_u64);
                let horizon = Cycle((head + rng.below(3)).saturating_sub(1));
                let got = q.advance_until(horizon, &mut qo);
                assert_eq!(got, r.advance_until(horizon, &mut ro));
                if let Some(at) = got {
                    last = at.as_u64();
                }
            }
        }
        assert_eq!(qo, ro);
        qo.clear();
        ro.clear();
        assert_eq!(q.len(), r.pending.len());
        assert_eq!(q.is_empty(), r.pending.is_empty());
        assert_eq!(q.peek_time(), r.peek_time());
        let s = q.stats();
        assert_eq!((s.pushes, s.peak_len), (r.pushes, r.peak_len));
    }
    while let Some(e) = r.pop() {
        assert_eq!(q.pop(), Some(e));
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn random_scripts_match_the_stable_sorted_reference() {
    for case in 0..400 {
        let mut rng = proptest::rng_for("random_scripts_match_the_stable_sorted_reference", case);
        let ops = 1 + rng.below(300) as usize;
        run_script(&mut rng, ops);
    }
}
