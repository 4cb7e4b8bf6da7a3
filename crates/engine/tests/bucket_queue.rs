//! Differential validation of the calendar-queue `EventQueue` against
//! the `BinaryHeap` implementation it replaced.
//!
//! The reference model below is a verbatim port of the old
//! heap-of-`(at, seq)` queue. Every test drives both structures through
//! the same operation sequence and demands identical observable behavior
//! — pop results, peek times, lengths — including the contract corners
//! the bucket structure has to work for: same-cycle FIFO across tiers,
//! far-future overflow promotion into the ring window, and pushes behind
//! the current cursor.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use proptest::prelude::*;
use sb_engine::{Cycle, EventQueue};

/// The pre-calendar-queue implementation, kept as the executable spec.
struct RefEntry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefEntry<E> {}
impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct RefQueue<E> {
    heap: BinaryHeap<RefEntry<E>>,
    next_seq: u64,
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
    fn push(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.heap.push(RefEntry { at, seq, payload });
    }
    fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }
    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    /// Reference semantics of `advance_until`: pop the earliest cycle in
    /// full, but only if it lies strictly before the horizon.
    fn advance_until(&mut self, horizon: Cycle, out: &mut VecDeque<(Cycle, E)>) -> Option<Cycle> {
        let c = self.peek_time()?;
        if c >= horizon {
            return None;
        }
        while self.peek_time() == Some(c) {
            out.push_back(self.pop().expect("peeked"));
        }
        Some(c)
    }
}

/// Drives both queues through one scripted operation list and checks
/// every observable at every step. `ops` items: `(is_push, cycle)` —
/// pops ignore the cycle.
fn run_differential(ops: &[(bool, u64)]) {
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    let mut tag = 0u64; // payloads are distinct so FIFO mix-ups can't hide
    for &(is_push, cycle) in ops {
        if is_push {
            q.push(Cycle(cycle), tag);
            r.push(Cycle(cycle), tag);
            tag += 1;
        } else {
            assert_eq!(q.pop(), r.pop());
        }
        assert_eq!(q.peek_time(), r.peek_time());
        assert_eq!(q.len(), r.len());
        assert_eq!(q.is_empty(), r.len() == 0);
    }
    // Drain both to the end: order must match exactly.
    loop {
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Exhaustive sweep over every push/pop interleaving of length <= 12
/// with pushes drawn from a cycle alphabet that crosses all three tiers:
/// same cycle (FIFO ties), near-future ring, exactly-at-horizon,
/// far-future overflow, and (after pops advance the cursor) the past.
#[test]
fn exhaustive_interleavings_match_heap_reference() {
    // Cycles chosen to straddle the 4096-cycle ring window from a cursor
    // that the pop sequence drags forward.
    const CYCLES: [u64; 5] = [0, 1, 7, 4096, 20_000];
    const LEN: usize = 6; // 6 variants per op => 6^6 ~ 47k scripts
    let mut script: Vec<(bool, u64)> = Vec::with_capacity(LEN);
    // Each op has 6 variants: push at one of 5 cycles, or pop.
    fn rec(script: &mut Vec<(bool, u64)>, depth: usize) {
        if depth == 0 {
            run_differential(script);
            return;
        }
        for c in CYCLES {
            script.push((true, c));
            rec(script, depth - 1);
            script.pop();
        }
        script.push((false, 0));
        rec(script, depth - 1);
        script.pop();
    }
    rec(&mut script, LEN);
}

/// Same-cycle FIFO holds even when the tied events were routed to
/// different tiers: one pushed while the cycle was beyond the ring
/// horizon (overflow heap), one pushed after pops moved the window over
/// it (ring bucket).
#[test]
fn cross_tier_fifo_matches_reference() {
    let horizon = 4096u64;
    for gap in [0u64, 1, 5] {
        let t = horizon + 100;
        let ops = [
            (true, t),           // far tier at push time
            (true, horizon - 1), // ring
            (true, horizon + gap),
            (false, 0), // pop horizon-1: window now covers t
            (false, 0),
            (true, t), // ring tier; must pop after the far-tier twin
            (false, 0),
            (false, 0),
        ];
        run_differential(&ops);
    }
}

/// `drain_cycle` returns exactly the events `pop` would have returned
/// for the earliest cycle, in the same order, and nothing else.
#[test]
fn drain_cycle_equals_pop_loop() {
    let mut rng = proptest::rng_for("drain_cycle_equals_pop_loop", 0);
    for _ in 0..500 {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let n = 1 + rng.below(40);
        for tag in 0..n {
            // Cluster cycles so same-cycle batches are common, with an
            // occasional far-future outlier.
            let c = if rng.below(10) == 0 {
                10_000 + rng.below(5000)
            } else {
                rng.below(6)
            };
            q.push(Cycle(c), tag);
            r.push(Cycle(c), tag);
        }
        let mut out = VecDeque::new();
        while let Some(c) = q.drain_cycle(&mut out) {
            while r.peek_time() == Some(c) {
                let want = r.pop().expect("peeked");
                let got = out.pop_front().expect("drain under-delivered");
                assert_eq!(got, want);
            }
            assert!(out.is_empty(), "drain over-delivered past cycle {c:?}");
        }
        assert!(r.pop().is_none());
    }
}

/// Drives both queues through a script of pushes, pops, and
/// horizon-bounded drains (`(2, h)` = advance_until at horizon `h`),
/// checking every observable after each op.
fn run_horizon_differential(ops: &[(u8, u64)]) {
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    let mut tag = 0u64;
    let mut qo = VecDeque::new();
    let mut ro = VecDeque::new();
    for &(op, val) in ops {
        match op {
            0 => {
                q.push(Cycle(val), tag);
                r.push(Cycle(val), tag);
                tag += 1;
            }
            1 => assert_eq!(q.pop(), r.pop()),
            _ => {
                qo.clear();
                ro.clear();
                let a = q.advance_until(Cycle(val), &mut qo);
                let b = r.advance_until(Cycle(val), &mut ro);
                assert_eq!(a, b, "advance_until({val}) returned cycle differs");
                assert_eq!(qo, ro, "advance_until({val}) drained set differs");
            }
        }
        assert_eq!(q.peek_time(), r.peek_time());
        assert_eq!(q.len(), r.len());
    }
    loop {
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// `advance_until` at hand-picked horizons that sit exactly on the tier
/// boundaries of the calendar structure: the bucket-ring edge (cursor +
/// ring width), one inside/outside it, the overflow tier, and — after a
/// pop drags the cursor forward — a push behind the cursor (`past`
/// tier) with a horizon between past and ring content.
#[test]
fn advance_until_at_tier_edges_matches_reference() {
    let ring = 1024u64; // EventQueue's documented near-future window
    for &edge in &[ring - 1, ring, ring + 1, 4 * ring, 20_000] {
        // Horizon exactly at / around an event on the edge cycle.
        run_horizon_differential(&[
            (0, 3),
            (0, edge),
            (2, edge),     // event at `edge` must NOT drain
            (2, edge + 1), // now it must
            (2, u64::MAX),
        ]);
        // Mixed tiers: near-future ring, the edge, and a far outlier.
        run_horizon_differential(&[
            (0, 1),
            (0, 1),
            (0, edge),
            (0, edge + ring),
            (2, 2),
            (2, edge + 1),
            (2, edge + ring + 1),
            (2, u64::MAX),
        ]);
        // Past-tier edge: advance the cursor past `edge`, then push
        // behind it; horizons between the past event and the rest.
        run_horizon_differential(&[
            (0, edge),
            (1, 0), // cursor now at `edge`
            (0, 5), // behind the cursor: past tier
            (0, edge + 2),
            (2, 5),        // past event at 5 not drained
            (2, 6),        // drained
            (2, edge + 2), // ring/far content at edge+2 not drained
            (2, u64::MAX),
        ]);
    }
}

/// A loop of `advance_until` calls with a fixed horizon is equivalent to
/// the truncated pop loop, over random scripts that cross all tiers.
#[test]
fn advance_until_loop_equals_truncated_pop_loop() {
    let mut rng = proptest::rng_for("advance_until_loop_equals_truncated_pop_loop", 0);
    for _ in 0..300 {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let n = 1 + rng.below(50);
        for tag in 0..n {
            let c = match rng.below(4) {
                0 => rng.below(8),           // dense ties
                1 => rng.below(1024),        // ring window
                2 => 1020 + rng.below(10),   // straddling the ring edge
                _ => 1024 + rng.below(9000), // overflow tier
            };
            q.push(Cycle(c), tag);
            r.push(Cycle(c), tag);
        }
        let horizon = Cycle(rng.below(2048));
        let mut qo = VecDeque::new();
        while q.advance_until(horizon, &mut qo).is_some() {}
        let mut ro = VecDeque::new();
        while r.peek_time().is_some_and(|c| c < horizon) {
            ro.push_back(r.pop().expect("peeked"));
        }
        assert_eq!(qo, ro, "horizon {horizon:?}");
        // Both queues hold exactly the at-or-past-horizon remainder.
        loop {
            let (a, b) = (q.pop(), r.pop());
            if let Some((at, _)) = a {
                assert!(at >= horizon, "drained event left below horizon");
            }
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random long interleavings with cycles spread across the whole
    /// tier structure (dense near-future, horizon edge, deep far-future)
    /// and a pop bias that drags the cursor forward so late pushes land
    /// behind it.
    #[test]
    fn random_interleavings_match_heap_reference(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..200),
    ) {
        let script: Vec<(bool, u64)> = ops
            .iter()
            .map(|&(kind, raw)| {
                // ~40% pops; pushes pick a tier, then a cycle inside it.
                let is_push = kind % 5 >= 2;
                let cycle = match raw % 4 {
                    0 => raw / 4 % 8,            // dense ties near zero
                    1 => raw / 4 % 4096,         // across the ring window
                    2 => 4090 + raw / 4 % 12,    // straddling the horizon
                    _ => 4096 + raw / 4 % 50_000, // far-future overflow
                };
                (is_push, cycle)
            })
            .collect();
        run_differential(&script);
    }

    /// Random interleavings of pushes, pops, and horizon drains match
    /// the reference at every step — `advance_until` composes with the
    /// other operations without disturbing FIFO or tier bookkeeping.
    #[test]
    fn random_horizon_interleavings_match_reference(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..150),
    ) {
        let script: Vec<(u8, u64)> = ops
            .iter()
            .map(|&(kind, raw)| match kind % 5 {
                0 | 1 => (0u8, raw % 3000), // push across ring + overflow
                2 => (1u8, 0),              // pop
                _ => (2u8, raw % 3200),     // advance_until
            })
            .collect();
        run_horizon_differential(&script);
    }

    /// A burst of same-cycle pushes separated by pops is returned in
    /// exact push order (FIFO), matching the reference model.
    #[test]
    fn same_cycle_bursts_stay_fifo(
        cycle in 0u64..10_000,
        burst in 1usize..60,
        pops_between in 0usize..3,
    ) {
        let mut script = Vec::new();
        for _ in 0..burst {
            script.push((true, cycle));
            for _ in 0..pops_between {
                script.push((false, 0));
            }
        }
        run_differential(&script);
    }
}

/// Executable spec of the tier bookkeeping: classifies each push exactly
/// the way `EventQueue::push` routes it (behind the cursor -> past,
/// within the ring window -> ring, else far) and tracks per-tier
/// residency, mirroring the cursor rule (ring/far pops advance the
/// cursor to the popped cycle; past pops leave it alone).
struct TierRef {
    cursor: u64,
    tier_of: std::collections::HashMap<u64, usize>, // tag -> tier index
    resident: [u64; 3],                             // ring, far, past
    stats: sb_engine::QueueTierStats,
}

impl TierRef {
    const RING: u64 = 1024; // EventQueue's documented near-future window

    fn new() -> Self {
        TierRef {
            cursor: 0,
            tier_of: std::collections::HashMap::new(),
            resident: [0; 3],
            stats: sb_engine::QueueTierStats::default(),
        }
    }

    fn push(&mut self, at: u64, tag: u64) {
        let tier = if at < self.cursor {
            2
        } else if at - self.cursor < Self::RING {
            0
        } else {
            1
        };
        self.tier_of.insert(tag, tier);
        self.resident[tier] += 1;
        match tier {
            0 => {
                self.stats.ring_pushes += 1;
                self.stats.ring_hwm = self.stats.ring_hwm.max(self.resident[0]);
            }
            1 => {
                self.stats.far_pushes += 1;
                self.stats.far_hwm = self.stats.far_hwm.max(self.resident[1]);
            }
            _ => {
                self.stats.past_pushes += 1;
                self.stats.past_hwm = self.stats.past_hwm.max(self.resident[2]);
            }
        }
    }

    fn pop(&mut self, at: u64, tag: u64) {
        let tier = self.tier_of.remove(&tag).expect("popped unknown tag");
        self.resident[tier] -= 1;
        if tier != 2 {
            self.cursor = at;
        }
    }
}

/// The tier counters must match the reference classification at every
/// step of a random cross-tier script — and keeping them must not
/// perturb pop order (checked against the heap reference in the same
/// loop).
#[test]
fn tier_counters_match_reference_classification() {
    let mut rng = proptest::rng_for("tier_counters_match_reference_classification", 0);
    for _ in 0..200 {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut t = TierRef::new();
        for tag in 0..(1 + rng.below(80)) {
            if rng.below(3) == 0 {
                let got = q.pop();
                assert_eq!(got, r.pop());
                if let Some((at, tag)) = got {
                    t.pop(at.as_u64(), tag);
                }
            }
            let c = match rng.below(4) {
                0 => rng.below(8),           // dense ties near zero
                1 => rng.below(1024),        // ring window
                2 => 1020 + rng.below(10),   // straddling the ring edge
                _ => 1024 + rng.below(9000), // far-future overflow
            };
            q.push(Cycle(c), tag);
            r.push(Cycle(c), tag);
            t.push(c, tag);
            assert_eq!(q.tier_stats(), t.stats, "after push of tag {tag} at {c}");
        }
        // Draining changes no push counters and no high-water marks.
        let before = q.tier_stats();
        while let Some((at, tag)) = q.pop() {
            assert_eq!(Some((at, tag)), r.pop());
            t.pop(at.as_u64(), tag);
        }
        assert!(r.pop().is_none());
        assert_eq!(q.tier_stats(), before, "pops must not change tier stats");
        assert_eq!(
            before.total_pushes(),
            r.next_seq,
            "every scheduled event was counted in exactly one tier"
        );
    }
}

/// Tier stats survive `clear()` — the drain between superphases must not
/// erase the run's occupancy record — and `merge` sums every field.
#[test]
fn tier_stats_survive_clear_and_merge_sums() {
    let mut q = EventQueue::new();
    q.push(Cycle(1), 0u64); // ring
    q.push(Cycle(5000), 1); // far
    q.push(Cycle(100), 2); // ring
    q.pop(); // cursor -> 1
    q.push(Cycle(0), 3); // past
    let s = q.tier_stats();
    assert_eq!((s.ring_pushes, s.far_pushes, s.past_pushes), (2, 1, 1));
    assert_eq!((s.ring_hwm, s.far_hwm, s.past_hwm), (2, 1, 1));
    q.clear();
    assert!(q.is_empty());
    assert_eq!(q.tier_stats(), s, "clear() must keep the stats");

    let mut other = sb_engine::QueueTierStats {
        ring_pushes: 10,
        far_pushes: 20,
        past_pushes: 30,
        ring_hwm: 4,
        far_hwm: 5,
        past_hwm: 6,
    };
    other.merge(&s);
    assert_eq!(
        other,
        sb_engine::QueueTierStats {
            ring_pushes: 12,
            far_pushes: 21,
            past_pushes: 31,
            ring_hwm: 6,
            far_hwm: 6,
            past_hwm: 7,
        }
    );
    assert_eq!(other.total_pushes(), 64);
}
