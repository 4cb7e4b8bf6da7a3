//! A deterministic priority event queue.
//!
//! Implemented as a hierarchical **calendar queue** tuned for the
//! simulator's event mix: per-hop wire/queue latencies and service
//! occupancies land a handful of cycles in the future, so the earliest
//! [`RING`] cycles get O(1) direct-mapped buckets, while the rare
//! far-future event (long backoffs, timers) falls back to a binary heap.
//! The observable contract is identical to the previous
//! `BinaryHeap`-based implementation — earliest `(cycle, insertion
//! sequence)` first, same-cycle FIFO — and is locked down by the
//! differential tests in `tests/bucket_queue.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::clock::Cycle;

/// Width of the near-future bucket ring in cycles (power of two). Events
/// scheduled less than `RING` cycles ahead of the queue's cursor go into
/// a direct-mapped per-cycle bucket; everything further out waits in the
/// overflow heap.
const RING: usize = 1024;
const MASK: u64 = (RING as u64) - 1;
/// Occupancy bitmap words (one bit per bucket).
const WORDS: usize = RING / 64;

/// An entry in the overflow heaps. Ordered by time, then by insertion
/// sequence number, so that two events scheduled for the same cycle
/// dequeue in the order they were scheduled. `BinaryHeap` is a max-heap,
/// hence the reversed comparisons.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the entry with the *smallest* (at, seq) is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Lifetime push counts and resident high-water marks per calendar-queue
/// tier — cheap introspection counters for the simulator's self-profiling
/// report. Counting never touches ordering state, so it cannot perturb
/// FIFO order (the differential tests in `tests/bucket_queue.rs` pin
/// this).
///
/// `ring` is the direct-mapped near-future bucket ring (the O(1) fast
/// path), `far` the overflow heap for events ≥ [`RING`] cycles ahead,
/// `past` the behind-cursor heap (empty in a monotone simulation). A
/// large `far_pushes` share or a non-zero `past_pushes` means the event
/// mix has outgrown the ring tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueTierStats {
    /// Events that landed in the near-future bucket ring.
    pub ring_pushes: u64,
    /// Events that landed in the far-future overflow heap.
    pub far_pushes: u64,
    /// Events pushed behind the cursor.
    pub past_pushes: u64,
    /// Most events simultaneously resident in the ring.
    pub ring_hwm: u64,
    /// Most events simultaneously resident in the far heap.
    pub far_hwm: u64,
    /// Most events simultaneously resident in the past heap.
    pub past_hwm: u64,
}

impl QueueTierStats {
    /// Accumulates another queue's stats into this one: push counts sum;
    /// high-water marks also sum, giving an upper bound on simultaneous
    /// residency across the merged queues (the per-queue peaks need not
    /// coincide).
    pub fn merge(&mut self, other: &QueueTierStats) {
        self.ring_pushes += other.ring_pushes;
        self.far_pushes += other.far_pushes;
        self.past_pushes += other.past_pushes;
        self.ring_hwm += other.ring_hwm;
        self.far_hwm += other.far_hwm;
        self.past_hwm += other.past_hwm;
    }

    /// Total pushes across all tiers.
    pub fn total_pushes(&self) -> u64 {
        self.ring_pushes + self.far_pushes + self.past_pushes
    }
}

/// A future-event list with deterministic FIFO tie-breaking.
///
/// Unlike a plain `BinaryHeap<(Cycle, E)>`, two events pushed for the same
/// cycle always pop in push order, which makes whole-simulation runs exactly
/// reproducible regardless of payload contents.
///
/// # Examples
///
/// ```
/// use sb_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'b');
/// q.push(Cycle(1), 'a');
/// q.push(Cycle(3), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Direct-mapped per-cycle buckets for events within `RING` cycles of
    /// `cursor`. Bucket `c & MASK` holds only events at exactly cycle `c`
    /// (the window is never wider than the ring, so slots cannot alias);
    /// within a bucket, entries sit in push order — FIFO by construction.
    ring: Vec<VecDeque<(u64, E)>>,
    /// One occupancy bit per bucket, so finding the next non-empty bucket
    /// is a word scan rather than a walk over every bucket `VecDeque`.
    occupied: [u64; WORDS],
    /// Events in the ring.
    ring_len: usize,
    /// Cycle of the most recently popped event: the lower bound of the
    /// ring window `[cursor, cursor + RING)`. Monotonically non-decreasing.
    cursor: u64,
    /// Events scheduled `RING` or more cycles ahead of `cursor` at push
    /// time. May hold events that have since entered the ring window;
    /// `pop` resolves the race by comparing `(cycle, seq)` across sources.
    far: BinaryHeap<Entry<E>>,
    /// Events pushed *behind* the cursor (never happens in a monotone
    /// simulation, but the contract allows it and the differential tests
    /// exercise it). Always earlier than anything in the ring or `far`.
    past: BinaryHeap<Entry<E>>,
    len: usize,
    next_seq: u64,
    /// Tier push counts and high-water marks (see [`QueueTierStats`]).
    /// Pure bookkeeping: never read by the scheduling logic.
    tiers: QueueTierStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            ring_len: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            past: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            tiers: QueueTierStats::default(),
        }
    }

    /// Creates an empty queue with room for `cap` far-future events
    /// before the overflow heap reallocates (near-future events live in
    /// the bucket ring, which grows per bucket on demand).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.far.reserve(cap);
        q
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// The FIFO tie-break counter is 64-bit, so it cannot realistically
    /// wrap within one simulation; if it ever does (debug builds assert),
    /// the push still succeeds with a wrapped sequence number rather than
    /// aborting the process in release builds.
    pub fn push(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        debug_assert!(
            seq != u64::MAX,
            "EventQueue sequence counter exhausted; FIFO tie-breaking would wrap"
        );
        self.next_seq = self.next_seq.wrapping_add(1);
        self.len += 1;
        let t = at.as_u64();
        if t < self.cursor {
            self.past.push(Entry { at, seq, payload });
            self.tiers.past_pushes += 1;
            self.tiers.past_hwm = self.tiers.past_hwm.max(self.past.len() as u64);
        } else if t - self.cursor < RING as u64 {
            let idx = (t & MASK) as usize;
            if self.ring[idx].is_empty() {
                self.occupied[idx / 64] |= 1u64 << (idx % 64);
            }
            self.ring[idx].push_back((seq, payload));
            self.ring_len += 1;
            self.tiers.ring_pushes += 1;
            self.tiers.ring_hwm = self.tiers.ring_hwm.max(self.ring_len as u64);
        } else {
            self.far.push(Entry { at, seq, payload });
            self.tiers.far_pushes += 1;
            self.tiers.far_hwm = self.tiers.far_hwm.max(self.far.len() as u64);
        }
    }

    /// Cycle of the earliest occupied ring bucket (within the window
    /// `[cursor, cursor + RING)`), found by a circular bitmap scan
    /// starting at the cursor's slot.
    #[inline]
    fn ring_min(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.cursor & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // Bits at and after the cursor within its word.
        let head = self.occupied[sw] >> sb;
        if head != 0 {
            return Some(self.cursor + head.trailing_zeros() as u64);
        }
        // Remaining words in circular order, then the cursor word's low
        // bits (the slots that wrapped past the end of the window).
        for step in 1..=WORDS {
            let w = (sw + step) % WORDS;
            let bits = if step == WORDS {
                // Back at the cursor word: only the bits below `sb`.
                self.occupied[sw] & ((1u64 << sb) - 1)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                let dist = (idx as u64).wrapping_sub(start as u64) & MASK;
                return Some(self.cursor + dist);
            }
        }
        unreachable!("ring_len > 0 but no occupancy bit set");
    }

    /// Pops the front of the bucket for cycle `c` (which must be occupied).
    fn pop_bucket(&mut self, c: u64) -> (Cycle, E) {
        let idx = (c & MASK) as usize;
        let (_seq, payload) = self.ring[idx].pop_front().expect("occupied bucket");
        if self.ring[idx].is_empty() {
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        }
        self.ring_len -= 1;
        self.len -= 1;
        self.cursor = c;
        (Cycle(c), payload)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Same-cycle ties resolve in push order even when the tied events
    /// live in different tiers (ring vs overflow heap).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        // Anything pushed behind the cursor precedes all ring/far content
        // (those are at or after the cursor by the window invariants).
        if !self.past.is_empty() {
            let e = self.past.pop().expect("non-empty");
            self.len -= 1;
            return Some((e.at, e.payload));
        }
        let rc = self.ring_min();
        let fc = self.far.peek().map(|e| (e.at.as_u64(), e.seq));
        match (rc, fc) {
            (Some(c), None) => Some(self.pop_bucket(c)),
            (None, Some(_)) => {
                let e = self.far.pop().expect("peeked");
                self.cursor = e.at.as_u64();
                self.len -= 1;
                Some((e.at, e.payload))
            }
            (Some(c), Some((fat, fseq))) => {
                // The far heap can hold events whose cycle has entered the
                // ring window since they were pushed; FIFO then needs a
                // sequence-number comparison at the tie.
                let bucket_front_seq = || {
                    self.ring[(c & MASK) as usize]
                        .front()
                        .map(|(s, _)| *s)
                        .expect("occupied bucket")
                };
                if fat < c || (fat == c && fseq < bucket_front_seq()) {
                    let e = self.far.pop().expect("peeked");
                    self.cursor = e.at.as_u64();
                    self.len -= 1;
                    Some((e.at, e.payload))
                } else {
                    Some(self.pop_bucket(c))
                }
            }
            (None, None) => unreachable!("len > 0 with all tiers empty"),
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    ///
    /// ```
    /// use sb_engine::{Cycle, EventQueue};
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.peek_time(), None);
    /// q.push(Cycle(8), "late");
    /// q.push(Cycle(2), "early");
    /// assert_eq!(q.peek_time(), Some(Cycle(2)));
    /// ```
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<u64> = self.past.peek().map(|e| e.at.as_u64());
        if best.is_none() {
            // past entries are strictly earlier than ring/far ones, so
            // the other tiers only matter when `past` is empty.
            best = self.ring_min();
            if let Some(f) = self.far.peek() {
                let f = f.at.as_u64();
                best = Some(best.map_or(f, |b| b.min(f)));
            }
        }
        best.map(Cycle)
    }

    /// Pops **every** event scheduled for the earliest pending cycle, in
    /// FIFO order, appending them to `out`; returns that cycle (`None` if
    /// the queue is empty). One bulk bucket drain replaces per-event
    /// bookkeeping for the common case where the whole cycle lives in one
    /// ring bucket.
    ///
    /// ```
    /// use std::collections::VecDeque;
    /// use sb_engine::{Cycle, EventQueue};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(Cycle(4), 'a');
    /// q.push(Cycle(9), 'z');
    /// q.push(Cycle(4), 'b');
    /// let mut out = VecDeque::new();
    /// assert_eq!(q.drain_cycle(&mut out), Some(Cycle(4)));
    /// assert_eq!(out, [(Cycle(4), 'a'), (Cycle(4), 'b')]);
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn drain_cycle(&mut self, out: &mut VecDeque<(Cycle, E)>) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        // Fast path: no past events, and the earliest cycle lives entirely
        // in one tier. This is the per-event hot loop, so the earliest
        // cycle is found with a single bitmap scan and a single heap peek.
        if self.past.is_empty() {
            let far_t = self.far.peek().map(|e| e.at.as_u64());
            match (self.ring_min(), far_t) {
                (Some(t), f) if f.is_none_or(|f| f > t) => {
                    let idx = (t & MASK) as usize;
                    let c = Cycle(t);
                    let bucket = &mut self.ring[idx];
                    let n = bucket.len();
                    if n == 1 {
                        // Dominant case in real runs: one event per cycle.
                        let (_, e) = bucket.pop_front().expect("occupied bucket");
                        out.push_back((c, e));
                    } else {
                        out.extend(bucket.drain(..).map(|(_, e)| (c, e)));
                    }
                    self.occupied[idx / 64] &= !(1u64 << (idx % 64));
                    self.ring_len -= n;
                    self.len -= n;
                    self.cursor = t;
                    return Some(c);
                }
                (rc, Some(f)) if rc.is_none_or(|t| t > f) => {
                    // Heap pops already come out in (cycle, seq) order.
                    while self.far.peek().is_some_and(|e| e.at.as_u64() == f) {
                        let e = self.far.pop().expect("peeked");
                        self.len -= 1;
                        out.push_back((e.at, e.payload));
                    }
                    self.cursor = f;
                    return Some(Cycle(f));
                }
                _ => {} // ring/far tied at the same cycle
            }
        }
        // Slow path (ties across tiers, past events): pop one by one —
        // `pop` already merges sources in exact (cycle, seq) order.
        let c = self.peek_time()?;
        while self.peek_time() == Some(c) {
            out.push_back(self.pop().expect("peeked"));
        }
        Some(c)
    }

    /// Horizon-bounded drain: pops every event of the earliest pending
    /// cycle (exactly like [`drain_cycle`]) **iff** that cycle lies
    /// strictly before `horizon`; otherwise leaves the queue untouched
    /// and returns `None`.
    ///
    /// This is the primitive a conservative superphase scheduler needs:
    /// a plane repeatedly calls `advance_until(safe_horizon, ..)` and is
    /// guaranteed never to consume an event at or past the horizon, while
    /// same-cycle pushes made by the dispatched handlers drain on the
    /// *next* call in exact `(cycle, seq)` order — so a loop over
    /// `advance_until` is observationally identical to the serial
    /// pop-loop truncated at the horizon.
    ///
    /// ```
    /// use std::collections::VecDeque;
    /// use sb_engine::{Cycle, EventQueue};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(Cycle(4), 'a');
    /// q.push(Cycle(9), 'z');
    /// let mut out = VecDeque::new();
    /// assert_eq!(q.advance_until(Cycle(9), &mut out), Some(Cycle(4)));
    /// assert_eq!(out, [(Cycle(4), 'a')]);
    /// // Cycle 9 is at the horizon: not drained.
    /// assert_eq!(q.advance_until(Cycle(9), &mut out), None);
    /// assert_eq!(q.len(), 1);
    /// ```
    ///
    /// [`drain_cycle`]: EventQueue::drain_cycle
    pub fn advance_until(
        &mut self,
        horizon: Cycle,
        out: &mut VecDeque<(Cycle, E)>,
    ) -> Option<Cycle> {
        if self.peek_time()? >= horizon {
            return None;
        }
        self.drain_cycle(out)
    }

    /// Number of pending events.
    ///
    /// ```
    /// use sb_engine::{Cycle, EventQueue};
    /// let mut q = EventQueue::new();
    /// q.push(Cycle(1), ());
    /// q.push(Cycle(1), ());
    /// assert_eq!(q.len(), 2);
    /// ```
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    ///
    /// ```
    /// use sb_engine::{Cycle, EventQueue};
    /// let mut q = EventQueue::<u8>::new();
    /// assert!(q.is_empty());
    /// q.push(Cycle(0), 1);
    /// assert!(!q.is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the overflow heap so at least `additional` more far-future
    /// events fit without reallocating. Near-future events are bucketed
    /// and amortize their own growth, so this is a hint, not a hard
    /// pre-size.
    pub fn reserve(&mut self, additional: usize) {
        self.far.reserve(additional);
    }

    /// Lifetime tier push counts and high-water marks. The counters
    /// survive [`clear`](EventQueue::clear).
    ///
    /// ```
    /// use sb_engine::{Cycle, EventQueue};
    /// let mut q = EventQueue::new();
    /// q.push(Cycle(1), ());      // near future: bucket ring
    /// q.push(Cycle(50_000), ()); // far future: overflow heap
    /// let t = q.tier_stats();
    /// assert_eq!((t.ring_pushes, t.far_pushes, t.past_pushes), (1, 1, 0));
    /// assert_eq!((t.ring_hwm, t.far_hwm), (1, 1));
    /// ```
    pub fn tier_stats(&self) -> QueueTierStats {
        self.tiers
    }

    /// Removes every pending event.
    pub fn clear(&mut self) {
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.ring[w * 64 + b].clear();
                bits &= bits - 1;
            }
            self.occupied[w] = 0;
        }
        self.ring_len = 0;
        self.far.clear();
        self.past.clear();
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_seq", &self.next_seq)
            .field("peek_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_remains_deterministic() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), "a");
        q.push(Cycle(5), "b");
        assert_eq!(q.pop(), Some((Cycle(5), "a")));
        q.push(Cycle(5), "c");
        // "b" was scheduled before "c".
        assert_eq!(q.pop(), Some((Cycle(5), "b")));
        assert_eq!(q.pop(), Some((Cycle(5), "c")));
    }

    #[test]
    fn peek_len_and_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(9), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(2)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Events beyond the ring horizon take the overflow-heap path.
        let mut q = EventQueue::new();
        q.push(Cycle(3 * RING as u64), 'c');
        q.push(Cycle(5), 'a');
        q.push(Cycle(RING as u64 + 5), 'b');
        q.push(Cycle(3 * RING as u64), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
    }

    #[test]
    fn far_and_ring_tie_resolves_by_push_order() {
        let mut q = EventQueue::new();
        let t = Cycle(RING as u64 + 100);
        q.push(t, 'x'); // beyond the horizon: goes to the far heap
        q.push(Cycle(RING as u64), 'a'); // also far at push time
        assert_eq!(q.pop(), Some((Cycle(RING as u64), 'a'))); // cursor advances past the horizon
        q.push(t, 'y'); // now within the window: goes to the ring
                        // 'x' was pushed before 'y' — FIFO must hold across tiers.
        assert_eq!(q.pop(), Some((t, 'x')));
        assert_eq!(q.pop(), Some((t, 'y')));
    }

    #[test]
    fn pushes_behind_the_cursor_still_pop_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(50), 'b');
        assert_eq!(q.pop(), Some((Cycle(50), 'b')));
        q.push(Cycle(10), 'a'); // behind the cursor
        q.push(Cycle(60), 'c');
        assert_eq!(q.pop(), Some((Cycle(10), 'a')));
        assert_eq!(q.pop(), Some((Cycle(60), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_cycle_takes_exactly_one_cycle() {
        let mut q = EventQueue::new();
        q.push(Cycle(4), 1);
        q.push(Cycle(7), 9);
        q.push(Cycle(4), 2);
        let mut out = VecDeque::new();
        assert_eq!(q.drain_cycle(&mut out), Some(Cycle(4)));
        assert_eq!(out, [(Cycle(4), 1), (Cycle(4), 2)]);
        out.clear();
        assert_eq!(q.drain_cycle(&mut out), Some(Cycle(7)));
        assert_eq!(out, [(Cycle(7), 9)]);
        out.clear();
        assert_eq!(q.drain_cycle(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn advance_until_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(Cycle(3), 'a');
        q.push(Cycle(3), 'b');
        q.push(Cycle(8), 'c');
        let mut out = VecDeque::new();
        // Horizon below everything: nothing moves.
        assert_eq!(q.advance_until(Cycle(3), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.len(), 3);
        // One cycle strictly inside the horizon drains whole.
        assert_eq!(q.advance_until(Cycle(4), &mut out), Some(Cycle(3)));
        assert_eq!(out, [(Cycle(3), 'a'), (Cycle(3), 'b')]);
        assert_eq!(q.advance_until(Cycle(4), &mut out), None);
        // Raising the horizon releases the rest.
        out.clear();
        assert_eq!(q.advance_until(Cycle(9), &mut out), Some(Cycle(8)));
        assert_eq!(out, [(Cycle(8), 'c')]);
        assert_eq!(q.advance_until(Cycle(u64::MAX), &mut out), None);
    }

    #[test]
    fn advance_until_loop_absorbs_same_cycle_feedback() {
        // A handler that pushes back into the cycle it is draining must
        // see its event on the *next* advance_until call, in FIFO order —
        // the exact semantics of the serial pop loop.
        let mut q = EventQueue::new();
        q.push(Cycle(5), 0);
        let mut out = VecDeque::new();
        let mut seen = Vec::new();
        while let Some(c) = q.advance_until(Cycle(6), &mut out) {
            assert_eq!(c, Cycle(5));
            while let Some((at, e)) = out.pop_front() {
                seen.push(e);
                if e < 3 {
                    q.push(at, e + 1); // same-cycle feedback
                }
            }
        }
        assert_eq!(seen, [0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }
}
