//! A deterministic priority event queue.
//!
//! A binary heap keyed by `(cycle, push sequence)`: the earliest cycle
//! pops first and same-cycle events pop in push order. The contract is
//! locked down by the randomized reference tests in
//! `tests/event_queue.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::clock::Cycle;

/// A heap entry. Ordered by time, then by push sequence number, so that
/// two events scheduled for the same cycle dequeue in the order they
/// were scheduled. `BinaryHeap` is a max-heap, hence the reversed
/// comparisons.
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

/// Lifetime push count and peak length of one queue — cheap
/// introspection counters for the simulator's self-profiling report.
/// Counting never touches ordering state, so it cannot perturb FIFO
/// order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever pushed.
    pub pushes: u64,
    /// Most events simultaneously pending.
    pub peak_len: u64,
}

impl QueueStats {
    /// Accumulates another queue's stats into this one. Both fields sum:
    /// the summed peak bounds the events pending across the merged
    /// queues at any one time (their peaks need not coincide).
    ///
    /// ```
    /// use sb_engine::QueueStats;
    /// let mut a = QueueStats { pushes: 3, peak_len: 2 };
    /// a.merge(&QueueStats { pushes: 10, peak_len: 4 });
    /// assert_eq!(a, QueueStats { pushes: 13, peak_len: 6 });
    /// ```
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushes += other.pushes;
        self.peak_len += other.peak_len;
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
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Push count and peak length (see [`QueueStats`]). Pure
    /// bookkeeping: never read by the scheduling logic.
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            stats: QueueStats::default(),
        }
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
        self.next_seq = seq.wrapping_add(1);
        self.heap.push(Entry { at, seq, payload });
        self.stats.pushes += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.heap.len() as u64);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
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
        self.heap.peek().map(|e| e.at)
    }

    /// Pops **every** event scheduled for the earliest pending cycle, in
    /// FIFO order, appending them to `out`; returns that cycle (`None` if
    /// the queue is empty).
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
        let at = self.peek_time()?;
        while self.heap.peek().is_some_and(|e| e.at == at) {
            let e = self.heap.pop().expect("peeked");
            out.push_back((at, e.payload));
        }
        Some(at)
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
        self.heap.len()
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
        self.heap.is_empty()
    }

    /// Lifetime push count and peak length.
    ///
    /// ```
    /// use sb_engine::{Cycle, EventQueue};
    /// let mut q = EventQueue::new();
    /// q.push(Cycle(1), ());
    /// q.push(Cycle(50_000), ());
    /// q.pop();
    /// q.push(Cycle(2), ());
    /// let s = q.stats();
    /// assert_eq!((s.pushes, s.peak_len), (3, 2));
    /// ```
    pub fn stats(&self) -> QueueStats {
        self.stats
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
            .field("len", &self.len())
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
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(9), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(2)));
    }

    #[test]
    fn pushes_behind_the_last_pop_still_pop_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(50), 'b');
        assert_eq!(q.pop(), Some((Cycle(50), 'b')));
        q.push(Cycle(10), 'a');
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
