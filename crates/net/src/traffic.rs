//! Message sizes and traffic classification.

use std::fmt;

/// Flit width in bits. Multi-flit messages pay one extra cycle of
/// serialization per additional flit.
pub const FLIT_BITS: u32 = 128;

/// Wire size of a message.
///
/// The paper's traffic study (Figures 18–19) distinguishes *large* commit
/// messages — the ones carrying 2 Kbit signatures (`commit request` and
/// `bulk inv` in ScalableBulk) — from everything else, which fits in a flit
/// or two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgSize {
    /// Control message: tag + a few fields; one flit.
    Small,
    /// A message carrying a cache line (32 B data + header); 3 flits.
    Line,
    /// A message carrying one address signature (2 Kbit + header).
    Signature,
    /// A message carrying two signatures (R and W, e.g. `commit request`).
    SignaturePair,
}

impl MsgSize {
    /// Size in flits. Signatures travel *compressed* (§3.2 of the paper:
    /// "the compressed R and W signatures and this list are sent"):
    /// chunk footprints set a few dozen bits of the 2 Kbit register, so
    /// position-coding shrinks them by roughly 5×.
    pub fn flits(self) -> u32 {
        match self {
            MsgSize::Small => 1,
            MsgSize::Line => 1 + 256 / FLIT_BITS, // header + 32 B payload
            MsgSize::Signature => 4,
            MsgSize::SignaturePair => 7,
        }
    }

    /// Whether Figures 18–19 would count this as a "large" message.
    pub fn is_large(self) -> bool {
        matches!(self, MsgSize::Signature | MsgSize::SignaturePair)
    }
}

/// The five traffic classes of Figures 18 and 19.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Read of a cache line from memory.
    MemRd,
    /// Read of a cache line from another cache in state shared.
    RemoteShRd,
    /// Read of a cache line from another cache in state dirty.
    RemoteDirtyRd,
    /// Commit-protocol message carrying a signature (large).
    LargeCMessage,
    /// Any other commit-protocol message (small).
    SmallCMessage,
}

impl TrafficClass {
    /// All five classes, in the order the paper's figures stack them.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::MemRd,
        TrafficClass::RemoteShRd,
        TrafficClass::RemoteDirtyRd,
        TrafficClass::LargeCMessage,
        TrafficClass::SmallCMessage,
    ];

    /// Stable index of this class into length-5 per-class tables (same
    /// order as [`TrafficClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            TrafficClass::MemRd => 0,
            TrafficClass::RemoteShRd => 1,
            TrafficClass::RemoteDirtyRd => 2,
            TrafficClass::LargeCMessage => 3,
            TrafficClass::SmallCMessage => 4,
        }
    }

    /// The paper's label for this class.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::MemRd => "MemRd",
            TrafficClass::RemoteShRd => "RemoteShRd",
            TrafficClass::RemoteDirtyRd => "RemoteDirtyRd",
            TrafficClass::LargeCMessage => "LargeCMessage",
            TrafficClass::SmallCMessage => "SmallCMessage",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-class message and flit tallies.
///
/// # Examples
///
/// ```
/// use sb_net::{MsgSize, TrafficClass, TrafficCounters};
///
/// let mut t = TrafficCounters::new();
/// t.record(TrafficClass::MemRd, MsgSize::Line);
/// t.record(TrafficClass::SmallCMessage, MsgSize::Small);
/// assert_eq!(t.total_messages(), 2);
/// assert_eq!(t.count(TrafficClass::MemRd), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    messages: [u64; 5],
    flits: [u64; 5],
}

impl TrafficCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tallies one message.
    pub fn record(&mut self, class: TrafficClass, size: MsgSize) {
        let i = class.index();
        self.messages[i] += 1;
        self.flits[i] += size.flits() as u64;
    }

    /// Messages recorded in `class`.
    pub fn count(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Flits recorded in `class`.
    pub fn flits(&self, class: TrafficClass) -> u64 {
        self.flits[class.index()]
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total flits across classes.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Wire bytes recorded in `class` (`FLIT_BITS` per flit).
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.flits(class) * (FLIT_BITS as u64 / 8)
    }

    /// Total wire bytes across classes.
    pub fn total_bytes(&self) -> u64 {
        self.total_flits() * (FLIT_BITS as u64 / 8)
    }

    /// Fraction of total messages in `class` (0.0 when empty).
    pub fn fraction(&self, class: TrafficClass) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &TrafficCounters) {
        for i in 0..5 {
            self.messages[i] += other.messages[i];
            self.flits[i] += other.flits[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_sizes_match_geometry() {
        assert_eq!(MsgSize::Small.flits(), 1);
        assert_eq!(MsgSize::Line.flits(), 3);
        assert_eq!(MsgSize::Signature.flits(), 4);
        assert_eq!(MsgSize::SignaturePair.flits(), 7);
        assert!(MsgSize::Signature.is_large());
        assert!(MsgSize::SignaturePair.is_large());
        assert!(!MsgSize::Small.is_large());
        assert!(!MsgSize::Line.is_large());
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = TrafficCounters::new();
        a.record(TrafficClass::MemRd, MsgSize::Line);
        a.record(TrafficClass::LargeCMessage, MsgSize::SignaturePair);
        let mut b = TrafficCounters::new();
        b.record(TrafficClass::MemRd, MsgSize::Line);
        a.merge(&b);
        assert_eq!(a.count(TrafficClass::MemRd), 2);
        assert_eq!(a.flits(TrafficClass::MemRd), 6);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.total_flits(), 6 + 7);
        assert_eq!(a.bytes(TrafficClass::MemRd), 6 * 16);
        assert_eq!(a.total_bytes(), (6 + 7) * 16);
        assert!((a.fraction(TrafficClass::MemRd) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(TrafficCounters::new().fraction(TrafficClass::MemRd), 0.0);
    }

    #[test]
    fn all_classes_have_distinct_labels() {
        let labels: Vec<_> = TrafficClass::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), 5);
        assert_eq!(dedup.len(), 5);
        assert_eq!(TrafficClass::MemRd.to_string(), "MemRd");
    }
}
