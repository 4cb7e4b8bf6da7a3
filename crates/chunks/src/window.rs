//! The per-core window of in-flight chunks.

use sb_mem::LineSet;
use sb_sigs::Signature;

use crate::active::ActiveChunk;
use crate::tag::ChunkTag;

/// Lifecycle phase of an in-flight chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkPhase {
    /// Still executing instructions.
    Executing,
    /// Finished executing; commit request issued (or about to be), waiting
    /// for commit success/failure.
    CommitPending,
}

/// One slot of the window.
#[derive(Debug)]
pub struct WindowSlot {
    /// The chunk state.
    pub chunk: ActiveChunk,
    /// Its phase.
    pub phase: ChunkPhase,
}

/// The window of in-flight chunks on one core.
///
/// Table 2 allows two active chunks per core: while the older chunk's
/// commit is in flight, the core keeps executing the younger one. Chunks
/// from one core commit strictly in order, and squashing a chunk also
/// squashes every younger chunk from the same core (younger chunks may have
/// consumed the squashed chunk's speculative data).
///
/// # Examples
///
/// ```
/// use sb_chunks::{ChunkWindow, ChunkPhase};
/// use sb_mem::CoreId;
/// use sb_sigs::SignatureConfig;
///
/// let mut w = ChunkWindow::new(CoreId(0), 2, SignatureConfig::paper_default());
/// let t0 = w.start_chunk().unwrap();
/// w.mark_commit_pending(t0);
/// let t1 = w.start_chunk().unwrap();   // second slot
/// assert!(w.start_chunk().is_none());  // window full
/// assert_eq!(w.retire_oldest(), t0);
/// assert_eq!(w.oldest().unwrap().chunk.tag(), t1);
/// ```
#[derive(Debug)]
pub struct ChunkWindow {
    core: sb_mem::CoreId,
    max_active: usize,
    sig_cfg: sb_sigs::SignatureConfig,
    slots: Vec<WindowSlot>,
    /// The read/write set storage of the last chunk to leave the window,
    /// handed to the next chunk so steady-state execution does not regrow
    /// the sets chunk after chunk.
    spare_sets: Option<[LineSet; 2]>,
    next_seq: u64,
    squashes: u64,
}

impl ChunkWindow {
    /// Creates an empty window allowing `max_active` chunks in flight.
    ///
    /// # Panics
    ///
    /// Panics if `max_active` is zero.
    pub fn new(core: sb_mem::CoreId, max_active: usize, sig_cfg: sb_sigs::SignatureConfig) -> Self {
        assert!(max_active >= 1, "window needs at least one slot");
        ChunkWindow {
            core,
            max_active,
            sig_cfg,
            slots: Vec::with_capacity(max_active),
            spare_sets: None,
            next_seq: 0,
            squashes: 0,
        }
    }

    /// Opens a new chunk if a slot is free; returns its tag.
    pub fn start_chunk(&mut self) -> Option<ChunkTag> {
        if self.slots.len() >= self.max_active {
            return None;
        }
        let tag = ChunkTag::new(self.core, self.next_seq);
        self.next_seq += 1;
        let sets = self.spare_sets.take().unwrap_or_default();
        self.slots.push(WindowSlot {
            chunk: ActiveChunk::with_sets(tag, self.sig_cfg, sets),
            phase: ChunkPhase::Executing,
        });
        Some(tag)
    }

    /// Whether a new chunk can start.
    pub fn has_free_slot(&self) -> bool {
        self.slots.len() < self.max_active
    }

    /// The youngest in-flight chunk (the one currently executing), if any.
    pub fn youngest_mut(&mut self) -> Option<&mut WindowSlot> {
        self.slots.last_mut()
    }

    /// The oldest in-flight chunk, if any.
    pub fn oldest(&self) -> Option<&WindowSlot> {
        self.slots.first()
    }

    /// Looks up a slot by tag.
    pub fn get(&self, tag: ChunkTag) -> Option<&WindowSlot> {
        self.slots.iter().find(|s| s.chunk.tag() == tag)
    }

    /// Mutable lookup by tag.
    pub fn get_mut(&mut self, tag: ChunkTag) -> Option<&mut WindowSlot> {
        self.slots.iter_mut().find(|s| s.chunk.tag() == tag)
    }

    /// Marks `tag` as having issued its commit request.
    ///
    /// # Panics
    ///
    /// Panics if the tag is not in the window or is not the oldest
    /// executing chunk (chunks commit in order).
    pub fn mark_commit_pending(&mut self, tag: ChunkTag) {
        let oldest_executing = self
            .slots
            .iter_mut()
            .find(|s| s.phase == ChunkPhase::Executing)
            .expect("no executing chunk");
        assert_eq!(
            oldest_executing.chunk.tag(),
            tag,
            "chunks must request commit in order"
        );
        oldest_executing.phase = ChunkPhase::CommitPending;
    }

    /// Retires the oldest chunk after a successful commit; returns its tag.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the oldest chunk is not
    /// commit-pending.
    pub fn retire_oldest(&mut self) -> ChunkTag {
        let slot = self.slots.first().expect("retire from empty window");
        assert_eq!(
            slot.phase,
            ChunkPhase::CommitPending,
            "only commit-pending chunks retire"
        );
        let tag = slot.chunk.tag();
        self.spare_sets = Some(self.slots.remove(0).chunk.into_sets());
        tag
    }

    /// Squashes `tag` and every younger chunk from this core. Returns the
    /// squashed tags, oldest first (empty if `tag` is not in flight).
    pub fn squash_from(&mut self, tag: ChunkTag) -> Vec<ChunkTag> {
        let Some(pos) = self.slots.iter().position(|s| s.chunk.tag() == tag) else {
            return Vec::new();
        };
        let squashed: Vec<ChunkTag> = self.slots[pos..].iter().map(|s| s.chunk.tag()).collect();
        self.spare_sets = self
            .slots
            .drain(pos..)
            .next_back()
            .map(|s| s.chunk.into_sets());
        self.squashes += squashed.len() as u64;
        squashed
    }

    /// Squashes whichever in-flight chunks conflict with a committed write
    /// signature (and their younger siblings). Returns squashed tags,
    /// oldest first.
    pub fn squash_conflicting(&mut self, wsig: &Signature) -> Vec<ChunkTag> {
        let hit = self
            .slots
            .iter()
            .find(|s| s.chunk.conflicts_with_writer(wsig))
            .map(|s| s.chunk.tag());
        match hit {
            Some(tag) => self.squash_from(tag),
            None => Vec::new(),
        }
    }

    /// Number of chunks in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Total chunks squashed so far.
    pub fn squash_count(&self) -> u64 {
        self.squashes
    }

    /// The owning core.
    pub fn core(&self) -> sb_mem::CoreId {
        self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_mem::{CoreId, DirId, LineAddr};
    use sb_sigs::SignatureConfig;

    fn window() -> ChunkWindow {
        ChunkWindow::new(CoreId(2), 2, SignatureConfig::paper_default())
    }

    #[test]
    fn fills_to_max_active() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        let _t1 = w.start_chunk().unwrap();
        assert!(!w.has_free_slot());
        assert!(w.start_chunk().is_none());
        assert_eq!(w.in_flight(), 2);
    }

    #[test]
    fn tags_are_sequential() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        let t1 = w.start_chunk().unwrap();
        assert_eq!(t1, t0.next());
    }

    #[test]
    fn retire_frees_slot() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        let t1 = w.start_chunk().unwrap();
        assert_eq!(w.retire_oldest(), t0);
        assert!(w.has_free_slot());
        assert_eq!(w.oldest().unwrap().chunk.tag(), t1);
    }

    #[test]
    #[should_panic(expected = "commit in order")]
    fn out_of_order_commit_panics() {
        let mut w = ChunkWindow::new(CoreId(2), 3, SignatureConfig::paper_default());
        let _t0 = w.start_chunk().unwrap();
        let t1 = w.start_chunk().unwrap();
        // t0 is still executing; t1 may not jump the queue.
        w.mark_commit_pending(t1);
    }

    #[test]
    #[should_panic(expected = "no executing chunk")]
    fn double_commit_pending_panics() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        w.mark_commit_pending(t0);
    }

    #[test]
    #[should_panic(expected = "only commit-pending")]
    fn retiring_executing_chunk_panics() {
        let mut w = window();
        w.start_chunk().unwrap();
        w.retire_oldest();
    }

    #[test]
    fn squash_from_takes_younger_too() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        let t1 = w.start_chunk().unwrap();
        let squashed = w.squash_from(t0);
        assert_eq!(squashed, vec![t0, t1]);
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.squash_count(), 2);
        // Squashing an unknown tag is a no-op.
        assert!(w.squash_from(t0).is_empty());
    }

    #[test]
    fn squash_youngest_only() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.mark_commit_pending(t0);
        let t1 = w.start_chunk().unwrap();
        let squashed = w.squash_from(t1);
        assert_eq!(squashed, vec![t1]);
        assert_eq!(w.oldest().unwrap().chunk.tag(), t0);
    }

    #[test]
    fn squash_conflicting_uses_signatures() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.youngest_mut()
            .unwrap()
            .chunk
            .record_read(LineAddr(77), DirId(0));
        w.mark_commit_pending(t0);
        let _t1 = w.start_chunk().unwrap();
        let hit = Signature::from_lines(SignatureConfig::paper_default(), [77u64]);
        let squashed = w.squash_conflicting(&hit);
        assert_eq!(squashed.len(), 2, "older conflicting chunk takes younger");
        let miss = Signature::from_lines(SignatureConfig::paper_default(), [123_456u64]);
        assert!(w.squash_conflicting(&miss).is_empty());
    }

    #[test]
    fn new_chunks_after_squash_get_fresh_tags() {
        let mut w = window();
        let t0 = w.start_chunk().unwrap();
        w.squash_from(t0);
        let t_new = w.start_chunk().unwrap();
        assert_eq!(t_new.seq(), 1, "squashed seq numbers are not reused");
    }
}
