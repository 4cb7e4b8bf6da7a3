//! Runtime chunk state accumulated by an executing core.

use std::collections::BTreeMap;
use std::sync::Arc;

use sb_mem::{DirId, DirSet, LineAddr, LineSet};
use sb_sigs::{SigHandle, Signature, SignatureConfig};

use crate::tag::ChunkTag;

/// The state a core builds up while executing one chunk: exact read/write
/// sets (the cache's speculative state), the R and W signatures, and the
/// set of home directory modules touched (`g_vec`), split by whether the
/// directory saw a write or only reads — the paper's Figures 9–10 chart
/// exactly this split ("Write Group" vs "Read Group").
///
/// All of it depends only on the distinct (line, kind) pairs the chunk
/// touches, so a repeated load or store of a line costs one set probe:
/// only the first touch of each pair inserts into a signature and
/// records its home directory. The signatures therefore count distinct
/// lines ([`Signature::inserted_count`] is `read_set().len()` and
/// `write_set().len()`), and a line's home must not change within a
/// chunk — only its first touch's home is recorded.
///
/// # Examples
///
/// ```
/// use sb_chunks::{ActiveChunk, ChunkTag};
/// use sb_mem::{CoreId, DirId, LineAddr};
/// use sb_sigs::SignatureConfig;
///
/// let mut c = ActiveChunk::new(ChunkTag::new(CoreId(0), 0), SignatureConfig::paper_default());
/// c.record_read(LineAddr(1), DirId(2));
/// c.record_write(LineAddr(9), DirId(5));
/// let req = c.to_commit_request();
/// assert_eq!(req.g_vec.len(), 2);
/// assert_eq!(req.write_dirs.len(), 1);
/// assert!(req.wsig.test(9));
/// ```
#[derive(Clone, Debug)]
pub struct ActiveChunk {
    tag: ChunkTag,
    /// Built in place while the chunk runs (the handle is unshared, so
    /// `make_mut` mutates without copying); sealed into the commit
    /// request by an O(1) `share`.
    rsig: SigHandle,
    wsig: SigHandle,
    rset: LineSet,
    wset: LineSet,
    read_dirs: DirSet,
    write_dirs: DirSet,
    write_lines_per_dir: BTreeMap<DirId, u32>,
    instructions_done: u64,
}

impl ActiveChunk {
    /// Creates an empty chunk with the given tag.
    pub fn new(tag: ChunkTag, sig_cfg: SignatureConfig) -> Self {
        Self::with_sets(tag, sig_cfg, Default::default())
    }

    /// An empty chunk that records into `sets` (a retired chunk's
    /// read/write set storage, cleared here; clearing keeps capacity).
    pub(crate) fn with_sets(
        tag: ChunkTag,
        sig_cfg: SignatureConfig,
        [mut rset, mut wset]: [LineSet; 2],
    ) -> Self {
        rset.clear();
        wset.clear();
        ActiveChunk {
            tag,
            rsig: SigHandle::empty(sig_cfg),
            wsig: SigHandle::empty(sig_cfg),
            rset,
            wset,
            read_dirs: DirSet::empty(),
            write_dirs: DirSet::empty(),
            write_lines_per_dir: BTreeMap::new(),
            instructions_done: 0,
        }
    }

    /// The chunk's read/write set storage, for reuse by
    /// [`ActiveChunk::with_sets`].
    pub(crate) fn into_sets(self) -> [LineSet; 2] {
        [self.rset, self.wset]
    }

    /// The chunk's tag.
    pub fn tag(&self) -> ChunkTag {
        self.tag
    }

    /// Records a load of `line` whose home is `home`.
    pub fn record_read(&mut self, line: LineAddr, home: DirId) {
        self.record(line, false, || home);
    }

    /// Records a store to `line` whose home is `home`.
    pub fn record_write(&mut self, line: LineAddr, home: DirId) {
        self.record(line, true, || home);
    }

    /// Records a store (`is_write`) or load of `line` and returns whether
    /// the (line, kind) pair is new to the chunk. Only a new pair updates
    /// the signature and directory sets, and only a new pair calls `home`
    /// for the line's home directory.
    pub fn record(&mut self, line: LineAddr, is_write: bool, home: impl FnOnce() -> DirId) -> bool {
        let (set, sig, dirs) = if is_write {
            (&mut self.wset, &mut self.wsig, &mut self.write_dirs)
        } else {
            (&mut self.rset, &mut self.rsig, &mut self.read_dirs)
        };
        if !set.insert(line) {
            return false;
        }
        let home = home();
        sig.make_mut().insert(line.as_u64());
        dirs.insert(home);
        if is_write {
            *self.write_lines_per_dir.entry(home).or_insert(0) += 1;
        }
        true
    }

    /// Advances the retired-instruction count.
    pub fn retire_instructions(&mut self, n: u64) {
        self.instructions_done += n;
    }

    /// Dynamic instructions retired so far.
    pub fn instructions_done(&self) -> u64 {
        self.instructions_done
    }

    /// The read signature.
    pub fn rsig(&self) -> &Signature {
        self.rsig.as_signature()
    }

    /// The write signature.
    pub fn wsig(&self) -> &Signature {
        self.wsig.as_signature()
    }

    /// Exact read set, unordered: the core's squash decision tests it
    /// line by line against incoming W signatures.
    pub fn read_set(&self) -> &LineSet {
        &self.rset
    }

    /// Exact write set, unordered.
    pub fn write_set(&self) -> &LineSet {
        &self.wset
    }

    /// Directories that recorded at least one write.
    pub fn write_dirs(&self) -> DirSet {
        self.write_dirs.clone()
    }

    /// Directories that recorded only reads.
    pub fn read_only_dirs(&self) -> DirSet {
        self.read_dirs.difference(&self.write_dirs)
    }

    /// All directories in the chunk's read- and write-sets (`g_vec`).
    pub fn g_vec(&self) -> DirSet {
        self.read_dirs.union(&self.write_dirs)
    }

    /// Whether an incoming committed write signature collides with this
    /// chunk (bulk disambiguation): true iff `other_w ∩ (R ∪ W)` is
    /// non-null under the conservative signature test.
    pub fn conflicts_with_writer(&self, other_w: &Signature) -> bool {
        other_w.intersects(&self.rsig) || other_w.intersects(&self.wsig)
    }

    /// Seals the chunk into the commit-request payload sent to the
    /// directories. O(1) in the signature size: the request shares the
    /// chunk's signature storage (a later in-place edit of the chunk
    /// would copy-on-write, leaving the request unaffected).
    pub fn to_commit_request(&self) -> CommitRequest {
        CommitRequest {
            tag: self.tag,
            rsig: self.rsig.share(),
            wsig: self.wsig.share(),
            g_vec: self.g_vec(),
            write_dirs: self.write_dirs.clone(),
            read_lines: self.rset.len() as u32,
            write_lines: self.wset.len() as u32,
            write_lines_per_dir: self
                .write_lines_per_dir
                .iter()
                .map(|(d, n)| (*d, *n))
                .collect(),
        }
    }

    /// Number of directories in `g_vec`.
    pub fn touched_dirs_count(&self) -> u32 {
        self.g_vec().len()
    }
}

/// The payload of a `commit request` message (Table 1): chunk tag, both
/// signatures, and the directory vector. Counts of exact lines ride along
/// for statistics only.
///
/// `Clone` allocates nothing, at any machine size: the signatures are
/// [`SigHandle`]s and the per-directory write counts a shared slice, so
/// both clone by refcount, and the directory sets are inline or share
/// their spill (see [`sb_mem::IdSet`]). The protocols clone this
/// payload once per group member, per hop and per retry.
#[derive(Clone, Debug)]
pub struct CommitRequest {
    /// Chunk tag (`C_Tag`).
    pub tag: ChunkTag,
    /// Read signature (`R_Sig`), shared — see [`SigHandle`].
    pub rsig: SigHandle,
    /// Write signature (`W_Sig`), shared — see [`SigHandle`].
    pub wsig: SigHandle,
    /// Directory modules in the chunk's read- and write-sets (`g_vec`).
    pub g_vec: DirSet,
    /// The subset of `g_vec` that recorded at least one write.
    pub write_dirs: DirSet,
    /// Exact distinct lines read (statistics only).
    pub read_lines: u32,
    /// Exact distinct lines written (statistics only).
    pub write_lines: u32,
    /// Distinct written lines per home directory, ascending by directory —
    /// Scalable TCC sends one `mark` message per written line to the
    /// line's home directory, so its model needs these counts. Shared
    /// between clones.
    pub write_lines_per_dir: Arc<[(DirId, u32)]>,
}

impl CommitRequest {
    /// The group leader under the baseline policy: the lowest-numbered
    /// participating module (§3.2).
    pub fn leader(&self) -> Option<DirId> {
        self.g_vec.lowest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_mem::CoreId;

    fn chunk() -> ActiveChunk {
        ActiveChunk::new(
            ChunkTag::new(CoreId(1), 0),
            SignatureConfig::paper_default(),
        )
    }

    #[test]
    fn records_sets_and_dirs() {
        let mut c = chunk();
        c.record_read(LineAddr(10), DirId(0));
        c.record_read(LineAddr(11), DirId(3));
        c.record_write(LineAddr(20), DirId(3));
        assert_eq!(c.read_set().len(), 2);
        assert_eq!(c.write_set().len(), 1);
        assert_eq!(c.g_vec().len(), 2);
        assert_eq!(c.write_dirs().iter().collect::<Vec<_>>(), vec![DirId(3)]);
        assert_eq!(
            c.read_only_dirs().iter().collect::<Vec<_>>(),
            vec![DirId(0)]
        );
        assert!(c.rsig().test(10));
        assert!(c.wsig().test(20));
        assert!(!c.wsig().test(10));
    }

    #[test]
    fn dir_that_sees_read_and_write_is_write_group() {
        let mut c = chunk();
        c.record_read(LineAddr(1), DirId(2));
        c.record_write(LineAddr(2), DirId(2));
        assert!(c.write_dirs().contains(DirId(2)));
        assert!(c.read_only_dirs().is_empty());
        assert_eq!(c.touched_dirs_count(), 1);
    }

    #[test]
    fn conflict_detection_via_signatures() {
        let mut c = chunk();
        c.record_read(LineAddr(100), DirId(0));
        let w_hit = Signature::from_lines(SignatureConfig::paper_default(), [100u64]);
        let w_miss = Signature::from_lines(SignatureConfig::paper_default(), [555_555u64]);
        assert!(c.conflicts_with_writer(&w_hit));
        assert!(!c.conflicts_with_writer(&w_miss));
        // Write-write conflicts too.
        c.record_write(LineAddr(200), DirId(0));
        let ww = Signature::from_lines(SignatureConfig::paper_default(), [200u64]);
        assert!(c.conflicts_with_writer(&ww));
    }

    #[test]
    fn commit_request_snapshot() {
        let mut c = chunk();
        c.record_read(LineAddr(1), DirId(1));
        c.record_write(LineAddr(2), DirId(4));
        c.record_write(LineAddr(3), DirId(6));
        c.retire_instructions(2000);
        let req = c.to_commit_request();
        assert_eq!(req.tag, c.tag());
        assert_eq!(req.read_lines, 1);
        assert_eq!(req.write_lines, 2);
        assert_eq!(req.leader(), Some(DirId(1)));
        assert_eq!(
            req.g_vec
                .difference(&req.write_dirs)
                .iter()
                .collect::<Vec<_>>(),
            vec![DirId(1)]
        );
        assert_eq!(c.instructions_done(), 2000);
    }

    #[test]
    fn empty_chunk_has_no_leader() {
        let req = chunk().to_commit_request();
        assert_eq!(req.leader(), None);
        assert!(req.g_vec.is_empty());
    }

    mod props {
        use super::*;
        use crate::ChunkWindow;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// Signature geometries of the model test: the paper's, a small
        /// alias-prone one, and a one-bank one.
        const GEOMETRIES: [(u32, u32); 3] = [(2048, 4), (256, 4), (512, 1)];

        /// The `sel`-th line of a `universe`-line pool: few distinct
        /// lines, so a sequence repeats them heavily.
        fn line_of(sel: u64, universe: u64) -> LineAddr {
            LineAddr(0x4_0000 + sel % universe * 37)
        }

        /// A home that depends only on the line, over more than 64
        /// modules so the directory sets spill past one word.
        fn home_of(line: LineAddr) -> DirId {
            DirId((line.as_u64() % 97) as u16)
        }

        /// Checks `c` against a reference built from the distinct
        /// (line, kind) pairs of `accesses`.
        fn assert_matches_model(c: &ActiveChunk, accesses: &[(LineAddr, bool)], universe: u64) {
            let cfg = c.rsig().config();
            let reads: BTreeSet<LineAddr> = accesses.iter().filter(|a| !a.1).map(|a| a.0).collect();
            let writes: BTreeSet<LineAddr> = accesses.iter().filter(|a| a.1).map(|a| a.0).collect();
            let rsig = Signature::from_lines(cfg, reads.iter().map(|l| l.as_u64()));
            let wsig = Signature::from_lines(cfg, writes.iter().map(|l| l.as_u64()));
            for sel in 0..universe {
                let l = line_of(sel, universe).as_u64();
                assert_eq!(c.rsig().test(l), rsig.test(l), "R membership of {l:#x}");
                assert_eq!(c.wsig().test(l), wsig.test(l), "W membership of {l:#x}");
                let probe = Signature::from_lines(cfg, [l]);
                assert_eq!(
                    c.conflicts_with_writer(&probe),
                    probe.intersects(&rsig) || probe.intersects(&wsig),
                    "conflict with {l:#x}"
                );
            }
            assert_eq!(c.rsig().occupancy(), rsig.occupancy());
            assert_eq!(c.wsig().occupancy(), wsig.occupancy());
            // Bits and insert counts: the signatures count distinct lines.
            assert_eq!(c.rsig(), &rsig);
            assert_eq!(c.wsig(), &wsig);
            assert_eq!(c.read_set().iter().copied().collect::<BTreeSet<_>>(), reads);
            assert_eq!(
                c.write_set().iter().copied().collect::<BTreeSet<_>>(),
                writes
            );
            let dirs = |lines: &BTreeSet<LineAddr>| -> BTreeSet<DirId> {
                lines.iter().map(|&l| home_of(l)).collect()
            };
            let (read_dirs, write_dirs) = (dirs(&reads), dirs(&writes));
            let ids = |d: DirSet| d.iter().collect::<BTreeSet<_>>();
            assert_eq!(ids(c.write_dirs()), write_dirs);
            assert_eq!(
                ids(c.read_only_dirs()),
                &read_dirs - &write_dirs,
                "read-only dirs"
            );
            assert_eq!(ids(c.g_vec()), &read_dirs | &write_dirs);
            let mut per_dir = BTreeMap::new();
            for &l in &writes {
                *per_dir.entry(home_of(l)).or_insert(0u32) += 1;
            }
            let req = c.to_commit_request();
            assert_eq!(
                req.write_lines_per_dir.to_vec(),
                per_dir.into_iter().collect::<Vec<_>>()
            );
            assert_eq!(req.read_lines as usize, reads.len());
            assert_eq!(req.write_lines as usize, writes.len());
            assert_eq!(ids(req.g_vec), &read_dirs | &write_dirs);
            assert_eq!(ids(req.write_dirs), write_dirs);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Two chunks in a row on one window (the second reuses the
            /// set storage of the first, retired or squashed) record
            /// random, heavily repeating interleavings of loads and
            /// stores to the same lines; each agrees with its
            /// distinct-pair reference.
            #[test]
            fn prop_dedup_matches_distinct_pair_model(
                geometry in 0usize..GEOMETRIES.len(),
                universe in 1u64..48,
                first in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..300),
                second in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..300),
                squash in any::<bool>(),
            ) {
                let (bits, banks) = GEOMETRIES[geometry];
                let mut w = ChunkWindow::new(CoreId(3), 2, SignatureConfig::new(bits, banks));
                for ops in [first, second] {
                    let tag = w.start_chunk().expect("free slot");
                    let c = &mut w.youngest_mut().expect("started").chunk;
                    let accesses: Vec<(LineAddr, bool)> = ops
                        .iter()
                        .map(|&(sel, is_write)| (line_of(sel, universe), is_write))
                        .collect();
                    for &(line, is_write) in &accesses {
                        if is_write {
                            c.record_write(line, home_of(line));
                        } else {
                            c.record_read(line, home_of(line));
                        }
                    }
                    assert_matches_model(c, &accesses, universe);
                    if squash {
                        assert_eq!(w.squash_from(tag), vec![tag]);
                    } else {
                        w.mark_commit_pending(tag);
                        assert_eq!(w.retire_oldest(), tag);
                    }
                }
            }
        }
    }
}
