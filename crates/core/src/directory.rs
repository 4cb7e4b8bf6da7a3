//! The ScalableBulk directory module (Figure 6) and its state machine.
//!
//! Each module owns a [`Cst`] and processes the message orderings of
//! Appendix A (Tables 4 and 5):
//!
//! * **leader, successful commit**: `R:commit_request → S:g → R:g →
//!   (S:commit_success & S:g_success & S:bulk_inv) → R:bulk_inv_ack* →
//!   S:commit_done`;
//! * **non-leader, successful commit**: `(R:commit_request & R:g) → S:g →
//!   R:g_success → R:commit_done`;
//! * **failure paths**: the Collision module multicasts `g_failure` when it
//!   has both the signature pair and the `g` of a losing group (in any
//!   arrival order, including after a `commit recall`); the leader converts
//!   a received `g_failure` into `commit failure` to the processor.

use std::collections::HashMap;

use sb_chunks::{ChunkTag, CommitRequest};
use sb_mem::{CoreId, CoreSet, DirId, DirSet, LineAddr};
use sb_net::{MsgSize, TrafficClass};
use sb_proto::{Endpoint, MachineView, Outbox, ProtoEvent};

use crate::config::SbConfig;
use crate::cst::{ChunkState, Cst};
use crate::msg::{RecallNote, SbMsg};
use crate::order::{collision_module, leader_of, next_in_order};

/// One ScalableBulk directory module.
#[derive(Clone, Debug)]
pub struct DirModule {
    id: DirId,
    cfg: SbConfig,
    ndirs: u16,
    cst: Cst,
    /// Latest failed attempt per tag; stale messages of failed attempts
    /// are dropped, and commit recalls for already-failed groups discarded.
    failed_attempts: HashMap<ChunkTag, u32>,
    /// Consecutive group-formation failures per tag (starvation counter).
    fail_counts: HashMap<ChunkTag, u32>,
    /// Commit recalls waiting for the dead chunk's messages ("on the
    /// lookout", §3.4).
    lookout: HashMap<ChunkTag, RecallNote>,
    /// Starvation reservation (§3.2.2): while set, every other chunk's
    /// commit request is answered as a collision loss.
    reserved_for: Option<ChunkTag>,
    /// Statistics: groups this module led to successful formation.
    groups_led: u64,
    /// Statistics: group failures this module decided (as Collision
    /// module or through reservation).
    collisions_decided: u64,
}

impl DirModule {
    /// Creates module `id` of a machine with `ndirs` modules.
    pub fn new(id: DirId, ndirs: u16, cfg: SbConfig) -> Self {
        DirModule {
            id,
            cfg,
            ndirs,
            cst: Cst::new(),
            failed_attempts: HashMap::new(),
            fail_counts: HashMap::new(),
            lookout: HashMap::new(),
            reserved_for: None,
            groups_led: 0,
            collisions_decided: 0,
        }
    }

    /// This module's ID.
    pub fn id(&self) -> DirId {
        self.id
    }

    /// The module's CST (read-only; diagnostics and tests).
    pub fn cst(&self) -> &Cst {
        &self.cst
    }

    /// The active starvation reservation, if any.
    pub fn reserved_for(&self) -> Option<ChunkTag> {
        self.reserved_for
    }

    /// (groups led to formation, collisions decided) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.groups_led, self.collisions_decided)
    }

    /// Whether a load of `line` must be nacked: it matches the W signature
    /// of a chunk this module is currently committing (§3.1).
    pub fn read_blocked(&self, line: LineAddr) -> bool {
        self.cst
            .blocking()
            .any(|e| e.req.as_ref().is_some_and(|r| r.wsig.test(line.as_u64())))
    }

    fn attempt_failed_here(&self, tag: ChunkTag, attempt: u32) -> bool {
        self.failed_attempts
            .get(&tag)
            .is_some_and(|&a| a >= attempt)
    }

    /// Removes `tag`'s CST entry, emitting [`ProtoEvent::DirReleased`] if
    /// the entry was blocking (Held/Confirmed). Every removal goes through
    /// here so grab/release events stay balanced per module.
    fn remove_entry(
        &mut self,
        out: &mut Outbox<SbMsg>,
        tag: ChunkTag,
    ) -> Option<crate::cst::CstEntry> {
        let e = self.cst.remove(tag)?;
        if e.blocks() {
            out.event(ProtoEvent::DirReleased { dir: self.id, tag });
        }
        Some(e)
    }

    /// A newer attempt is about to replace `tag`'s entry in place (via
    /// [`Cst::entry_or_insert`]); if the stale entry was blocking, its
    /// grab ends here.
    fn release_stale_attempt(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag, attempt: u32) {
        if let Some(e) = self.cst.get(tag) {
            if e.attempt < attempt && e.blocks() {
                out.event(ProtoEvent::DirReleased { dir: self.id, tag });
            }
        }
    }

    /// Global starvation priority: lower is served first. Two starving
    /// chunks with overlapping groups could otherwise reserve different
    /// modules of each other's groups and block forever; a total order
    /// guarantees the highest-priority starving chunk eventually holds
    /// every reservation it needs.
    fn starvation_priority(tag: ChunkTag) -> (u64, u16) {
        (tag.seq(), tag.core().0)
    }

    fn record_failure(&mut self, tag: ChunkTag, attempt: u32) {
        let e = self.failed_attempts.entry(tag).or_insert(0);
        *e = (*e).max(attempt);
        let count = self.fail_counts.entry(tag).or_insert(0);
        *count += 1;
        if *count >= self.cfg.max_squashes_before_reservation {
            match self.reserved_for {
                None => self.reserved_for = Some(tag),
                Some(cur)
                    if cur != tag
                        && Self::starvation_priority(tag) < Self::starvation_priority(cur) =>
                {
                    self.reserved_for = Some(tag);
                }
                _ => {}
            }
        }
    }

    fn clear_chunk_bookkeeping(&mut self, tag: ChunkTag) {
        self.fail_counts.remove(&tag);
        // `failed_attempts` is deliberately NOT cleared: it is a monotonic
        // per-tag attempt watermark that keeps straggler `g failure`
        // messages from old attempts deduplicated. Clearing it on commit
        // would let stragglers re-accumulate failure counts and reserve
        // the module for a chunk that already committed — a livelock.
        if self.reserved_for == Some(tag) {
            self.reserved_for = None;
        }
    }

    /// True iff `req` overlaps a chunk this module has admitted
    /// (`Wi ∩ Wj ∨ Ri ∩ Wj ∨ Wi ∩ Rj` non-null under the conservative
    /// signature test) — the §3.1 nack condition.
    fn conflicts_with_held(&self, req: &CommitRequest) -> bool {
        self.cst.blocking().any(|e| {
            if e.tag == req.tag {
                return false;
            }
            let held = e.req.as_ref().expect("held entries have signatures");
            req.wsig.intersects(&held.wsig)
                || req.wsig.intersects(&held.rsig)
                || req.rsig.intersects(&held.wsig)
        })
    }

    /// Handles an incoming `commit request`.
    pub fn on_commit_request(
        &mut self,
        view: &dyn MachineView,
        out: &mut Outbox<SbMsg>,
        req: CommitRequest,
        attempt: u32,
        prio_offset: u16,
    ) {
        let tag = req.tag;
        if self.attempt_failed_here(tag, attempt) {
            return; // stale message of an attempt this module already failed
        }
        debug_assert!(req.g_vec.contains(self.id), "request routed to non-member");

        // Starvation reservation: answer every other chunk as a collision
        // loss until the starving chunk commits (§3.2.2). A request from
        // the same core with a higher sequence number proves the starving
        // chunk is dead (its core moved on), releasing the reservation.
        if let Some(res) = self.reserved_for {
            if res != tag {
                let starving_preempts = self
                    .fail_counts
                    .get(&tag)
                    .is_some_and(|&c| c >= self.cfg.max_squashes_before_reservation)
                    && Self::starvation_priority(tag) < Self::starvation_priority(res);
                if res.core() == tag.core() && res.seq() < tag.seq() {
                    // The reserved chunk is provably dead: its core moved on.
                    self.reserved_for = None;
                    self.fail_counts.remove(&res);
                } else if starving_preempts {
                    // This chunk is starving too and globally
                    // higher-priority: take over the reservation.
                    self.reserved_for = Some(tag);
                } else {
                    self.collisions_decided += 1;
                    // A g may have arrived first and allocated an entry;
                    // drop it along with the attempt.
                    self.remove_entry(out, tag);
                    self.fail_incoming(out, &req, attempt, prio_offset);
                    return;
                }
            }
        }

        let local_sharers = view.sharers_matching(self.id, &req.wsig, tag.core());
        let is_leader = leader_of(&req.g_vec, prio_offset, self.ndirs) == Some(self.id);
        self.release_stale_attempt(out, tag, attempt);
        {
            let e = self.cst.entry_or_insert(tag, attempt);
            if e.attempt != attempt {
                return; // stale request; a newer attempt is in progress
            }
            if e.req.is_some() {
                return; // duplicate delivery
            }
            e.req = Some(req.clone());
            e.prio_offset = prio_offset;
            e.committer = tag.core();
            e.local_sharers = local_sharers.clone();
        }

        // A commit recall may already be waiting for this chunk: the chunk
        // is dead at its processor, so fail its group as soon as this
        // module has what Table 4/5 requires (for a leader, the request
        // alone; otherwise request + g).
        if self.lookout.contains_key(&tag) {
            let has_g = self.cst.get(tag).is_some_and(|e| e.pending_g.is_some());
            if is_leader || has_g {
                self.lookout.remove(&tag);
                self.collisions_decided += 1;
                self.fail_group(out, tag);
            }
            return;
        }

        if is_leader {
            if self.conflicts_with_held(&req) {
                self.collisions_decided += 1;
                self.fail_group(out, tag);
                return;
            }
            out.event(ProtoEvent::DirGrabbed { dir: self.id, tag });
            let e = self.cst.get_mut(tag).expect("just inserted");
            e.leader = true;
            e.state = ChunkState::Held;
            e.inval_acc = local_sharers.clone();
            match next_in_order(&req.g_vec, self.id, prio_offset, self.ndirs) {
                Some(next) => {
                    self.send_grab(out, &req, attempt, prio_offset, local_sharers, next);
                }
                None => self.confirm_leader(view, out, tag), // singleton group
            }
        } else if self.cst.get(tag).is_some_and(|e| e.pending_g.is_some()) {
            // The g arrived before the signatures; admit now.
            self.try_admit_nonleader(out, tag);
        }
    }

    /// Handles an incoming `g` (grab) message.
    #[allow(clippy::too_many_arguments)]
    pub fn on_grab(
        &mut self,
        view: &dyn MachineView,
        out: &mut Outbox<SbMsg>,
        tag: ChunkTag,
        attempt: u32,
        committer: CoreId,
        gvec: DirSet,
        prio_offset: u16,
        inval: CoreSet,
    ) {
        if self.attempt_failed_here(tag, attempt) {
            return; // group already failed here; failure multicast went out
        }
        debug_assert!(gvec.contains(self.id), "g routed to non-member");
        self.release_stale_attempt(out, tag, attempt);
        let is_returning_to_leader = {
            let e = self.cst.entry_or_insert(tag, attempt);
            if e.attempt != attempt {
                return; // stale g; a newer attempt is in progress
            }
            e.committer = committer;
            e.prio_offset = prio_offset;
            e.pending_g = Some(inval.clone());
            e.leader
        };
        if is_returning_to_leader {
            // The g came back around: the group is formed (Figure 3(c-d)).
            let e = self.cst.get_mut(tag).expect("leader entry");
            e.inval_acc = inval;
            self.confirm_leader(view, out, tag);
            return;
        }
        let has_req = self.cst.get(tag).is_some_and(|e| e.req.is_some());
        if !has_req {
            return; // park the g until the signature pair arrives
        }
        if self.lookout.remove(&tag).is_some() {
            self.collisions_decided += 1;
            self.fail_group(out, tag);
            return;
        }
        self.try_admit_nonleader(out, tag);
    }

    /// Admission at a non-leader that holds both the signature pair and
    /// the `g`: conflict-check, accumulate sharers, pass the `g` on (or
    /// back to the leader).
    fn try_admit_nonleader(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag) {
        let (req, attempt, prio_offset, inval_in, local) = {
            let e = self.cst.get(tag).expect("caller checked entry");
            (
                e.req.clone().expect("caller checked req"),
                e.attempt,
                e.prio_offset,
                e.pending_g.clone().expect("caller checked g"),
                e.local_sharers.clone(),
            )
        };
        if self.conflicts_with_held(&req) {
            // This module is the Collision module: the other group got
            // both messages first and holds; this group loses (§3.2.1).
            self.collisions_decided += 1;
            self.fail_group(out, tag);
            return;
        }
        let inval_acc = inval_in.union(&local);
        {
            let e = self.cst.get_mut(tag).expect("entry");
            e.state = ChunkState::Held;
            e.inval_acc = inval_acc.clone();
        }
        out.event(ProtoEvent::DirGrabbed { dir: self.id, tag });
        let next = next_in_order(&req.g_vec, self.id, prio_offset, self.ndirs)
            .or_else(|| leader_of(&req.g_vec, prio_offset, self.ndirs))
            .expect("group has a leader");
        self.send_grab(out, &req, attempt, prio_offset, inval_acc, next);
    }

    fn send_grab(
        &self,
        out: &mut Outbox<SbMsg>,
        req: &CommitRequest,
        attempt: u32,
        prio_offset: u16,
        inval: CoreSet,
        to: DirId,
    ) {
        out.send(
            Endpoint::Dir(self.id),
            Endpoint::Dir(to),
            MsgSize::Small,
            TrafficClass::SmallCMessage,
            SbMsg::Grab {
                tag: req.tag,
                attempt,
                committer: req.tag.core(),
                gvec: req.g_vec.clone(),
                prio_offset,
                inval,
            },
        );
    }

    /// The `g` returned to the leader: confirm the group, notify the
    /// processor, publish the W signature to the sharers (Figure 3(c-e)).
    fn confirm_leader(&mut self, view: &dyn MachineView, out: &mut Outbox<SbMsg>, tag: ChunkTag) {
        self.groups_led += 1;
        let (req, attempt, targets) = {
            let e = self.cst.get_mut(tag).expect("leader entry");
            debug_assert!(e.leader);
            e.state = ChunkState::Confirmed;
            e.formed_at = Some(view.now());
            let req = e.req.clone().expect("leader has signatures");
            let targets = e.inval_acc.clone();
            e.pending_acks = targets.len();
            (req, e.attempt, targets)
        };
        out.event(ProtoEvent::GroupFormed {
            tag,
            dirs: req.g_vec.len(),
        });
        for m in req.g_vec.iter().filter(|m| *m != self.id) {
            out.send(
                Endpoint::Dir(self.id),
                Endpoint::Dir(m),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
                SbMsg::GSuccess { tag, attempt },
            );
        }
        out.commit_success(tag.core(), tag, self.id);
        out.apply_commit(self.id, req.wsig.share(), tag.core());
        for core in targets.iter() {
            out.bulk_inv(self.id, core, tag, req.wsig.share());
        }
        if targets.is_empty() {
            self.complete_leader(out, tag);
        }
    }

    /// All bulk-invalidation acks arrived: release the group
    /// (`commit done`, Figure 3(e)), forwarding any commit recalls.
    fn complete_leader(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag) {
        let e = self.remove_entry(out, tag).expect("leader entry");
        let req = e.req.expect("leader has signatures");
        let recalls = e.recalls;
        for m in req.g_vec.iter().filter(|m| *m != self.id) {
            out.send(
                Endpoint::Dir(self.id),
                Endpoint::Dir(m),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
                SbMsg::CommitDone {
                    tag,
                    attempt: e.attempt,
                    recalls: recalls.clone(),
                },
            );
        }
        // Every member of the dead chunk's group must also learn of the
        // squash: starvation reservations and failure counters for the
        // dead tag would otherwise linger forever at modules the
        // `commit done` multicast does not reach (ghost reservations
        // block all other commits — a livelock). The winner's members get
        // the piggy-backed copy above; the rest get a standalone recall.
        for note in recalls {
            for m in note.failed_gvec.iter() {
                if m == self.id {
                    continue;
                }
                if !req.g_vec.contains(m) {
                    out.send(
                        Endpoint::Dir(self.id),
                        Endpoint::Dir(m),
                        MsgSize::Small,
                        TrafficClass::SmallCMessage,
                        SbMsg::Recall { note: note.clone() },
                    );
                }
            }
            self.process_recall_notice(out, note);
        }
        self.clear_chunk_bookkeeping(tag);
        out.event(ProtoEvent::CommitCompleted { tag });
    }

    /// A `bulk inv ack` arrived back at this module (it must be the
    /// leader of `tag`'s group). `aborted` carries a commit recall if the
    /// acking processor squashed its own in-flight commit.
    pub fn on_bulk_inv_ack(
        &mut self,
        _view: &dyn MachineView,
        out: &mut Outbox<SbMsg>,
        tag: ChunkTag,
        aborted: Option<sb_proto::AbortedCommit>,
    ) {
        let Some(e) = self.cst.get_mut(tag) else {
            debug_assert!(false, "ack for unknown chunk {tag}");
            return;
        };
        debug_assert!(e.leader && e.state == ChunkState::Confirmed);
        debug_assert!(e.pending_acks > 0);
        e.pending_acks -= 1;
        if let Some(a) = aborted {
            if !a.g_vec.is_empty() {
                let winner_gvec = &e.req.as_ref().expect("leader has signatures").g_vec;
                let offset = e.prio_offset;
                // Dir ID of Table 1: the highest-priority module common to
                // the winning and failed groups; under aliasing the groups
                // may share no module, in which case the failed group's
                // own leader keeps the lookout.
                let dir_id = collision_module(winner_gvec, &a.g_vec, offset, self.ndirs)
                    .or_else(|| leader_of(&a.g_vec, offset, self.ndirs))
                    .expect("non-empty failed group");
                e.recalls.push(RecallNote {
                    failed_tag: a.tag,
                    dir_id,
                    failed_gvec: a.g_vec,
                });
            }
        }
        if e.pending_acks == 0 {
            self.complete_leader(out, tag);
        }
    }

    /// Handles `g success` from the leader: the group formed; start
    /// updating directory state from the W signature.
    pub fn on_g_success(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag, attempt: u32) {
        let Some(e) = self.cst.get_mut(tag) else {
            return;
        };
        if e.attempt != attempt {
            return;
        }
        debug_assert_eq!(e.state, ChunkState::Held, "g_success to non-held entry");
        e.state = ChunkState::Confirmed;
        let req = e.req.clone().expect("held entries have signatures");
        out.apply_commit(self.id, req.wsig, tag.core());
    }

    /// Handles `commit done` from the leader: break the group down and
    /// deallocate the signatures; process piggy-backed recalls addressed
    /// to this module.
    pub fn on_commit_done(
        &mut self,
        out: &mut Outbox<SbMsg>,
        tag: ChunkTag,
        attempt: u32,
        recalls: Vec<RecallNote>,
    ) {
        if self.cst.get(tag).is_some_and(|e| e.attempt == attempt) {
            self.remove_entry(out, tag);
        }
        self.clear_chunk_bookkeeping(tag);
        for note in recalls {
            self.process_recall_notice(out, note);
        }
    }

    /// Handles `g failure`: the group failed at its Collision module.
    pub fn on_g_failure(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag, attempt: u32) {
        if self.attempt_failed_here(tag, attempt) {
            return; // duplicate failure notification
        }
        let was_leader = match self.cst.get(tag) {
            Some(e) if e.attempt == attempt => {
                let l = e.leader;
                self.remove_entry(out, tag);
                l
            }
            _ => false,
        };
        self.record_failure(tag, attempt);
        if was_leader {
            out.commit_failure(tag.core(), tag, self.id);
        }
    }

    /// Handles a standalone `commit recall` (Dir → Dir leg of Table 1).
    pub fn on_recall(&mut self, out: &mut Outbox<SbMsg>, note: RecallNote) {
        self.process_recall_notice(out, note);
    }

    /// Common recall processing at any module: drop starvation bookkeeping
    /// for the dead chunk; the designated lookout module additionally arms
    /// (or resolves) the lookout.
    fn process_recall_notice(&mut self, out: &mut Outbox<SbMsg>, note: RecallNote) {
        let tag = note.failed_tag;
        if self.reserved_for == Some(tag) {
            self.reserved_for = None;
        }
        self.fail_counts.remove(&tag);
        if note.dir_id == self.id {
            self.handle_recall(out, note);
        }
    }

    /// Processes a commit recall at its target module (§3.4): if the dead
    /// group was already failed here, discard; if it currently holds (only
    /// reachable under signature aliasing), fail it; otherwise stay on the
    /// lookout for its messages.
    fn handle_recall(&mut self, out: &mut Outbox<SbMsg>, note: RecallNote) {
        let tag = note.failed_tag;
        // The chunk is dead at its processor: release any reservation and
        // failure bookkeeping tied to it.
        if self.reserved_for == Some(tag) {
            self.reserved_for = None;
        }
        self.fail_counts.remove(&tag);
        match self.cst.get(tag) {
            Some(e) if e.req.is_some() && (e.pending_g.is_some() || e.leader) => {
                self.collisions_decided += 1;
                self.fail_group(out, tag);
            }
            _ => {
                // §3.4: stay on the lookout. (If the group was already
                // failed here, the lookout entry is harmless — the dead
                // tag never sends another message.)
                self.lookout.insert(tag, note);
            }
        }
    }

    /// Fails the group of `tag` from this module: deallocate, notify every
    /// other member with `g failure`, and — if this module leads the group
    /// — send `commit failure` to the processor.
    fn fail_group(&mut self, out: &mut Outbox<SbMsg>, tag: ChunkTag) {
        let e = self
            .remove_entry(out, tag)
            .expect("fail_group needs an entry");
        let req = e.req.expect("fail_group needs signatures");
        let attempt = e.attempt;
        self.record_failure(tag, attempt);
        out.event(ProtoEvent::GroupFailed { tag });
        for m in req.g_vec.iter().filter(|m| *m != self.id) {
            out.send(
                Endpoint::Dir(self.id),
                Endpoint::Dir(m),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
                SbMsg::GFailure { tag, attempt },
            );
        }
        if leader_of(&req.g_vec, e.prio_offset, self.ndirs) == Some(self.id) {
            out.commit_failure(tag.core(), tag, self.id);
        }
    }

    /// Fails an incoming request without allocating an entry (reservation
    /// nack path).
    fn fail_incoming(
        &mut self,
        out: &mut Outbox<SbMsg>,
        req: &CommitRequest,
        attempt: u32,
        prio_offset: u16,
    ) {
        self.record_failure(req.tag, attempt);
        out.event(ProtoEvent::GroupFailed { tag: req.tag });
        for m in req.g_vec.iter().filter(|m| *m != self.id) {
            out.send(
                Endpoint::Dir(self.id),
                Endpoint::Dir(m),
                MsgSize::Small,
                TrafficClass::SmallCMessage,
                SbMsg::GFailure {
                    tag: req.tag,
                    attempt,
                },
            );
        }
        if leader_of(&req.g_vec, prio_offset, self.ndirs) == Some(self.id) {
            out.commit_failure(req.tag.core(), req.tag, self.id);
        }
    }
}
