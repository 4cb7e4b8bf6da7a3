//! Exhaustive interleaving exploration of the Group Formation protocol.
//!
//! The paper designs its state machine "following the methodology
//! summarized in [16]" (Sorin et al., *Specifying and verifying a
//! broadcast and a multicast snooping cache coherence protocol*). In that
//! spirit, this harness model-checks small scenarios on the
//! [`Fabric`] host: it enumerates **every order** in which the pending
//! events can be delivered — any channel's head next, each (source,
//! destination) channel in order (depth-first, with duplicate-state
//! pruning by fingerprint) — and asserts, on every reachable terminal
//! state:
//!
//! * **termination** — the system quiesces (no livelock within the
//!   scenario, since retries are disabled: a failed chunk is terminal);
//! * **completeness** — every chunk reaches exactly one terminal outcome
//!   (committed, failed, or squashed);
//! * **no late success** — no commit success reaches a chunk that was
//!   already squashed. A success overtaken by a later winner's bulk
//!   invalidation from the same leader would squash a committed chunk;
//!   the per-channel order the `CommitProtocol` contract promises rules
//!   that out, and the fabric reports any that happens;
//! * **progress** — among a set of colliding chunks, at least one
//!   commits (§3.2.2's guarantee);
//! * **compatibility** — chunks with disjoint signatures commit in every
//!   interleaving, never failing;
//! * **cleanup** — no Chunk State Table entry survives quiescence.

use std::collections::HashSet;

use sb_chunks::{ActiveChunk, ChunkTag, CommitRequest};
use sb_core::{SbConfig, SbMsg, ScalableBulk};
use sb_engine::Cycle;
use sb_mem::{CoreId, DirId, LineAddr};
use sb_proto::{CommitProtocol, Fabric, FabricConfig, Outcome};
use sb_sigs::SignatureConfig;

/// One explored state: the host and the protocol it drives.
#[derive(Clone)]
struct State {
    fabric: Fabric<SbMsg>,
    proto: ScalableBulk,
}

impl State {
    fn outcome(&self, tag: ChunkTag) -> Option<Outcome> {
        self.fabric.report().outcome_of(tag)
    }

    fn committed(&self, tag: ChunkTag) -> bool {
        self.outcome(tag).is_some_and(|o| o.is_committed())
    }
}

/// Explores every delivery order the channels allow (bounded by
/// `max_states` visited states); calls `check` on each quiesced terminal
/// state. Returns (distinct terminal states, states visited).
fn explore<F: Fn(&State)>(initial: State, max_states: usize, check: F) -> (usize, usize) {
    let mut stack = vec![initial];
    let mut seen: HashSet<String> = HashSet::new();
    let mut terminals = 0usize;
    let mut visited = 0usize;
    while let Some(state) = stack.pop() {
        visited += 1;
        assert!(
            visited <= max_states,
            "state space larger than expected ({max_states} states)"
        );
        let heads = state.fabric.heads();
        if heads.is_empty() {
            let late = &state.fabric.report().late_successes;
            assert!(late.is_empty(), "commit success reached squashed {late:?}");
            check(&state);
            terminals += 1;
            continue;
        }
        for chan in heads {
            let mut next = state.clone();
            next.fabric.step(&mut next.proto, chan);
            // The fabric prints everything that decides its deliveries;
            // the protocol contributes its in-flight count.
            if seen.insert(format!("{:?}{}", next.fabric, next.proto.in_flight())) {
                stack.push(next);
            }
        }
    }
    (terminals, visited)
}

fn request(core: u16, reads: &[(u64, u16)], writes: &[(u64, u16)]) -> CommitRequest {
    let mut c = ActiveChunk::new(
        ChunkTag::new(CoreId(core), 0),
        SignatureConfig::paper_default(),
    );
    for &(l, d) in reads {
        c.record_read(LineAddr(l), DirId(d));
    }
    for &(l, d) in writes {
        c.record_write(LineAddr(l), DirId(d));
    }
    c.to_commit_request()
}

/// A fabric with every request issued at cycle 0, `sharers` seeded as
/// (line, home, core), and no retries: a failed commit is terminal.
fn start(reqs: Vec<CommitRequest>, sharers: &[(u64, u16, u16)]) -> State {
    let mut fabric = Fabric::new(FabricConfig {
        max_retries: 0,
        ..FabricConfig::small()
    });
    for &(line, dir, core) in sharers {
        fabric.seed_sharer(DirId(dir), LineAddr(line), CoreId(core));
    }
    for req in reqs {
        fabric.schedule_commit(Cycle::ZERO, req);
    }
    State {
        fabric,
        proto: ScalableBulk::new(SbConfig::paper_default(), 8),
    }
}

fn incompatible(a: &CommitRequest, b: &CommitRequest) -> bool {
    a.wsig.intersects(&b.wsig) || a.wsig.intersects(&b.rsig) || a.rsig.intersects(&b.wsig)
}

/// Two compatible chunks sharing both directories: in EVERY interleaving
/// both commit and nothing fails.
#[test]
fn exhaustive_compatible_chunks_always_both_commit() {
    let a = request(0, &[(100, 2)], &[(200, 3)]);
    let b = request(1, &[(110, 2)], &[(210, 3)]);
    assert!(!incompatible(&a, &b), "scenario needs compatible chunks");
    let (ta, tb) = (a.tag, b.tag);
    let (terminals, visited) = explore(start(vec![a, b], &[]), 2_000_000, |s| {
        let outcomes = &s.fabric.report().outcomes;
        assert!(s.committed(ta), "{outcomes:?}");
        assert!(s.committed(tb), "{outcomes:?}");
        assert_eq!(s.proto.in_flight(), 0, "CST leak");
    });
    assert!(
        terminals >= 1 && visited > 50,
        "explored {terminals}/{visited}"
    );
}

/// Two incompatible chunks: in EVERY interleaving at least one commits
/// and both reach a terminal outcome (no retry in the explorer).
#[test]
fn exhaustive_incompatible_chunks_exactly_one_commits() {
    let a = request(0, &[], &[(500, 2), (600, 3)]);
    let b = request(1, &[], &[(500, 2), (700, 4)]);
    assert!(incompatible(&a, &b));
    let (ta, tb) = (a.tag, b.tag);
    let (terminals, visited) = explore(start(vec![a, b], &[]), 2_000_000, |s| {
        let (oa, ob) = (s.outcome(ta), s.outcome(tb));
        // Conflicting chunks either race (one wins, the loser fails — no
        // retry in the explorer) or serialize (both commit, one after the
        // other's commit done released the common module). Never neither.
        assert!(
            s.committed(ta) || s.committed(tb),
            "at least one colliding chunk commits: {oa:?} {ob:?}"
        );
        assert!(oa.is_some() && ob.is_some(), "both terminal");
        assert_eq!(s.proto.in_flight(), 0, "CST leak");
    });
    assert!(
        terminals >= 2 && visited > 100,
        "explored {terminals}/{visited}"
    );
}

/// Three chunks in a collision triangle over shared directories: at
/// least one commits in every interleaving, and the CST always drains.
#[test]
fn exhaustive_three_way_collision_always_progresses() {
    let a = request(0, &[], &[(500, 2), (600, 3)]);
    let b = request(1, &[], &[(500, 2), (700, 4)]);
    let c = request(2, &[], &[(600, 3), (700, 4)]);
    let tags = [a.tag, b.tag, c.tag];
    let (terminals, visited) = explore(start(vec![a, b, c], &[]), 6_000_000, |s| {
        let outcomes = &s.fabric.report().outcomes;
        assert!(
            tags.iter().any(|&t| s.committed(t)),
            "at least one commits: {outcomes:?}"
        );
        assert!(
            tags.iter().all(|&t| s.outcome(t).is_some()),
            "every chunk terminal: {outcomes:?}"
        );
        assert_eq!(s.proto.in_flight(), 0, "CST leak");
    });
    assert!(
        terminals >= 2 && visited > 1_000,
        "explored {terminals}/{visited}"
    );
}

/// The OCI recall scenario explored exhaustively: the winner's bulk
/// invalidation may squash the loser at ANY point relative to the
/// loser's own group formation; in every interleaving the loser's group
/// is cleaned up (no CST leak) and the loser never ends up committed
/// after being squashed.
#[test]
fn exhaustive_recall_cleans_up_in_every_interleaving() {
    // Winner writes line 500 (dir 2); core 1 is a sharer of it, and the
    // loser (core 1) reads line 500 and writes line 700 at dir 4 — so the
    // winner's bulk inv targets core 1 while core 1's commit is anywhere
    // in flight.
    let winner = request(0, &[], &[(500, 2), (600, 3)]);
    let loser = request(1, &[(500, 2)], &[(700, 4)]);
    let (tw, tl) = (winner.tag, loser.tag);
    let squashes_seen = std::cell::Cell::new(0usize);
    let (terminals, visited) =
        explore(start(vec![winner, loser], &[(500, 2, 1)]), 6_000_000, |s| {
            // Either may win the race (if the reader's messages beat the
            // writer's at the common module, the "winner" fails instead).
            let outcomes = &s.fabric.report().outcomes;
            let (w, l) = (s.outcome(tw), s.outcome(tl));
            assert!(w.is_some() && l.is_some(), "both terminal: {outcomes:?}");
            assert!(
                s.committed(tw) || s.committed(tl),
                "at least one commits: {outcomes:?}"
            );
            if matches!(l, Some(Outcome::Squashed { .. })) {
                // A squash implies the writer's bulk invalidation was
                // delivered, which implies the writer committed.
                assert!(s.committed(tw), "{outcomes:?}");
                squashes_seen.set(squashes_seen.get() + 1);
            }
            assert_eq!(s.proto.in_flight(), 0, "recall must clean the CST");
        });
    assert!(
        terminals >= 2 && visited > 500,
        "explored {terminals}/{visited}"
    );
    assert!(
        squashes_seen.get() > 0,
        "the OCI squash-and-recall path must be reachable"
    );
}
