//! Per-commit critical-path attribution from the causal flow graph.
//!
//! When [`SimConfig::obs`](crate::SimConfig) is on, the machine records a
//! causal [`FlowEvent`] for every message, timer, and notification (see
//! [`ObsLog::flows`]). This module walks that graph *backwards* from each
//! commit's success notification to its commit-start root and tiles the
//! interval `[started, committed]` with typed [`Segment`]s:
//!
//! * the flow's own network decomposition ([`SendInfo`](sb_net::SendInfo)):
//!   pre-send service, injection-port wait, wire time, adversary
//!   perturbation, and receiver dispatch skew;
//! * cross-flow *stitch gaps* where the chain hops through another
//!   chunk's handler — time the message sat queued at a directory
//!   ([`SegmentKind::GrabWait`]) or a bulk invalidation sat held at a
//!   core ([`SegmentKind::HeldInvWait`]);
//! * host-side retry backoff timers ([`SegmentKind::Backoff`]).
//!
//! The decomposition is *exact by construction*: consecutive causal links
//! tile time (the machine patches `delivered_at` to the actual dispatch
//! instant), every gap becomes an explicit segment, and the walk
//! telescopes — so each path's segment lengths sum to precisely the
//! latency the run recorded in its [`LatencyDist`](sb_stats::LatencyDist).
//! [`verify_observability`](crate::verify_observability) checks that
//! reconciliation (sum, max, and count) on every traced run.
//!
//! [`breakdown_from_obs`] is the companion oracle for Figure 7: it
//! rebuilds the useful/cache/commit/squash cycle breakdown purely from
//! [`ObsKind::ChunkDone`]/[`ObsKind::CommitStall`] events and must equal
//! the aggregate [`Breakdown`] exactly.

use std::collections::BTreeMap;

use sb_chunks::ChunkTag;
use sb_engine::Cycle;
use sb_stats::Breakdown;

use crate::obs::{FlowEvent, FlowKind, ObsKind, ObsLog};
use crate::result::RunResult;
use crate::trace::TraceEvent;

/// What one slice of a commit's critical path was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Handler/service time: pre-send processing (e.g. the core's
    /// ack-processing delay), receiver dispatch skew, and protocol
    /// self-timers.
    Service,
    /// Waiting for a network injection port (contention).
    InjectWait,
    /// Uncontended wire time across the torus.
    Wire,
    /// Extra delay added by the timing adversary.
    Perturb,
    /// The request sat queued at a directory (or the arbiter) until
    /// another chunk's hand-off released it.
    GrabWait,
    /// A bulk invalidation sat in a core's held-invalidation queue until
    /// the holder's own commit resolved (conservative mode).
    HeldInvWait,
    /// The core's commit-retry backoff timer.
    Backoff,
}

impl SegmentKind {
    /// Every kind, in waterfall display order.
    pub const ALL: [SegmentKind; 7] = [
        SegmentKind::Service,
        SegmentKind::InjectWait,
        SegmentKind::Wire,
        SegmentKind::Perturb,
        SegmentKind::GrabWait,
        SegmentKind::HeldInvWait,
        SegmentKind::Backoff,
    ];

    /// Short display name.
    pub fn as_str(self) -> &'static str {
        match self {
            SegmentKind::Service => "service",
            SegmentKind::InjectWait => "inject wait",
            SegmentKind::Wire => "wire",
            SegmentKind::Perturb => "perturb",
            SegmentKind::GrabWait => "grab wait",
            SegmentKind::HeldInvWait => "held-inv wait",
            SegmentKind::Backoff => "backoff",
        }
    }
}

impl std::fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One contiguous, non-empty slice of a commit's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// What the time went to.
    pub kind: SegmentKind,
    /// The label of the flow this slice belongs to (the *waiting*
    /// message's label for stitch gaps).
    pub label: &'static str,
    /// Slice start (inclusive).
    pub from: Cycle,
    /// Slice end (exclusive).
    pub to: Cycle,
}

impl Segment {
    /// Slice length in cycles.
    pub fn len(&self) -> u64 {
        (self.to - self.from).as_u64()
    }

    /// Whether the slice is empty (never stored; kept for symmetry).
    pub fn is_empty(&self) -> bool {
        self.to == self.from
    }
}

/// One commit's reconstructed critical path: chronological, gap-free
/// segments tiling `[started, committed]` exactly.
#[derive(Clone, Debug)]
pub struct CommitPath {
    /// The committed chunk.
    pub tag: ChunkTag,
    /// The committing core.
    pub core: u16,
    /// When the commit request was issued (latency origin).
    pub started: Cycle,
    /// When the success notification reached the core.
    pub committed: Cycle,
    /// Chronological non-empty segments; lengths sum to `latency()`.
    pub segments: Vec<Segment>,
}

impl CommitPath {
    /// End-to-end latency in cycles (== the run's recorded sample).
    pub fn latency(&self) -> u64 {
        (self.committed - self.started).as_u64()
    }

    /// Total cycles attributed to `kind` on this path.
    pub fn total(&self, kind: SegmentKind) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.kind == kind)
            .map(Segment::len)
            .sum()
    }
}

/// Aggregate attribution over a set of commit paths.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Paths aggregated.
    pub commits: u64,
    /// Exact total cycles per segment kind.
    pub cycles: BTreeMap<SegmentKind, u128>,
}

impl Attribution {
    /// Aggregates `paths`.
    pub fn from_paths(paths: &[CommitPath]) -> Attribution {
        let mut a = Attribution {
            commits: paths.len() as u64,
            cycles: BTreeMap::new(),
        };
        for p in paths {
            for s in &p.segments {
                *a.cycles.entry(s.kind).or_insert(0) += s.len() as u128;
            }
        }
        a
    }

    /// Exact total critical-path cycles across all kinds.
    pub fn total(&self) -> u128 {
        self.cycles.values().sum()
    }

    /// `(name, cycles, fraction)` rows in display order, non-empty kinds
    /// only.
    pub fn rows(&self) -> Vec<(&'static str, u128, f64)> {
        let total = self.total().max(1) as f64;
        SegmentKind::ALL
            .iter()
            .filter_map(|k| {
                let c = *self.cycles.get(k)?;
                (c > 0).then_some((k.as_str(), c, c as f64 / total))
            })
            .collect()
    }
}

/// Reconstructs the critical path of every commit in `r`'s trace.
///
/// Requires both `SimConfig::trace` (for the authoritative commit list)
/// and `SimConfig::obs` (for the flow graph). Returns an error describing
/// the first structural violation — a missing root or terminal flow, a
/// non-monotone chain — which `verify_observability` surfaces verbatim.
pub fn commit_paths(r: &RunResult) -> Result<Vec<CommitPath>, String> {
    let trace = r
        .trace
        .as_ref()
        .ok_or("critical path needs SimConfig::trace")?;
    let obs = r.obs.as_ref().ok_or("critical path needs SimConfig::obs")?;
    let flows = &obs.flows;

    // Dense ids: flows[i].id == i+1, so indices order like ids.
    let mut by_tag: BTreeMap<ChunkTag, Vec<usize>> = BTreeMap::new();
    for (i, f) in flows.iter().enumerate() {
        if let Some(tag) = f.tag {
            by_tag.entry(tag).or_default().push(i);
        }
    }

    let mut paths = Vec::new();
    for e in &trace.events {
        let TraceEvent::Committed { core, tag, at, .. } = e else {
            continue;
        };
        let idxs = by_tag
            .get(tag)
            .ok_or_else(|| format!("{tag}: committed but has no flows"))?;
        let root = *idxs
            .iter()
            .find(|&&i| flows[i].kind == FlowKind::CommitStart)
            .ok_or_else(|| format!("{tag}: no commit-start root flow"))?;
        let term = *idxs
            .iter()
            .rev()
            .find(|&&i| flows[i].kind == FlowKind::CommitSuccess && flows[i].delivered_at == *at)
            .ok_or_else(|| format!("{tag}: no commit-success flow delivered at {at}"))?;
        paths.push(walk(flows, idxs, *tag, *core, root, term)?);
    }
    Ok(paths)
}

/// Backward walk from the terminal success flow to the commit-start
/// root, emitting segments in reverse-chronological order (reversed at
/// the end).
fn walk(
    flows: &[FlowEvent],
    same_tag: &[usize],
    tag: ChunkTag,
    core: u16,
    root: usize,
    term: usize,
) -> Result<CommitPath, String> {
    let mut segs: Vec<Segment> = Vec::new();
    let mut cur = term;
    loop {
        let f = &flows[cur];
        push_flow_segments(&mut segs, f);
        if f.kind == FlowKind::CommitStart {
            break;
        }

        // Direct causal parent of the same chunk: the links tile exactly
        // (child sent the instant the parent's handler ran).
        let direct = f.parent.index().filter(|&p| {
            p < cur && flows[p].tag == Some(tag) && flows[p].delivered_at <= f.sent_at
        });
        let (pred, gap_kind) = match direct {
            Some(p) => (p, SegmentKind::Service),
            None => {
                // The chain hops through another chunk's handler (a
                // directory hand-off, an arbiter slot, a held-inv
                // release): stitch to the latest same-tag flow already
                // delivered when `f` was issued, preferring one delivered
                // to the very actor that issued `f`.
                let candidates = same_tag
                    .iter()
                    .copied()
                    .rev()
                    .filter(|&i| i < cur && flows[i].delivered_at <= f.sent_at);
                let stitched = candidates
                    .clone()
                    .find(|&i| flows[i].dst == f.src)
                    .or_else(|| candidates.clone().next())
                    .unwrap_or(root);
                if flows[stitched].delivered_at > f.sent_at {
                    return Err(format!(
                        "{tag}: flow {} sent at {} before any same-tag delivery",
                        f.id, f.sent_at
                    ));
                }
                let kind = if f.kind == FlowKind::BulkInvAck
                    && flows[stitched].kind == FlowKind::BulkInv
                {
                    SegmentKind::HeldInvWait
                } else {
                    SegmentKind::GrabWait
                };
                (stitched, kind)
            }
        };
        if pred >= cur {
            return Err(format!(
                "{tag}: non-monotone chain {} -> {}",
                flows[cur].id, flows[pred].id
            ));
        }
        push(
            &mut segs,
            gap_kind,
            f.label,
            flows[pred].delivered_at,
            f.sent_at,
        );
        cur = pred;
    }
    if cur != root {
        return Err(format!(
            "{tag}: walk ended at {} instead of the root {}",
            flows[cur].id, flows[root].id
        ));
    }
    segs.reverse();
    Ok(CommitPath {
        tag,
        core,
        started: flows[root].sent_at,
        committed: flows[term].delivered_at,
        segments: segs,
    })
}

/// Decomposes the flow's own span `[sent_at, delivered_at]` into typed
/// slices, pushed in reverse-chronological order.
fn push_flow_segments(segs: &mut Vec<Segment>, f: &FlowEvent) {
    match f.net {
        Some(n) => {
            let inject = Cycle(n.depart.as_u64() - n.queue_wait);
            let arrive = n.depart + n.wire;
            let perturbed = arrive + n.perturb_extra;
            push(
                segs,
                SegmentKind::Service,
                f.label,
                perturbed,
                f.delivered_at,
            );
            push(segs, SegmentKind::Perturb, f.label, arrive, perturbed);
            push(segs, SegmentKind::Wire, f.label, n.depart, arrive);
            push(segs, SegmentKind::InjectWait, f.label, inject, n.depart);
            push(segs, SegmentKind::Service, f.label, f.sent_at, inject);
        }
        None => {
            let kind = if f.kind == FlowKind::Backoff {
                SegmentKind::Backoff
            } else {
                SegmentKind::Service
            };
            push(segs, kind, f.label, f.sent_at, f.delivered_at);
        }
    }
}

fn push(segs: &mut Vec<Segment>, kind: SegmentKind, label: &'static str, from: Cycle, to: Cycle) {
    if to > from {
        segs.push(Segment {
            kind,
            label,
            from,
            to,
        });
    }
}

/// Rebuilds the Figure-7 cycle breakdown purely from the observability
/// stream ([`ObsKind::ChunkDone`] + [`ObsKind::CommitStall`]). On a
/// quiesced traced run this equals the aggregate
/// [`RunResult::breakdown`](crate::RunResult) *exactly* — checked by
/// [`verify_observability`](crate::verify_observability).
pub fn breakdown_from_obs(obs: &ObsLog) -> Breakdown {
    let mut b = Breakdown::new();
    for e in &obs.events {
        match e.kind {
            ObsKind::ChunkDone {
                committed: true,
                useful,
                cache,
                ..
            } => {
                b.useful += useful;
                b.cache_miss += cache;
            }
            ObsKind::ChunkDone {
                committed: false,
                useful,
                cache,
                ..
            } => b.squash += useful + cache,
            ObsKind::CommitStall { cycles, .. } => b.commit += cycles,
            _ => {}
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_simulation, SimConfig};
    use sb_proto::ProtocolKind;
    use sb_workloads::AppProfile;

    fn observed_run(protocol: ProtocolKind) -> RunResult {
        let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), protocol);
        cfg.insns_per_thread = 4_000;
        cfg.trace = true;
        cfg.obs = crate::ObsConfig::on();
        run_simulation(&cfg)
    }

    fn assert_reconciles(r: &RunResult) {
        let paths = commit_paths(r).expect("reconstruction");
        assert_eq!(paths.len() as u64, r.latency.count());
        let mut sum: u128 = 0;
        let mut max = 0u64;
        for p in &paths {
            let tiled: u64 = p.segments.iter().map(Segment::len).sum();
            assert_eq!(tiled, p.latency(), "{}: segments do not tile", p.tag);
            sum += p.latency() as u128;
            max = max.max(p.latency());
        }
        assert_eq!(sum, r.latency.sum(), "path sum != recorded latency sum");
        assert_eq!(max, r.latency.max(), "path max != recorded latency max");
    }

    #[test]
    fn paths_tile_and_reconcile_for_scalablebulk() {
        let r = observed_run(ProtocolKind::ScalableBulk);
        assert!(r.commits > 0);
        assert_reconciles(&r);
    }

    #[test]
    fn paths_tile_and_reconcile_for_bulksc_arbiter() {
        // BulkSC chains through untagged arbiter service-slot timers —
        // the stitch path (GrabWait at the arbiter) must still tile.
        let r = observed_run(ProtocolKind::BulkSc);
        assert!(r.commits > 0);
        assert_reconciles(&r);
        let paths = commit_paths(&r).unwrap();
        let a = Attribution::from_paths(&paths);
        assert!(
            a.cycles.get(&SegmentKind::GrabWait).copied().unwrap_or(0) > 0,
            "BulkSC commits should show arbiter grab wait"
        );
    }

    #[test]
    fn obs_breakdown_matches_aggregate_exactly() {
        let r = observed_run(ProtocolKind::ScalableBulk);
        let b = breakdown_from_obs(r.obs.as_ref().unwrap());
        assert_eq!(b, r.breakdown);
    }

    #[test]
    fn attribution_rows_cover_the_total() {
        let r = observed_run(ProtocolKind::ScalableBulk);
        let paths = commit_paths(&r).unwrap();
        let a = Attribution::from_paths(&paths);
        assert_eq!(a.commits, r.latency.count());
        let row_sum: u128 = a.rows().iter().map(|(_, c, _)| *c).sum();
        assert_eq!(row_sum, a.total());
        assert_eq!(a.total(), r.latency.sum());
    }
}
