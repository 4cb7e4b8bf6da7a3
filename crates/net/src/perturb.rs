//! Deterministic delivery-time perturbation for fault/timing fuzzing.
//!
//! The protocols are supposed to stay correct under *arbitrary* message
//! timings (the paper argues this informally; Appendix A enumerates the
//! races). The stock [`Network`](crate::Network) model is far too polite
//! to exercise those races: latencies are a pure function of distance and
//! injection contention, so message orderings barely vary between runs.
//!
//! A [`PerturbationConfig`] attaches a seeded adversary to the network:
//! every delivery picks up a deterministic pseudo-random jitter plus a
//! per-traffic-class extra latency. Messages between *different*
//! (src, dst) pairs reorder freely; deliveries on the *same* ordered pair
//! are clamped to remain FIFO by default, because the
//! `sb_proto::CommitProtocol` contract guarantees protocols that
//! same-pair messages are not arbitrarily reordered.
//!
//! The layer is strictly opt-in: a network built without a perturbation
//! takes the exact same code path as before and produces bit-identical
//! results (guarded by the golden fig-7 snapshot).

use sb_engine::Xoshiro256;

use crate::traffic::TrafficClass;

/// Seeded timing-adversary parameters for a [`Network`](crate::Network).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerturbationConfig {
    /// Seed of the perturbation RNG stream (independent from the
    /// workload seed, so `(workload_seed, perturbation_seed)` pairs
    /// replay exactly).
    pub seed: u64,
    /// Maximum uniform extra delay added per delivery, in cycles
    /// (each message draws from `0..=max_jitter`).
    pub max_jitter: u64,
    /// Fixed extra latency per traffic class, indexed by
    /// [`TrafficClass::index`] (order of [`TrafficClass::ALL`]). Models
    /// e.g. a slow virtual channel for large commit messages.
    pub class_extra: [u64; 5],
    /// Keep deliveries on the same ordered (src, dst) pair FIFO by
    /// clamping each arrival to be no earlier than the pair's previous
    /// one. On by default: the `sb_proto::CommitProtocol` contract
    /// promises protocols point-to-point ordering, so breaking it finds
    /// host-model bugs, not protocol bugs.
    pub preserve_pair_order: bool,
}

impl PerturbationConfig {
    /// Derives a full adversary from one seed: jitter up to ~2 link
    /// traversals and small random per-class skews, pair-FIFO preserved.
    /// This is what the fuzzer uses — one `u64` fully describes the
    /// timing adversary of a run.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed ^ 0xadd1_c7ed_ba5e_1e55);
        let max_jitter = 3 + rng.gen_range(46); // 3..=48 cycles
        let mut class_extra = [0u64; 5];
        for e in &mut class_extra {
            *e = rng.gen_range(25); // 0..=24 cycles
        }
        PerturbationConfig {
            seed,
            max_jitter,
            class_extra,
            preserve_pair_order: true,
        }
    }
}

/// Live perturbation state owned by a [`Network`](crate::Network).
#[derive(Clone, Debug)]
pub(crate) struct Perturbation {
    cfg: PerturbationConfig,
    rng: Xoshiro256,
    /// Last perturbed arrival per ordered (src, dst) pair, for the
    /// pair-FIFO clamp. Indexed `src * tiles + dst`.
    last_arrival: Vec<u64>,
    tiles: usize,
}

impl Perturbation {
    pub(crate) fn new(cfg: PerturbationConfig, tiles: u16) -> Self {
        Perturbation {
            rng: Xoshiro256::new(cfg.seed),
            last_arrival: vec![0; tiles as usize * tiles as usize],
            tiles: tiles as usize,
            cfg,
        }
    }

    /// Perturbs one delivery: base arrival time in, adversarial arrival
    /// time out (never earlier than the base).
    pub(crate) fn perturb(
        &mut self,
        src: usize,
        dst: usize,
        class: TrafficClass,
        base: u64,
    ) -> u64 {
        let mut arrive = base
            + self.cfg.class_extra[class.index()]
            + self.rng.gen_range(self.cfg.max_jitter + 1);
        if self.cfg.preserve_pair_order {
            let slot = &mut self.last_arrival[src * self.tiles + dst];
            arrive = arrive.max(*slot);
            *slot = arrive;
        }
        arrive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        let a = PerturbationConfig::from_seed(7);
        let b = PerturbationConfig::from_seed(7);
        assert_eq!(a, b);
        let c = PerturbationConfig::from_seed(8);
        assert_ne!(a, c, "different seeds give different adversaries");
        assert!(a.preserve_pair_order);
        assert!(a.max_jitter >= 3);
    }

    #[test]
    fn perturb_never_moves_a_delivery_earlier() {
        let mut p = Perturbation::new(PerturbationConfig::from_seed(11), 8);
        for i in 0..200u64 {
            let base = i * 13;
            let got = p.perturb(
                (i % 8) as usize,
                ((i + 3) % 8) as usize,
                TrafficClass::MemRd,
                base,
            );
            assert!(got >= base);
        }
    }

    #[test]
    fn pair_order_is_preserved_when_requested() {
        let mut p = Perturbation::new(PerturbationConfig::from_seed(3), 4);
        let mut last = 0;
        for i in 0..500u64 {
            // Monotone injection on one pair must stay monotone on arrival.
            let got = p.perturb(1, 2, TrafficClass::SmallCMessage, i);
            assert!(got >= last, "pair FIFO violated at {i}");
            last = got;
        }
    }
}
