//! Latency computation and per-node injection contention.

use sb_engine::Cycle;

use crate::perturb::{Perturbation, PerturbationConfig};
use crate::topology::{NodeId, Topology};
use crate::traffic::{MsgSize, TrafficClass, TrafficCounters};

/// Network timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// The interconnect fabric.
    pub topology: Topology,
    /// Per-hop link latency in cycles (Table 2: 7 cycles).
    pub link_latency: u64,
    /// Fixed overhead per message (injection + ejection pipeline).
    pub fixed_overhead: u64,
    /// Whether to model per-node injection-port serialization (one flit per
    /// cycle per sender). Captures the congestion that the paper's TCC
    /// traffic storm causes without a full router model.
    pub model_contention: bool,
}

impl NetworkConfig {
    /// Table 2 parameters for a machine with `tiles` tiles.
    pub fn paper_default(tiles: u16) -> Self {
        NetworkConfig {
            topology: Topology::for_tiles(tiles),
            link_latency: 7,
            fixed_overhead: 2,
            model_contention: true,
        }
    }
}

/// Latency decomposition of one delivery, as reported by
/// [`Network::send_info`]. The arrival time satisfies
/// `arrive = depart + wire + perturb_extra` and
/// `depart = send time + queue_wait`, so the segments tile the whole
/// delivery interval exactly — the property the critical-path
/// attribution in `sb-sim` relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendInfo {
    /// When the message left its injection port.
    pub depart: Cycle,
    /// Cycles spent waiting for the injection port (contention).
    pub queue_wait: u64,
    /// Fabric hop count between the endpoints.
    pub hops: u64,
    /// Uncontended wire time: fixed overhead + hops × link + (flits − 1).
    pub wire: u64,
    /// Extra delay added by the timing adversary (0 when unperturbed).
    pub perturb_extra: u64,
}

/// The interconnect: computes message delivery times and tallies traffic.
///
/// The model is latency-first: a message from `src` to `dst` of `size`
/// arrives at
///
/// ```text
/// depart  = max(now, src injection port free)     (if contention on)
/// arrive  = depart + fixed + hops * link_latency + (flits - 1)
/// ```
///
/// and the injection port of `src` stays busy for `flits` cycles. Local
/// (same-tile) messages still pay the fixed overhead.
///
/// # Examples
///
/// ```
/// use sb_engine::Cycle;
/// use sb_net::{MsgSize, Network, NetworkConfig, NodeId, TrafficClass};
///
/// let mut net = Network::new(NetworkConfig::paper_default(64));
/// let t1 = net.send(Cycle(0), NodeId(0), NodeId(1), MsgSize::Small, TrafficClass::SmallCMessage);
/// assert_eq!(t1, Cycle(2 + 7)); // fixed 2 + 1 hop * 7
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    cfg: NetworkConfig,
    inject_free: Vec<Cycle>,
    counters: TrafficCounters,
    hop_total: u64,
    queue_delay_total: u64,
    /// Optional seeded timing adversary (fuzzing only). `None` leaves the
    /// delivery path bit-identical to the unperturbed model.
    perturb: Option<Perturbation>,
}

impl Network {
    /// Creates an idle network.
    pub fn new(cfg: NetworkConfig) -> Self {
        Network {
            inject_free: vec![Cycle::ZERO; cfg.topology.tiles() as usize],
            cfg,
            counters: TrafficCounters::new(),
            hop_total: 0,
            queue_delay_total: 0,
            perturb: None,
        }
    }

    /// Creates an idle network with a seeded timing adversary attached
    /// (see [`PerturbationConfig`]). Used by the `sb-check` fuzzer; every
    /// delivery is delayed deterministically, never hastened.
    pub fn with_perturbation(cfg: NetworkConfig, p: PerturbationConfig) -> Self {
        let mut net = Self::new(cfg);
        net.perturb = Some(Perturbation::new(p, cfg.topology.tiles()));
        net
    }

    /// Sends a message at time `now`; returns its arrival time at `dst`.
    /// Also tallies the message under `class`.
    pub fn send(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        size: MsgSize,
        class: TrafficClass,
    ) -> Cycle {
        self.send_info(now, src, dst, size, class).0
    }

    /// [`Network::send`] plus a latency decomposition of the delivery.
    ///
    /// The arrival time and all network state mutations are identical to
    /// `send` (which delegates here); the extra [`SendInfo`] is derived
    /// from the same intermediate values, so asking for it never changes
    /// simulated timing.
    pub fn send_info(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        size: MsgSize,
        class: TrafficClass,
    ) -> (Cycle, SendInfo) {
        self.counters.record(class, size);
        let hops = self.cfg.topology.hops(src, dst) as u64;
        self.hop_total += hops;
        let flits = size.flits() as u64;
        let depart = if self.cfg.model_contention {
            let free = &mut self.inject_free[src.idx()];
            let depart = now.max_of(*free);
            *free = depart + flits;
            self.queue_delay_total += (depart - now).as_u64();
            depart
        } else {
            now
        };
        let wire = self.cfg.fixed_overhead + hops * self.cfg.link_latency + (flits - 1);
        let base = depart + wire;
        let arrive = match &mut self.perturb {
            None => base,
            Some(p) => Cycle(p.perturb(src.idx(), dst.idx(), class, base.as_u64())),
        };
        let info = SendInfo {
            depart,
            queue_wait: (depart - now).as_u64(),
            hops,
            wire,
            perturb_extra: (arrive - base).as_u64(),
        };
        (arrive, info)
    }

    /// Latency of a hypothetical message without sending it (no contention,
    /// no tally). Useful for computing round trips.
    pub fn pure_latency(&self, src: NodeId, dst: NodeId, size: MsgSize) -> u64 {
        let hops = self.cfg.topology.hops(src, dst) as u64;
        self.cfg.fixed_overhead + hops * self.cfg.link_latency + (size.flits() as u64 - 1)
    }

    /// Traffic tallies so far.
    pub fn counters(&self) -> &TrafficCounters {
        &self.counters
    }

    /// Sum of hop counts over all sent messages.
    pub fn total_hops(&self) -> u64 {
        self.hop_total
    }

    /// Total cycles messages spent waiting for their injection port.
    pub fn total_queue_delay(&self) -> u64 {
        self.queue_delay_total
    }

    /// The configuration.
    pub fn config(&self) -> NetworkConfig {
        self.cfg
    }

    /// The interconnect fabric.
    pub fn topology(&self) -> Topology {
        self.cfg.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetworkConfig::paper_default(64))
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut n = net();
        let near = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::Small,
            TrafficClass::MemRd,
        );
        let mut n2 = net();
        let far = n2.send(
            Cycle(0),
            NodeId(0),
            NodeId(36),
            MsgSize::Small,
            TrafficClass::MemRd,
        );
        assert!(far > near, "farther destination takes longer");
        assert_eq!(near, Cycle(9)); // 2 fixed + 7 * 1 hop
    }

    #[test]
    fn serialization_adds_flit_cycles() {
        let mut a = net();
        let small = a.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::Small,
            TrafficClass::MemRd,
        );
        let mut b = net();
        let sig = b.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::SignaturePair,
            TrafficClass::LargeCMessage,
        );
        assert_eq!(sig.as_u64() - small.as_u64(), 6); // 7 flits vs 1
    }

    #[test]
    fn local_messages_pay_fixed_overhead_only() {
        let mut n = net();
        let t = n.send(
            Cycle(5),
            NodeId(3),
            NodeId(3),
            MsgSize::Small,
            TrafficClass::SmallCMessage,
        );
        assert_eq!(t, Cycle(7));
    }

    #[test]
    fn contention_backpressures_one_sender() {
        let mut n = net();
        // Two large messages back to back from node 0: the second waits for
        // the first's 33 flits to leave the injection port.
        let t1 = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::SignaturePair,
            TrafficClass::LargeCMessage,
        );
        let t2 = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::SignaturePair,
            TrafficClass::LargeCMessage,
        );
        assert_eq!(t2.as_u64() - t1.as_u64(), 7);
        assert_eq!(n.total_queue_delay(), 7);
        // A different sender is unaffected.
        let t3 = n.send(
            Cycle(0),
            NodeId(2),
            NodeId(1),
            MsgSize::Small,
            TrafficClass::SmallCMessage,
        );
        assert_eq!(t3, Cycle(9));
    }

    #[test]
    fn contention_can_be_disabled() {
        let mut cfg = NetworkConfig::paper_default(64);
        cfg.model_contention = false;
        let mut n = Network::new(cfg);
        let t1 = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::SignaturePair,
            TrafficClass::LargeCMessage,
        );
        let t2 = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::SignaturePair,
            TrafficClass::LargeCMessage,
        );
        assert_eq!(t1, t2);
        assert_eq!(n.total_queue_delay(), 0);
    }

    #[test]
    fn counters_and_hops_accumulate() {
        let mut n = net();
        n.send(
            Cycle(0),
            NodeId(0),
            NodeId(1),
            MsgSize::Line,
            TrafficClass::RemoteShRd,
        );
        n.send(
            Cycle(0),
            NodeId(0),
            NodeId(2),
            MsgSize::Line,
            TrafficClass::RemoteDirtyRd,
        );
        assert_eq!(n.counters().total_messages(), 2);
        assert_eq!(n.total_hops(), 3);
    }

    #[test]
    fn perturbed_network_only_delays_and_preserves_pair_fifo() {
        let cfg = NetworkConfig::paper_default(16);
        let mut plain = Network::new(cfg);
        let mut adv = Network::with_perturbation(cfg, PerturbationConfig::from_seed(42));
        let mut last_pair = Cycle::ZERO;
        for i in 0..300u64 {
            let (src, dst) = (NodeId((i % 16) as u16), NodeId(((i * 7) % 16) as u16));
            let t = Cycle(i * 3);
            let base = plain.send(t, src, dst, MsgSize::Small, TrafficClass::SmallCMessage);
            let pert = adv.send(t, src, dst, MsgSize::Small, TrafficClass::SmallCMessage);
            assert!(pert >= base, "perturbation may only delay deliveries");
            if (src, dst) == (NodeId(1), NodeId(7)) {
                assert!(pert >= last_pair, "same-pair deliveries stay FIFO");
                last_pair = pert;
            }
        }
        // Traffic accounting is unaffected by the adversary.
        assert_eq!(
            plain.counters().total_messages(),
            adv.counters().total_messages()
        );
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let cfg = NetworkConfig::paper_default(16);
        let run = |seed: u64| -> Vec<Cycle> {
            let mut n = Network::with_perturbation(cfg, PerturbationConfig::from_seed(seed));
            (0..100u64)
                .map(|i| {
                    n.send(
                        Cycle(i),
                        NodeId((i % 16) as u16),
                        NodeId(((i + 5) % 16) as u16),
                        MsgSize::Line,
                        TrafficClass::RemoteShRd,
                    )
                })
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(
            run(9),
            run(10),
            "the adversary actually depends on its seed"
        );
    }

    #[test]
    fn pure_latency_matches_uncontended_send() {
        let mut n = net();
        let pure = n.pure_latency(NodeId(0), NodeId(9), MsgSize::Signature);
        let sent = n.send(
            Cycle(0),
            NodeId(0),
            NodeId(9),
            MsgSize::Signature,
            TrafficClass::LargeCMessage,
        );
        assert_eq!(Cycle(pure), sent);
    }
}
