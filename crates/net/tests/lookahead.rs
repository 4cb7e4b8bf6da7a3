//! The latency floor the simulator's superphase horizon relies on.
//!
//! `sb-sim` lets every core unit run `fixed_overhead` cycles past the
//! earliest pending event, because no hub→core message sent at or after
//! that event can arrive sooner. That is only sound if *no* delivery —
//! under injection-port contention, multi-flit serialization, and the
//! seeded timing adversary, on any fabric — ever takes less than
//! `fixed_overhead` cycles, and the floor is tight: an uncontended
//! co-located send reaches it exactly.

use proptest::prelude::*;
use sb_engine::Cycle;
use sb_net::{MsgSize, Network, NetworkConfig, NodeId, PerturbationConfig, Topology};

/// Every fabric the simulator can run on.
const FABRICS: [&str; 3] = ["torus", "cmesh", "xtorus"];

const SIZES: [MsgSize; 4] = [
    MsgSize::Small,
    MsgSize::Line,
    MsgSize::Signature,
    MsgSize::SignaturePair,
];

fn class_for(i: u64) -> sb_net::TrafficClass {
    use sb_net::TrafficClass::*;
    match i % 5 {
        0 => SmallCMessage,
        1 => LargeCMessage,
        2 => MemRd,
        3 => RemoteShRd,
        _ => RemoteDirtyRd,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random power-of-two machines on every fabric and random
    /// perturbed message streams, every delivery arrives at least
    /// `fixed_overhead` cycles after its send; an uncontended,
    /// unperturbed co-located send arrives exactly then.
    #[test]
    fn every_send_arrives_at_or_after_the_fixed_overhead(
        tiles_log in 0u32..7,            // 1..=64 tiles
        fabric_pick in 0usize..3,
        seed in 0u64..1 << 32,
        msgs in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..4, 0u64..8), 1..120),
    ) {
        let tiles = 1u16 << tiles_log;
        let mut cfg = NetworkConfig::paper_default(tiles);
        cfg.topology = Topology::by_name(FABRICS[fabric_pick], tiles).expect("known fabric");
        // Vary the timing parameters too: the floor must come from the
        // config, not from the paper constants.
        cfg.link_latency = 1 + seed % 11;
        cfg.fixed_overhead = seed % 5;

        let mut net = Network::with_perturbation(cfg, PerturbationConfig::from_seed(seed));
        let mut now = Cycle::ZERO;
        for (a, b, sz, gap) in msgs {
            now += gap;
            let src = NodeId((a % tiles as u64) as u16);
            let dst = NodeId((b % tiles as u64) as u16);
            let (arrive, info) = net.send_info(now, src, dst, SIZES[sz as usize], class_for(a));
            prop_assert!(
                arrive >= now + cfg.fixed_overhead,
                "{src}->{dst} arrived after {} cycles, below the fixed overhead {} (info: {info:?})",
                (arrive - now).as_u64(),
                cfg.fixed_overhead,
            );
        }

        let tile = NodeId((seed % tiles as u64) as u16);
        let arrive = Network::new(cfg).send(
            Cycle::ZERO,
            tile,
            tile,
            MsgSize::Small,
            sb_net::TrafficClass::SmallCMessage,
        );
        prop_assert_eq!(arrive.as_u64(), cfg.fixed_overhead);
    }
}
