//! `enumerate_bridging` against a test-side copy of the enumeration that
//! materialises every qualifying pair before taking the stride subsample.
//!
//! The product code counts pairs per candidate line and revisits only the
//! lines that hold a kept stride position, so its memory no longer grows
//! with the roughly `C²/2` qualifying pairs. The kept faults, the reported
//! pair count and the `sim.faults.bridge_pairs*` counters must stay
//! exactly those of the materialising version.
//!
//! One test in its own binary: the counters are process-global, so no
//! other test may enumerate concurrently.

#![allow(clippy::unwrap_used)]
use scanft_netlist::{NetId, Netlist, Reachability};
use scanft_sim::faults::{enumerate_bridging, BridgeKind, BridgingFault};
use scanft_synth::{synthesize, SynthConfig};

/// The materialising enumeration: every qualifying pair, then the stride.
fn materialised(netlist: &Netlist, max_pairs: usize) -> (Vec<BridgingFault>, usize) {
    let reach = Reachability::new(netlist);
    let candidates: Vec<NetId> = (0..netlist.num_gates())
        .map(|g| netlist.gate_output(g))
        .filter(|&net| {
            let g = netlist.driver_index(net).unwrap();
            netlist.fanins(g).len() > 1 && !netlist.fanout(net).is_empty()
        })
        .collect();
    let mut pairs: Vec<(NetId, NetId)> = Vec::new();
    for (i, &a) in candidates.iter().enumerate() {
        for &b in &candidates[i + 1..] {
            let shares_consumer = netlist
                .fanout(a)
                .iter()
                .any(|g| netlist.fanout(b).contains(g));
            if !shares_consumer && reach.independent(a, b) {
                pairs.push((a, b));
            }
        }
    }
    let total = pairs.len();
    let kept: Vec<(NetId, NetId)> = if total > max_pairs && max_pairs > 0 {
        (0..max_pairs)
            .map(|k| pairs[k * total / max_pairs])
            .collect()
    } else {
        pairs
    };
    let faults = kept
        .iter()
        .flat_map(|&(a, b)| {
            [BridgeKind::And, BridgeKind::Or]
                .into_iter()
                .map(move |kind| BridgingFault { a, b, kind })
        })
        .collect();
    (faults, total)
}

#[test]
fn bounded_enumeration_matches_the_materialising_one() {
    let obs = scanft_obs::global();
    let pairs = obs.counter("sim.faults.bridge_pairs");
    let dropped = obs.counter("sim.faults.bridge_pairs_dropped");
    let mut capped_somewhere = false;
    for name in ["lion", "bbtas", "ex3", "dk16"] {
        let table = scanft_fsm::benchmarks::build(name).unwrap();
        let circuit = synthesize(&table, &SynthConfig::default());
        let netlist = circuit.netlist();
        for cap in [0, 50, 3000] {
            let (faults, total) = materialised(netlist, cap);
            let (pairs_before, dropped_before) = (pairs.get(), dropped.get());
            let got = enumerate_bridging(netlist, cap);
            assert_eq!(got.total_pairs, total, "{name} cap {cap}: pair count");
            assert_eq!(got.faults, faults, "{name} cap {cap}: kept faults");
            assert_eq!(pairs.get() - pairs_before, total as u64, "{name} cap {cap}");
            assert_eq!(
                dropped.get() - dropped_before,
                (total - faults.len() / 2) as u64,
                "{name} cap {cap}: dropped pairs"
            );
            capped_somewhere |= faults.len() / 2 < total;
        }
    }
    assert!(capped_somewhere, "some circuit exercises the stride");
}
