//! Cross-crate integration focused on the fault-simulation claims of
//! Table 6, including the top-up extension and bridging faults.

use scanft_core::flow::{run_flow, FlowConfig};
use scanft_core::generate::{generate, per_transition_baseline, GenConfig};
use scanft_fsm::{benchmarks, uio};
use scanft_sim::{campaign, faults};
use scanft_synth::{synthesize, SynthConfig};

/// On small benchmarks the default flow achieves complete detectable
/// coverage for both fault models, or the flow proves the misses redundant.
#[test]
fn complete_detectable_coverage_small_suite() {
    for name in ["lion", "bbtas", "dk15", "dk27", "shiftreg", "mc", "ex5"] {
        let table = benchmarks::build(name).expect("registry circuit");
        let report = run_flow(&table, &FlowConfig::default());
        let gate = report.gate.expect("gate level on");
        assert!(
            gate.stuck.complete_detectable_coverage(),
            "{name}: stuck-at incomplete"
        );
        assert!(
            gate.bridging.complete_detectable_coverage(),
            "{name}: bridging incomplete"
        );
    }
}

/// The top-up extension closes any masking gap: with it enabled, detected +
/// proven-undetectable accounts for every classified fault.
#[test]
fn top_up_closes_masking_gaps() {
    for name in ["dk17", "dk512"] {
        let table = benchmarks::build(name).expect("registry circuit");
        let report = run_flow(
            &table,
            &FlowConfig {
                top_up: true,
                ..FlowConfig::default()
            },
        );
        let gate = report.gate.expect("gate level on");
        for (label, m) in [("stuck", &gate.stuck), ("bridge", &gate.bridging)] {
            assert_eq!(
                m.detected + m.proven_undetectable + m.unclassified,
                m.total_faults,
                "{name}/{label}"
            );
        }
    }
}

/// The functional tests never detect fewer faults than they do transitions'
/// worth of baseline coverage misses: the per-transition baseline is an
/// upper bound that the functional set approaches.
#[test]
fn functional_vs_baseline_detection() {
    for name in ["lion", "bbtas", "dk17", "beecount"] {
        let table = benchmarks::build(name).expect("registry circuit");
        let uios = uio::derive_uios(&table, table.num_state_vars());
        let set = generate(&table, &uios, &GenConfig::default());
        let circuit = synthesize(&table, &SynthConfig::default());
        let stuck = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
        let funct = campaign::run(circuit.netlist(), &set.to_scan_tests(&circuit), &stuck);
        let base_set = per_transition_baseline(&table);
        let base = campaign::run(circuit.netlist(), &base_set.to_scan_tests(&circuit), &stuck);
        // The baseline is exhaustive over (state, input): it detects every
        // detectable fault; the functional set may mask a few but never
        // detects something the baseline misses.
        assert!(base.detected() >= funct.detected(), "{name}");
        for (f, d) in funct.detecting_test.iter().enumerate() {
            if d.is_some() {
                assert!(base.detecting_test[f].is_some(), "{name}: fault {f}");
            }
        }
    }
}

/// Bridging fault universes obey the paper's three structural conditions.
#[test]
fn bridging_pairs_satisfy_paper_conditions() {
    for name in ["lion", "dk16", "beecount"] {
        let table = benchmarks::build(name).expect("registry circuit");
        let circuit = synthesize(&table, &SynthConfig::default());
        let netlist = circuit.netlist();
        let reach = scanft_netlist::Reachability::new(netlist);
        let bridges = faults::enumerate_bridging(netlist, usize::MAX);
        for f in &bridges.faults {
            for net in [f.a, f.b] {
                let gate = netlist
                    .driver_index(net)
                    .expect("bridged nets are gate outputs");
                assert!(netlist.fanins(gate).len() > 1, "{name}: condition 1");
                assert!(
                    !netlist.fanout(net).is_empty(),
                    "{name}: condition 2 (gate input)"
                );
            }
            let shared = netlist
                .fanout(f.a)
                .iter()
                .any(|g| netlist.fanout(f.b).contains(g));
            assert!(!shared, "{name}: condition 2 (different gates)");
            assert!(reach.independent(f.a, f.b), "{name}: condition 3");
        }
    }
}

/// Effective-test pruning keeps coverage for bridging faults too.
#[test]
fn effective_bridging_tests_preserve_coverage() {
    let table = benchmarks::build("lion").expect("registry circuit");
    let uios = uio::derive_uios(&table, table.num_state_vars());
    let set = generate(&table, &uios, &GenConfig::default());
    let circuit = synthesize(&table, &SynthConfig::default());
    let bridges = faults::enumerate_bridging(circuit.netlist(), usize::MAX);
    let list = faults::bridges_as_fault_list(&bridges.faults);
    let tests = set.to_scan_tests(&circuit);
    let report = campaign::run_decreasing_length(circuit.netlist(), &tests, &list);
    let effective: Vec<_> = report
        .effective_tests()
        .iter()
        .map(|&t| tests[t].clone())
        .collect();
    let pruned = campaign::run(circuit.netlist(), &effective, &list);
    assert_eq!(pruned.detected(), report.detected());
}
