//! Ablation (beyond the paper's tables): scan versus non-scan functional
//! testing — the paper's concluding claim, measured.
//!
//! "Earlier procedures that did not use scan did not report complete fault
//! coverage of gate-level faults. This points to the effectiveness of
//! scan-based functional tests." For each circuit this binary generates
//! both test styles and compares:
//!
//! - functional transition-fault coverage (non-scan observes only the
//!   primary outputs and can only reach/verify what reset reaches);
//! - gate-level stuck-at coverage on the synthesized implementation.

use scanft_bench::{pct, plan_circuits, Args, Budget};
use scanft_core::generate::{generate, GenConfig};
use scanft_core::nonscan::{generate_nonscan, NonScanConfig};
use scanft_fsm::sta::{self, StaUniverse};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{benchmarks, StateId};
use scanft_sim::{campaign, faults, ScanTest};
use scanft_synth::{synthesize, SynthConfig};

fn main() {
    let args = Args::parse();
    println!("Ablation: scan-based vs non-scan functional tests");
    println!();
    println!("  circuit  | verified% || sta: scan% | nonscan% || stuck-at: scan% | nonscan%");
    scanft_bench::rule(80);
    for (spec, run) in plan_circuits(&args, Budget::GateLevel) {
        if !run {
            println!("  {:<8} | {:>60}", spec.name, "skipped(budget)");
            continue;
        }
        let table = benchmarks::build(spec.name).expect("registry circuit");
        let uios = derive_uios_with(&table, &UioConfig::with_max_len(table.num_state_vars()));

        // Scan-based tests (the paper's procedure).
        let scan_set = generate(&table, &uios, &GenConfig::default());
        // Non-scan tests (reset-applied, PO-observed).
        let nonscan = generate_nonscan(&table, &uios, &NonScanConfig::default());

        // Functional transition-fault coverage. The Full universe has
        // trans * (states * 2^outputs - 1) faults — switch to sampling
        // before it explodes (e.g. mark1's 16 outputs).
        let full_size = spec.num_transitions()
            * (spec.num_states << spec.num_outputs.min(20)).saturating_sub(1);
        let universe = if full_size <= 4096 {
            StaUniverse::Full
        } else {
            StaUniverse::Sampled(0xD5A7)
        };
        let sta_faults = sta::enumerate(&table, universe);
        let scan_tests: Vec<(StateId, Vec<u32>)> = scan_set
            .tests
            .iter()
            .map(|t| (t.initial_state, t.inputs.clone()))
            .collect();
        let sta_scan = sta::coverage(&table, &scan_tests, &sta_faults);
        let sta_nonscan = sta::coverage_observing(&table, &nonscan.as_tests(0), &sta_faults, false);

        // Gate-level stuck-at coverage.
        let circuit = synthesize(&table, &SynthConfig::default());
        let stuck = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
        let gate_scan = campaign::run(circuit.netlist(), &scan_set.to_scan_tests(&circuit), &stuck);
        let nonscan_gate_tests: Vec<ScanTest> = nonscan
            .sequences
            .iter()
            .map(|seq| ScanTest::new(circuit.encode_state(0), seq.clone()))
            .collect();
        let order: Vec<usize> = (0..nonscan_gate_tests.len()).collect();
        let gate_nonscan = campaign::run_ordered_wide(
            circuit.netlist(),
            &nonscan_gate_tests,
            &order,
            &stuck,
            false,
        );

        println!(
            "  {:<8} | {:>8} || {:>10} | {:>8} || {:>15} | {:>8}",
            spec.name,
            pct(nonscan.percent_verified(&table)),
            pct(sta_scan.coverage_percent()),
            pct(sta_nonscan.coverage_percent()),
            pct(gate_scan.coverage_percent()),
            pct(gate_nonscan.coverage_percent()),
        );
        assert!(
            sta_scan.detected() >= sta_nonscan.detected(),
            "{}: scan must dominate non-scan on transition faults",
            spec.name
        );
    }
    scanft_bench::rule(80);
    println!("  claim reproduced when the scan columns dominate the non-scan columns;");
    println!("  `verified%` is the fraction of transitions whose next state the");
    println!("  non-scan tests can verify at all (UIO exists and state reachable).");
}
