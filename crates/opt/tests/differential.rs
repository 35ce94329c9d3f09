//! Differential pinning of the fault mapping against the unoptimized oracle.
//!
//! For each pinned MCNC circuit: optimize, validate the certificate with
//! the independent checker, classify the stuck-at universe with
//! [`FaultPlan`], then simulate the exhaustive transition tests on the
//! narrow oracle under both observation modes. Every `Exact` fault's
//! verdict (its detecting-test index) on the reduced netlist must equal the
//! original fault's verdict on the original netlist, and every `Untestable`
//! fault must be undetected on the original. `keyb` (4096 transitions) is
//! pinned by the release-mode `opt_suite` bench binary that CI's
//! `opt-smoke` job runs.

use scanft_fsm::benchmarks;
use scanft_opt::fault_map::{FaultClass, FaultPlan};
use scanft_opt::{checker, optimize};
use scanft_sim::campaign::run_ordered_observing;
use scanft_sim::faults::{self, Fault};
use scanft_sim::ScanTest;
use scanft_synth::{synthesize, SynthConfig, SynthesizedCircuit};

fn setup(name: &str) -> (SynthesizedCircuit, Vec<ScanTest>, Vec<Fault>) {
    let table = benchmarks::build(name).expect("registry circuit");
    let c = synthesize(&table, &SynthConfig::default());
    let tests = table
        .transitions()
        .map(|t| ScanTest::new(c.encode_state(t.from), vec![t.input]))
        .collect();
    let list = faults::as_fault_list(&faults::enumerate_stuck(c.netlist()));
    (c, tests, list)
}

fn pin_circuit(name: &str) {
    let (c, tests, list) = setup(name);
    let n = c.netlist();
    let opt = optimize(n);
    let report = checker::check(n, &opt.netlist, &opt.certificate)
        .unwrap_or_else(|e| panic!("{name}: rejected certificate: {e}"));
    assert_eq!(report.steps, opt.stats.certificate_steps, "{name}");
    let plan = FaultPlan::new(n, &opt, &list);
    let (exact_idx, exact): (Vec<usize>, Vec<Fault>) = plan
        .classes
        .iter()
        .enumerate()
        .filter_map(|(f, class)| match class {
            FaultClass::Exact(translated) => Some((f, *translated)),
            _ => None,
        })
        .unzip();
    let order: Vec<usize> = (0..tests.len()).collect();
    for observe_scan_out in [true, false] {
        let base = run_ordered_observing(n, &tests, &order, &list, observe_scan_out);
        let reduced = run_ordered_observing(&opt.netlist, &tests, &order, &exact, observe_scan_out);
        for (&f, verdict) in exact_idx.iter().zip(&reduced.detecting_test) {
            assert_eq!(
                *verdict, base.detecting_test[f],
                "{name}: exact fault {f} changes verdict on the reduced netlist \
                 (observe_scan_out={observe_scan_out})"
            );
        }
        for (f, class) in plan.classes.iter().enumerate() {
            if *class == FaultClass::Untestable {
                assert_eq!(
                    base.detecting_test[f], None,
                    "{name}: fault {f} classed untestable is detected \
                     (observe_scan_out={observe_scan_out})"
                );
            }
        }
    }
}

#[test]
fn bbtas_detection_sets_are_bit_identical() {
    pin_circuit("bbtas");
}

#[test]
fn dk27_detection_sets_are_bit_identical() {
    pin_circuit("dk27");
}

#[test]
fn mc_detection_sets_are_bit_identical() {
    pin_circuit("mc");
}

#[test]
fn lion_detection_sets_are_bit_identical() {
    pin_circuit("lion");
}

/// On every suite circuit with at most 12 scan-chain inputs (PIs + state
/// variables), the fault plan's exact and untestable classes agree with
/// simulation on the original netlist, and the certificate validates.
#[test]
fn optimize_then_simulate_equals_simulate() {
    for spec in benchmarks::CIRCUITS {
        if spec.num_inputs + spec.num_state_vars > 12 || spec.num_transitions() > 2048 {
            continue; // the release-mode opt_suite bench covers the rest
        }
        pin_circuit(spec.name);
    }
}
