//! Narrow-versus-wide kernel differential properties.
//!
//! The narrow 64-lane full-resimulation kernel is the trusted oracle; the
//! wide 256-lane event-driven (PPSFP) kernel is the optimised rebuild.
//! Per-lane fault simulations are independent, so neither the batch width
//! nor the cone/worklist restriction may change a single verdict. Every
//! test here pins that equivalence on real suite circuits:
//!
//! 1. **detection sets** — `run_ordered_wide` equals `run_ordered_observing`
//!    fault-for-fault, for the paper's functional (multi-cycle) test sets
//!    over the stuck-at, bridging and delay universes, and for randomly
//!    ordered test lists;
//! 2. **coverage reports** — detected counts, per-test new-detection
//!    counts, and effectiveness tables agree;
//! 3. **journal checkpoints** — supervised runs journal bit-identical
//!    64-lane records on both kernels, and a checkpoint written by either
//!    kernel resumes under the other.
//!
//! Random orders are seeded through the workspace SplitMix64, so any
//! failure reproduces by seed.

use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::rng::SplitMix64;
use scanft_fsm::uio;
use scanft_harness::{buffer_contents, read_journal, Budget, JournalWriter};
use scanft_sim::campaign::{self, Kernel, SupervisedConfig};
use scanft_sim::engine::InjectionPlan;
use scanft_sim::faults::{self, Fault};
use scanft_sim::{LaneWord, ScanTest, W256};
use scanft_synth::{synthesize, SynthConfig};

/// Suite circuits small enough for the narrow oracle on every universe.
/// dk17 and ex3 have wide stuck-at batches whose cone union spans more
/// than one 64-position worklist word.
const CIRCUITS: [&str; 6] = ["bbtas", "dk27", "mc", "lion", "dk17", "ex3"];

struct Setup {
    circuit: scanft_synth::SynthesizedCircuit,
    tests: Vec<ScanTest>,
    faults: Vec<Fault>,
}

/// The paper's own functional test set: UIO-based state-verification
/// sequences, which are multi-cycle and therefore exercise faulty-state
/// propagation across the scan boundary in the event-driven kernel.
fn setup(name: &str) -> Setup {
    let table = scanft_fsm::benchmarks::build(name).expect("registry circuit");
    let circuit = synthesize(&table, &SynthConfig::default());
    let uios = uio::derive_uios(&table, table.num_state_vars());
    let set = generate(&table, &uios, &GenConfig::default());
    let tests = set.to_scan_tests(&circuit);
    let faults = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
    Setup {
        circuit,
        tests,
        faults,
    }
}

/// The fault universes `evaluate` and `simulate` send through the wide
/// kernel. Bridging and delay batches get no cone, so they exercise the
/// wide kernel's full-evaluation fallback.
fn universes(s: &Setup) -> [(&'static str, Vec<Fault>); 3] {
    let n = s.circuit.netlist();
    [
        ("stuck-at", s.faults.clone()),
        (
            "bridging",
            faults::bridges_as_fault_list(&faults::enumerate_bridging(n, 3000).faults),
        ),
        (
            "delay",
            faults::delays_as_fault_list(&faults::enumerate_delay(n)),
        ),
    ]
}

#[test]
fn wide_detection_sets_match_narrow_on_functional_tests() {
    for name in CIRCUITS {
        let s = setup(name);
        let order: Vec<usize> = (0..s.tests.len()).collect();
        for (universe, list) in universes(&s) {
            assert!(!list.is_empty(), "{name}: empty {universe} universe");
            for observe in [true, false] {
                let narrow = campaign::run_ordered_observing(
                    s.circuit.netlist(),
                    &s.tests,
                    &order,
                    &list,
                    observe,
                );
                let wide = campaign::run_ordered_wide(
                    s.circuit.netlist(),
                    &s.tests,
                    &order,
                    &list,
                    observe,
                );
                assert_eq!(
                    wide.detecting_test, narrow.detecting_test,
                    "{name} {universe} observe={observe}: wide kernel verdicts differ"
                );
                assert_eq!(wide.detected(), narrow.detected(), "{name} {universe}");
                assert_eq!(
                    wide.new_detections, narrow.new_detections,
                    "{name} {universe}"
                );
                assert_eq!(
                    campaign::effectiveness_table(&s.tests, &wide),
                    campaign::effectiveness_table(&s.tests, &narrow),
                    "{name} {universe}"
                );
            }
        }
    }
}

#[test]
fn some_wide_cone_spans_more_than_one_worklist_word() {
    // The wide kernel's worklist keeps one bit per cone position in u64
    // words, so the tests in this file only cover its multi-word sweep if
    // some stuck-at batch's cone union is wider than 64 gates.
    let widest: Vec<(&str, usize)> = CIRCUITS
        .iter()
        .map(|&name| {
            let s = setup(name);
            let netlist = s.circuit.netlist();
            let widest = s
                .faults
                .chunks(W256::LANES)
                .filter_map(|batch| {
                    InjectionPlan::<W256>::event_driven(netlist, batch)
                        .cone()
                        .map(scanft_netlist::FaultCone::num_gates)
                })
                .max()
                .unwrap_or(0);
            (name, widest)
        })
        .collect();
    assert!(
        widest.iter().any(|&(_, gates)| gates > 64),
        "no wide cone spans more than 64 positions: {widest:?}"
    );
}

#[test]
fn wide_matches_narrow_under_random_orders() {
    // Shuffled orders shift which test detects which fault, moving batch
    // drop points around — the kernels must still agree bit-for-bit.
    for name in CIRCUITS {
        let s = setup(name);
        for seed in 0..3u64 {
            let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
            let mut order: Vec<usize> = (0..s.tests.len()).collect();
            for i in 0..order.len() {
                let j = i + rng.next_below((order.len() - i) as u64) as usize;
                order.swap(i, j);
            }
            let narrow = campaign::run_ordered_observing(
                s.circuit.netlist(),
                &s.tests,
                &order,
                &s.faults,
                true,
            );
            let wide =
                campaign::run_ordered_wide(s.circuit.netlist(), &s.tests, &order, &s.faults, true);
            assert_eq!(
                wide.detecting_test, narrow.detecting_test,
                "{name} seed={seed}"
            );
        }
    }
}

#[test]
fn event_driven_equals_full_resimulation_on_every_tractable_circuit() {
    // Engine-level equivalence on every suite circuit tractable for the
    // exhaustive oracle (PIs + state vars <= 12): for sampled 64-lane
    // fault batches and per-transition tests, the cone-restricted
    // event-driven path must return the same detection mask as full
    // re-simulation — including under random already-detected skip masks,
    // which exercise the live-seed filtering of the worklist.
    for spec in scanft_fsm::benchmarks::CIRCUITS
        .iter()
        .filter(|s| s.num_inputs + s.num_state_vars <= 12)
    {
        let table = scanft_fsm::benchmarks::build(spec.name).expect("registry circuit");
        let circuit = synthesize(&table, &SynthConfig::default());
        let netlist = circuit.netlist();
        let mut rng = SplitMix64::from_name(spec.name);
        let mut tests: Vec<ScanTest> = table
            .transitions()
            .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
            .collect();
        sample(&mut tests, 16, &mut rng);
        let list = faults::as_fault_list(&faults::enumerate_stuck(netlist));
        let mut batches: Vec<&[scanft_sim::faults::Fault]> = list.chunks(64).collect();
        sample(&mut batches, 16, &mut rng);

        let mut full = scanft_sim::engine::FaultEngine::new(netlist);
        let mut event = scanft_sim::engine::FaultEngine::<u64>::new(netlist);
        let mut eval = scanft_sim::logic::Evaluator::new(netlist);
        for batch in batches {
            let full_plan = scanft_sim::engine::InjectionPlan::new(netlist, batch);
            let event_plan = scanft_sim::engine::InjectionPlan::<u64>::event_driven(netlist, batch);
            let mut skip = 0u64;
            for test in &tests {
                let trace = eval.record_trace(test);
                let response = trace.response();
                for observe in [true, false] {
                    let a = full.run_test_observing(test, &response, &full_plan, skip, observe);
                    let b = event.run_test_event_driven(test, &trace, &event_plan, skip, observe);
                    assert_eq!(
                        a, b,
                        "{}: event-driven diverged from full resim (skip={skip:#x} observe={observe})",
                        spec.name
                    );
                }
                // Accrete a random already-detected mask so later tests run
                // with quiesced lanes.
                skip |= rng.next_u64() & full_plan.lane_mask();
            }
        }
    }
}

/// Seeded partial Fisher–Yates sample of at most `keep` items, in place.
fn sample<T>(items: &mut Vec<T>, keep: usize, rng: &mut SplitMix64) {
    if items.len() <= keep {
        return;
    }
    for i in 0..keep {
        let j = i + rng.next_below((items.len() - i) as u64) as usize;
        items.swap(i, j);
    }
    items.truncate(keep);
}

fn journal_lines(
    name: &str,
    s: &Setup,
    order: &[usize],
    kernel: Kernel,
    max_units: Option<u64>,
) -> (campaign::PartialReport, String) {
    let mut budget = Budget::unlimited();
    if let Some(cap) = max_units {
        budget = budget.with_max_units(cap);
    }
    let config = SupervisedConfig {
        num_threads: 1,
        observe_scan_out: true,
        budget,
        label: name.to_owned(),
        kernel,
        ..SupervisedConfig::default()
    };
    let (writer, buffer) = JournalWriter::in_memory();
    let partial = campaign::run_supervised(
        s.circuit.netlist(),
        &s.tests,
        order,
        &s.faults,
        &config,
        Some(&writer),
        None,
        None,
    )
    .expect("in-memory journal write");
    (partial, buffer_contents(&buffer))
}

#[test]
fn journal_checkpoints_are_bit_identical_across_kernels() {
    // Single-threaded complete runs: both kernels must write the same
    // header and the same 64-lane records (wide records land in slot order
    // within each super batch, so the files match byte-for-byte after
    // sorting by unit — and unit order itself matches sequentially).
    for name in CIRCUITS {
        let s = setup(name);
        let order: Vec<usize> = (0..s.tests.len()).collect();
        let (narrow_report, narrow_journal) = journal_lines(name, &s, &order, Kernel::Narrow, None);
        let (wide_report, wide_journal) = journal_lines(name, &s, &order, Kernel::Wide, None);
        assert!(narrow_report.is_complete() && wide_report.is_complete());
        assert_eq!(narrow_report.report, wide_report.report, "{name}");
        assert_eq!(
            narrow_journal, wide_journal,
            "{name}: journals differ between kernels"
        );
    }
}

#[test]
fn checkpoints_resume_across_kernels_in_both_directions() {
    for name in CIRCUITS {
        let s = setup(name);
        let order: Vec<usize> = (0..s.tests.len()).collect();
        if s.faults.len() <= 64 {
            continue; // needs at least two journal units to leave a gap
        }
        let golden =
            campaign::run_ordered_observing(s.circuit.netlist(), &s.tests, &order, &s.faults, true);
        for (first, second) in [
            (Kernel::Narrow, Kernel::Wide),
            (Kernel::Wide, Kernel::Narrow),
        ] {
            // A unit cap of 1 stops the narrow kernel after one 64-lane
            // batch and the wide kernel after one 4-batch super; either
            // way the journal round-trips and the combined result must be
            // exact. (On sub-256-fault circuits the wide direction resumes
            // from a complete journal — still a valid round-trip check.)
            let (partial, journal_text) = journal_lines(name, &s, &order, first, Some(1));
            let _ = &partial;
            let journal = read_journal(&journal_text);
            let config = SupervisedConfig {
                kernel: second,
                ..SupervisedConfig::default()
            };
            let resumed = campaign::run_supervised(
                s.circuit.netlist(),
                &s.tests,
                &order,
                &s.faults,
                &config,
                None,
                Some(&journal),
                None,
            )
            .expect("cross-kernel resume");
            assert!(resumed.is_complete(), "{name} {first:?}->{second:?}");
            assert_eq!(
                resumed.into_complete().expect("complete"),
                golden,
                "{name}: resume {first:?}->{second:?} diverged"
            );
        }
    }
}
