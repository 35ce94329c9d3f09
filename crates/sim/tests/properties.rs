//! Randomized property tests for the simulation substrate.
//!
//! Driven by the in-repo SplitMix64 RNG with fixed seeds so the workspace
//! builds and tests fully offline (no external `proptest`/`rand`).

#![allow(clippy::unwrap_used)]
use scanft_fsm::benchmarks::random_machine;
use scanft_fsm::rng::SplitMix64;
use scanft_netlist::Netlist;
use scanft_sim::campaign::{Kernel, SupervisedConfig};
use scanft_sim::engine::{FaultEngine, InjectionPlan};
use scanft_sim::faults::{self, Fault};
use scanft_sim::{campaign, logic, ScanTest};
use scanft_synth::{synthesize, Encoding, SynthConfig};

fn setup(
    pi: usize,
    states: usize,
    seed: u64,
    gray: bool,
) -> (scanft_fsm::StateTable, scanft_synth::SynthesizedCircuit) {
    let table = random_machine("prop", pi, 2, states, seed).unwrap();
    let config = SynthConfig {
        encoding: if gray {
            Encoding::Gray
        } else {
            Encoding::Binary
        },
        ..SynthConfig::default()
    };
    let circuit = synthesize(&table, &config);
    (table, circuit)
}

fn random_tests(
    rng: &mut SplitMix64,
    table: &scanft_fsm::StateTable,
    circuit: &scanft_synth::SynthesizedCircuit,
    count: usize,
    max_extra_len: u64,
) -> Vec<ScanTest> {
    let pi = table.num_inputs();
    (0..count)
        .map(|_| {
            let state = rng.next_below(table.num_states() as u64) as u32;
            let len = 1 + rng.next_below(max_extra_len) as usize;
            let seq = (0..len).map(|_| rng.next_below(1 << pi) as u32).collect();
            ScanTest::new(circuit.encode_state(state), seq)
        })
        .collect()
}

/// Fault-free scan simulation of the synthesized netlist agrees with the
/// state table on arbitrary multi-cycle sequences.
#[test]
fn netlist_sequences_match_table() {
    let mut rng = SplitMix64::new(0x51_0001);
    for _ in 0..32 {
        let pi = 1 + rng.next_below(3) as usize;
        let states = 2 + rng.next_below(7) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), rng.chance(1, 2));
        let start = rng.next_below(states as u64) as u32;
        let len = 1 + rng.next_below(9) as usize;
        let seq: Vec<u32> = (0..len).map(|_| rng.next_below(1 << pi) as u32).collect();
        let (fin, outs) = table.run(start, &seq);
        let test = ScanTest::new(circuit.encode_state(start), seq);
        let r = logic::simulate(circuit.netlist(), &test);
        assert_eq!(r.outputs, outs);
        assert_eq!(circuit.decode_state(r.final_code), fin);
    }
}

/// One fault alone on the narrow oracle: the reference the batched
/// (wide-kernel) campaigns below are held to.
fn narrow_single(n: &Netlist, tests: &[ScanTest], fault: &Fault) -> campaign::CampaignReport {
    let order: Vec<usize> = (0..tests.len()).collect();
    campaign::run_ordered_observing(n, tests, &order, std::slice::from_ref(fault), true)
}

/// Batched fault-parallel detection equals single-fault detection for every
/// stuck-at fault (same tests, same verdicts).
#[test]
fn batching_is_transparent_stuck() {
    let mut rng = SplitMix64::new(0x51_0002);
    for _ in 0..16 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(3) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let stuck = faults::enumerate_stuck(n);
        let list = faults::as_fault_list(&stuck);
        let tests = random_tests(&mut rng, &table, &circuit, 4, 4);
        let batched = campaign::run(n, &tests, &list);
        for (f, fault) in list.iter().enumerate() {
            let single = narrow_single(n, &tests, fault);
            assert_eq!(
                batched.detecting_test[f],
                single.detecting_test[0],
                "fault {}",
                fault.describe(n)
            );
        }
    }
}

/// Same transparency for bridging faults (two-pass evaluation).
#[test]
fn batching_is_transparent_bridging() {
    let mut rng = SplitMix64::new(0x51_0003);
    for _ in 0..16 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 3 + rng.next_below(6) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let bridges = faults::enumerate_bridging(n, 80);
        let list = faults::bridges_as_fault_list(&bridges.faults);
        if list.is_empty() {
            continue;
        }
        let tests = random_tests(&mut rng, &table, &circuit, 4, 4);
        let batched = campaign::run(n, &tests, &list);
        for (f, fault) in list.iter().enumerate() {
            let single = narrow_single(n, &tests, fault);
            assert_eq!(
                batched.detecting_test[f],
                single.detecting_test[0],
                "fault {}",
                fault.describe(n)
            );
        }
    }
}

/// Same transparency for delay faults (per-lane launch tracking).
#[test]
fn batching_is_transparent_delay() {
    let mut rng = SplitMix64::new(0x51_0004);
    for _ in 0..16 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(5) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let delays = faults::enumerate_delay(n);
        let list = faults::delays_as_fault_list(&delays);
        if list.is_empty() {
            continue;
        }
        let tests = random_tests(&mut rng, &table, &circuit, 4, 5);
        let batched = campaign::run(n, &tests, &list);
        for (f, fault) in list.iter().enumerate().step_by(3) {
            let single = narrow_single(n, &tests, fault);
            assert_eq!(
                batched.detecting_test[f],
                single.detecting_test[0],
                "fault {}",
                fault.describe(n)
            );
        }
        // Length-1 tests never detect any delay fault.
        let unit_tests: Vec<ScanTest> = (0..table.num_states() as u64)
            .map(|c| ScanTest::new(circuit.encode_state(c as u32), vec![0]))
            .collect();
        let unit = campaign::run(n, &unit_tests, &list);
        assert_eq!(unit.detected(), 0);
    }
}

/// Collapsed-class members always share detection verdicts on random
/// machines and random tests.
#[test]
fn collapse_classes_share_verdicts() {
    let mut rng = SplitMix64::new(0x51_0005);
    for _ in 0..16 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(5) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let stuck = faults::enumerate_stuck(n);
        let collapsed = scanft_sim::collapse::collapse_stuck(n, &stuck);
        let tests = random_tests(&mut rng, &table, &circuit, 6, 4);
        let full = campaign::run(n, &tests, &faults::as_fault_list(&stuck));
        let mut class_verdict: Vec<Option<bool>> = vec![None; collapsed.representatives.len()];
        for (k, &class) in collapsed.class_of.iter().enumerate() {
            let verdict = full.detecting_test[k].is_some();
            match class_verdict[class] {
                None => class_verdict[class] = Some(verdict),
                Some(first) => assert_eq!(first, verdict, "fault {k}"),
            }
        }
    }
}

/// Fault collapsing is detection-preserving: simulating only the class
/// representatives yields exactly the same set of detected classes as
/// simulating the full uncollapsed list and projecting detections onto the
/// classes — for random machines, encodings and test sets.
#[test]
fn collapse_is_detection_preserving() {
    let mut rng = SplitMix64::new(0x51_0009);
    for _ in 0..16 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(6) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), rng.chance(1, 2));
        let n = circuit.netlist();
        let stuck = faults::enumerate_stuck(n);
        let collapsed = scanft_sim::collapse::collapse_stuck(n, &stuck);
        let tests = random_tests(&mut rng, &table, &circuit, 5, 4);

        let rep_report = campaign::run(
            n,
            &tests,
            &faults::as_fault_list(&collapsed.representatives),
        );
        let full_report = campaign::run(n, &tests, &faults::as_fault_list(&stuck));

        // Classes detected through their representative.
        let by_reps: Vec<bool> = rep_report
            .detecting_test
            .iter()
            .map(Option::is_some)
            .collect();
        // Classes detected through any member of the full list.
        let mut by_members = vec![false; collapsed.representatives.len()];
        for (k, &class) in collapsed.class_of.iter().enumerate() {
            by_members[class] |= full_report.detecting_test[k].is_some();
        }
        assert_eq!(by_reps, by_members);
        // And therefore the expanded per-fault verdicts agree exactly.
        assert_eq!(
            collapsed.expand(&by_reps),
            full_report
                .detecting_test
                .iter()
                .map(Option::is_some)
                .collect::<Vec<bool>>()
        );
    }
}

/// A fault detected with a one-cycle test is classified detectable by the
/// exhaustive analysis (soundness cross-check).
#[test]
fn exhaustive_subsumes_observed_detections() {
    let mut rng = SplitMix64::new(0x51_0006);
    for _ in 0..12 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(3) as usize;
        let (table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let stuck = faults::enumerate_stuck(n);
        let list = faults::as_fault_list(&stuck);
        let tests: Vec<ScanTest> = table
            .transitions()
            .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
            .collect();
        let report = campaign::run(n, &tests, &list);
        for (f, fault) in list.iter().enumerate() {
            if report.detecting_test[f].is_some() {
                assert_eq!(
                    scanft_sim::exhaustive::is_detectable(n, fault, 1 << 22),
                    scanft_sim::exhaustive::Detectability::Detectable
                );
            }
        }
    }
}

/// `run_test` never reports detections outside the live lane mask.
#[test]
fn detection_mask_is_confined() {
    let mut rng = SplitMix64::new(0x51_0007);
    for _ in 0..32 {
        let pi = 1 + rng.next_below(2) as usize;
        let states = 2 + rng.next_below(3) as usize;
        let (_table, circuit) = setup(pi, states, rng.next_u64(), false);
        let n = circuit.netlist();
        let skip = rng.next_u64();
        let stuck = faults::enumerate_stuck(n);
        let batch: Vec<Fault> = stuck.iter().take(64).copied().map(Fault::Stuck).collect();
        let plan = InjectionPlan::new(n, &batch);
        let mut engine = FaultEngine::new(n);
        let test = ScanTest::new(0, vec![0]);
        let ff = logic::simulate(n, &test);
        let det = engine.run_test(&test, &ff, &plan, skip);
        assert_eq!(det & skip, 0);
        assert_eq!(det & !plan.lane_mask(), 0);
    }
}

/// Supervised runs on either kernel are bit-identical to
/// `run_ordered_observing` across benchmark circuits, random fault subsets,
/// both observation modes, and thread counts {1, 2, 3, 8} — on benchmarks
/// other than `lion`.
#[test]
fn parallel_matches_sequential_on_benchmarks() {
    let mut rng = SplitMix64::new(0x51_0008);
    for name in ["bbtas", "dk27", "mc"] {
        let table = scanft_fsm::benchmarks::build(name).expect("registry circuit");
        let circuit = synthesize(&table, &SynthConfig::default());
        let n = circuit.netlist();
        let tests: Vec<ScanTest> = table
            .transitions()
            .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
            .collect();
        let order: Vec<usize> = (0..tests.len()).collect();
        let all = faults::as_fault_list(&faults::enumerate_stuck(n));
        for round in 0..4 {
            // A random subset of the fault universe (about half), plus the
            // full list on the first round.
            let subset: Vec<Fault> = if round == 0 {
                all.clone()
            } else {
                all.iter().copied().filter(|_| rng.chance(1, 2)).collect()
            };
            for observe in [true, false] {
                let sequential =
                    campaign::run_ordered_observing(n, &tests, &order, &subset, observe);
                for (kernel, threads) in [Kernel::Narrow, Kernel::Wide]
                    .into_iter()
                    .flat_map(|k| [1usize, 2, 3, 8].map(|t| (k, t)))
                {
                    let config = SupervisedConfig {
                        num_threads: threads,
                        observe_scan_out: observe,
                        kernel,
                        ..SupervisedConfig::default()
                    };
                    let parallel = campaign::run_supervised(
                        n, &tests, &order, &subset, &config, None, None, None,
                    )
                    .expect("no journal involved")
                    .report;
                    assert_eq!(
                        parallel, sequential,
                        "{name}: round {round}, observe {observe}, {kernel:?} x{threads}"
                    );
                }
            }
        }
    }
}
