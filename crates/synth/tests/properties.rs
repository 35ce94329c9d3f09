//! Randomized property tests: synthesized netlists compute exactly their
//! source state tables, for random machines across all configurations.
//!
//! Driven by the in-repo SplitMix64 RNG with fixed seeds so the workspace
//! builds and tests fully offline (no external `proptest`).

#![allow(clippy::unwrap_used)]
use scanft_fsm::benchmarks::random_machine;
use scanft_fsm::rng::SplitMix64;
use scanft_synth::{synthesize, verify_against_table, Encoding, SynthConfig};

#[test]
fn netlist_equals_table() {
    let mut rng = SplitMix64::new(0x5717_0001);
    for _ in 0..48 {
        let pi = 1 + rng.next_below(3) as usize;
        let po = 1 + rng.next_below(3) as usize;
        let states = 2 + rng.next_below(7) as usize;
        let table = random_machine("prop", pi, po, states, rng.next_u64()).unwrap();
        let config = SynthConfig {
            encoding: if rng.chance(1, 2) {
                Encoding::Gray
            } else {
                Encoding::Binary
            },
            minimize: rng.chance(1, 2),
            max_fanin: 2 + rng.next_below(4) as usize,
        };
        let circuit = synthesize(&table, &config);
        assert!(verify_against_table(&circuit, &table, None).is_ok());
        // All mapped gates respect the fanin bound.
        let netlist = circuit.netlist();
        for g in 0..netlist.num_gates() {
            assert!(netlist.fanins(g).len() <= config.max_fanin);
        }
    }
}

/// Minimization never increases literal cost and preserves functions.
#[test]
fn minimize_is_sound_and_non_worsening() {
    let mut rng = SplitMix64::new(0x5717_0002);
    for _ in 0..32 {
        let pi = 1 + rng.next_below(3) as usize;
        let states = 2 + rng.next_below(7) as usize;
        let table = random_machine("prop", pi, 2, states, rng.next_u64()).unwrap();
        let spec = scanft_synth::cover::extract(&table, Encoding::Binary);
        for cover in &spec.covers {
            let min = scanft_synth::minimize::minimize_cover(cover);
            assert!(min.literal_count() <= cover.literal_count());
            for p in 0..(1u32 << spec.num_vars) {
                assert_eq!(min.eval(p), cover.eval(p), "point {p}");
            }
        }
    }
}
