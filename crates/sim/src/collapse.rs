//! Structural collapsing of stuck-at faults: equivalence and dominance.
//!
//! Two faults are *equivalent* when every test detects both or neither —
//! they induce the same faulty function. The classic structural rules give
//! a sound (if incomplete) equivalence:
//!
//! - an AND input s-a-0 ≡ the AND output s-a-0 (controlling value);
//! - an OR input s-a-1 ≡ the OR output s-a-1;
//! - a NAND input s-a-0 ≡ the NAND output s-a-1;
//! - a NOR input s-a-1 ≡ the NOR output s-a-0;
//! - NOT input s-a-v ≡ output s-a-!v, BUF input s-a-v ≡ output s-a-v.
//!
//! Fault *dominance* shrinks the list further: fault `A` dominates `B` when
//! every test detecting `B` also detects `A`, so targeting `B` covers `A`
//! for free. Structurally, a gate output stuck at the non-controlled value
//! (`!c ^ inversion`) dominates each input stuck at the non-controlling
//! value `!c`: detecting the input fault forces every side input
//! non-controlling, which produces exactly the output fault's good/faulty
//! difference on the output net and propagates it the same way. The rule is
//! only applied when the *witness* (the dominated input fault) truly has no
//! detection path that bypasses the gate: a branch fault never has one, and
//! a single-fanout stem qualifies exactly when the gate output is its
//! immediate post-dominator ([`scanft_netlist::PostDominators`]) — a stem
//! that is itself observed, or dead, is excluded by that test.
//!
//! Fault simulation then only needs one representative per class. The
//! paper's fault counts (e.g. 40 for `lion`) come from a collapsed set on
//! its own netlist; this module lets the same reduction be applied here.
//! Dominance drops make [`CollapsedFaults::expand`] *conservative* (see its
//! docs), so the default [`collapse_stuck`] stays equivalence-only.

use std::collections::{HashMap, HashSet};

use scanft_netlist::{GateKind, NetId, Netlist, PostDominators};

use crate::faults::{FaultSite, StuckFault};

/// Knobs for [`collapse_stuck_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CollapseConfig {
    /// Also drop classes whose faults are dominated-covered by a surviving
    /// witness class (see the module docs). Off by default because it makes
    /// [`CollapsedFaults::expand`] a lower bound instead of exact.
    pub dominance: bool,
}

/// Result of collapsing a stuck-at fault list.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    /// One representative fault per surviving class, in the order of the
    /// input list (the first member of each class).
    pub representatives: Vec<StuckFault>,
    /// For each *input* fault (by index into the original list), the index
    /// of its class in `representatives` — for a dominance-dropped fault,
    /// the class of its witness.
    pub class_of: Vec<usize>,
}

impl CollapsedFaults {
    /// Collapse ratio: representatives / original faults.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.class_of.is_empty() {
            return 1.0;
        }
        self.representatives.len() as f64 / self.class_of.len() as f64
    }

    /// Expands a per-representative detection flag vector back to the full
    /// fault list.
    ///
    /// Exact for equivalence-only collapsing. With dominance drops, sound
    /// but conservative: a dropped fault reports its witness's flag, and a
    /// test detecting the witness provably detects the dropped fault, while
    /// an undetected witness leaves the dropped fault *possibly* detected
    /// by some other test — so coverage is never over-reported.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len() != representatives.len()`.
    #[must_use]
    pub fn expand<T: Copy>(&self, detected: &[T]) -> Vec<T> {
        assert_eq!(detected.len(), self.representatives.len());
        self.class_of.iter().map(|&c| detected[c]).collect()
    }
}

/// Collapses `faults` by the structural equivalence rules above.
///
/// # Examples
///
/// ```
/// use scanft_sim::{collapse, faults};
/// use scanft_synth::{synthesize, SynthConfig};
///
/// let lion = scanft_fsm::benchmarks::lion();
/// let c = synthesize(&lion, &SynthConfig::default());
/// let stuck = faults::enumerate_stuck(c.netlist());
/// let collapsed = collapse::collapse_stuck(c.netlist(), &stuck);
/// assert!(collapsed.representatives.len() < stuck.len());
/// assert!(collapsed.ratio() < 1.0);
/// ```
#[must_use]
pub fn collapse_stuck(netlist: &Netlist, faults: &[StuckFault]) -> CollapsedFaults {
    collapse_stuck_with(netlist, faults, &CollapseConfig::default())
}

/// Collapses `faults` by structural equivalence, optionally followed by
/// dominance class drops (see the module docs for both rules and the
/// soundness argument).
#[must_use]
pub fn collapse_stuck_with(
    netlist: &Netlist,
    faults: &[StuckFault],
    config: &CollapseConfig,
) -> CollapsedFaults {
    let index: HashMap<StuckFault, usize> =
        faults.iter().enumerate().map(|(k, &f)| (f, k)).collect();

    // Union-find over fault indices.
    let mut parent: Vec<usize> = (0..faults.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Attach the larger index under the smaller so the first-seen
            // fault stays the representative.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    };

    // The fault on the *pin* (gate, p): a branch fault when the source net
    // branches, otherwise the stem fault of the source net — but only when
    // the stem feeds nothing else. A net that is also a primary or
    // pseudo-primary output is observed directly, so its stem fault is NOT
    // equivalent to the downstream pin fault.
    let pin_fault = |g: u32, p: u32, source: NetId, stuck_at_one: bool| -> Option<usize> {
        let site = if netlist.fanout(source).len() > 1 {
            FaultSite::Branch { gate: g, pin: p }
        } else {
            if netlist.pos().contains(&source) || netlist.ppos().contains(&source) {
                return None;
            }
            FaultSite::Net(source)
        };
        index.get(&StuckFault { site, stuck_at_one }).copied()
    };
    let out_fault = |net: NetId, stuck_at_one: bool| -> Option<usize> {
        index
            .get(&StuckFault {
                site: FaultSite::Net(net),
                stuck_at_one,
            })
            .copied()
    };

    for g in 0..netlist.num_gates() {
        let out = netlist.gate_output(g);
        // (pin stuck value, output stuck value) pairs that are equivalent.
        let relations: &[(bool, bool)] = match netlist.kind(g) {
            GateKind::And => &[(false, false)],
            GateKind::Or => &[(true, true)],
            GateKind::Nand => &[(false, true)],
            GateKind::Nor => &[(true, false)],
            GateKind::Not => &[(false, true), (true, false)],
            GateKind::Buf => &[(false, false), (true, true)],
            // XOR has no controlling value: no structural equivalence.
            GateKind::Xor => &[],
        };
        for (p, &source) in netlist.fanins(g).iter().enumerate() {
            for &(pin_value, out_value) in relations {
                if let (Some(a), Some(b)) = (
                    pin_fault(g as u32, p as u32, source, pin_value),
                    out_fault(out, out_value),
                ) {
                    union(&mut parent, a, b);
                }
            }
        }
    }

    // Dominance: per class, an optional witness class covering it. The
    // dropped fault is the gate output stuck at the non-controlled value;
    // the witness is an input pin stuck at the non-controlling value whose
    // only detection path runs through this gate.
    let mut witness_of: HashMap<usize, usize> = HashMap::new();
    if config.dominance {
        let post = PostDominators::new(netlist);
        for g in 0..netlist.num_gates() {
            let (controlling, invert) = match netlist.kind(g) {
                GateKind::And => (false, false),
                GateKind::Or => (true, false),
                GateKind::Nand => (false, true),
                GateKind::Nor => (true, true),
                // Unary gates are fully covered by equivalence; XOR has no
                // controlling value, so neither rule applies.
                GateKind::Not | GateKind::Buf | GateKind::Xor => continue,
            };
            let out = netlist.gate_output(g);
            let Some(&dropped) = index.get(&StuckFault {
                site: FaultSite::Net(out),
                stuck_at_one: !controlling ^ invert,
            }) else {
                continue;
            };
            for (p, &source) in netlist.fanins(g).iter().enumerate() {
                let site = if netlist.fanout(source).len() > 1 {
                    // A branch fault affects only this gate's input: every
                    // detection necessarily propagates through the gate.
                    FaultSite::Branch {
                        gate: g as u32,
                        pin: p as u32,
                    }
                } else if post.idom(source) == Some(out) {
                    // Single-fanout stem whose immediate post-dominator is
                    // the gate output: not itself observed, so the same
                    // argument applies to the stem fault.
                    FaultSite::Net(source)
                } else {
                    continue;
                };
                let Some(&witness) = index.get(&StuckFault {
                    site,
                    stuck_at_one: !controlling,
                }) else {
                    continue;
                };
                let (rd, rw) = (find(&mut parent, dropped), find(&mut parent, witness));
                if rd != rw {
                    witness_of.entry(rd).or_insert(rw);
                }
            }
        }
    }

    // Resolve witness chains to a surviving class per dropped class. Chains
    // are followed transitively (a test for the final witness detects every
    // fault along the way); a cycle keeps its current class conservatively.
    let mut resolved: HashMap<usize, usize> = HashMap::new();
    for k in 0..faults.len() {
        let root = find(&mut parent, k);
        if resolved.contains_key(&root) {
            continue;
        }
        let mut chain = vec![root];
        let mut on_chain: HashSet<usize> = HashSet::from([root]);
        let kept = loop {
            let cur = chain[chain.len() - 1];
            match witness_of.get(&cur) {
                None => break cur,
                Some(&w) => {
                    if let Some(&k) = resolved.get(&w) {
                        break k;
                    }
                    if on_chain.contains(&w) {
                        break cur;
                    }
                    chain.push(w);
                    on_chain.insert(w);
                }
            }
        };
        for c in chain {
            resolved.insert(c, kept);
        }
    }

    // Build classes with first-seen representatives.
    let mut class_index: HashMap<usize, usize> = HashMap::new();
    let mut representatives = Vec::new();
    let mut class_of = Vec::with_capacity(faults.len());
    for k in 0..faults.len() {
        let root = find(&mut parent, k);
        let kept = *resolved.get(&root).unwrap_or(&root);
        let class = *class_index.entry(kept).or_insert_with(|| {
            representatives.push(faults[kept]);
            representatives.len() - 1
        });
        class_of.push(class);
    }
    CollapsedFaults {
        representatives,
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, Fault};
    use crate::{campaign, ScanTest};
    use scanft_netlist::NetlistBuilder;
    use scanft_synth::{synthesize, SynthConfig};

    #[test]
    fn inverter_chain_collapses_hard() {
        let mut b = NetlistBuilder::new(1, 0);
        let g1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let g2 = b.add_gate(GateKind::Not, &[g1]).unwrap();
        let n = b.finish(vec![g2], vec![]).unwrap();
        let stuck = faults::enumerate_stuck(&n);
        assert_eq!(stuck.len(), 6); // 3 nets * 2
        let collapsed = collapse_stuck(&n, &stuck);
        // The whole chain is one pair of classes: x1 sa0 ≡ g1 sa1 ≡ g2 sa0,
        // x1 sa1 ≡ g1 sa0 ≡ g2 sa1.
        assert_eq!(collapsed.representatives.len(), 2);
    }

    #[test]
    fn and_gate_controlling_value() {
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a], vec![]).unwrap();
        let stuck = faults::enumerate_stuck(&n);
        assert_eq!(stuck.len(), 6);
        let collapsed = collapse_stuck(&n, &stuck);
        // x1 sa0 ≡ x2 sa0 ≡ a sa0 collapse into one class; the three sa1
        // faults stay distinct: 4 classes.
        assert_eq!(collapsed.representatives.len(), 4);
    }

    #[test]
    fn expansion_round_trips() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let stuck = faults::enumerate_stuck(c.netlist());
        let collapsed = collapse_stuck(c.netlist(), &stuck);
        let marks: Vec<bool> = (0..collapsed.representatives.len())
            .map(|k| k % 2 == 0)
            .collect();
        let expanded = collapsed.expand(&marks);
        assert_eq!(expanded.len(), stuck.len());
        for (k, &class) in collapsed.class_of.iter().enumerate() {
            assert_eq!(expanded[k], marks[class]);
        }
    }

    /// Soundness: every member of a class has the same detection outcome
    /// under the exhaustive per-transition test set.
    #[test]
    fn classes_are_detection_equivalent() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let stuck = faults::enumerate_stuck(c.netlist());
        let collapsed = collapse_stuck(c.netlist(), &stuck);
        assert!(collapsed.representatives.len() < stuck.len());
        let tests: Vec<ScanTest> = lion
            .transitions()
            .map(|t| ScanTest::new(u64::from(t.from), vec![t.input]))
            .collect();
        let full = campaign::run(c.netlist(), &tests, &faults::as_fault_list(&stuck));
        // All members of a class must agree on their detecting test.
        let mut per_class: Vec<Option<Option<usize>>> = vec![None; collapsed.representatives.len()];
        for (k, &class) in collapsed.class_of.iter().enumerate() {
            match per_class[class] {
                None => per_class[class] = Some(full.detecting_test[k]),
                Some(first) => assert_eq!(
                    first.is_some(),
                    full.detecting_test[k].is_some(),
                    "fault {k} disagrees with its class"
                ),
            }
        }
    }

    #[test]
    fn dominance_drops_noncontrolled_output_faults() {
        // PO = AND(x1, x2): equivalence leaves 4 classes; dominance drops
        // the output s-a-1 class (witnessed by either input s-a-1).
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a], vec![]).unwrap();
        let stuck = faults::enumerate_stuck(&n);
        let equivalence = collapse_stuck(&n, &stuck);
        assert_eq!(equivalence.representatives.len(), 4);
        let dominance = collapse_stuck_with(&n, &stuck, &CollapseConfig { dominance: true });
        assert_eq!(dominance.representatives.len(), 3);
        assert!(!dominance.representatives.contains(&StuckFault {
            site: FaultSite::Net(a),
            stuck_at_one: true,
        }));
        // The dropped fault maps to its witness's class.
        let dropped = stuck
            .iter()
            .position(|f| f.site == FaultSite::Net(a) && f.stuck_at_one)
            .unwrap();
        let witness = stuck
            .iter()
            .position(|f| f.site == FaultSite::Net(0) && f.stuck_at_one)
            .unwrap();
        assert_eq!(
            dominance.class_of[dropped], dominance.class_of[witness],
            "dropped output fault must ride with its witness"
        );
    }

    #[test]
    fn observed_stem_is_not_a_dominance_witness() {
        // g = AND(x1, x2) where x1 is also a PO: x1 s-a-1 can be detected
        // straight at the PO without propagating through g, so it must not
        // witness a drop of g s-a-1.
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g, 0], vec![]).unwrap();
        let stuck = faults::enumerate_stuck(&n);
        let dominance = collapse_stuck_with(&n, &stuck, &CollapseConfig { dominance: true });
        // x2 s-a-1 still witnesses the drop (single fanout into g), so the
        // class count shrinks by one — but the surviving witness must be x2,
        // never the observed x1.
        let dropped = stuck
            .iter()
            .position(|f| f.site == FaultSite::Net(g) && f.stuck_at_one)
            .unwrap();
        let x2 = stuck
            .iter()
            .position(|f| f.site == FaultSite::Net(1) && f.stuck_at_one)
            .unwrap();
        assert_eq!(dominance.class_of[dropped], dominance.class_of[x2]);
    }

    /// Soundness of dominance expansion: expanded flags never over-report —
    /// every fault flagged detected is confirmed by the full simulation —
    /// and kept representatives report exactly.
    #[test]
    fn dominance_expansion_never_over_reports() {
        for name in ["lion", "bbtas", "dk27", "mc", "beecount"] {
            let table = scanft_fsm::benchmarks::build(name).unwrap();
            let c = synthesize(&table, &SynthConfig::default());
            let stuck = faults::enumerate_stuck(c.netlist());
            let equivalence = collapse_stuck(c.netlist(), &stuck);
            let dominance =
                collapse_stuck_with(c.netlist(), &stuck, &CollapseConfig { dominance: true });
            assert!(
                dominance.representatives.len() <= equivalence.representatives.len(),
                "{name}: dominance did not shrink the class count"
            );
            let tests: Vec<ScanTest> = table
                .transitions()
                .map(|t| ScanTest::new(u64::from(t.from), vec![t.input]))
                .collect();
            let reps: Vec<Fault> = dominance
                .representatives
                .iter()
                .copied()
                .map(Fault::Stuck)
                .collect();
            let rep_report = campaign::run(c.netlist(), &tests, &reps);
            let full = campaign::run(c.netlist(), &tests, &faults::as_fault_list(&stuck));
            let rep_flags: Vec<bool> = rep_report
                .detecting_test
                .iter()
                .map(Option::is_some)
                .collect();
            let expanded = dominance.expand(&rep_flags);
            for (k, &flag) in expanded.iter().enumerate() {
                if flag {
                    assert!(
                        full.detecting_test[k].is_some(),
                        "{name}: fault {k} flagged detected but is not"
                    );
                }
            }
        }
    }

    /// Simulating only representatives gives the same class-level coverage
    /// as simulating everything.
    #[test]
    fn representative_simulation_is_sufficient() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let stuck = faults::enumerate_stuck(c.netlist());
        let collapsed = collapse_stuck(c.netlist(), &stuck);
        let tests: Vec<ScanTest> = lion
            .transitions()
            .map(|t| ScanTest::new(u64::from(t.from), vec![t.input]))
            .collect();
        let reps: Vec<Fault> = collapsed
            .representatives
            .iter()
            .copied()
            .map(Fault::Stuck)
            .collect();
        let rep_report = campaign::run(c.netlist(), &tests, &reps);
        let full = campaign::run(c.netlist(), &tests, &faults::as_fault_list(&stuck));
        let rep_flags: Vec<bool> = rep_report
            .detecting_test
            .iter()
            .map(Option::is_some)
            .collect();
        let expanded = collapsed.expand(&rep_flags);
        for (k, flag) in expanded.iter().enumerate() {
            assert_eq!(*flag, full.detecting_test[k].is_some(), "fault {k}");
        }
    }
}
