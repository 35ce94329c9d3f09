//! Static untestability pruning of the stuck-at fault universe.
//!
//! A stuck-at fault is detectable only if its site can be driven to the
//! opposite of the stuck value (activation) and the resulting error can
//! reach a primary or pseudo-primary output (propagation). When either
//! SCOAP measure saturates at [`INFINITE`](crate::INFINITE), no input
//! assignment whatsoever accomplishes the step, so the fault is
//! **statically untestable** — provably undetectable from structure alone,
//! without running ATPG. Pruning these before PODEM removes exactly the
//! faults on which PODEM would burn its full decision budget to conclude
//! `Redundant` (or worse, `Aborted`).
//!
//! A second, stronger prune layers on top of SCOAP: the **FIRE-style**
//! implication check ([`is_fire_untestable`]). Every test detecting a fault
//! must satisfy a set of *necessary* good-value literals — the activation
//! value plus non-controlling side inputs at every dominator gate
//! ([`crate::Requirements::requirements`]). If the implication closure
//! ([`crate::Implications`]) shows those literals mutually inconsistent, no
//! test exists and the fault is untestable without any search.
//!
//! The converse does **not** hold: finite SCOAP measures and consistent
//! requirement sets do not prove testability (both ignore most
//! reconvergent-fanout correlation), so surviving faults still go through
//! ATPG. The classification here is sound, not complete — the cross-check
//! against the exhaustive oracle in the test suite relies on that
//! soundness.

use scanft_netlist::Netlist;
use scanft_sim::faults::{FaultSite, StuckFault};

use crate::implications::Implications;
use crate::requirements::Requirements;
use crate::scoap::Scoap;
use crate::Analysis;

/// The fault universe split by static testability.
#[derive(Debug, Clone)]
pub struct PruneResult {
    /// Faults that survive pruning and proceed to ATPG.
    pub testable: Vec<StuckFault>,
    /// Faults proven undetectable by structure alone.
    pub untestable: Vec<StuckFault>,
}

impl PruneResult {
    /// Fraction of the universe removed, in `[0, 1]`.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.testable.len() + self.untestable.len();
        if total == 0 {
            0.0
        } else {
            self.untestable.len() as f64 / total as f64
        }
    }
}

/// Whether `fault` is provably undetectable from the SCOAP measures.
///
/// Activation needs the site's driving net controllable to the opposite of
/// the stuck value; propagation needs finite observability at the fault
/// site — the stem observability for a stem fault, the pin observability
/// for a branch fault.
#[must_use]
pub fn is_statically_untestable(netlist: &Netlist, scoap: &Scoap, fault: &StuckFault) -> bool {
    let activation_value = !fault.stuck_at_one;
    match fault.site {
        FaultSite::Net(net) => {
            scoap.is_uncontrollable(net, activation_value) || scoap.is_unobservable(net)
        }
        FaultSite::Branch { gate, pin } => {
            let stem = netlist.fanins(gate as usize)[pin as usize];
            scoap.is_uncontrollable(stem, activation_value)
                || scoap.pin_co(gate as usize, pin as usize) == crate::INFINITE
        }
    }
}

/// Whether `fault` is provably undetectable by the FIRE-style implication
/// argument: the necessary good-value literals of any detecting test (see
/// [`Requirements::requirements`]) are mutually inconsistent under the
/// implication closure.
///
/// Sound, not complete — a `false` answer proves nothing.
#[must_use]
pub fn is_fire_untestable(
    netlist: &Netlist,
    implications: &Implications,
    requirements: &Requirements,
    fault: &StuckFault,
) -> bool {
    let Some(required) = requirements.requirements(netlist, fault) else {
        // Structurally dead (no path to an output) or a single net required
        // at both values.
        return true;
    };
    let mut forced: Vec<Option<bool>> = vec![None; netlist.num_nets()];
    for &(net, v) in &required {
        if implications.infeasible(net, v) {
            return true;
        }
        // Everything a necessary literal forces is itself necessary; a
        // clash anywhere in the union of closures proves untestability.
        for (forced_net, forced_v) in implications.implied(net, v) {
            match forced[forced_net as usize] {
                Some(x) if x != forced_v => return true,
                _ => forced[forced_net as usize] = Some(forced_v),
            }
        }
    }
    false
}

/// Whether `fault` is statically untestable under the combined SCOAP and
/// FIRE-style implication checks.
#[must_use]
pub fn is_statically_untestable_with(
    netlist: &Netlist,
    analysis: &Analysis,
    fault: &StuckFault,
) -> bool {
    is_statically_untestable(netlist, &analysis.scoap, fault)
        || is_fire_untestable(
            netlist,
            &analysis.implications,
            &analysis.requirements,
            fault,
        )
}

/// Splits `faults` into statically testable and untestable partitions,
/// preserving order within each partition.
#[must_use]
pub fn prune_untestable(netlist: &Netlist, scoap: &Scoap, faults: &[StuckFault]) -> PruneResult {
    let (untestable, testable) = faults
        .iter()
        .partition(|f| is_statically_untestable(netlist, scoap, f));
    let result = PruneResult {
        testable,
        untestable,
    };
    scanft_obs::global()
        .counter("analyze.prune.untestable")
        .add(result.untestable.len() as u64);
    result
}

/// Splits `faults` with the combined SCOAP + FIRE classification,
/// preserving order within each partition. The `analyze.prune.fire`
/// counter records how many faults only the implication argument caught.
#[must_use]
pub fn prune_untestable_with(
    netlist: &Netlist,
    analysis: &Analysis,
    faults: &[StuckFault],
) -> PruneResult {
    let (untestable, testable): (Vec<StuckFault>, Vec<StuckFault>) = faults
        .iter()
        .partition(|f| is_statically_untestable_with(netlist, analysis, f));
    let fire_only = untestable
        .iter()
        .filter(|f| !is_statically_untestable(netlist, &analysis.scoap, f))
        .count();
    let result = PruneResult {
        testable,
        untestable,
    };
    let obs = scanft_obs::global();
    obs.counter("analyze.prune.untestable")
        .add(result.untestable.len() as u64);
    obs.counter("analyze.prune.fire").add(fire_only as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::{GateKind, NetlistBuilder};
    use scanft_sim::faults::enumerate_stuck;

    #[test]
    fn fully_testable_circuit_prunes_nothing() {
        let mut b = NetlistBuilder::new(2, 1);
        let and = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let ns = b.add_gate(GateKind::Xor, &[and, 2]).unwrap();
        let n = b.finish(vec![and], vec![ns]).unwrap();
        let scoap = Scoap::new(&n);
        let faults = enumerate_stuck(&n);
        let result = prune_untestable(&n, &scoap, &faults);
        assert!(result.untestable.is_empty());
        assert_eq!(result.testable.len(), faults.len());
        assert_eq!(result.pruned_fraction(), 0.0);
    }

    #[test]
    fn faults_behind_a_dead_cone_are_pruned() {
        // g1 = AND(x1, x2) feeds only g2 = NOT(g1); g2 dangles (connected
        // nets g1 yes, g2 no). enumerate_stuck skips disconnected g2 but
        // keeps g1, whose only path dies at g2.
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let _g2 = b.add_gate(GateKind::Not, &[g1]).unwrap();
        let live = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![live], vec![]).unwrap();
        let scoap = Scoap::new(&n);
        let faults = enumerate_stuck(&n);
        let result = prune_untestable(&n, &scoap, &faults);
        // Pruned: g1 stems, plus the x1/x2 branches feeding g1 (gate 0).
        assert!(result
            .untestable
            .iter()
            .all(|f| matches!(f.site, FaultSite::Net(net) if net == g1)
                || matches!(f.site, FaultSite::Branch { gate: 0, .. })));
        assert_eq!(result.untestable.len(), 6);
        // Stems of x1/x2 survive through the live OR gate.
        for net in [0, 1] {
            assert!(result
                .testable
                .iter()
                .any(|f| f.site == FaultSite::Net(net)));
        }
    }

    #[test]
    fn branch_faults_judged_at_their_own_pin() {
        // x1 branches: one branch reaches a PO, the other dies in a dangling
        // cone. The stem stays observable; only the dead branch's faults go.
        let mut b = NetlistBuilder::new(2, 0);
        let live = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let dead_and = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let _dead = b.add_gate(GateKind::Not, &[dead_and]).unwrap();
        let n = b.finish(vec![live], vec![]).unwrap();
        let scoap = Scoap::new(&n);
        let faults = enumerate_stuck(&n);
        let result = prune_untestable(&n, &scoap, &faults);
        // Stem x1 testable (via the BUF), branch x1->dead_and untestable.
        assert!(result.testable.iter().any(|f| f.site == FaultSite::Net(0)));
        assert!(result
            .untestable
            .iter()
            .any(|f| f.site == FaultSite::Branch { gate: 1, pin: 0 }));
    }
}
