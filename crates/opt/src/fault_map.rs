//! Fault-universe mapping: translates the original collapsed-fault list
//! onto the reduced netlist, so detection reports computed there can be
//! stated in terms of the original fault IDs.
//!
//! Every original fault is classified exactly once:
//!
//! - **Untestable** — provably undetectable without simulation: the stuck
//!   value equals a certified constant of the site's source net (fault-free
//!   and faulty circuits are identical), or the fault's effect origin
//!   cannot reach any observation point of the *original* netlist
//!   ([`scanft_netlist::PostDominators::reaches_output`]; an effect that
//!   reaches neither a PO nor a PPO dies within its cycle, so this is
//!   sound under either observation mode).
//! - **Exact** — the site survives in the reduced netlist and the fault's
//!   effect origin is outside the *taint set*, so simulating the translated
//!   fault on the reduced netlist yields the identical detecting-test
//!   verdict.
//! - **Fallback** — everything else is simulated on the original netlist.
//!   Bridge and delay faults always fall back (their sites are net pairs /
//!   transitions the rewrite does not track).
//!
//! **Why the taint set makes `Exact` sound.** Each rewrite step assumes a
//! fact about specific nets: a constant substitution assumes both nets hold
//! the constant, an equivalence merge assumes the two nets agree, a dropped
//! pin assumes its source holds the identity value. Those facts are theorems
//! of the *fault-free* circuit; a fault can break them only if its effect
//! origin lies in the backward fanin cone of an assumption net — closed
//! across the scan boundary (a cone containing PPI `k` continues into the
//! cone of the net feeding PPO `k`, because the PPO value becomes the PPI
//! value next cycle). For a fault whose origin is outside every such cone,
//! all assumption nets keep their fault-free behaviour in every cycle, so
//! by induction over topological order each rewrite preserves the faulty
//! circuit's values at every observed output, and the reduced-netlist
//! verdict equals the original one. Structural merges need no cones: the
//! two gates read the *same nets*, so their outputs agree under any fault
//! except one injected at those outputs themselves — only the two output
//! nets are tainted.

use scanft_netlist::{NetId, Netlist, PostDominators};
use scanft_sim::faults::{Fault, FaultSite};

use crate::Optimized;

/// How one original fault is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Provably undetectable; reported as undetected without simulation.
    Untestable,
    /// Simulated on the original netlist.
    Fallback,
    /// Simulated on the reduced netlist as the carried translated fault.
    Exact(Fault),
}

/// The classification of a whole fault list against one optimization.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-fault class, parallel to the caller's fault list.
    pub classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// Classifies `faults` (enumerated on `original`) against `opt`.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a net or gate out of range for
    /// `original`.
    #[must_use]
    pub fn new(original: &Netlist, opt: &Optimized, faults: &[Fault]) -> Self {
        let post = PostDominators::new(original);
        let mut constant: Vec<Option<bool>> = vec![None; original.num_nets()];
        for &(net, v) in &opt.constants {
            constant[net as usize] = Some(v);
        }
        let tainted = tainted_origins(original, opt);
        let classes = faults
            .iter()
            .map(|fault| {
                let Fault::Stuck(sf) = fault else {
                    return FaultClass::Fallback;
                };
                let (origin, source) = match sf.site {
                    FaultSite::Net(net) => (net, net),
                    FaultSite::Branch { gate, pin } => (
                        original.gate_output(gate as usize),
                        original.fanins(gate as usize)[pin as usize],
                    ),
                };
                if constant[source as usize] == Some(sf.stuck_at_one)
                    || !post.reaches_output(origin)
                {
                    return FaultClass::Untestable;
                }
                if tainted[origin as usize] {
                    return FaultClass::Fallback;
                }
                let translated = match sf.site {
                    FaultSite::Net(net) => {
                        if opt.map.is_substituted(net) {
                            None
                        } else {
                            opt.map.reduced_net(net).map(FaultSite::Net)
                        }
                    }
                    FaultSite::Branch { gate, pin } => {
                        opt.map.reduced_gate(gate as usize).and_then(|new_gate| {
                            opt.map.reduced_pin(gate as usize, pin).map(|new_pin| {
                                FaultSite::Branch {
                                    gate: new_gate,
                                    pin: new_pin,
                                }
                            })
                        })
                    }
                };
                match translated {
                    Some(site) => FaultClass::Exact(Fault::Stuck(scanft_sim::faults::StuckFault {
                        site,
                        stuck_at_one: sf.stuck_at_one,
                    })),
                    // Site vanished without its origin being tainted or
                    // unobservable — cannot happen by construction, but
                    // falling back is always sound.
                    None => FaultClass::Fallback,
                }
            })
            .collect();
        FaultPlan { classes }
    }

    /// Number of faults per class: `(untestable, fallback, exact)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for class in &self.classes {
            match class {
                FaultClass::Untestable => counts.0 += 1,
                FaultClass::Fallback => counts.1 += 1,
                FaultClass::Exact(_) => counts.2 += 1,
            }
        }
        counts
    }
}

/// Marks every net that, as a fault-effect origin, could invalidate a
/// rewrite assumption: the backward fanin cones (closed across the scan
/// boundary) of all assumption nets, plus the merged gate outputs of
/// structural merges.
fn tainted_origins(original: &Netlist, opt: &Optimized) -> Vec<bool> {
    let mut tainted = vec![false; original.num_nets()];
    for &net in &opt.map.point_taints {
        tainted[net as usize] = true;
    }
    let mut stack: Vec<NetId> = opt.map.cone_taints.clone();
    let mut in_cone = vec![false; original.num_nets()];
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut in_cone[net as usize], true) {
            continue;
        }
        tainted[net as usize] = true;
        if let Some(g) = original.driver_index(net) {
            stack.extend_from_slice(original.fanins(g));
        }
        // Scan-boundary closure: a PPI's value is last cycle's PPO value.
        let num_pis = original.num_pis() as NetId;
        if net >= num_pis && net < num_pis + original.num_ppis() as NetId {
            stack.push(original.ppos()[(net - num_pis) as usize]);
        }
    }
    tainted
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::{GateKind, NetlistBuilder};
    use scanft_sim::faults::{self, StuckFault};

    #[test]
    fn clean_netlist_translates_every_stuck_fault_exactly() {
        // No rewrites fire: every stuck fault must classify Exact with an
        // identity translation.
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let z = b.add_gate(GateKind::Not, &[a]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let opt = crate::optimize(&n);
        assert_eq!(opt.stats.gates_removed, 0);
        let list = faults::as_fault_list(&faults::enumerate_stuck(&n));
        let plan = FaultPlan::new(&n, &opt, &list);
        let (untestable, fallback, exact) = plan.counts();
        assert_eq!(untestable, 0);
        assert_eq!(fallback, 0);
        assert_eq!(exact, list.len());
        for (fault, class) in list.iter().zip(&plan.classes) {
            assert_eq!(*class, FaultClass::Exact(*fault));
        }
    }

    #[test]
    fn constant_sites_are_untestable() {
        // c = AND(x, NOT x) ≡ 0: stuck-at-0 on c can never be detected.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let opt = crate::optimize(&n);
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(c),
            stuck_at_one: false,
        });
        let plan = FaultPlan::new(&n, &opt, &[fault]);
        assert_eq!(plan.classes[0], FaultClass::Untestable);
    }

    #[test]
    fn bridges_always_fall_back() {
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a], vec![]).unwrap();
        let opt = crate::optimize(&n);
        let bridges =
            faults::bridges_as_fault_list(&faults::enumerate_bridging(&n, usize::MAX).faults);
        if bridges.is_empty() {
            return;
        }
        let plan = FaultPlan::new(&n, &opt, &bridges);
        assert!(plan.classes.iter().all(|c| *c == FaultClass::Fallback));
    }

    #[test]
    fn tainted_cones_fall_back_and_cross_the_scan_boundary() {
        // The PPO feeds a constant cone next cycle; taint must close over
        // the boundary and reach the PI cone feeding the PPO.
        let mut b = NetlistBuilder::new(1, 1);
        let ppi: NetId = 1;
        let npi = b.add_gate(GateKind::Not, &[ppi]).unwrap();
        let c = b.add_gate(GateKind::And, &[ppi, npi]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let state = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![z], vec![state]).unwrap();
        let opt = crate::optimize(&n);
        let tainted = tainted_origins(&n, &opt);
        // The constant cone itself is tainted...
        assert!(tainted[c as usize]);
        assert!(tainted[ppi as usize]);
        // ...and so is the net feeding the PPO (previous cycle's source).
        assert!(tainted[state as usize]);
        assert!(tainted[0]);
    }
}
