//! Necessary-requirement extraction from the post-dominator tree.
//!
//! The netlist layer owns the one and only post-dominator implementation
//! ([`PostDominators`]); this module interprets it for testing. Every
//! structural path from a fault site to an observation point crosses each
//! of the site's dominator gates, so a test for the fault **must** set every
//! side input of every dominator gate to its non-controlling value — side
//! inputs outside the fault's fanout cone carry their fault-free values, and
//! a controlling value at any of them fixes the dominator's output and kills
//! the fault effect regardless of everything else. This is the
//! fault-independent requirement extraction at the heart of FIRE-style
//! untestability checking, and the same requirement sets seed the
//! implication-guided PODEM search.
//!
//! Soundness: the extracted literals are *necessary* conditions on the good
//! (fault-free) values of a detecting test, never sufficient ones. A
//! conflict among necessary conditions therefore proves untestability, and
//! pre-assigning them in ATPG never excludes a test.

use scanft_netlist::{GateKind, NetId, Netlist, PostDominators, Reachability};
use scanft_sim::faults::{FaultSite, StuckFault};

/// The non-controlling value of a gate kind, when a controlling value
/// exists (`And`/`Nand`: 1, `Or`/`Nor`: 0; unary gates and `Xor` pass any
/// value).
fn non_controlling(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(true),
        GateKind::Or | GateKind::Nor => Some(false),
        GateKind::Xor | GateKind::Not | GateKind::Buf => None,
    }
}

/// Post-dominator tree plus fanout-cone reachability, packaged for
/// requirement extraction.
///
/// # Examples
///
/// ```
/// use scanft_analyze::Requirements;
/// use scanft_netlist::{GateKind, NetlistBuilder};
/// use scanft_sim::faults::{FaultSite, StuckFault};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(2, 0);
/// let a = b.add_gate(GateKind::Not, &[0])?;
/// let z = b.add_gate(GateKind::And, &[a, 1])?;
/// let n = b.finish(vec![z], vec![])?;
/// let dom = Requirements::new(&n);
/// let fault = StuckFault { site: FaultSite::Net(a), stuck_at_one: true };
/// let req = dom.requirements(&n, &fault).expect("observable");
/// // Activation a=0, plus the AND's side input x2 non-controlling (1).
/// assert!(req.contains(&(a, false)));
/// assert!(req.contains(&(1, true)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Requirements {
    post: PostDominators,
    reach: Reachability,
}

impl Requirements {
    /// Builds the post-dominator tree and reachability for `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        Requirements {
            post: PostDominators::new(netlist),
            reach: Reachability::new(netlist),
        }
    }

    /// The underlying immediate post-dominator tree.
    #[must_use]
    pub fn post(&self) -> &PostDominators {
        &self.post
    }

    /// Whether `net` lies in the fanout cone of `origin` (including the
    /// origin itself) — the region whose values the fault may corrupt.
    #[must_use]
    pub fn in_cone(&self, origin: NetId, net: NetId) -> bool {
        origin == net || self.reach.path_exists(origin, net)
    }

    /// The necessary good-value literals of any test detecting `fault`:
    /// the activation literal, the faulty gate's side inputs for a branch
    /// fault, and the non-controlling side inputs of every dominator gate
    /// on the fault's propagation chain.
    ///
    /// Returns `None` when the set is already contradictory on structure
    /// alone — the fault effect cannot reach an observation point (dead
    /// cone) or a single net is required at both values — which proves the
    /// fault untestable.
    #[must_use]
    pub fn requirements(
        &self,
        netlist: &Netlist,
        fault: &StuckFault,
    ) -> Option<Vec<(NetId, bool)>> {
        let activation = !fault.stuck_at_one;
        let mut need: Vec<Option<bool>> = vec![None; netlist.num_nets()];
        let mut order: Vec<NetId> = Vec::new();
        let mut require = |net: NetId, v: bool, order: &mut Vec<NetId>| -> bool {
            match need[net as usize] {
                Some(x) => x == v,
                None => {
                    need[net as usize] = Some(v);
                    order.push(net);
                    true
                }
            }
        };
        let origin = match fault.site {
            FaultSite::Net(net) => {
                if !require(net, activation, &mut order) {
                    return None;
                }
                net
            }
            FaultSite::Branch { gate, pin } => {
                let inputs = netlist.fanins(gate as usize);
                let source = inputs[pin as usize];
                if !require(source, activation, &mut order) {
                    return None;
                }
                // The effect lives on one pin only, so it must cross this
                // gate: every *other* pin is a side input.
                if let Some(nc) = non_controlling(netlist.kind(gate as usize)) {
                    for (p, &input) in inputs.iter().enumerate() {
                        if p != pin as usize && !require(input, nc, &mut order) {
                            return None;
                        }
                    }
                }
                netlist.gate_output(gate as usize)
            }
        };
        if !self.post.reaches_output(origin) {
            return None;
        }
        for dom_net in self.post.chain(origin) {
            // A dominator with no driver is a PI routed straight to an
            // output — nothing to constrain there.
            let Some(gi) = netlist.driver_index(dom_net) else {
                continue;
            };
            let Some(nc) = non_controlling(netlist.kind(gi)) else {
                continue;
            };
            for &input in netlist.fanins(gi) {
                if !self.in_cone(origin, input) && !require(input, nc, &mut order) {
                    return None;
                }
            }
        }
        Some(
            order
                .iter()
                .map(|&net| (net, need[net as usize].unwrap_or(false)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder;

    #[test]
    fn stem_requirements_walk_the_dominator_chain() {
        // x1 -> NOT -> AND(. , x2) -> OR(. , x3) -> PO
        let mut b = NetlistBuilder::new(3, 0);
        let inv = b.add_gate(GateKind::Not, &[0]).unwrap();
        let and = b.add_gate(GateKind::And, &[inv, 1]).unwrap();
        let or = b.add_gate(GateKind::Or, &[and, 2]).unwrap();
        let n = b.finish(vec![or], vec![]).unwrap();
        let dom = Requirements::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(inv),
            stuck_at_one: false,
        };
        let req = dom.requirements(&n, &fault).unwrap();
        assert!(req.contains(&(inv, true))); // activation
        assert!(req.contains(&(1, true))); // AND side input non-controlling
        assert!(req.contains(&(2, false))); // OR side input non-controlling
    }

    #[test]
    fn branch_requirements_include_gate_side_pins() {
        let mut b = NetlistBuilder::new(2, 0);
        let and = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let keep = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![and, keep], vec![]).unwrap();
        let dom = Requirements::new(&n);
        let fault = StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 0 },
            stuck_at_one: true,
        };
        let req = dom.requirements(&n, &fault).unwrap();
        assert!(req.contains(&(0, false))); // activation on the source
        assert!(req.contains(&(1, true))); // other AND pin non-controlling
    }

    #[test]
    fn dead_cone_faults_have_no_requirements() {
        let mut b = NetlistBuilder::new(2, 0);
        let dead = b.add_gate(GateKind::Not, &[0]).unwrap();
        let z = b.add_gate(GateKind::Buf, &[1]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let dom = Requirements::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(dead),
            stuck_at_one: false,
        };
        assert!(dom.requirements(&n, &fault).is_none());
    }

    #[test]
    fn same_gate_reuse_conflicts_structurally() {
        // AND(x1, x1): a branch fault needs x1=0 to activate and x1=1 on
        // the sibling pin to propagate — contradictory, hence untestable.
        let mut b = NetlistBuilder::new(1, 0);
        let and = b.add_gate(GateKind::And, &[0, 0]).unwrap();
        let n = b.finish(vec![and], vec![]).unwrap();
        let dom = Requirements::new(&n);
        let fault = StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 0 },
            stuck_at_one: true,
        };
        assert!(dom.requirements(&n, &fault).is_none());
    }

    #[test]
    fn cone_inputs_are_not_constrained() {
        // Reconvergence: s = NOT(x1); z = AND(s, x1). For a fault on x1 the
        // AND is a dominator but BOTH its inputs are in the cone, so no
        // side-input requirement is emitted (and none would be sound).
        let mut b = NetlistBuilder::new(1, 0);
        let s = b.add_gate(GateKind::Not, &[0]).unwrap();
        let z = b.add_gate(GateKind::And, &[s, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let dom = Requirements::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(0),
            stuck_at_one: false,
        };
        let req = dom.requirements(&n, &fault).unwrap();
        assert_eq!(req, vec![(0, true)]); // activation only
    }
}
