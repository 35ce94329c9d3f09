//! Output cones of influence for event-driven fault simulation.
//!
//! A fault can only perturb the nets in the transitive fanout of its site —
//! its *cone of influence*. The PPSFP kernel (Waicukauski et al.) exploits
//! this: per fault batch, only the gates in the union of the batch's cones
//! are ever re-evaluated; everything outside the union provably carries the
//! fault-free value.
//!
//! For a full-scan circuit the structural fanout is not quite enough: a
//! perturbed pseudo-primary output is captured into a scan flip-flop and
//! re-enters the combinational logic through the matching pseudo-primary
//! input on the next cycle. [`FaultCone::compute`] therefore closes the
//! cone over the scan boundary — whenever next-state line `k` falls inside
//! the cone, present-state line `k`'s fanout is merged in — so the result
//! is sound for multi-cycle scan tests, not just single-cycle patterns.

use crate::arena::GateArena;
use crate::net::Netlist;
use crate::NetId;

/// The union of the output cones of a set of seed nets (and seed gates),
/// closed over the scan boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCone {
    /// Gate indices that can carry a fault effect, sorted ascending —
    /// which, by the netlist's construction ordering, is also topological.
    pub gates: Vec<u32>,
    /// Per-net membership: `nets[n]` is true when net `n` can differ from
    /// its fault-free value.
    pub nets: Vec<bool>,
}

impl FaultCone {
    /// Computes the cone union for `seed_nets` (fault sites on nets) and
    /// `seed_gates` (gates whose evaluation is directly perturbed, e.g. by
    /// a branch fault on one of their input pins).
    ///
    /// Seed nets themselves are marked perturbable, and the driver gate of
    /// a seed net is included so a kernel that applies the site's forcing
    /// while evaluating the driver revisits it every cycle.
    ///
    /// # Panics
    ///
    /// Panics if a seed references a net or gate out of range.
    #[must_use]
    pub fn compute(
        netlist: &Netlist,
        arena: &GateArena,
        seed_nets: &[NetId],
        seed_gates: &[u32],
    ) -> Self {
        // A gate is in the cone exactly when its output net is: seeding a
        // net (or a gate's output) and walking fanout both mark the net
        // together with its driver, and PPIs drive no gate.
        let num_nets = arena.num_nets();
        let mut nets = vec![false; num_nets];
        let mut stack: Vec<NetId> = Vec::with_capacity(num_nets);

        let mut seed_net = |net: NetId, nets: &mut Vec<bool>| {
            assert!((net as usize) < num_nets, "seed net {net} out of range");
            if !nets[net as usize] {
                nets[net as usize] = true;
                stack.push(net);
            }
        };
        for &net in seed_nets {
            seed_net(net, &mut nets);
        }
        for &g in seed_gates {
            assert!(
                (g as usize) < arena.num_gates(),
                "seed gate {g} out of range"
            );
            seed_net(arena.gate_output(g as usize), &mut nets);
        }

        // Transitive fanout, re-seeding through the scan boundary until the
        // PPO -> PPI closure reaches a fixpoint (at most num_ppis rounds).
        loop {
            while let Some(net) = stack.pop() {
                for &g in arena.fanouts(net) {
                    let out = arena.gate_output(g as usize);
                    if !nets[out as usize] {
                        nets[out as usize] = true;
                        stack.push(out);
                    }
                }
            }
            let mut grew = false;
            for k in 0..netlist.num_ppis() {
                let ppo = netlist.ppos()[k];
                let ppi = netlist.ppi(k);
                if nets[ppo as usize] && !nets[ppi as usize] {
                    nets[ppi as usize] = true;
                    stack.push(ppi);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        let mut gates: Vec<u32> = Vec::with_capacity(arena.num_gates());
        gates.extend(
            (0..arena.num_gates() as u32).filter(|&g| nets[arena.gate_output(g as usize) as usize]),
        );
        FaultCone { gates, nets }
    }

    /// Whether net `net` lies inside the cone union.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn contains_net(&self, net: NetId) -> bool {
        self.nets[net as usize]
    }

    /// Number of gates in the cone union.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::GateKind;
    use crate::NetlistBuilder;

    /// Two independent cones: a = AND(x1, x2) -> PO; o = OR(x3, x4) -> PO.
    fn two_cones() -> Netlist {
        let mut b = NetlistBuilder::new(4, 0);
        let a = b.add_gate(GateKind::And, &[b.pi(0), b.pi(1)]).unwrap();
        let o = b.add_gate(GateKind::Or, &[b.pi(2), b.pi(3)]).unwrap();
        b.finish(vec![a, o], vec![]).unwrap()
    }

    #[test]
    fn cone_stays_inside_its_half() {
        let n = two_cones();
        let arena = GateArena::build(&n);
        let cone = FaultCone::compute(&n, &arena, &[n.pi(0)], &[]);
        assert_eq!(cone.gates, vec![0]);
        assert!(cone.contains_net(n.pi(0)));
        assert!(cone.contains_net(n.gate_output(0)));
        assert!(!cone.contains_net(n.gate_output(1)));
        assert!(!cone.contains_net(n.pi(2)));
    }

    #[test]
    fn seed_net_includes_its_driver_gate() {
        let n = two_cones();
        let arena = GateArena::build(&n);
        // Seeding the AND's *output* net still includes gate 0, so a kernel
        // applying a stem force at the driver revisits it.
        let cone = FaultCone::compute(&n, &arena, &[n.gate_output(0)], &[]);
        assert_eq!(cone.gates, vec![0]);
    }

    #[test]
    fn union_of_seeds_is_the_union_of_cones() {
        let n = two_cones();
        let arena = GateArena::build(&n);
        let cone = FaultCone::compute(&n, &arena, &[n.pi(0), n.pi(3)], &[]);
        assert_eq!(cone.gates, vec![0, 1]);
    }

    #[test]
    fn seed_gate_marks_its_output_perturbable() {
        let n = two_cones();
        let arena = GateArena::build(&n);
        let cone = FaultCone::compute(&n, &arena, &[], &[1]);
        assert_eq!(cone.gates, vec![1]);
        assert!(cone.contains_net(n.gate_output(1)));
        assert!(!cone.contains_net(n.gate_output(0)));
    }

    #[test]
    fn scan_boundary_closure_crosses_cycles() {
        // ns1 = BUF(x); z = BUF(ps1). Structurally x never reaches z, but a
        // fault on x corrupts the captured state and shows at z one cycle
        // later — the closure must pull z's cone in through ps1.
        let mut b = NetlistBuilder::new(1, 1);
        let x = b.pi(0);
        let ps = b.ppi(0);
        let ns = b.add_gate(GateKind::Buf, &[x]).unwrap();
        let z = b.add_gate(GateKind::Buf, &[ps]).unwrap();
        let n = b.finish(vec![z], vec![ns]).unwrap();
        let arena = GateArena::build(&n);
        let cone = FaultCone::compute(&n, &arena, &[x], &[]);
        assert!(cone.contains_net(ps), "closure crosses the scan boundary");
        assert!(cone.contains_net(z));
        assert_eq!(cone.gates, vec![0, 1]);
    }

    #[test]
    fn empty_seed_set_yields_an_empty_cone() {
        let n = two_cones();
        let arena = GateArena::build(&n);
        let cone = FaultCone::compute(&n, &arena, &[], &[]);
        assert!(cone.gates.is_empty());
        assert!(!cone.contains_net(0));
        assert_eq!(cone.num_gates(), 0);
    }
}
