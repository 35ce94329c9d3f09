//! The certificate-emitting rewrite pass: constant folding, equivalence
//! merging, structural hashing, and the dead-logic sweep.
//!
//! One topological pass visits every gate in creation order (creation order
//! *is* a topological order in this netlist model):
//!
//! 1. **Constant folding** — a gate whose output net carries a certified
//!    constant is substituted by the first certified net of that value (the
//!    *representative* generator), so an entire constant cone collapses to
//!    one generator per polarity.
//! 2. **Equivalence merging** — a gate output in a closure equivalence
//!    class is substituted by the class minimum, justified by two on-demand
//!    lemmas (`drop=1 ⇒ keep=1` and `keep=1 ⇒ drop=1`).
//! 3. **Pin dropping** — an input pin whose resolved source is certified
//!    constant at the kind's identity value (`AND`/`NAND`: 1, `OR`/`NOR`:
//!    0, `XOR`: 0) is removed; the last pin never is, so every surviving
//!    gate stays well-formed (the builder accepts single-input `AND(x) =
//!    x`, `NAND(x) = ¬x`, `XOR(x) = x`).
//! 4. **Structural hashing** — a gate with the same kind and the same
//!    resolved input multiset as an earlier survivor is substituted by it,
//!    AIG-style.
//!
//! A worklist sweep then removes every gate whose output has no remaining
//! (resolved) consumer — gate input, primary output, or next-state line —
//! which is exactly the logic that cannot reach an observation point, the
//! region the post-dominator sentinel analysis calls unobservable. Each
//! removal is emitted as a `dead` step the checker re-justifies by
//! recounting.
//!
//! Every substitution always points at a strictly smaller net id, so
//! resolution terminates, the rebuilt netlist is forward-reference-free,
//! and the checker can enforce `keep < drop` as a well-formedness rule.

use std::collections::HashMap;

use scanft_analyze::ConstFacts;
use scanft_netlist::{GateKind, NetId, Netlist, NetlistBuilder};

use crate::certificate::Certificate;
use crate::prover::Prover;

/// How original fault sites relate to the reduced netlist (built during
/// rebuild, consumed by [`crate::fault_map`]).
#[derive(Debug, Clone)]
pub struct NetMap {
    /// Final substitution target per original net (identity when kept).
    resolved: Vec<NetId>,
    /// Reduced-netlist id of each original net that survives under its own
    /// identity (PIs, PPIs, and outputs of surviving gates).
    new_net: Vec<Option<NetId>>,
    /// Reduced-netlist gate index per original gate, when it survives.
    new_gate: Vec<Option<u32>>,
    /// Surviving original pin indices per original gate, in reduced order.
    kept_pins: Vec<Vec<u32>>,
    /// Nets whose *backward* fanin cones carry rewrite assumptions
    /// (constants and equivalences) — see [`crate::fault_map`].
    pub cone_taints: Vec<NetId>,
    /// Individual nets tainted by structural merges (the two gate outputs).
    pub point_taints: Vec<NetId>,
}

impl NetMap {
    /// The final substitution target of `net` (identity when unsubstituted).
    #[must_use]
    pub fn resolve(&self, net: NetId) -> NetId {
        self.resolved[net as usize]
    }

    /// Whether `net` was substituted away.
    #[must_use]
    pub fn is_substituted(&self, net: NetId) -> bool {
        self.resolved[net as usize] != net
    }

    /// The reduced-netlist id of `net` after substitution, when its
    /// resolved target survives.
    #[must_use]
    pub fn reduced_net(&self, net: NetId) -> Option<NetId> {
        self.new_net[self.resolve(net) as usize]
    }

    /// The reduced-netlist gate index of original gate `g`, when it
    /// survives.
    #[must_use]
    pub fn reduced_gate(&self, g: usize) -> Option<u32> {
        self.new_gate[g]
    }

    /// The reduced-netlist pin position of original pin `pin` of gate `g`,
    /// when both the gate and the pin survive.
    #[must_use]
    pub fn reduced_pin(&self, g: usize, pin: u32) -> Option<u32> {
        self.new_gate[g]?;
        self.kept_pins[g]
            .iter()
            .position(|&p| p == pin)
            .map(|p| p as u32)
    }
}

/// Counters describing one rewrite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Constant substitutions plus dropped constant pins.
    pub constants_folded: usize,
    /// Equivalence plus structural-hash merges.
    pub merges: usize,
    /// Gates removed by the dead sweep.
    pub gates_removed: usize,
    /// Closure constants the prover could not certify (skipped, counted).
    pub unproven_constants: usize,
    /// Equivalence members the prover could not certify (skipped, counted).
    pub unproven_equiv: usize,
}

/// Runs the rewrite pass and rebuild, emitting rewrite steps into `cert`.
pub fn run(
    netlist: &Netlist,
    facts: &ConstFacts,
    prover: &mut Prover,
    cert: &mut Certificate,
) -> (Netlist, NetMap, RewriteStats) {
    let nn = netlist.num_nets();
    let ng = netlist.num_gates();
    let mut stats = RewriteStats::default();
    let mut subst: Vec<NetId> = (0..nn as NetId).collect();
    let resolve = |subst: &[NetId], mut net: NetId| -> NetId {
        while subst[net as usize] != net {
            net = subst[net as usize];
        }
        net
    };
    let mut alive = vec![true; ng];
    let mut cur_inputs: Vec<Vec<NetId>> = (0..ng).map(|g| netlist.fanins(g).to_vec()).collect();
    let mut kept_pins: Vec<Vec<u32>> = (0..ng)
        .map(|g| (0..netlist.fanins(g).len() as u32).collect())
        .collect();
    let mut cone_taints: Vec<NetId> = Vec::new();
    let mut point_taints: Vec<NetId> = Vec::new();
    // Per-value representative constant generator net.
    let mut const_rep: [Option<NetId>; 2] = [None, None];
    // Class minimum per equivalence-class member.
    let mut class_rep: HashMap<NetId, NetId> = HashMap::new();
    for class in facts.classes() {
        for &member in class {
            class_rep.insert(member, class[0]);
        }
    }
    let mut hash: HashMap<(GateKind, Vec<NetId>), usize> = HashMap::new();

    for g in 0..ng {
        for slot in &mut cur_inputs[g] {
            *slot = resolve(&subst, *slot);
        }
        let out = netlist.gate_output(g);
        let kind = netlist.kind(g);

        // 1. Constant folding of the output net.
        if let Some(v) = facts.constant(out) {
            if prover.constant(out) == Some(v) {
                match const_rep[usize::from(v)] {
                    Some(rep) => {
                        cert.const_subst(rep, out, v);
                        subst[out as usize] = rep;
                        cone_taints.push(rep);
                        cone_taints.push(out);
                        stats.constants_folded += 1;
                        continue;
                    }
                    None => const_rep[usize::from(v)] = Some(out),
                }
            } else {
                stats.unproven_constants += 1;
            }
        }

        // 2. Equivalence merging of the output net.
        if let Some(&rep) = class_rep.get(&out) {
            if rep != out {
                let fwd = prover.prove_implication(netlist, cert, out, true, rep, true);
                let bwd = prover.prove_implication(netlist, cert, rep, true, out, true);
                if let (Some(fwd), Some(bwd)) = (fwd, bwd) {
                    cert.equiv(rep, out, fwd, bwd);
                    subst[out as usize] = rep;
                    cone_taints.push(rep);
                    cone_taints.push(out);
                    stats.merges += 1;
                    continue;
                }
                stats.unproven_equiv += 1;
            }
        }

        // 3. Dropping identity-constant pins (never the last one).
        if let Some(identity) = identity_value(kind) {
            let mut pin = 0;
            while pin < cur_inputs[g].len() && cur_inputs[g].len() > 1 {
                let src = cur_inputs[g][pin];
                if facts.constant(src) == Some(identity) && prover.constant(src) == Some(identity) {
                    cert.drop_pin(g as u32, pin as u32, src, identity);
                    cur_inputs[g].remove(pin);
                    kept_pins[g].remove(pin);
                    cone_taints.push(src);
                    stats.constants_folded += 1;
                } else {
                    pin += 1;
                }
            }
        }

        // 4. Structural hashing over the resolved, post-drop input list.
        let key = hash_key(kind, &cur_inputs[g]);
        match hash.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let keep = *e.get();
                cert.merge(keep as u32, g as u32);
                let keep_out = netlist.gate_output(keep);
                subst[out as usize] = keep_out;
                point_taints.push(keep_out);
                point_taints.push(out);
                stats.merges += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(g);
            }
        }
    }

    // Dead sweep: remove gates whose output has no resolved consumer.
    let mut refs: Vec<usize> = vec![0; nn];
    for inputs in cur_inputs.iter().take(ng) {
        for &i in inputs {
            refs[i as usize] += 1;
        }
    }
    for &po in netlist.pos().iter().chain(netlist.ppos()) {
        refs[resolve(&subst, po) as usize] += 1;
    }
    let mut heap: std::collections::BinaryHeap<usize> = (0..ng)
        .filter(|&g| refs[netlist.gate_output(g) as usize] == 0)
        .collect();
    while let Some(g) = heap.pop() {
        if !alive[g] || refs[netlist.gate_output(g) as usize] != 0 {
            continue;
        }
        alive[g] = false;
        cert.dead(g as u32);
        stats.gates_removed += 1;
        for &i in &cur_inputs[g] {
            refs[i as usize] -= 1;
            if refs[i as usize] == 0 {
                if let Some(d) = netlist.driver_index(i) {
                    if alive[d] {
                        heap.push(d);
                    }
                }
            }
        }
    }

    // Rebuild the reduced netlist from the survivors.
    let mut builder = NetlistBuilder::new(netlist.num_pis(), netlist.num_ppis());
    let io = (netlist.num_pis() + netlist.num_ppis()) as NetId;
    let mut new_net: Vec<Option<NetId>> = (0..nn as NetId)
        .map(|net| (net < io).then_some(net))
        .collect();
    let mut new_gate: Vec<Option<u32>> = vec![None; ng];
    let mut next_gate = 0u32;
    for g in 0..ng {
        if !alive[g] {
            continue;
        }
        let inputs: Vec<NetId> = cur_inputs[g]
            .iter()
            .map(|&i| new_net[i as usize].expect("resolved inputs of survivors survive"))
            .collect();
        let out = builder
            .add_gate(netlist.kind(g), &inputs)
            .expect("rewrite preserves well-formedness");
        new_net[netlist.gate_output(g) as usize] = Some(out);
        new_gate[g] = Some(next_gate);
        next_gate += 1;
    }
    let resolved: Vec<NetId> = (0..nn as NetId).map(|net| resolve(&subst, net)).collect();
    let map_out = |net: &NetId| -> NetId {
        new_net[resolved[*net as usize] as usize].expect("observed nets survive")
    };
    let pos: Vec<NetId> = netlist.pos().iter().map(map_out).collect();
    let ppos: Vec<NetId> = netlist.ppos().iter().map(map_out).collect();
    let reduced = builder
        .finish(pos, ppos)
        .expect("rewrite preserves well-formedness");

    let map = NetMap {
        resolved,
        new_net,
        new_gate,
        kept_pins,
        cone_taints,
        point_taints,
    };
    (reduced, map, stats)
}

/// The identity (droppable) constant value per gate kind, `None` for unary
/// kinds.
fn identity_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(true),
        GateKind::Or | GateKind::Nor | GateKind::Xor => Some(false),
        GateKind::Not | GateKind::Buf => None,
    }
}

/// The structural-hash key: kind plus the input multiset (order-insensitive
/// for the commutative fold kinds, duplicates preserved — `XOR(a, a)` and
/// `XOR(a)` must not collide).
fn hash_key(kind: GateKind, inputs: &[NetId]) -> (GateKind, Vec<NetId>) {
    let mut key = inputs.to_vec();
    if !kind.is_unary() {
        key.sort_unstable();
    }
    (kind, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_analyze::Implications;
    use scanft_netlist::NetlistBuilder as NB;

    fn optimize_raw(n: &Netlist) -> (Netlist, NetMap, RewriteStats, Certificate) {
        let (implications, history) = Implications::with_history(n);
        let facts = ConstFacts::of(&implications);
        let mut cert = Certificate::begin(n.num_pis(), n.num_ppis(), n.num_gates());
        let mut prover = Prover::new(n, history, &mut cert);
        let (reduced, map, stats) = run(n, &facts, &mut prover, &mut cert);
        (reduced, map, stats, cert)
    }

    #[test]
    fn structural_duplicates_merge() {
        // XOR implications are too weak for the closure to prove the two
        // copies equivalent, so this isolates pass 4: structural hashing
        // must catch the commuted duplicate on its own.
        let mut b = NB::new(2, 0);
        let g1 = b.add_gate(GateKind::Xor, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Xor, &[1, 0]).unwrap();
        let z = b.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let (reduced, map, stats, _) = optimize_raw(&n);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.gates_removed, 1);
        assert_eq!(reduced.num_gates(), 2);
        assert_eq!(map.resolve(g2), g1);
        assert!(map.reduced_net(g2).is_some());
        assert_eq!(map.reduced_net(g2), map.reduced_net(g1));
    }

    #[test]
    fn constant_pin_drops_and_cone_dies() {
        // c = AND(x1, NOT x1) = 0 feeds OR(c, x1, x2): the pin drops, the
        // constant cone dies, the OR keeps its two live pins. (A two-input
        // OR would instead equivalence-merge onto its surviving input.)
        let mut b = NB::new(2, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0, 1]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let (reduced, map, stats, cert) = optimize_raw(&n);
        assert_eq!(stats.constants_folded, 1);
        assert_eq!(stats.unproven_constants, 0);
        // NOT and AND both die once the OR no longer reads c.
        assert_eq!(stats.gates_removed, 2);
        assert_eq!(reduced.num_gates(), 1);
        assert_eq!(reduced.fanins(0), &[0, 1]);
        assert!(map.reduced_net(c).is_none());
        assert!(cert.as_text().contains("\"step\":\"drop_pin\""));
        assert!(cert.as_text().contains("\"step\":\"dead\""));
    }

    #[test]
    fn equivalent_copies_merge_through_the_closure() {
        // y = NOT(NOT x) ≡ x: consumers of y rewire to x, both NOTs die.
        let mut b = NB::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let z = b.add_gate(GateKind::Buf, &[y]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let (reduced, map, stats, _) = optimize_raw(&n);
        assert!(stats.merges >= 1);
        assert_eq!(stats.unproven_equiv, 0);
        assert_eq!(map.resolve(y), 0);
        // The buffer is itself equivalent to x, so the whole chain folds
        // onto the primary input and every gate dies.
        assert_eq!(map.resolve(z), 0);
        assert_eq!(reduced.num_gates(), 0);
        assert_eq!(reduced.pos(), &[0]);
    }

    #[test]
    fn constant_outputs_share_one_generator() {
        // Two disjoint constant-0 cones: the later one substitutes onto the
        // earlier, and its gates die.
        let mut b = NB::new(2, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c1 = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let ny = b.add_gate(GateKind::Not, &[1]).unwrap();
        let c2 = b.add_gate(GateKind::And, &[1, ny]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c1, c2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let (reduced, map, stats, cert) = optimize_raw(&n);
        assert!(cert.as_text().contains("\"step\":\"const_subst\""));
        assert_eq!(map.resolve(c2), c1);
        assert!(stats.gates_removed >= 2);
        // z = OR(c1, c2) is itself constant and folds onto c1 too, so only
        // c1's generator cone survives as the PO driver.
        assert!(reduced.num_gates() <= 3);
        assert!(map.is_substituted(c2));
        assert_eq!(map.reduced_net(c2), map.reduced_net(c1));
    }

    #[test]
    fn observation_lists_keep_their_length() {
        let mut b = NB::new(1, 1);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g1, g2], vec![g1]).unwrap();
        let (reduced, _, _, _) = optimize_raw(&n);
        assert_eq!(reduced.pos().len(), 2);
        assert_eq!(reduced.ppos().len(), 1);
        // Both POs now observe the single surviving gate.
        assert_eq!(reduced.pos()[0], reduced.pos()[1]);
    }
}
