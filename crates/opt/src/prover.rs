//! Fact prover: certifies the facts of the static-learning closure with
//! antecedent tracking, so every constant and implication the optimizer
//! folds carries a replayable unit-propagation trace in the certificate.
//!
//! The prover does not learn. `scanft_analyze::Implications::with_history`
//! records how its closure grew — each learned pair with the round that
//! found it, the learned count at the start of every round, and each
//! constant with the sweep that found it — and the prover replays that
//! [`History`]: its edge lists are the recorded pairs in push order, and
//! every re-derivation propagates over exactly the edges and constants
//! the discovery used. The certified fact set is therefore the one
//! [`scanft_analyze::ConstFacts`] reports (the agreement tests pin this on
//! every suite circuit). The difference is bookkeeping: each assignment
//! remembers *why* it was forced (seed, certified constant, gate rule, or
//! an earlier lemma), which lets the prover extract an ancestor-pruned
//! trace for any derived literal or conflict and emit it as a `const` or
//! `lemma` certificate step ([`crate::certificate`]).
//!
//! Constants are certified up front, in discovery order. Learned
//! implications are certified *lazily*: a certificate lemma is emitted only
//! when an emitted trace cites one (recursively certifying the lemma's own
//! trace first). The closure learns millions of pairs on the larger suite
//! machines while the rewrites cite only thousands; eager emission
//! produced a 2 GB certificate for `keyb` where the lazy log stays in the
//! megabytes, with the identical fact set.
//!
//! Soundness does not rest on this module or on the closure it replays:
//! the independent checker re-verifies every trace entry from gate
//! semantics alone, so a bug in either surfaces as a rejected certificate,
//! never as a silently wrong netlist.

use std::collections::HashMap;

use scanft_analyze::History;
use scanft_netlist::{GateKind, NetId, Netlist};

use crate::certificate::{Certificate, Reason, TraceEntry};

/// Index of a literal: `2 * net + value` (the coding [`History`] uses).
fn lit(net: NetId, value: bool) -> usize {
    2 * net as usize + usize::from(value)
}

fn lit_net(l: usize) -> NetId {
    (l / 2) as NetId
}

fn lit_value(l: usize) -> bool {
    l % 2 == 1
}

fn neg(l: usize) -> usize {
    l ^ 1
}

/// A learned contrapositive edge: applying it cites the *internal* learned
/// lemma that proved the forward direction (certified on first citation).
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    lemma: u32,
}

/// Certificate emission over a recorded closure.
pub struct Prover {
    history: History,
    constant: Vec<Option<bool>>,
    edges: Vec<Vec<Edge>>,
    /// Certificate lemma id of each learned pair, once emitted.
    cert_ids: Vec<Option<u32>>,
    /// Certificate lemmas served by [`Prover::prove_implication`], keyed
    /// by (from-literal, to-literal).
    lemma_ids: HashMap<(u32, u32), u32>,
    prop: Tracked,
}

impl Prover {
    /// Replays `history`, the learning record of `netlist`'s closure,
    /// emitting a `const` step into `cert` for every constant in discovery
    /// order. Each is re-derived over the edges of its round and the
    /// constants of the sweeps before its own. Learned implications reach
    /// the certificate only on first citation (see
    /// [`Prover::prove_implication`]), so the log carries exactly the facts
    /// the rewrites depend on, not the full closure.
    ///
    /// # Panics
    ///
    /// Panics if a recorded constant's conflict does not re-derive: the
    /// history does not belong to `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist, history: History, cert: &mut Certificate) -> Self {
        let n = netlist.num_nets();
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); 2 * n];
        for (idx, &(l, m)) in history.learned().iter().enumerate() {
            edges[neg(m as usize)].push(Edge {
                target: neg(l as usize) as u32,
                lemma: idx as u32,
            });
        }
        let mut prover = Prover {
            cert_ids: vec![None; history.learned().len()],
            history,
            constant: vec![None; n],
            edges,
            lemma_ids: HashMap::new(),
            prop: Tracked::new(n),
        };
        // A sweep's constants join the seeds only once the sweep is over.
        let found = prover.history.constants().to_vec();
        let mut pending: Vec<(NetId, bool)> = Vec::new();
        let mut sweep = None;
        for c in found {
            if sweep != Some(c.sweep) {
                for (net, value) in pending.drain(..) {
                    prover.constant[net as usize] = Some(value);
                }
                sweep = Some(c.sweep);
            }
            let limit = prover.history.round_starts()[c.round as usize];
            let outcome = prover.prop.propagate(
                netlist,
                &prover.edges,
                &prover.constant,
                c.net,
                !c.value,
                limit,
            );
            assert!(
                outcome.is_err(),
                "recorded constant must re-derive its conflict"
            );
            // Extract before certifying: emitting cited lemmas reuses the
            // propagator.
            let raw = prover.prop.extract_conflict();
            let trace = prover.certify_trace(netlist, cert, raw);
            cert.const_step(c.net, c.value, &trace);
            pending.push((c.net, c.value));
        }
        for (net, value) in pending {
            prover.constant[net as usize] = Some(value);
        }
        prover
    }

    /// Emits (or reuses) the certificate lemma for learned pair `idx`,
    /// first certifying every lemma its trace cites. Terminates because
    /// the re-derivation only uses the edges its round started with, so
    /// every citation has a strictly smaller index.
    fn require_lemma(&mut self, netlist: &Netlist, cert: &mut Certificate, idx: u32) -> u32 {
        if let Some(id) = self.cert_ids[idx as usize] {
            return id;
        }
        let (l, m) = self.history.learned()[idx as usize];
        let (l, m) = (l as usize, m as usize);
        let limit = self.history.round_starts()[self.history.round_of(idx as usize)];
        // Constants certified since discovery only add seeded facts, so the
        // re-derivation either still reaches `m` or conflicts outright — in
        // which case the seed literal is infeasible and the conflict trace
        // proves the implication vacuously (the checker accepts either).
        let outcome = self.prop.propagate(
            netlist,
            &self.edges,
            &self.constant,
            lit_net(l),
            lit_value(l),
            limit,
        );
        let raw = match outcome {
            Ok(()) => {
                assert_eq!(
                    self.prop.values[lit_net(m) as usize],
                    Some(lit_value(m)),
                    "learned row member must re-derive under its round-start edges"
                );
                self.prop.extract_to(lit_net(m))
            }
            Err(()) => self.prop.extract_conflict(),
        };
        let trace = self.certify_trace(netlist, cert, raw);
        let id = cert.lemma(lit_net(l), lit_value(l), lit_net(m), lit_value(m), &trace);
        self.cert_ids[idx as usize] = Some(id);
        id
    }

    /// Rewrites a raw trace's internal lemma citations into certificate
    /// lemma ids, emitting any not-yet-certified lemma first so the log
    /// stays a valid forward proof.
    fn certify_trace(
        &mut self,
        netlist: &Netlist,
        cert: &mut Certificate,
        mut raw: Vec<TraceEntry>,
    ) -> Vec<TraceEntry> {
        for entry in &mut raw {
            if let Reason::Contra(internal) = entry.by {
                entry.by = Reason::Contra(self.require_lemma(netlist, cert, internal));
            }
        }
        raw
    }

    fn prove_pair(
        &mut self,
        netlist: &Netlist,
        cert: &mut Certificate,
        l: usize,
        m: usize,
    ) -> Option<u32> {
        let outcome = self.prop.propagate(
            netlist,
            &self.edges,
            &self.constant,
            lit_net(l),
            lit_value(l),
            u32::MAX,
        );
        match outcome {
            Ok(()) if self.prop.values[lit_net(m) as usize] == Some(lit_value(m)) => {
                let raw = self.prop.extract_to(lit_net(m));
                let trace = self.certify_trace(netlist, cert, raw);
                Some(cert.lemma(lit_net(l), lit_value(l), lit_net(m), lit_value(m), &trace))
            }
            _ => None,
        }
    }

    /// Proves `(a=av) ⇒ (b=bv)` on demand, emitting (or reusing) a lemma
    /// and returning its id. `None` when the closure cannot derive it.
    pub fn prove_implication(
        &mut self,
        netlist: &Netlist,
        cert: &mut Certificate,
        a: NetId,
        av: bool,
        b: NetId,
        bv: bool,
    ) -> Option<u32> {
        let (la, lb) = (lit(a, av), lit(b, bv));
        if let Some(&id) = self.lemma_ids.get(&(la as u32, lb as u32)) {
            return Some(id);
        }
        // A learned pair covers the implication when its contrapositive
        // edge `¬b ⇒ ¬a` exists: certify that lemma.
        let learned = self.edges[neg(lb)]
            .iter()
            .find(|e| e.target as usize == neg(la))
            .map(|e| e.lemma);
        let id = match learned {
            Some(idx) => self.require_lemma(netlist, cert, idx),
            None => self.prove_pair(netlist, cert, la, lb)?,
        };
        self.lemma_ids.insert((la as u32, lb as u32), id);
        Some(id)
    }

    /// The certified constant value of `net`, if the prover proved one.
    #[must_use]
    pub fn constant(&self, net: NetId) -> Option<bool> {
        self.constant[net as usize]
    }

    /// All certified constants in net order.
    #[must_use]
    pub fn constants(&self) -> Vec<(NetId, bool)> {
        self.constant
            .iter()
            .enumerate()
            .filter_map(|(net, c)| c.map(|v| (net as NetId, v)))
            .collect()
    }
}

/// One tracked assignment: the forced value, its reason, and the nets whose
/// assignments the forcing used (for ancestor pruning).
#[derive(Debug, Clone)]
struct Why {
    reason: Reason,
    parents: Vec<NetId>,
}

/// A unit propagator that remembers, per assignment, why it was forced.
struct Tracked {
    values: Vec<Option<bool>>,
    why: Vec<Option<Why>>,
    trail: Vec<NetId>,
    cursor: usize,
    /// Set on conflict: the failed assignment (net, value, why).
    conflict: Option<(NetId, bool, Why)>,
}

impl Tracked {
    fn new(num_nets: usize) -> Self {
        Tracked {
            values: vec![None; num_nets],
            why: vec![None; num_nets],
            trail: Vec::with_capacity(num_nets),
            cursor: 0,
            conflict: None,
        }
    }

    /// Propagates `seed_net = seed_value` plus all certified constants to a
    /// fixpoint, applying only learned edges with index below `limit`.
    /// `Err(())` marks a conflict (details kept for extraction).
    fn propagate(
        &mut self,
        netlist: &Netlist,
        edges: &[Vec<Edge>],
        constants: &[Option<bool>],
        seed_net: NetId,
        seed_value: bool,
        limit: u32,
    ) -> Result<(), ()> {
        for &net in &self.trail {
            self.values[net as usize] = None;
            self.why[net as usize] = None;
        }
        self.trail.clear();
        self.cursor = 0;
        self.conflict = None;
        for (net, c) in constants.iter().enumerate() {
            if let Some(v) = c {
                self.assign(
                    net as NetId,
                    *v,
                    Why {
                        reason: Reason::Const,
                        parents: Vec::new(),
                    },
                )?;
            }
        }
        self.assign(
            seed_net,
            seed_value,
            Why {
                reason: Reason::Seed,
                parents: Vec::new(),
            },
        )?;
        while self.cursor < self.trail.len() {
            let net = self.trail[self.cursor];
            self.cursor += 1;
            let v = self.values[net as usize].unwrap_or(false);
            for edge in &edges[lit(net, v)] {
                if edge.lemma >= limit {
                    continue;
                }
                let t = edge.target as usize;
                self.assign(
                    lit_net(t),
                    lit_value(t),
                    Why {
                        reason: Reason::Contra(edge.lemma),
                        parents: vec![net],
                    },
                )?;
            }
            if let Some(g) = netlist.driver_index(net) {
                self.apply_gate(netlist, g)?;
            }
            for &g in netlist.fanout(net) {
                self.apply_gate(netlist, g as usize)?;
            }
        }
        Ok(())
    }

    fn assign(&mut self, net: NetId, v: bool, why: Why) -> Result<(), ()> {
        match self.values[net as usize] {
            Some(x) if x == v => Ok(()),
            Some(_) => {
                self.conflict = Some((net, v, why));
                Err(())
            }
            None => {
                self.values[net as usize] = Some(v);
                self.why[net as usize] = Some(why);
                self.trail.push(net);
                Ok(())
            }
        }
    }

    /// Assigns `net = v` as forced by gate `g`, with the gate's currently
    /// assigned terminals as parents.
    fn assign_by_gate(
        &mut self,
        netlist: &Netlist,
        g: usize,
        net: NetId,
        v: bool,
    ) -> Result<(), ()> {
        let out = netlist.gate_output(g);
        let mut parents = Vec::new();
        for &t in netlist.fanins(g).iter().chain(std::iter::once(&out)) {
            if t != net && self.values[t as usize].is_some() && !parents.contains(&t) {
                parents.push(t);
            }
        }
        self.assign(
            net,
            v,
            Why {
                reason: Reason::Gate(g as u32),
                parents,
            },
        )
    }

    /// Applies every forward and backward consistency rule of gate `g`
    /// (mirrors the engine's `apply_gate`).
    fn apply_gate(&mut self, netlist: &Netlist, g: usize) -> Result<(), ()> {
        let inputs = netlist.fanins(g);
        let out = netlist.gate_output(g);
        let kind = netlist.kind(g);
        match kind {
            GateKind::Not | GateKind::Buf => {
                let invert = kind == GateKind::Not;
                let input = inputs[0];
                if let Some(v) = self.values[input as usize] {
                    self.assign_by_gate(netlist, g, out, v ^ invert)?;
                }
                if let Some(v) = self.values[out as usize] {
                    self.assign_by_gate(netlist, g, input, v ^ invert)?;
                }
            }
            GateKind::Xor => {
                let mut parity = false;
                let mut unknown = None;
                let mut unknowns = 0usize;
                for (pin, &input) in inputs.iter().enumerate() {
                    match self.values[input as usize] {
                        Some(v) => parity ^= v,
                        None => {
                            unknown = Some(pin);
                            unknowns += 1;
                        }
                    }
                }
                match (unknowns, self.values[out as usize]) {
                    (0, _) => self.assign_by_gate(netlist, g, out, parity)?,
                    (1, Some(v)) => {
                        let pin = unknown.unwrap_or(0);
                        self.assign_by_gate(netlist, g, inputs[pin], v ^ parity)?;
                    }
                    _ => {}
                }
            }
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                let controlling = matches!(kind, GateKind::Or | GateKind::Nor);
                let invert = matches!(kind, GateKind::Nand | GateKind::Nor);
                let mut unknown = None;
                let mut unknowns = 0usize;
                let mut any_controlling = false;
                for (pin, &input) in inputs.iter().enumerate() {
                    match self.values[input as usize] {
                        Some(v) if v == controlling => any_controlling = true,
                        Some(_) => {}
                        None => {
                            unknown = Some(pin);
                            unknowns += 1;
                        }
                    }
                }
                if any_controlling {
                    self.assign_by_gate(netlist, g, out, controlling ^ invert)?;
                } else if unknowns == 0 {
                    self.assign_by_gate(netlist, g, out, !controlling ^ invert)?;
                }
                if let Some(v) = self.values[out as usize] {
                    if v == !controlling ^ invert {
                        for &input in inputs {
                            self.assign_by_gate(netlist, g, input, !controlling)?;
                        }
                    } else if unknowns == 1 && !any_controlling {
                        let pin = unknown.unwrap_or(0);
                        self.assign_by_gate(netlist, g, inputs[pin], controlling)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Marks the ancestor closure of `roots` (nets) through parent links.
    fn mark_ancestors(&self, roots: &[NetId]) -> Vec<bool> {
        let mut marked = vec![false; self.values.len()];
        let mut stack: Vec<NetId> = roots.to_vec();
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut marked[net as usize], true) {
                continue;
            }
            if let Some(why) = &self.why[net as usize] {
                stack.extend_from_slice(&why.parents);
            }
        }
        marked
    }

    /// Marked trail entries in assignment order.
    fn entries(&self, marked: &[bool]) -> Vec<TraceEntry> {
        self.trail
            .iter()
            .filter(|&&net| marked[net as usize])
            .map(|&net| TraceEntry {
                net,
                value: self.values[net as usize].unwrap_or(false),
                by: self.why[net as usize]
                    .as_ref()
                    .map_or(Reason::Seed, |w| w.reason),
            })
            .collect()
    }

    /// The ancestor-pruned trace deriving `target`'s current assignment.
    ///
    /// # Panics
    ///
    /// Panics if `target` is unassigned (callers check derivability first).
    fn extract_to(&self, target: NetId) -> Vec<TraceEntry> {
        assert!(
            self.values[target as usize].is_some(),
            "trace target must be assigned"
        );
        self.entries(&self.mark_ancestors(&[target]))
    }

    /// The ancestor-pruned trace ending in the recorded conflict: the final
    /// entry re-asserts a net at the complement of its standing assignment.
    ///
    /// # Panics
    ///
    /// Panics if no conflict was recorded.
    fn extract_conflict(&self) -> Vec<TraceEntry> {
        let (net, value, why) = self.conflict.as_ref().expect("conflict recorded");
        let mut roots = why.parents.clone();
        roots.push(*net);
        let mut entries = self.entries(&self.mark_ancestors(&roots));
        entries.push(TraceEntry {
            net: *net,
            value: *value,
            by: why.reason,
        });
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_analyze::{ConstFacts, Implications};
    use scanft_netlist::NetlistBuilder;

    #[test]
    fn prover_rediscovers_the_closure_constants() {
        // c = AND(x, NOT x) is constant 0; the closure then sees z = x.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let mut cert = Certificate::begin(1, 0, 3);
        let (implications, history) = Implications::with_history(&n);
        let prover = Prover::new(&n, history, &mut cert);
        assert_eq!(prover.constant(c), Some(false));
        let facts = ConstFacts::of(&implications);
        assert_eq!(prover.constants(), facts.constants());
        assert!(cert.as_text().contains("\"step\":\"const\""));
    }

    #[test]
    fn later_sweeps_certify_over_earlier_constants() {
        // b = OR(a, z) over two constant-0 ANDs conflicts only with a and
        // z seeded, so its trace must cite them as certified constants.
        let mut bld = NetlistBuilder::new(2, 0);
        let nx = bld.add_gate(GateKind::Not, &[0]).unwrap();
        let a = bld.add_gate(GateKind::And, &[0, nx]).unwrap();
        let ny = bld.add_gate(GateKind::Not, &[1]).unwrap();
        let z = bld.add_gate(GateKind::And, &[1, ny]).unwrap();
        let b = bld.add_gate(GateKind::Or, &[a, z]).unwrap();
        let n = bld.finish(vec![b], vec![]).unwrap();
        let mut cert = Certificate::begin(2, 0, 5);
        let (implications, history) = Implications::with_history(&n);
        let prover = Prover::new(&n, history, &mut cert);
        assert_eq!(prover.constants(), implications.constants());
        let text = cert.as_text();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with(&format!("{{\"step\":\"const\",\"net\":{b},")));
        assert!(last.contains(&format!("{{\"const\":{a}}}")));
    }

    #[test]
    fn on_demand_lemmas_cover_equivalence_pairs() {
        let mut b = NetlistBuilder::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let bf = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![y, bf], vec![]).unwrap();
        let mut cert = Certificate::begin(1, 0, 3);
        let (implications, history) = Implications::with_history(&n);
        let mut prover = Prover::new(&n, history, &mut cert);
        let facts = ConstFacts::of(&implications);
        for class in facts.classes() {
            let rep = class[0];
            for &member in &class[1..] {
                assert!(
                    prover
                        .prove_implication(&n, &mut cert, member, true, rep, true)
                        .is_some(),
                    "fwd {member}->{rep}"
                );
                assert!(
                    prover
                        .prove_implication(&n, &mut cert, rep, true, member, true)
                        .is_some(),
                    "bwd {rep}->{member}"
                );
            }
        }
        // Re-proving reuses the cached lemma id.
        let first = prover.prove_implication(&n, &mut cert, y, true, bf, true);
        let again = prover.prove_implication(&n, &mut cert, y, true, bf, true);
        assert_eq!(first, again);
    }
}
