//! Fact prover: re-derives the static-learning closure with antecedent
//! tracking, so every constant and implication the optimizer folds carries
//! a replayable unit-propagation trace in the certificate.
//!
//! The algorithm mirrors `scanft_analyze::Implications` step for step —
//! same propagation rules, same contrapositive learning, same round
//! structure and filters — so the fact set it certifies is exactly the one
//! [`scanft_analyze::ConstFacts`] reports (the agreement tests pin this on
//! every suite circuit). The difference is bookkeeping: each assignment
//! remembers *why* it was forced (seed, certified constant, gate rule, or
//! an earlier lemma), which lets the prover extract an ancestor-pruned
//! trace for any derived literal or conflict and emit it as a `const` or
//! `lemma` certificate step ([`crate::certificate`]).
//!
//! Learned implications are certified *lazily*: the closure records them as
//! internal edges and a certificate lemma is emitted only when an emitted
//! trace cites one (recursively certifying the lemma's own trace first).
//! The closure learns millions of pairs on the larger suite machines while
//! the rewrites cite only thousands; eager emission produced a 2 GB
//! certificate for `keyb` where the lazy log stays in the megabytes, with
//! the identical fact set.
//!
//! Soundness is inherited from the mirrored engine; *checkability* is the
//! new property: the independent checker re-verifies every trace entry from
//! gate semantics alone, so a bug in this module (or in the engine it
//! mirrors) surfaces as a rejected certificate, never as a silently wrong
//! netlist.

use std::collections::HashMap;

use scanft_netlist::{GateKind, NetId, Netlist};

use crate::certificate::{Certificate, Reason, TraceEntry};

/// Index of a literal: `2 * net + value`.
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

/// Same learning-round bound as the mirrored engine.
const MAX_ROUNDS: usize = 8;

/// A learned contrapositive edge: applying it cites the *internal* learned
/// lemma that proved the forward direction (certified on first citation).
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    lemma: u32,
}

/// One learned implication `l ⇒ m`, certified lazily: a certificate lemma
/// is emitted only when a trace that reaches the log actually cites it.
/// `limit` is the number of learned lemmas that existed when this round's
/// rows were computed, so re-deriving the trace uses exactly the edge set
/// the discovery used — and every lemma it cites has a strictly smaller
/// index, which keeps the on-demand emission well-founded.
#[derive(Debug, Clone, Copy)]
struct Learned {
    l: u32,
    m: u32,
    limit: u32,
    cert_id: Option<u32>,
}

/// The closure re-derivation with certificate emission.
pub struct Prover {
    num_nets: usize,
    words_per_row: usize,
    rows: Vec<u64>,
    infeasible: Vec<bool>,
    constant: Vec<Option<bool>>,
    edges: Vec<Vec<Edge>>,
    learned: Vec<Learned>,
    /// Internal index of each learned implication, keyed by
    /// (from-literal, to-literal).
    learned_ids: HashMap<(u32, u32), u32>,
    /// Certificate lemmas already emitted, keyed the same way.
    lemma_ids: HashMap<(u32, u32), u32>,
    prop: Tracked,
}

impl Prover {
    /// Runs tracked static learning over `netlist`, emitting a `const` step
    /// into `cert` for every constant as it is discovered. Learned
    /// implications are recorded internally only; their lemmas reach the
    /// certificate on first citation (see `Learned`), so the log carries
    /// exactly the facts the rewrites depend on, not the full closure —
    /// which runs to millions of learned pairs on the larger machines.
    #[must_use]
    pub fn new(netlist: &Netlist, cert: &mut Certificate) -> Self {
        let n = netlist.num_nets();
        let lits = 2 * n;
        let words_per_row = lits.div_ceil(64).max(1);
        let mut prover = Prover {
            num_nets: n,
            words_per_row,
            rows: vec![0u64; lits * words_per_row],
            infeasible: vec![false; lits],
            constant: vec![None; n],
            edges: vec![Vec::new(); lits],
            learned: Vec::new(),
            learned_ids: HashMap::new(),
            lemma_ids: HashMap::new(),
            prop: Tracked::new(n),
        };
        for _round in 0..MAX_ROUNDS {
            prover.close_all(netlist, cert);
            let mut to_learn: Vec<(usize, usize)> = Vec::new();
            for l in 0..lits {
                if prover.infeasible[l] || prover.constant[lit_net(l) as usize].is_some() {
                    continue;
                }
                let row = &prover.rows[l * words_per_row..(l + 1) * words_per_row];
                for m in iter_bits(row) {
                    if m == l || prover.infeasible[neg(m)] {
                        continue;
                    }
                    if !prover.row_bit(neg(m), neg(l))
                        && !prover.learned_ids.contains_key(&(l as u32, m as u32))
                    {
                        to_learn.push((l, m));
                    }
                }
            }
            if to_learn.is_empty() {
                break;
            }
            // Every pair of this round shares the round-start lemma count:
            // the rows that justified them were computed with exactly the
            // first `limit` learned edges.
            let limit = prover.learned.len() as u32;
            for (l, m) in to_learn {
                let idx = prover.learned.len() as u32;
                prover.learned.push(Learned {
                    l: l as u32,
                    m: m as u32,
                    limit,
                    cert_id: None,
                });
                prover.learned_ids.insert((l as u32, m as u32), idx);
                prover.edges[neg(m)].push(Edge {
                    target: neg(l) as u32,
                    lemma: idx,
                });
            }
        }
        prover
    }

    /// Emits (or reuses) the certificate lemma for learned implication
    /// `idx`, first certifying every lemma its trace cites. Terminates
    /// because the re-derivation only uses edges below `limit`, so every
    /// citation has a strictly smaller index.
    fn require_lemma(&mut self, netlist: &Netlist, cert: &mut Certificate, idx: u32) -> u32 {
        if let Some(id) = self.learned[idx as usize].cert_id {
            return id;
        }
        let Learned { l, m, limit, .. } = self.learned[idx as usize];
        let (l, m) = (l as usize, m as usize);
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
        self.learned[idx as usize].cert_id = Some(id);
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

    /// Recomputes every literal's row, emitting `const` steps for conflicts
    /// as they surface (mirrors the engine's `close_all`).
    fn close_all(&mut self, netlist: &Netlist, cert: &mut Certificate) {
        let lits = 2 * self.num_nets;
        loop {
            for l in 0..lits {
                let net = lit_net(l);
                if let Some(c) = self.constant[net as usize] {
                    self.infeasible[l] = c != lit_value(l);
                    if self.infeasible[l] {
                        continue;
                    }
                }
                match self.prop.propagate(
                    netlist,
                    &self.edges,
                    &self.constant,
                    net,
                    lit_value(l),
                    u32::MAX,
                ) {
                    Ok(()) => {
                        self.infeasible[l] = false;
                        let row =
                            &mut self.rows[l * self.words_per_row..(l + 1) * self.words_per_row];
                        row.fill(0);
                        for &tnet in &self.prop.trail {
                            let v = self.prop.values[tnet as usize].unwrap_or(false);
                            let m = lit(tnet, v);
                            row[m / 64] |= 1 << (m % 64);
                        }
                    }
                    Err(()) => {
                        if !self.infeasible[l] && self.constant[net as usize].is_none() {
                            // First proof of this conflict: certify the
                            // constant at the complement value right away,
                            // so later traces may cite it. Extract before
                            // certifying — emitting cited lemmas reuses the
                            // propagator.
                            let raw = self.prop.extract_conflict();
                            let trace = self.certify_trace(netlist, cert, raw);
                            cert.const_step(net, !lit_value(l), &trace);
                        }
                        self.infeasible[l] = true;
                    }
                }
            }
            let mut new_constant = false;
            for net in 0..self.num_nets {
                if self.constant[net].is_none() {
                    for v in [false, true] {
                        if self.infeasible[lit(net as NetId, v)] {
                            self.constant[net] = Some(!v);
                            new_constant = true;
                        }
                    }
                }
            }
            if !new_constant {
                return;
            }
        }
    }

    fn row_bit(&self, l: usize, m: usize) -> bool {
        self.rows[l * self.words_per_row + m / 64] >> (m % 64) & 1 == 1
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
        // A learned closure edge covers the pair: certify that lemma.
        if let Some(&idx) = self.learned_ids.get(&(la as u32, lb as u32)) {
            let id = self.require_lemma(netlist, cert, idx);
            self.lemma_ids.insert((la as u32, lb as u32), id);
            return Some(id);
        }
        let id = self.prove_pair(netlist, cert, la, lb)?;
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

/// Iterates the set bit positions of a bitset row.
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
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
    use scanft_analyze::{Analysis, ConstFacts};
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
        let prover = Prover::new(&n, &mut cert);
        assert_eq!(prover.constant(c), Some(false));
        let facts = ConstFacts::of(&Analysis::new(&n));
        assert_eq!(prover.constants(), facts.constants());
        assert!(cert.as_text().contains("\"step\":\"const\""));
    }

    #[test]
    fn on_demand_lemmas_cover_equivalence_pairs() {
        let mut b = NetlistBuilder::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let bf = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![y, bf], vec![]).unwrap();
        let mut cert = Certificate::begin(1, 0, 3);
        let mut prover = Prover::new(&n, &mut cert);
        let facts = ConstFacts::of(&Analysis::new(&n));
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
