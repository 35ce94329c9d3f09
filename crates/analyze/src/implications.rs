//! Static learning: an implication engine over the scan netlist.
//!
//! A **literal** is a (net, value) pair. The engine computes, for every
//! literal `a`, the set of literals forced in *every* consistent circuit
//! assignment that satisfies `a` — the transitive closure of the implication
//! relation. Three sources feed the closure:
//!
//! 1. **Direct implications** from gate semantics, found by three-valued
//!    constraint propagation: forward rules (`AND` with a 0 input drives 0)
//!    and backward justification rules (`AND` output 1 forces every input
//!    to 1; `AND` output 0 with all side inputs at 1 forces the last input
//!    to 0).
//! 2. **Indirect (SOCRATES-style) implications** learned by contraposition:
//!    whenever propagation shows `a ⇒ b`, the engine records `¬b ⇒ ¬a` as a
//!    new graph edge. Re-propagating with learned edges reaches conclusions
//!    pure local propagation cannot (the classic reconvergent-fanout cases),
//!    so learning iterates to a fixpoint.
//! 3. **Ex falso**: a literal whose propagation *conflicts* is infeasible —
//!    the net is provably **constant** at the opposite value in every
//!    consistent assignment. Constants are seeded into all later
//!    propagation runs.
//!
//! Soundness argument: propagation only ever applies gate-consistency rules,
//! so every assigned literal holds in every total consistent extension of
//! the seed. Contraposition preserves truth, and a conflict under seed `a`
//! means no consistent extension satisfies `a` at all. The property suite
//! cross-checks every reported implication, constant, and equivalence
//! against exhaustive enumeration on all tractable circuits.
//!
//! Consumers: FIRE-style untestability proofs ([`crate::prune`]),
//! implication-guided PODEM (`scanft-atpg`), and the `constant-net` /
//! `equivalent-nets` design lints ([`crate::netlist_lints`]).

use scanft_netlist::{GateKind, NetId, Netlist};

/// Index of a literal: `2 * net + value`.
fn lit(net: NetId, value: bool) -> usize {
    2 * net as usize + usize::from(value)
}

/// The net of literal `l`.
fn lit_net(l: usize) -> NetId {
    (l / 2) as NetId
}

/// The value of literal `l`.
fn lit_value(l: usize) -> bool {
    l % 2 == 1
}

/// The complement literal `¬l`.
fn neg(l: usize) -> usize {
    l ^ 1
}

/// How many learning rounds to run at most. Each round re-propagates every
/// literal with all edges learned so far; in practice the fixpoint arrives
/// after two or three rounds, the bound only guards pathological inputs.
const MAX_ROUNDS: usize = 8;

/// The static implication closure of a netlist: for every literal, every
/// other literal it forces, plus the constants and equivalent net pairs that
/// fall out of the closure.
///
/// # Examples
///
/// ```
/// use scanft_analyze::Implications;
/// use scanft_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(2, 0);
/// let a = b.add_gate(GateKind::And, &[0, 1])?;
/// let o = b.add_gate(GateKind::Or, &[0, 1])?;
/// let n = b.finish(vec![a, o], vec![])?;
/// let imp = Implications::new(&n);
/// assert!(imp.implies(a, true, o, true)); // AND=1 ⇒ both inputs 1 ⇒ OR=1
/// assert!(imp.implies(o, false, a, false)); // the contrapositive
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Implications {
    num_nets: usize,
    words_per_row: usize,
    /// `rows[l]` = bitset over literals forced by literal `l` (including
    /// `l` itself). Meaningless when `infeasible[l]`.
    rows: Vec<u64>,
    /// Literals that conflict under propagation — no consistent assignment
    /// satisfies them.
    infeasible: Vec<bool>,
    /// Per-net constant value, when proven.
    constant: Vec<Option<bool>>,
    /// Indirect (contrapositive) implication edges learned.
    learned: u64,
}

impl Implications {
    /// Runs static learning over `netlist` to a fixpoint.
    ///
    /// Cost is `O(rounds * literals * propagation)` with small constants;
    /// the `analyze.implications_secs` timer and
    /// `analyze.implications_learned` counter record the work done.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let obs = scanft_obs::global();
        let _span = obs.timer("analyze.implications_secs").start();
        let n = netlist.num_nets();
        let lits = 2 * n;
        let words_per_row = lits.div_ceil(64).max(1);
        let mut engine = Implications {
            num_nets: n,
            words_per_row,
            rows: vec![0u64; lits * words_per_row],
            infeasible: vec![false; lits],
            constant: vec![None; n],
            learned: 0,
        };
        // Learned contrapositive edges, per source literal, plus a set to
        // keep the count of distinct learned pairs exact across rounds.
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); lits];
        let mut known: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut prop = Propagator::new(netlist);
        for _round in 0..MAX_ROUNDS {
            engine.close_all(netlist, &edges, &mut prop);
            let mut grew = false;
            for l in 0..lits {
                if engine.infeasible[l] || engine.constant[lit_net(l) as usize].is_some() {
                    continue;
                }
                let row = &engine.rows[l * words_per_row..(l + 1) * words_per_row];
                for m in iter_bits(row) {
                    if m == l || engine.infeasible[neg(m)] {
                        continue;
                    }
                    // a ⇒ b learned as ¬b ⇒ ¬a, unless the closure of ¬b
                    // already carries ¬a.
                    if !engine.row_bit(neg(m), neg(l))
                        && known.insert((neg(m) as u32, neg(l) as u32))
                    {
                        edges[neg(m)].push(neg(l) as u32);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        engine.learned = known.len() as u64;
        obs.counter("analyze.implications_learned")
            .add(engine.learned);
        obs.counter("analyze.implications.literals")
            .add(lits as u64);
        engine
    }

    /// Recomputes every literal's closure row with the current learned
    /// edges and constants.
    fn close_all(&mut self, netlist: &Netlist, edges: &[Vec<u32>], prop: &mut Propagator) {
        let lits = 2 * self.num_nets;
        // Constants may be discovered mid-sweep; sweeping until stable keeps
        // every row consistent with the full constant set.
        loop {
            let constants: Vec<(NetId, bool)> = self
                .constant
                .iter()
                .enumerate()
                .filter_map(|(net, c)| c.map(|v| (net as NetId, v)))
                .collect();
            for l in 0..lits {
                let net = lit_net(l);
                if let Some(c) = self.constant[net as usize] {
                    self.infeasible[l] = c != lit_value(l);
                    if self.infeasible[l] {
                        continue;
                    }
                }
                match prop.propagate(netlist, edges, &constants, l) {
                    Ok(values) => {
                        self.infeasible[l] = false;
                        let row =
                            &mut self.rows[l * self.words_per_row..(l + 1) * self.words_per_row];
                        row.fill(0);
                        for (net, v) in values {
                            let m = lit(net, v);
                            row[m / 64] |= 1 << (m % 64);
                        }
                    }
                    Err(Conflict) => {
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

    /// Whether setting net `a` to `av` forces net `b` to `bv` in every
    /// consistent assignment. Vacuously true when `(a, av)` is infeasible.
    #[must_use]
    pub fn implies(&self, a: NetId, av: bool, b: NetId, bv: bool) -> bool {
        let la = lit(a, av);
        if self.infeasible[la] {
            return true;
        }
        if let Some(c) = self.constant[b as usize] {
            return c == bv;
        }
        self.row_bit(la, lit(b, bv))
    }

    /// Whether no consistent assignment sets `net` to `value` (the net is
    /// constant at the complement).
    #[must_use]
    pub fn infeasible(&self, net: NetId, value: bool) -> bool {
        self.infeasible[lit(net, value)]
    }

    /// The proven constant value of `net`, if any.
    #[must_use]
    pub fn constant(&self, net: NetId) -> Option<bool> {
        self.constant[net as usize]
    }

    /// All nets proven constant, with their stuck value, in net order.
    #[must_use]
    pub fn constants(&self) -> Vec<(NetId, bool)> {
        self.constant
            .iter()
            .enumerate()
            .filter_map(|(net, c)| c.map(|v| (net as NetId, v)))
            .collect()
    }

    /// Every literal forced by `(net, value)`, including itself, in net
    /// order. Empty when the literal is infeasible — use
    /// [`Implications::infeasible`] to distinguish.
    #[must_use]
    pub fn implied(&self, net: NetId, value: bool) -> Vec<(NetId, bool)> {
        let l = lit(net, value);
        if self.infeasible[l] {
            return Vec::new();
        }
        let row = &self.rows[l * self.words_per_row..(l + 1) * self.words_per_row];
        iter_bits(row).map(|m| (lit_net(m), lit_value(m))).collect()
    }

    /// Pairs of distinct non-constant nets `(a, b)`, `a < b`, proven equal
    /// in every consistent assignment (`a=1 ⇔ b=1`; the `0` direction is
    /// the contrapositive and thus free).
    #[must_use]
    pub fn equivalent_pairs(&self) -> Vec<(NetId, NetId)> {
        let mut pairs = Vec::new();
        for a in 0..self.num_nets {
            if self.constant[a].is_some() {
                continue;
            }
            let la = lit(a as NetId, true);
            let row = &self.rows[la * self.words_per_row..(la + 1) * self.words_per_row];
            for m in iter_bits(row) {
                let b = lit_net(m);
                if lit_value(m)
                    && (b as usize) > a
                    && self.constant[b as usize].is_none()
                    && self.row_bit(m, la)
                {
                    pairs.push((a as NetId, b));
                }
            }
        }
        pairs
    }

    /// Equivalence classes of non-constant nets proven equal, each sorted
    /// by net id, classes ordered by their smallest member. Singleton
    /// classes are omitted.
    ///
    /// This is [`Implications::equivalent_pairs`] folded through union-find:
    /// a class of `k` equal nets yields one entry instead of `k·(k-1)/2`
    /// pair findings, which is what the `equivalent-nets` lint reports.
    #[must_use]
    pub fn equivalence_classes(&self) -> Vec<Vec<NetId>> {
        let mut parent: Vec<usize> = (0..self.num_nets).collect();
        fn root(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (a, b) in self.equivalent_pairs() {
            let (ra, rb) = (root(&mut parent, a as usize), root(&mut parent, b as usize));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut members: std::collections::BTreeMap<usize, Vec<NetId>> =
            std::collections::BTreeMap::new();
        for net in 0..self.num_nets {
            let r = root(&mut parent, net);
            members.entry(r).or_default().push(net as NetId);
        }
        members.into_values().filter(|c| c.len() > 1).collect()
    }

    /// Number of indirect (contrapositive) implication edges learned beyond
    /// what direct propagation finds.
    #[must_use]
    pub fn num_learned(&self) -> u64 {
        self.learned
    }

    /// Number of nets this closure was built for.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_nets
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

/// Conflict marker: propagation derived both values for some net.
struct Conflict;

/// Reusable three-valued constraint propagator (scratch buffers are kept
/// across runs to avoid reallocating per literal).
struct Propagator {
    values: Vec<Option<bool>>,
    /// Nets assigned in the current run, also serving as the worklist.
    trail: Vec<NetId>,
    /// Worklist cursor.
    cursor: usize,
}

impl Propagator {
    fn new(netlist: &Netlist) -> Self {
        Propagator {
            values: vec![None; netlist.num_nets()],
            trail: Vec::with_capacity(netlist.num_nets()),
            cursor: 0,
        }
    }

    /// Propagates seed literal `seed` (plus all known constants) to a
    /// fixpoint, returning every assigned (net, value) pair, or [`Conflict`]
    /// if the seed is infeasible.
    fn propagate(
        &mut self,
        netlist: &Netlist,
        edges: &[Vec<u32>],
        constants: &[(NetId, bool)],
        seed: usize,
    ) -> Result<Vec<(NetId, bool)>, Conflict> {
        for &net in &self.trail {
            self.values[net as usize] = None;
        }
        self.trail.clear();
        self.cursor = 0;
        let run = (|| {
            for &(net, v) in constants {
                self.assign(net, v)?;
            }
            self.assign(lit_net(seed), lit_value(seed))?;
            while self.cursor < self.trail.len() {
                let net = self.trail[self.cursor];
                self.cursor += 1;
                let v = self.values[net as usize].unwrap_or(false);
                for &target in &edges[lit(net, v)] {
                    self.assign(lit_net(target as usize), lit_value(target as usize))?;
                }
                if let Some(g) = netlist.driver_index(net) {
                    self.apply_gate(netlist, g)?;
                }
                for &g in netlist.fanout(net) {
                    self.apply_gate(netlist, g as usize)?;
                }
            }
            Ok(())
        })();
        run.map(|()| {
            self.trail
                .iter()
                .map(|&net| (net, self.values[net as usize].unwrap_or(false)))
                .collect()
        })
    }

    fn assign(&mut self, net: NetId, v: bool) -> Result<(), Conflict> {
        match self.values[net as usize] {
            Some(x) if x == v => Ok(()),
            Some(_) => Err(Conflict),
            None => {
                self.values[net as usize] = Some(v);
                self.trail.push(net);
                Ok(())
            }
        }
    }

    /// Applies every forward and backward consistency rule of gate `g`.
    fn apply_gate(&mut self, netlist: &Netlist, g: usize) -> Result<(), Conflict> {
        let inputs = netlist.fanins(g);
        let out = netlist.gate_output(g);
        let kind = netlist.kind(g);
        match kind {
            GateKind::Not | GateKind::Buf => {
                let invert = kind == GateKind::Not;
                let input = inputs[0];
                if let Some(v) = self.values[input as usize] {
                    self.assign(out, v ^ invert)?;
                }
                if let Some(v) = self.values[out as usize] {
                    self.assign(input, v ^ invert)?;
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
                    (0, _) => self.assign(out, parity)?,
                    (1, Some(v)) => {
                        let pin = unknown.unwrap_or(0);
                        self.assign(inputs[pin], v ^ parity)?;
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
                    self.assign(out, controlling ^ invert)?;
                } else if unknowns == 0 {
                    self.assign(out, !controlling ^ invert)?;
                }
                if let Some(v) = self.values[out as usize] {
                    if v == !controlling ^ invert {
                        // Non-controlled result: every input at the
                        // non-controlling value.
                        for &input in inputs {
                            self.assign(input, !controlling)?;
                        }
                    } else if unknowns == 1 && !any_controlling {
                        // Controlled result with one candidate left: it must
                        // supply the controlling value.
                        let pin = unknown.unwrap_or(0);
                        self.assign(inputs[pin], controlling)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder;

    fn and_or_pair() -> (Netlist, NetId, NetId) {
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let o = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![a, o], vec![]).unwrap();
        (n, a, o)
    }

    #[test]
    fn direct_forward_and_backward_implications() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        // Backward from AND=1 through the shared inputs, forward into OR.
        assert!(imp.implies(a, true, 0, true));
        assert!(imp.implies(a, true, 1, true));
        assert!(imp.implies(a, true, o, true));
        // Backward from OR=0, forward into AND.
        assert!(imp.implies(o, false, a, false));
        // Inputs are free variables: no implication between them.
        assert!(!imp.implies(0, true, 1, true));
        assert!(!imp.implies(0, true, a, true));
    }

    #[test]
    fn contrapositive_is_learned() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        // Direct propagation from o=1 learns nothing (either input may be
        // the one that is high), but a=1 ⇒ o=1 contraposes to o=0 ⇒ a=0 —
        // which direct propagation also finds — and a subtler one: ¬(o=1)
        // from ¬(a... the engine must at minimum agree on closure symmetry.
        assert!(imp.implies(o, false, a, false));
        assert_eq!(imp.constants(), vec![]);
    }

    #[test]
    fn indirect_implication_via_learning() {
        // z = OR(AND(x1, x2), AND(x1, x3)): z=1 requires x1=1, but only
        // contrapositive learning sees it: x1=0 ⇒ both ANDs 0 ⇒ z=0, so
        // z=1 ⇒ x1=1 is learned indirectly.
        let mut b = NetlistBuilder::new(3, 0);
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let a2 = b.add_gate(GateKind::And, &[0, 2]).unwrap();
        let z = b.add_gate(GateKind::Or, &[a1, a2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        assert!(imp.implies(z, true, 0, true));
        assert!(imp.num_learned() > 0);
    }

    #[test]
    fn constant_net_detected() {
        // c = AND(x, NOT(x)) is constant 0.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        assert_eq!(imp.constant(c), Some(false));
        assert!(imp.infeasible(c, true));
        assert_eq!(imp.constants(), vec![(c, false)]);
        // With c pinned at 0, z degenerates to x — and the closure knows it.
        assert!(imp.implies(0, true, z, true));
        assert!(imp.implies(0, false, z, false));
    }

    #[test]
    fn equivalent_nets_detected() {
        // Double inversion: y = NOT(NOT(x)) is equivalent to b = BUF(x).
        let mut b = NetlistBuilder::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let bf = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![y, bf], vec![]).unwrap();
        let imp = Implications::new(&n);
        let pairs = imp.equivalent_pairs();
        // x ≡ y, x ≡ bf, y ≡ bf (net 0 itself counts: it is a non-constant
        // net equal to both derived copies).
        assert!(pairs.contains(&(0, y)));
        assert!(pairs.contains(&(0, bf)));
        assert!(pairs.contains(&(y, bf)));
    }

    #[test]
    fn xor_parity_rules() {
        let mut b = NetlistBuilder::new(2, 0);
        let x = b.add_gate(GateKind::Xor, &[0, 1]).unwrap();
        let n = b.finish(vec![x], vec![]).unwrap();
        let imp = Implications::new(&n);
        // A single known input never determines an XOR.
        assert!(!imp.implies(0, true, x, true));
        assert!(!imp.implies(0, true, x, false));
        // But XOR out + one input pins the other input... only under a seed
        // containing two literals, which single-literal closure cannot see.
        assert!(!imp.implies(x, true, 0, true));
    }

    #[test]
    fn implied_lists_are_symmetric_with_implies() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        let fwd = imp.implied(a, true);
        assert!(fwd.contains(&(0, true)));
        assert!(fwd.contains(&(1, true)));
        assert!(fwd.contains(&(o, true)));
        assert!(fwd.contains(&(a, true)));
        for &(net, v) in &fwd {
            assert!(imp.implies(a, true, net, v));
        }
    }
}
