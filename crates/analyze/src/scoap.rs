//! SCOAP testability measures on a [`Netlist`].
//!
//! The classic Goldstein measures: for every net, the 0-controllability
//! `CC0` and 1-controllability `CC1` estimate how many line assignments are
//! needed to drive the net to 0 resp. 1, and the observability `CO`
//! estimates how many assignments are needed to propagate the net's value
//! to a primary output or scan flop. All three are computed in a single
//! forward plus a single backward topological sweep — net ids in
//! [`Netlist`] are topological by construction, so no work list or
//! recursion is needed — using saturating arithmetic with
//! [`INFINITE`] as the "structurally impossible" value.
//!
//! The formulas per gate kind (inputs `i`, output `o`, `n` = fanin):
//!
//! | kind  | `CC1(o)`             | `CC0(o)`             | `CO(i)`                                |
//! |-------|----------------------|----------------------|----------------------------------------|
//! | AND   | `Σ CC1(i) + 1`       | `min CC1(i) + 1`     | `CO(o) + Σ_{j≠i} CC1(j) + 1`           |
//! | OR    | `min CC1(i) + 1`     | `Σ CC0(i) + 1`       | `CO(o) + Σ_{j≠i} CC0(j) + 1`           |
//! | NAND  | `min CC0(i) + 1`     | `Σ CC1(i) + 1`       | `CO(o) + Σ_{j≠i} CC1(j) + 1`           |
//! | NOR   | `Σ CC0(i) + 1`       | `min CC1(i) + 1`     | `CO(o) + Σ_{j≠i} CC0(j) + 1`           |
//! | XOR   | odd-parity DP `+ 1`  | even-parity DP `+ 1` | `CO(o) + Σ_{j≠i} min(CC0, CC1)(j) + 1` |
//! | NOT   | `CC0(i) + 1`         | `CC1(i) + 1`         | `CO(o) + 1`                            |
//! | BUF   | `CC1(i) + 1`         | `CC0(i) + 1`         | `CO(o) + 1`                            |
//!
//! PIs and PPIs have `CC0 = CC1 = 1` (the scan chain makes every state
//! line as controllable as a primary input); POs and PPOs have `CO = 0`.
//! A stem's observability is the minimum over its fanout branches; branch
//! (per-pin) observabilities are kept separately so branch faults can be
//! judged at their own site.

use scanft_netlist::{GateKind, NetId, Netlist};

/// Sentinel for "no structural way to control/observe this net".
///
/// Saturating arithmetic keeps every sum involving [`INFINITE`] at
/// [`INFINITE`], so the sentinel propagates exactly like the textbook
/// `∞`.
pub const INFINITE: u32 = u32::MAX;

/// SCOAP controllability/observability analysis of one netlist.
///
/// # Examples
///
/// ```
/// use scanft_analyze::Scoap;
/// use scanft_netlist::{GateKind, NetlistBuilder};
///
/// // PO = AND(x1, x2): both inputs must be 1 for a 1 at the output.
/// let mut b = NetlistBuilder::new(2, 0);
/// let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
/// let n = b.finish(vec![g], vec![]).unwrap();
/// let scoap = Scoap::new(&n);
/// assert_eq!(scoap.cc1(g), 3); // 1 + 1 + 1
/// assert_eq!(scoap.cc0(g), 2); // min(1, 1) + 1
/// assert_eq!(scoap.co(0), 2);  // CO(g)=0, CC1(x2)=1, +1
/// ```
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    /// `pin_co[g][p]` = observability of input pin `p` of gate `g`.
    pin_co: Vec<Vec<u32>>,
}

impl Scoap {
    /// Computes the measures for `netlist` in one forward and one backward
    /// sweep.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let obs = scanft_obs::global();
        let _span = obs.timer("analyze.scoap_secs").start();
        let n = netlist.num_nets();
        let num_inputs = netlist.num_pis() + netlist.num_ppis();
        let mut cc0 = vec![INFINITE; n];
        let mut cc1 = vec![INFINITE; n];
        for net in 0..num_inputs {
            cc0[net] = 1;
            cc1[net] = 1;
        }

        // Forward sweep: controllability in gate creation (topological) order.
        for g in 0..netlist.num_gates() {
            let out = num_inputs + g;
            let (c0, c1) = controllability(netlist.kind(g), netlist.fanins(g), &cc0, &cc1);
            cc0[out] = c0;
            cc1[out] = c1;
        }

        // Backward sweep: observability in reverse topological order. Every
        // consumer of a net has a strictly larger gate index, so by the time
        // gate `g` is visited, the observability of its output net is final.
        let mut co = vec![INFINITE; n];
        for &net in netlist.pos().iter().chain(netlist.ppos()) {
            co[net as usize] = 0;
        }
        let mut pin_co: Vec<Vec<u32>> = (0..netlist.num_gates())
            .map(|g| vec![INFINITE; netlist.fanins(g).len()])
            .collect();
        for g in (0..netlist.num_gates()).rev() {
            let (kind, inputs) = (netlist.kind(g), netlist.fanins(g));
            let out_co = co[num_inputs + g];
            for (pin, &input) in inputs.iter().enumerate() {
                let side = side_cost(kind, inputs, pin, &cc0, &cc1);
                let through = out_co.saturating_add(side).saturating_add(1);
                pin_co[g][pin] = through;
                let stem = &mut co[input as usize];
                *stem = (*stem).min(through);
            }
        }

        obs.counter("analyze.scoap.runs").inc();
        obs.counter("analyze.scoap.nets").add(n as u64);
        Scoap {
            cc0,
            cc1,
            co,
            pin_co,
        }
    }

    /// 0-controllability of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc0[net as usize]
    }

    /// 1-controllability of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc1[net as usize]
    }

    /// Controllability of `net` to the given value.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn controllability(&self, net: NetId, value: bool) -> u32 {
        if value {
            self.cc1(net)
        } else {
            self.cc0(net)
        }
    }

    /// Stem observability of `net` (minimum over all fanout branches, 0 for
    /// POs/PPOs).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net as usize]
    }

    /// Observability of input pin `pin` of gate `gate` (the branch site).
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `pin` is out of range.
    #[must_use]
    pub fn pin_co(&self, gate: usize, pin: usize) -> u32 {
        self.pin_co[gate][pin]
    }

    /// Whether no completion of any test can ever observe `net` (its stem
    /// observability saturated at [`INFINITE`]).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn is_unobservable(&self, net: NetId) -> bool {
        self.co(net) == INFINITE
    }

    /// Whether `net` cannot be driven to `value` by any input assignment
    /// reachable through the structural formulas.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn is_uncontrollable(&self, net: NetId, value: bool) -> bool {
        self.controllability(net, value) == INFINITE
    }

    /// Aggregated per-circuit statistics.
    #[must_use]
    pub fn summary(&self) -> ScoapSummary {
        let finite = |values: &[u32]| {
            values
                .iter()
                .copied()
                .filter(|&v| v != INFINITE)
                .max()
                .unwrap_or(0)
        };
        ScoapSummary {
            num_nets: self.co.len(),
            max_cc: finite(&self.cc0).max(finite(&self.cc1)),
            max_co: finite(&self.co),
            num_unobservable: self.co.iter().filter(|&&v| v == INFINITE).count(),
            num_uncontrollable: self
                .cc0
                .iter()
                .zip(&self.cc1)
                .filter(|&(&c0, &c1)| c0 == INFINITE || c1 == INFINITE)
                .count(),
        }
    }
}

/// Aggregate SCOAP statistics of a netlist (see [`Scoap::summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoapSummary {
    /// Total number of nets analyzed.
    pub num_nets: usize,
    /// Largest finite controllability (0 or 1) over all nets.
    pub max_cc: u32,
    /// Largest finite stem observability over all nets.
    pub max_co: u32,
    /// Nets whose stem observability is [`INFINITE`].
    pub num_unobservable: usize,
    /// Nets with an [`INFINITE`] controllability for either value.
    pub num_uncontrollable: usize,
}

/// Controllability of a gate output from its input measures.
fn controllability(kind: GateKind, inputs: &[NetId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let sum = |values: &dyn Fn(NetId) -> u32| {
        inputs
            .iter()
            .fold(0u32, |acc, &i| acc.saturating_add(values(i)))
    };
    let min =
        |values: &dyn Fn(NetId) -> u32| inputs.iter().map(|&i| values(i)).min().unwrap_or(INFINITE);
    let c0 = |i: NetId| cc0[i as usize];
    let c1 = |i: NetId| cc1[i as usize];
    let (out0, out1) = match kind {
        GateKind::And => (min(&c0), sum(&c1)),
        GateKind::Or => (sum(&c0), min(&c1)),
        GateKind::Nand => (sum(&c1), min(&c0)),
        GateKind::Nor => (min(&c1), sum(&c0)),
        GateKind::Not => (c1(inputs[0]), c0(inputs[0])),
        GateKind::Buf => (c0(inputs[0]), c1(inputs[0])),
        GateKind::Xor => {
            // DP over the inputs: cheapest way to an even/odd number of 1s.
            let (mut even, mut odd) = (0u32, INFINITE);
            for &i in inputs {
                let (e, o) = (even, odd);
                even = e.saturating_add(c0(i)).min(o.saturating_add(c1(i)));
                odd = e.saturating_add(c1(i)).min(o.saturating_add(c0(i)));
            }
            (even, odd)
        }
    };
    (out0.saturating_add(1), out1.saturating_add(1))
}

/// Cost of holding every input except `pin` at a value that lets `pin`'s
/// value through (the side-input term of the observability formulas).
fn side_cost(kind: GateKind, inputs: &[NetId], pin: usize, cc0: &[u32], cc1: &[u32]) -> u32 {
    inputs
        .iter()
        .enumerate()
        .filter(|&(p, _)| p != pin)
        .fold(0u32, |acc, (_, &i)| {
            let cost = match kind {
                GateKind::And | GateKind::Nand => cc1[i as usize],
                GateKind::Or | GateKind::Nor => cc0[i as usize],
                GateKind::Xor => cc0[i as usize].min(cc1[i as usize]),
                GateKind::Not | GateKind::Buf => 0,
            };
            acc.saturating_add(cost)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder;

    #[test]
    fn textbook_and_gate() {
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let s = Scoap::new(&n);
        assert_eq!((s.cc0(0), s.cc1(0)), (1, 1));
        assert_eq!(s.cc1(g), 3);
        assert_eq!(s.cc0(g), 2);
        assert_eq!(s.co(g), 0);
        // Observing x1 through the AND needs x2 = 1.
        assert_eq!(s.co(0), 2);
        assert_eq!(s.pin_co(0, 0), 2);
    }

    #[test]
    fn inverter_chain_costs_grow_linearly() {
        let mut b = NetlistBuilder::new(1, 0);
        let mut net = 0;
        for _ in 0..5 {
            net = b.add_gate(GateKind::Not, &[net]).unwrap();
        }
        let n = b.finish(vec![net], vec![]).unwrap();
        let s = Scoap::new(&n);
        assert_eq!(s.cc0(net), 6);
        assert_eq!(s.cc1(net), 6);
        assert_eq!(s.co(0), 5);
    }

    #[test]
    fn xor_parity_dp_matches_two_input_formula() {
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::Xor, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let s = Scoap::new(&n);
        // CC0 = min(1+1, 1+1) + 1, CC1 = min(1+1, 1+1) + 1.
        assert_eq!(s.cc0(g), 3);
        assert_eq!(s.cc1(g), 3);
        assert_eq!(s.co(0), 2); // CO(g)=0 + min(CC0,CC1)(x2)=1 + 1
    }

    #[test]
    fn dangling_gate_is_unobservable() {
        let mut b = NetlistBuilder::new(2, 0);
        let live = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let dead = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![live], vec![]).unwrap();
        let s = Scoap::new(&n);
        assert!(!s.is_unobservable(live));
        assert!(s.is_unobservable(dead));
        assert_eq!(s.summary().num_unobservable, 1);
        assert_eq!(s.summary().num_uncontrollable, 0);
    }

    #[test]
    fn stem_observability_is_min_over_branches() {
        // x1 feeds a cheap path (BUF -> PO) and an expensive path.
        let mut b = NetlistBuilder::new(3, 0);
        let cheap = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let costly = b.add_gate(GateKind::And, &[0, 1, 2]).unwrap();
        let n = b.finish(vec![cheap, costly], vec![]).unwrap();
        let s = Scoap::new(&n);
        assert_eq!(s.pin_co(0, 0), 1);
        assert_eq!(s.pin_co(1, 0), 3);
        assert_eq!(s.co(0), 1);
    }

    #[test]
    fn ppis_and_ppos_are_scan_accessible() {
        let mut b = NetlistBuilder::new(1, 1);
        let ns = b.add_gate(GateKind::Xor, &[0, 1]).unwrap();
        let n = b.finish(vec![], vec![ns]).unwrap();
        let s = Scoap::new(&n);
        assert_eq!(s.cc0(1), 1);
        assert_eq!(s.co(ns), 0);
        assert!(!s.is_unobservable(0));
    }
}
