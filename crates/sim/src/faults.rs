//! Fault universes: single stuck-at faults and non-feedback bridging faults.
//!
//! **Stuck-at**: a stuck-at-0/1 on every *line* of the circuit — every net
//! (PI, present-state line, gate output) is a stem line, and every input pin
//! of a gate fed by a net with more than one fanout is a distinct branch
//! line (a fault on one branch of a fanout stem is not equivalent to the
//! stem fault, so branches get their own faults, as in standard line-fault
//! enumeration).
//!
//! **Bridging**: exactly the paper's universe — for every pair of lines
//! `g1`, `g2` such that
//!
//! 1. `g1` and `g2` are outputs of multi-input gates,
//! 2. `g1` and `g2` are inputs of different gates (they share no consumer),
//! 3. there is no structural path from `g1` to `g2` nor from `g2` to `g1`
//!    (non-feedback),
//!
//! both an AND-type and an OR-type bridge are considered: the bridged lines
//! both take the AND (resp. OR) of their driven values.

use scanft_netlist::{NetId, Netlist, Reachability};

/// A single stuck-at fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A stem line: the net itself (affects all its fanout).
    Net(NetId),
    /// A fanout branch: input pin `pin` of gate `gate` only.
    Branch {
        /// Index of the consuming gate.
        gate: u32,
        /// Pin position within that gate's input list.
        pin: u32,
    },
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckFault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The stuck value: `true` = stuck-at-1.
    pub stuck_at_one: bool,
}

/// Wired-logic type of a bridging fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Both lines take the AND of the two driven values (wired-AND).
    And,
    /// Both lines take the OR of the two driven values (wired-OR).
    Or,
}

/// A non-feedback bridging fault between two lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgingFault {
    /// First bridged net (`a < b` canonically).
    pub a: NetId,
    /// Second bridged net.
    pub b: NetId,
    /// Wired-AND or wired-OR behaviour.
    pub kind: BridgeKind,
}

/// A gross transition-delay fault: the named net takes more than one clock
/// period to complete its slow transition, so a value launched in one cycle
/// is captured one cycle late.
///
/// Detection requires **at-speed** consecutive cycles: a length-1 test
/// (scan-in, one capture, scan-out) never launches a transition through the
/// combinational logic, which is exactly why the paper argues for chaining
/// transitions into longer tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelayFault {
    /// The slow net.
    pub net: NetId,
    /// `true` = slow-to-rise (late 0→1), `false` = slow-to-fall.
    pub slow_to_rise: bool,
}

/// Any fault the engine can simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Single stuck-at fault.
    Stuck(StuckFault),
    /// Non-feedback bridging fault.
    Bridge(BridgingFault),
    /// Gross transition-delay fault.
    Delay(DelayFault),
}

impl Fault {
    /// Human-readable description, e.g. `g3 s-a-1` or `g2~g7 wired-AND`.
    #[must_use]
    pub fn describe(&self, netlist: &Netlist) -> String {
        match self {
            Fault::Stuck(f) => {
                let v = if f.stuck_at_one { 1 } else { 0 };
                match f.site {
                    FaultSite::Net(net) => format!("{} s-a-{v}", netlist.net_name(net)),
                    FaultSite::Branch { gate, pin } => {
                        let src = netlist.fanins(gate as usize)[pin as usize];
                        format!(
                            "{}->{} s-a-{v}",
                            netlist.net_name(src),
                            netlist.net_name(netlist.gate_output(gate as usize))
                        )
                    }
                }
            }
            Fault::Bridge(f) => {
                let kind = match f.kind {
                    BridgeKind::And => "wired-AND",
                    BridgeKind::Or => "wired-OR",
                };
                format!("{}~{} {kind}", netlist.net_name(f.a), netlist.net_name(f.b))
            }
            Fault::Delay(f) => {
                let dir = if f.slow_to_rise { "rise" } else { "fall" };
                format!("{} slow-to-{dir}", netlist.net_name(f.net))
            }
        }
    }
}

/// Enumerates transition-delay faults (slow-to-rise and slow-to-fall) on
/// every connected net.
#[must_use]
pub fn enumerate_delay(netlist: &Netlist) -> Vec<DelayFault> {
    let mut faults = Vec::new();
    for net in 0..netlist.num_nets() as NetId {
        if !netlist.is_connected(net) {
            continue;
        }
        for slow_to_rise in [false, true] {
            faults.push(DelayFault { net, slow_to_rise });
        }
    }
    faults
}

/// Wraps delay faults into the generic [`Fault`] list the engine takes.
#[must_use]
pub fn delays_as_fault_list(delays: &[DelayFault]) -> Vec<Fault> {
    delays.iter().copied().map(Fault::Delay).collect()
}

/// Enumerates the full uncollapsed single stuck-at universe of `netlist`:
/// two faults per connected net (stem) and two per fanout branch.
///
/// Nets that drive nothing (not even an output) are skipped — a fault there
/// is trivially undetectable and only distorts coverage percentages.
#[must_use]
pub fn enumerate_stuck(netlist: &Netlist) -> Vec<StuckFault> {
    let mut faults = Vec::new();
    for net in 0..netlist.num_nets() as NetId {
        if !netlist.is_connected(net) {
            continue;
        }
        for stuck_at_one in [false, true] {
            faults.push(StuckFault {
                site: FaultSite::Net(net),
                stuck_at_one,
            });
        }
        // Branch faults only where the stem actually branches.
        if netlist.fanout(net).len() > 1 {
            for &g in netlist.fanout(net) {
                for (pin, &input) in netlist.fanins(g as usize).iter().enumerate() {
                    if input == net {
                        for stuck_at_one in [false, true] {
                            faults.push(StuckFault {
                                site: FaultSite::Branch {
                                    gate: g,
                                    pin: pin as u32,
                                },
                                stuck_at_one,
                            });
                        }
                    }
                }
            }
        }
    }
    faults
}

/// Enumerates the paper's bridging-fault universe (see module docs), both
/// AND-type and OR-type per qualifying pair, capped at `max_pairs` pairs.
///
/// Pairs are ordered by their first line, then their second, both in net
/// order. When the structural pair count exceeds a nonzero `max_pairs`, the
/// pairs at the stride positions `k * total / max_pairs` are kept, so the
/// selection is reproducible; the true pair count is reported in
/// [`BridgeEnumeration::total_pairs`] — never silently truncated.
///
/// Memory grows with the candidate lines and the kept pairs, not with the
/// roughly `C²/2` qualifying pairs: a first walk counts each candidate's
/// pairs, and a second revisits only the candidates holding a kept position.
#[must_use]
pub fn enumerate_bridging(netlist: &Netlist, max_pairs: usize) -> BridgeEnumeration {
    let reach = &Reachability::new(netlist);
    // Candidate lines: outputs of multi-input gates (condition 1) that feed
    // at least one gate (condition 2 requires them to be gate inputs).
    let candidates: Vec<NetId> = (0..netlist.num_gates())
        .filter(|&g| netlist.fanins(g).len() > 1)
        .map(|g| netlist.gate_output(g))
        .filter(|&net| !netlist.fanout(net).is_empty())
        .collect();
    // The partners `b` after candidate `i` that qualify for a pair with it.
    let partners = |i: usize| {
        let a = candidates[i];
        candidates[i + 1..].iter().copied().filter(move |&b| {
            // Condition 2: inputs of different gates — no shared consumer.
            let shares_consumer = netlist
                .fanout(a)
                .iter()
                .any(|g| netlist.fanout(b).contains(g));
            // Condition 3: non-feedback.
            !shares_consumer && reach.independent(a, b)
        })
    };

    let row_pairs: Vec<usize> = (0..candidates.len()).map(|i| partners(i).count()).collect();
    let total_pairs: usize = row_pairs.iter().sum();
    // The `k`-th kept position: a deterministic stride subsample when
    // capped, every position otherwise (the stride is then 1).
    let num_kept = if total_pairs > max_pairs && max_pairs > 0 {
        max_pairs
    } else {
        total_pairs
    };
    let position = |k: usize| k * total_pairs / num_kept;
    let mut kept: Vec<(NetId, NetId)> = Vec::with_capacity(num_kept);
    // Walk the rows with the position of each row's first pair; a row is
    // revisited only when it holds the next kept position.
    let mut first = 0;
    for (i, &count) in row_pairs.iter().enumerate() {
        let end = first + count;
        if kept.len() < num_kept && position(kept.len()) < end {
            for (pos, b) in (first..end).zip(partners(i)) {
                if kept.len() < num_kept && pos == position(kept.len()) {
                    kept.push((candidates[i], b));
                }
            }
        }
        first = end;
    }

    // No silent caps: the subsampling is observable in the metrics export,
    // not just in the returned struct.
    let obs = scanft_obs::global();
    obs.counter("sim.faults.bridge_pairs")
        .add(total_pairs as u64);
    obs.counter("sim.faults.bridge_pairs_dropped")
        .add((total_pairs - kept.len()) as u64);

    let faults = kept
        .iter()
        .flat_map(|&(a, b)| {
            [BridgeKind::And, BridgeKind::Or]
                .into_iter()
                .map(move |kind| BridgingFault { a, b, kind })
        })
        .collect();
    BridgeEnumeration {
        faults,
        total_pairs,
    }
}

/// Result of bridging-fault enumeration.
#[derive(Debug, Clone)]
pub struct BridgeEnumeration {
    /// The enumerated faults (two per kept pair).
    pub faults: Vec<BridgingFault>,
    /// Number of structurally qualifying pairs before any cap.
    pub total_pairs: usize,
}

impl BridgeEnumeration {
    /// Whether the cap truncated the universe.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.faults.len() < self.total_pairs * 2
    }

    /// Number of structurally qualifying pairs dropped by the cap.
    #[must_use]
    pub fn dropped_pairs(&self) -> usize {
        self.total_pairs - self.faults.len() / 2
    }
}

/// Wraps stuck-at faults into the generic [`Fault`] list the engine takes.
#[must_use]
pub fn as_fault_list(stuck: &[StuckFault]) -> Vec<Fault> {
    stuck.iter().copied().map(Fault::Stuck).collect()
}

/// Wraps bridging faults into the generic [`Fault`] list the engine takes.
#[must_use]
pub fn bridges_as_fault_list(bridges: &[BridgingFault]) -> Vec<Fault> {
    bridges.iter().copied().map(Fault::Bridge).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::{GateKind, NetlistBuilder};

    fn diamond() -> Netlist {
        // x1,x2,x3; a = AND(x1,x2); b = OR(x2,x3); c = AND(a,b) -> PO.
        let mut bld = NetlistBuilder::new(3, 0);
        let a = bld.add_gate(GateKind::And, &[0, 1]).unwrap();
        let b = bld.add_gate(GateKind::Or, &[1, 2]).unwrap();
        let c = bld.add_gate(GateKind::And, &[a, b]).unwrap();
        bld.finish(vec![c], vec![]).unwrap()
    }

    #[test]
    fn stuck_enumeration_counts() {
        let n = diamond();
        let faults = enumerate_stuck(&n);
        // Nets: 3 PIs + 3 gates = 6 stems = 12 faults; x2 branches to two
        // gates = 2 pins * 2 values = 4 branch faults.
        assert_eq!(faults.len(), 16);
        let branches = faults
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Branch { .. }))
            .count();
        assert_eq!(branches, 4);
    }

    #[test]
    fn disconnected_nets_are_skipped() {
        let mut bld = NetlistBuilder::new(2, 0);
        let a = bld.add_gate(GateKind::Not, &[0]).unwrap();
        // PI 1 is dangling.
        let n = bld.finish(vec![a], vec![]).unwrap();
        let faults = enumerate_stuck(&n);
        assert_eq!(faults.len(), 4); // x1 and g1 only
    }

    #[test]
    fn bridging_conditions_enforced() {
        let n = diamond();
        let e = enumerate_bridging(&n, usize::MAX);
        // Candidates: a, b, c (all multi-input). c feeds nothing but the PO
        // list => fanout empty => excluded by condition 2's gate-input
        // requirement. a and b both feed gate c => shared consumer =>
        // excluded. Hence no pairs.
        assert_eq!(e.total_pairs, 0);
        assert!(e.faults.is_empty());
        assert!(!e.truncated());
    }

    #[test]
    fn bridging_finds_independent_pairs() {
        // Two disjoint cones: a = AND(x1,x2) -> n1 = NOT a -> PO1;
        // b = OR(x3,x4) -> n2 = NOT b -> PO2.
        let mut bld = NetlistBuilder::new(4, 0);
        let a = bld.add_gate(GateKind::And, &[0, 1]).unwrap();
        let na = bld.add_gate(GateKind::Not, &[a]).unwrap();
        let b = bld.add_gate(GateKind::Or, &[2, 3]).unwrap();
        let nb = bld.add_gate(GateKind::Not, &[b]).unwrap();
        let n = bld.finish(vec![na, nb], vec![]).unwrap();
        let e = enumerate_bridging(&n, usize::MAX);
        assert_eq!(e.total_pairs, 1);
        assert_eq!(e.faults.len(), 2);
        assert_eq!(e.faults[0].a, a);
        assert_eq!(e.faults[0].b, b);
    }

    #[test]
    fn bridging_cap_is_deterministic_and_reported() {
        // Many parallel AND cones to get several pairs.
        let mut bld = NetlistBuilder::new(8, 0);
        let mut pos = Vec::new();
        for k in 0..4 {
            let a = bld
                .add_gate(GateKind::And, &[2 * k as u32, 2 * k as u32 + 1])
                .unwrap();
            let n = bld.add_gate(GateKind::Not, &[a]).unwrap();
            pos.push(n);
        }
        let n = bld.finish(pos, vec![]).unwrap();
        let full = enumerate_bridging(&n, usize::MAX);
        assert_eq!(full.total_pairs, 6); // C(4,2)
        assert_eq!(full.dropped_pairs(), 0);
        let capped = enumerate_bridging(&n, 3);
        assert_eq!(capped.total_pairs, 6);
        assert_eq!(capped.faults.len(), 6); // 3 pairs * 2 kinds
        assert!(capped.truncated());
        assert_eq!(capped.dropped_pairs(), 3);
        let capped2 = enumerate_bridging(&n, 3);
        assert_eq!(capped.faults, capped2.faults);
    }

    #[test]
    fn describe_is_informative() {
        let n = diamond();
        let f = Fault::Stuck(StuckFault {
            site: FaultSite::Net(0),
            stuck_at_one: true,
        });
        assert_eq!(f.describe(&n), "x1 s-a-1");
        let bf = Fault::Bridge(BridgingFault {
            a: 3,
            b: 4,
            kind: BridgeKind::Or,
        });
        assert_eq!(bf.describe(&n), "g1~g2 wired-OR");
        let brf = Fault::Stuck(StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 1 },
            stuck_at_one: false,
        });
        assert_eq!(brf.describe(&n), "x2->g1 s-a-0");
    }
}
