//! Structural lints over a [`Netlist`].
//!
//! Complements the construction-time invariants of
//! [`scanft_netlist::NetlistBuilder`] (acyclicity, known nets, fanin
//! arity) with the checks the builder *cannot* enforce: connectivity of
//! the finished design, the scan boundary, fanin policy, and the
//! SCOAP-derived structural testability of every net. BLIF sources that
//! fail to import are folded into the same diagnostic stream so `scanft
//! lint` has a single report shape for every input kind.

use scanft_netlist::{GateKind, NetId, Netlist, NetlistError};

use crate::diag::{Diagnostic, LintCode, LintLevels, LintReport, Severity};
use crate::facts::ConstFacts;
use crate::Analysis;

/// Knobs for a netlist lint run.
#[derive(Debug, Clone)]
pub struct NetlistLintConfig {
    /// Per-lint severity table.
    pub levels: LintLevels,
    /// Largest allowed gate fanin (the synthesis mapper emits trees of
    /// fanin ≤ 4 by default, so the default bound of 8 only fires on
    /// hand-built or imported netlists).
    pub max_fanin: usize,
}

impl Default for NetlistLintConfig {
    fn default() -> Self {
        NetlistLintConfig {
            levels: LintLevels::default(),
            max_fanin: 8,
        }
    }
}

/// Whether net `b` is a plain buffered copy of net `a` — an intentional
/// repeater, not duplicated logic worth a finding.
fn is_buffer_of(netlist: &Netlist, a: NetId, b: NetId) -> bool {
    netlist
        .driver_index(b)
        .is_some_and(|g| netlist.kind(g) == GateKind::Buf && netlist.fanins(g)[0] == a)
}

/// Runs every enabled netlist lint over `netlist`, reusing a precomputed
/// static [`Analysis`] (SCOAP measures plus the implication closure).
#[must_use]
pub fn lint_netlist(
    netlist: &Netlist,
    analysis: &Analysis,
    config: &NetlistLintConfig,
) -> LintReport {
    let scoap = &analysis.scoap;
    let mut report = LintReport::default();
    let levels = &config.levels;
    let diag =
        |code: LintCode, locus: String, message: String, suggestion: Option<String>| Diagnostic {
            severity: levels.level(code),
            code,
            locus,
            message,
            suggestion,
        };

    let num_inputs = netlist.num_pis() + netlist.num_ppis();

    // Scan-chain integrity: the scan boundary must capture exactly one
    // next-state line per present-state line.
    if netlist.ppos().len() != netlist.num_ppis() {
        report.push(diag(
            LintCode::ScanChainIntegrity,
            "scan boundary".into(),
            format!(
                "{} pseudo-primary inputs but {} pseudo-primary outputs: the scan chain cannot \
                 capture a consistent next state",
                netlist.num_ppis(),
                netlist.ppos().len()
            ),
            Some("declare one PPO (next-state net) per PPI in `finish`".into()),
        ));
    }

    // Floating inputs and dangling gate outputs.
    for net in 0..netlist.num_nets() as NetId {
        if netlist.is_connected(net) {
            continue;
        }
        if (net as usize) < num_inputs {
            report.push(diag(
                LintCode::FloatingInput,
                netlist.net_name(net),
                format!(
                    "{} {} drives no gate and no output",
                    if (net as usize) < netlist.num_pis() {
                        "primary input"
                    } else {
                        "present-state line"
                    },
                    netlist.net_name(net)
                ),
                Some("remove the unused input or connect it".into()),
            ));
        } else {
            report.push(diag(
                LintCode::DanglingOutput,
                netlist.net_name(net),
                format!(
                    "gate output {} ({} gate) drives no gate and no output",
                    netlist.net_name(net),
                    netlist
                        .driver_index(net)
                        .map(|g| netlist.kind(g).name())
                        .unwrap_or("unknown"),
                ),
                Some("remove the dead gate or route it to an output".into()),
            ));
        }
    }

    // SCOAP-structural untestability: connected nets that still cannot be
    // observed (no path to any PO/PPO) or controlled.
    for net in 0..netlist.num_nets() as NetId {
        if !netlist.is_connected(net) {
            continue; // already reported as floating/dangling above
        }
        if scoap.is_unobservable(net) {
            report.push(diag(
                LintCode::Unobservable,
                netlist.net_name(net),
                format!(
                    "net {} has no structural path to any primary or pseudo-primary output; \
                     every fault on it is untestable",
                    netlist.net_name(net)
                ),
                Some("route the cone of logic to an observable output".into()),
            ));
        }
        for value in [false, true] {
            if scoap.is_uncontrollable(net, value) {
                report.push(diag(
                    LintCode::Uncontrollable,
                    netlist.net_name(net),
                    format!(
                        "net {} cannot be driven to {} from the PIs and scan chain",
                        netlist.net_name(net),
                        u8::from(value)
                    ),
                    None,
                ));
            }
        }
    }

    // Fanin policy.
    for g in 0..netlist.num_gates() {
        let fanin = netlist.fanins(g).len();
        if fanin > config.max_fanin {
            report.push(diag(
                LintCode::FaninBound,
                netlist.net_name(netlist.gate_output(g)),
                format!(
                    "{} gate {} has fanin {} (bound {})",
                    netlist.kind(g).name(),
                    netlist.net_name(netlist.gate_output(g)),
                    fanin,
                    config.max_fanin
                ),
                Some("split the gate into a tree (NetlistBuilder::add_tree)".into()),
            ));
        }
    }

    // Implication-proven constant nets, read through the same fact set
    // (`ConstFacts`) the `scanft-opt` rewriter folds, so lint and optimizer
    // cannot disagree. SCOAP-uncontrollable nets are already denied above;
    // this catches the reconvergence-made constants SCOAP cannot see.
    let facts = ConstFacts::of(&analysis.implications);
    for &(net, value) in facts.constants() {
        if !netlist.is_connected(net) || scoap.is_uncontrollable(net, !value) {
            continue; // already dangling or uncontrollable
        }
        report.push(diag(
            LintCode::ConstantNet,
            netlist.net_name(net),
            format!(
                "net {} evaluates to {} under every input assignment; its stuck-at-{} fault is \
                 untestable",
                netlist.net_name(net),
                u8::from(value),
                u8::from(value),
            ),
            Some("fold the constant into its fanout and delete the driving cone".into()),
        ));
    }

    // Implication-proven equivalent nets: duplicated logic, one finding per
    // equivalence class. Plain buffer copies of another class member are
    // deliberate repeaters and dropped before judging the class.
    for class in facts.classes() {
        let members: Vec<NetId> = class
            .iter()
            .copied()
            .filter(|&b| !class.iter().any(|&a| a != b && is_buffer_of(netlist, a, b)))
            .collect();
        if members.len() < 2 {
            continue;
        }
        let names: Vec<String> = members.iter().map(|&m| netlist.net_name(m)).collect();
        let locus = if names.len() > 4 {
            format!("{} (+{} more)", names[..4].join(" = "), names.len() - 4)
        } else {
            names.join(" = ")
        };
        report.push(diag(
            LintCode::EquivalentNets,
            locus,
            format!(
                "{} nets carry equal values under every input assignment ({} …)",
                names.len(),
                names[..2.min(names.len())].join(", "),
            ),
            Some("share one driver for the duplicated cone".into()),
        ));
    }

    scanft_obs::global()
        .counter("analyze.lint.netlist_diagnostics")
        .add(report.diagnostics.len() as u64);
    report
}

/// Maps a failed netlist import ([`NetlistError`] or the BLIF reader's
/// message-carrying variant) onto the diagnostic stream.
///
/// `scanft lint` calls this when a `.blif` input fails to parse, so broken
/// sources produce the same report shape as structural findings; import
/// failures are always deny-level design errors.
#[must_use]
pub fn lint_import_error(error: &NetlistError, levels: &LintLevels) -> LintReport {
    let mut report = LintReport::default();
    let message = error.to_string();
    let code = if message.contains("undriven") || message.contains("undefined signal") {
        LintCode::UndrivenNet
    } else {
        LintCode::MalformedSource
    };
    report.push(Diagnostic {
        severity: levels.level(code).max(Severity::Warn),
        code,
        locus: "netlist source".into(),
        message,
        suggestion: None,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::{GateKind, NetlistBuilder};

    fn lint(netlist: &Netlist) -> LintReport {
        lint_netlist(
            netlist,
            &Analysis::new(netlist),
            &NetlistLintConfig::default(),
        )
    }

    fn has(report: &LintReport, code: LintCode) -> bool {
        report.diagnostics.iter().any(|d| d.code == code)
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let mut b = NetlistBuilder::new(2, 1);
        let and = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let ns = b.add_gate(GateKind::Xor, &[and, 2]).unwrap();
        let n = b.finish(vec![and], vec![ns]).unwrap();
        let report = lint(&n);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn floating_input_and_dangling_output_fire() {
        let mut b = NetlistBuilder::new(2, 0);
        let used = b.add_gate(GateKind::Not, &[0]).unwrap();
        let dead = b.add_gate(GateKind::Not, &[0]).unwrap();
        let n = b.finish(vec![used], vec![]).unwrap();
        let report = lint(&n);
        assert!(has(&report, LintCode::FloatingInput), "x2 is unused");
        assert!(has(&report, LintCode::DanglingOutput), "g2 dangles");
        let dangling = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::DanglingOutput)
            .unwrap();
        assert_eq!(dangling.locus, n.net_name(dead));
    }

    #[test]
    fn unobservable_cone_is_reported_once_per_net() {
        // g1 = AND(x1, x2) feeds only g2 = NOT(g1); g2 dangles. g1 is
        // connected but unobservable, g2 is dangling.
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let _g2 = b.add_gate(GateKind::Not, &[g1]).unwrap();
        let live = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![live], vec![]).unwrap();
        let report = lint(&n);
        let unobservable: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::Unobservable)
            .map(|d| d.locus.as_str())
            .collect();
        assert_eq!(unobservable, vec!["g1"]);
    }

    #[test]
    fn scan_chain_integrity_and_fanin_bound() {
        let mut b = NetlistBuilder::new(10, 1);
        let inputs: Vec<NetId> = (0..10).collect();
        let wide = b.add_gate(GateKind::And, &inputs).unwrap();
        // One PPI but zero PPOs: broken scan boundary.
        let n = b.finish(vec![wide], vec![]).unwrap();
        let report = lint(&n);
        assert!(has(&report, LintCode::ScanChainIntegrity));
        assert!(has(&report, LintCode::FaninBound));
        assert_eq!(
            report.num_deny(),
            1,
            "only scan-chain-integrity denies by default"
        );
    }

    #[test]
    fn import_error_maps_to_undriven_net() {
        let err =
            scanft_netlist::blif::parse(".model bad\n.inputs a\n.outputs f\n.end\n").unwrap_err();
        let report = lint_import_error(&err, &LintLevels::default());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, LintCode::UndrivenNet);
        assert!(!report.passes());
    }

    #[test]
    fn lint_levels_can_silence_a_finding() {
        let mut b = NetlistBuilder::new(2, 0);
        let used = b.add_gate(GateKind::Not, &[0]).unwrap();
        let n = b.finish(vec![used], vec![]).unwrap();
        let mut config = NetlistLintConfig::default();
        config.levels.set(LintCode::FloatingInput, Severity::Allow);
        let report = lint_netlist(&n, &Analysis::new(&n), &config);
        assert!(!has(&report, LintCode::FloatingInput));
    }

    #[test]
    fn constant_net_lint_names_the_net() {
        // c = AND(x, NOT(x)) is constant 0 but SCOAP-controllable (SCOAP
        // ignores the reconvergence), so only the implication lint sees it.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let report = lint(&n);
        let finding = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::ConstantNet)
            .expect("constant-net fires");
        assert_eq!(finding.locus, n.net_name(c));
        assert!(finding.message.contains(&n.net_name(c)));
        assert_eq!(finding.severity, Severity::Warn);
    }

    #[test]
    fn equivalent_nets_lint_names_both_nets() {
        // Two separately built copies of AND(x1, x2).
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g1, g2], vec![]).unwrap();
        let report = lint(&n);
        let finding = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::EquivalentNets)
            .expect("equivalent-nets fires");
        assert_eq!(
            finding.locus,
            format!("{} = {}", n.net_name(g1), n.net_name(g2))
        );
        assert!(finding.message.contains(&n.net_name(g1)));
        assert!(finding.message.contains(&n.net_name(g2)));
    }

    #[test]
    fn buffer_copies_are_not_reported_equivalent() {
        let mut b = NetlistBuilder::new(1, 0);
        let g1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let copy = b.add_gate(GateKind::Buf, &[g1]).unwrap();
        let n = b.finish(vec![g1, copy], vec![]).unwrap();
        let report = lint(&n);
        assert!(!has(&report, LintCode::EquivalentNets));
    }
}
