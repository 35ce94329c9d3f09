use scanft_fsm::{InputId, StateId, StateTable};

use crate::circuit::SynthesizedCircuit;

/// A disagreement between a synthesized netlist and its source state table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchReport {
    /// Functional state where the disagreement occurs.
    pub state: StateId,
    /// Input combination where the disagreement occurs.
    pub input: InputId,
    /// Expected (table) next state and output.
    pub expected: (StateId, u64),
    /// Actual (netlist) next state and output.
    pub actual: (StateId, u64),
}

/// Exhaustively (or up to `limit` transitions) checks that `circuit`
/// computes exactly the behaviour of `table`.
///
/// Evaluates the netlist for every `(state, input)` pair in canonical order,
/// comparing the primary-output word and decoded next state. Pass
/// `limit = None` for a complete check or `Some(n)` to check only the first
/// `n` transitions (useful for very large machines).
///
/// # Errors
///
/// Returns the first [`MismatchReport`] found.
///
/// # Examples
///
/// ```
/// use scanft_synth::{synthesize, verify_against_table, SynthConfig};
///
/// let lion = scanft_fsm::benchmarks::lion();
/// let c = synthesize(&lion, &SynthConfig::default());
/// verify_against_table(&c, &lion, None).expect("synthesis is correct");
/// ```
pub fn verify_against_table(
    circuit: &SynthesizedCircuit,
    table: &StateTable,
    limit: Option<usize>,
) -> Result<(), MismatchReport> {
    let netlist = circuit.netlist();
    let pi = netlist.num_pis();
    let sv = netlist.num_ppis();
    let mut values = vec![0u64; netlist.num_nets()];
    let limit = limit.unwrap_or(usize::MAX);

    for (count, t) in table.transitions().enumerate() {
        if count >= limit {
            break;
        }
        let code = circuit.encode_state(t.from);
        for k in 0..pi {
            values[netlist.pi(k) as usize] = if t.input >> k & 1 == 1 { u64::MAX } else { 0 };
        }
        for k in 0..sv {
            values[netlist.ppi(k) as usize] = if code >> k & 1 == 1 { u64::MAX } else { 0 };
        }
        for g in 0..netlist.num_gates() {
            let inputs = netlist.fanins(g);
            let mut acc: Option<u64> = None;
            // Evaluate without allocating: fold over inputs by kind.
            let word = match netlist.kind(g) {
                scanft_netlist::GateKind::Not => !values[inputs[0] as usize],
                scanft_netlist::GateKind::Buf => values[inputs[0] as usize],
                kind => {
                    for &i in inputs {
                        let v = values[i as usize];
                        acc = Some(match (acc, kind) {
                            (None, _) => v,
                            (Some(a), scanft_netlist::GateKind::And)
                            | (Some(a), scanft_netlist::GateKind::Nand) => a & v,
                            (Some(a), scanft_netlist::GateKind::Or)
                            | (Some(a), scanft_netlist::GateKind::Nor) => a | v,
                            (Some(a), scanft_netlist::GateKind::Xor) => a ^ v,
                            _ => unreachable!("unary kinds handled above"),
                        });
                    }
                    let a = acc.expect("gates have at least one input");
                    match kind {
                        scanft_netlist::GateKind::Nand | scanft_netlist::GateKind::Nor => !a,
                        _ => a,
                    }
                }
            };
            values[netlist.gate_output(g) as usize] = word;
        }
        let mut out_word: u64 = 0;
        for (z, &net) in netlist.pos().iter().enumerate() {
            if values[net as usize] != 0 {
                out_word |= 1 << z;
            }
        }
        let mut ns_code: u64 = 0;
        for (v, &net) in netlist.ppos().iter().enumerate() {
            if values[net as usize] != 0 {
                ns_code |= 1 << v;
            }
        }
        let actual_state = circuit.decode_state(ns_code);
        if out_word != t.output || actual_state != t.to {
            return Err(MismatchReport {
                state: t.from,
                input: t.input,
                expected: (t.to, t.output),
                actual: (actual_state, out_word),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, Encoding, SynthConfig};

    #[test]
    fn lion_verifies_under_all_configs() {
        let lion = scanft_fsm::benchmarks::lion();
        for encoding in [Encoding::Binary, Encoding::Gray] {
            for minimize in [true, false] {
                for max_fanin in [2, 4] {
                    let c = synthesize(
                        &lion,
                        &SynthConfig {
                            encoding,
                            minimize,
                            max_fanin,
                        },
                    );
                    verify_against_table(&c, &lion, None).unwrap_or_else(|m| {
                        panic!("{encoding:?} minimize={minimize} fanin={max_fanin}: {m:?}")
                    });
                }
            }
        }
    }

    #[test]
    fn several_benchmarks_verify() {
        for name in ["bbtas", "dk15", "dk27", "shiftreg", "beecount", "mc", "tav"] {
            let t = scanft_fsm::benchmarks::build(name).unwrap();
            let c = synthesize(&t, &SynthConfig::default());
            verify_against_table(&c, &t, None).unwrap_or_else(|m| panic!("{name}: {m:?}"));
        }
    }

    #[test]
    fn limit_short_circuits() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        assert!(verify_against_table(&c, &lion, Some(3)).is_ok());
    }
}
