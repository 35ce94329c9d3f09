//! BLIF (Berkeley Logic Interchange Format) export and import.
//!
//! The scan circuit is exported in its sequential view: present-state lines
//! become `.latch` outputs and next-state lines `.latch` inputs, so the
//! file loads directly into standard logic-synthesis tools. Gates are
//! written as `.names` tables in the canonical single-cover forms (AND as
//! one ON-set row, OR as one-hot rows, NAND/NOR via their complement
//! encodings, XOR as its parity rows).
//!
//! The importer accepts exactly those canonical forms (plus single-literal
//! buffers/inverters), which makes `parse(write(n))` the identity on every
//! netlist this crate produces. Arbitrary `.names` tables are rejected with
//! a clear error rather than silently approximated.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::net::{GateKind, Netlist};
use crate::{NetId, NetlistBuilder, NetlistError};

/// Serializes the netlist to BLIF.
///
/// Net names follow [`Netlist::net_name`] (`x*` inputs, `y*` state lines,
/// `g*` gates); primary outputs are exported as `z1..zn` driven by buffers
/// when necessary, and next-state lines as `ns1..nsk` latched back into
/// `y1..yk`.
#[must_use]
pub fn write(netlist: &Netlist, model: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {model}");
    let inputs: Vec<String> = (0..netlist.num_pis())
        .map(|k| netlist.net_name(netlist.pi(k)))
        .collect();
    let _ = writeln!(out, ".inputs {}", inputs.join(" "));
    let outputs: Vec<String> = (1..=netlist.pos().len()).map(|k| format!("z{k}")).collect();
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));
    for (k, _) in netlist.ppos().iter().enumerate() {
        let _ = writeln!(
            out,
            ".latch ns{} {} re clk 0",
            k + 1,
            netlist.net_name(netlist.ppi(k))
        );
    }
    for g in 0..netlist.num_gates() {
        let names: Vec<String> = netlist
            .fanins(g)
            .iter()
            .map(|&i| netlist.net_name(i))
            .collect();
        let target = netlist.net_name(netlist.gate_output(g));
        let _ = writeln!(out, ".names {} {}", names.join(" "), target);
        let k = names.len();
        match netlist.kind(g) {
            GateKind::And => {
                let _ = writeln!(out, "{} 1", "1".repeat(k));
            }
            GateKind::Nand => {
                let _ = writeln!(out, "{} 0", "1".repeat(k));
            }
            GateKind::Or => {
                for p in 0..k {
                    let mut row = vec!['-'; k];
                    row[p] = '1';
                    let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
                }
            }
            GateKind::Nor => {
                let _ = writeln!(out, "{} 1", "0".repeat(k));
            }
            GateKind::Xor => {
                for combo in 0..(1u32 << k) {
                    if combo.count_ones() % 2 == 1 {
                        let row: String = (0..k)
                            .map(|p| if combo >> p & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(out, "{row} 1");
                    }
                }
            }
            GateKind::Not => {
                let _ = writeln!(out, "0 1");
            }
            GateKind::Buf => {
                let _ = writeln!(out, "1 1");
            }
        }
    }
    // Output and next-state aliases.
    for (z, &net) in netlist.pos().iter().enumerate() {
        let _ = writeln!(out, ".names {} z{}", netlist.net_name(net), z + 1);
        let _ = writeln!(out, "1 1");
    }
    for (k, &net) in netlist.ppos().iter().enumerate() {
        let _ = writeln!(out, ".names {} ns{}", netlist.net_name(net), k + 1);
        let _ = writeln!(out, "1 1");
    }
    out.push_str(".end\n");
    out
}

/// Parses BLIF produced by [`write()`] (or hand-written in the same canonical
/// forms) back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::BadOutputs`] with a descriptive message for
/// malformed or unsupported constructs (non-canonical `.names` tables,
/// undefined signals, missing sections). Latch reset values and clocking
/// are ignored (the scan model supplies state explicitly).
pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
    let fail = |message: String| NetlistError::BadOutputs { message };

    // First pass: collect sections.
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut latches: Vec<(String, String)> = Vec::new(); // (ns signal, ps signal)
    let mut names_blocks: Vec<(Vec<String>, String, Vec<String>)> = Vec::new();
    {
        let mut current: Option<(Vec<String>, String, Vec<String>)> = None;
        let mut logical_lines: Vec<String> = Vec::new();
        let mut pending = String::new();
        for raw in text.lines() {
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            };
            if let Some(stripped) = line.strip_suffix('\\') {
                pending.push_str(stripped);
                pending.push(' ');
                continue;
            }
            pending.push_str(line);
            let full = std::mem::take(&mut pending);
            if !full.trim().is_empty() {
                logical_lines.push(full.trim().to_owned());
            }
        }
        for line in logical_lines {
            let mut parts = line.split_whitespace();
            let head = parts.next().expect("non-empty line");
            if head.starts_with('.') && head != "." {
                if let Some(block) = current.take() {
                    names_blocks.push(block);
                }
            }
            match head {
                ".model" => {}
                ".inputs" => inputs.extend(parts.map(str::to_owned)),
                ".outputs" => outputs.extend(parts.map(str::to_owned)),
                ".latch" => {
                    let ns = parts
                        .next()
                        .ok_or_else(|| fail("`.latch` needs an input".into()))?;
                    let ps = parts
                        .next()
                        .ok_or_else(|| fail("`.latch` needs an output".into()))?;
                    latches.push((ns.to_owned(), ps.to_owned()));
                }
                ".names" => {
                    let signals: Vec<String> = parts.map(str::to_owned).collect();
                    let (target, sources) = signals
                        .split_last()
                        .ok_or_else(|| fail("`.names` needs a target".into()))?;
                    current = Some((sources.to_vec(), target.clone(), Vec::new()));
                }
                ".end" => break,
                other if other.starts_with('.') => {
                    return Err(fail(format!("unsupported directive `{other}`")));
                }
                _ => {
                    // A table row belonging to the open .names block.
                    let block = current
                        .as_mut()
                        .ok_or_else(|| fail(format!("table row `{line}` outside `.names`")))?;
                    block.2.push(line.clone());
                }
            }
        }
        if let Some(block) = current.take() {
            names_blocks.push(block);
        }
    }

    // Signal table: PIs first, then latch outputs (present state).
    let mut builder = NetlistBuilder::new(inputs.len(), latches.len());
    let mut net_of: HashMap<String, NetId> = HashMap::new();
    for (k, name) in inputs.iter().enumerate() {
        net_of.insert(name.clone(), builder.pi(k));
    }
    for (k, (_, ps)) in latches.iter().enumerate() {
        net_of.insert(ps.clone(), builder.ppi(k));
    }

    // Build gates in dependency order (iterate until fixpoint; the blocks
    // written by `write` are already ordered, but hand-written files may
    // not be).
    let mut remaining: Vec<(Vec<String>, String, Vec<String>)> = names_blocks;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|(sources, target, rows)| {
            if !sources.iter().all(|s| net_of.contains_key(s)) {
                return true; // not ready yet
            }
            let nets: Vec<NetId> = sources.iter().map(|s| net_of[s]).collect();
            match recognize(&nets, rows) {
                Ok((kind, ins)) => {
                    let out = builder
                        .add_gate(kind, &ins)
                        .expect("recognized gates have valid fanin");
                    net_of.insert(target.clone(), out);
                    false
                }
                Err(_) => true, // surfaced after the loop
            }
        });
        if remaining.len() == before {
            let (sources, target, rows) = &remaining[0];
            if sources.iter().all(|s| net_of.contains_key(s)) {
                let nets: Vec<NetId> = sources.iter().map(|s| net_of[s]).collect();
                if let Err(e) = recognize(&nets, rows) {
                    return Err(fail(format!("`.names {target}`: {e}")));
                }
            }
            return Err(fail(format!(
                "undefined signal feeding `.names {target}` (or a combinational cycle)"
            )));
        }
    }

    let pos: Vec<NetId> = outputs
        .iter()
        .map(|name| {
            net_of
                .get(name)
                .copied()
                .ok_or_else(|| fail(format!("undriven primary output `{name}`")))
        })
        .collect::<Result<_, _>>()?;
    let ppos: Vec<NetId> = latches
        .iter()
        .map(|(ns, _)| {
            net_of
                .get(ns)
                .copied()
                .ok_or_else(|| fail(format!("undriven latch input `{ns}`")))
        })
        .collect::<Result<_, _>>()?;
    builder.finish(pos, ppos)
}

/// Recognizes a canonical `.names` table as a gate, or reports why the
/// table is unsupported.
fn recognize(nets: &[NetId], rows: &[String]) -> Result<(GateKind, Vec<NetId>), String> {
    let k = nets.len();
    if rows.is_empty() {
        return Err("constant tables are not supported".into());
    }
    let parsed: Vec<(Vec<char>, char)> = rows
        .iter()
        .map(|row| {
            let mut parts = row.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(pattern), Some(value), None) if pattern.len() == k => Ok((
                    pattern.chars().collect(),
                    value.chars().next().ok_or("empty output value")?,
                )),
                (Some(value), None, None) if k == 0 && value.len() == 1 => {
                    Ok((Vec::new(), value.chars().next().expect("len checked")))
                }
                _ => Err(format!("malformed table row `{row}`")),
            }
        })
        .collect::<Result<_, _>>()?;

    let all_ones = |p: &[char]| p.iter().all(|&c| c == '1');
    let all_zeros = |p: &[char]| p.iter().all(|&c| c == '0');

    // Single-row forms.
    if parsed.len() == 1 {
        let (pattern, value) = &parsed[0];
        if k == 1 {
            return match (pattern[0], value) {
                ('1', '1') => Ok((GateKind::Buf, nets.to_vec())),
                ('0', '1') => Ok((GateKind::Not, nets.to_vec())),
                _ => Err("unsupported single-input table".into()),
            };
        }
        if all_ones(pattern) && *value == '1' {
            return Ok((GateKind::And, nets.to_vec()));
        }
        if all_ones(pattern) && *value == '0' {
            return Ok((GateKind::Nand, nets.to_vec()));
        }
        if all_zeros(pattern) && *value == '1' {
            return Ok((GateKind::Nor, nets.to_vec()));
        }
    }
    // OR: k one-hot '-' rows with value 1.
    if parsed.len() == k
        && parsed.iter().all(|(p, v)| {
            *v == '1'
                && p.iter().filter(|&&c| c == '1').count() == 1
                && p.iter().filter(|&&c| c == '-').count() == k - 1
        })
    {
        return Ok((GateKind::Or, nets.to_vec()));
    }
    // XOR: all odd-parity full rows with value 1.
    if parsed.len() == 1 << (k - 1)
        && parsed.iter().all(|(p, v)| {
            *v == '1'
                && p.iter().all(|&c| c == '0' || c == '1')
                && p.iter().filter(|&&c| c == '1').count() % 2 == 1
        })
    {
        let mut seen: Vec<Vec<char>> = parsed.iter().map(|(p, _)| p.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() == 1 << (k - 1) {
            return Ok((GateKind::Xor, nets.to_vec()));
        }
    }
    Err("non-canonical table (not AND/OR/NAND/NOR/NOT/BUF/XOR)".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::GateKind;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new(2, 1);
        let x1 = b.pi(0);
        let x2 = b.pi(1);
        let y1 = b.ppi(0);
        let a = b.add_gate(GateKind::And, &[x1, x2]).unwrap();
        let o = b.add_gate(GateKind::Or, &[a, y1]).unwrap();
        let n = b.add_gate(GateKind::Not, &[o]).unwrap();
        let xo = b.add_gate(GateKind::Xor, &[x1, y1]).unwrap();
        let nd = b.add_gate(GateKind::Nand, &[x1, x2, y1]).unwrap();
        let nr = b.add_gate(GateKind::Nor, &[a, xo]).unwrap();
        b.finish(vec![n, nr], vec![nd]).unwrap()
    }

    #[test]
    fn write_contains_sections() {
        let text = write(&sample(), "sample");
        assert!(text.starts_with(".model sample"));
        assert!(text.contains(".inputs x1 x2"));
        assert!(text.contains(".outputs z1 z2"));
        assert!(text.contains(".latch ns1 y1"));
        assert!(text.ends_with(".end\n"));
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let original = sample();
        let text = write(&original, "sample");
        let parsed = parse(&text).expect("canonical BLIF parses");
        assert_eq!(parsed.num_pis(), original.num_pis());
        assert_eq!(parsed.num_ppis(), original.num_ppis());
        assert_eq!(parsed.pos().len(), original.pos().len());
        assert_eq!(parsed.ppos().len(), original.ppos().len());
        // Behavioural equivalence over all (state, input) points.
        for point in 0..(1u32 << 3) {
            let eval = |n: &Netlist| -> (u64, u64) {
                let mut vals = vec![0u64; n.num_nets()];
                for (k, val) in vals.iter_mut().enumerate().take(3) {
                    *val = if point >> k & 1 == 1 { u64::MAX } else { 0 };
                }
                for g in 0..n.num_gates() {
                    let ins: Vec<u64> = n.fanins(g).iter().map(|&i| vals[i as usize]).collect();
                    vals[n.gate_output(g) as usize] = n.kind(g).eval_words(&ins);
                }
                let po = n
                    .pos()
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (z, &net)| acc | (vals[net as usize] & 1) << z);
                let ns = n
                    .ppos()
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (v, &net)| acc | (vals[net as usize] & 1) << v);
                (po, ns)
            };
            assert_eq!(eval(&original), eval(&parsed), "point {point:03b}");
        }
    }

    #[test]
    fn parse_rejects_non_canonical_tables() {
        let text = "\
.model bad
.inputs a b
.outputs f
.names a b f
10 1
01 0
.end
";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("malformed") || err.to_string().contains("non-canonical"));
    }

    #[test]
    fn parse_rejects_undefined_signals() {
        let text = "\
.model bad
.inputs a
.outputs f
.names ghost f
1 1
.end
";
        assert!(parse(text).is_err());
    }

    #[test]
    fn parse_handles_out_of_order_blocks_and_comments() {
        let text = "\
.model ooo  # comment
.inputs a b
.outputs f
# f depends on t, declared later
.names t f
0 1
.names a b t
11 1
.end
";
        let n = parse(text).expect("out-of-order blocks resolve");
        assert_eq!(n.num_gates(), 2); // the AND and the NOT
        assert_eq!(n.pos().len(), 1);
    }

    #[test]
    fn continuation_lines() {
        let text = ".model c\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let n = parse(text).expect("continuations join");
        assert_eq!(n.num_pis(), 2);
    }
}
