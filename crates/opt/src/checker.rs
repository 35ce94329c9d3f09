//! Independent certificate checker.
//!
//! This module validates a JSONL proof log ([`crate::certificate`]) against
//! the original and reduced netlists **without sharing any code with the
//! optimizer**: it has its own JSON parser, its own gate semantics (truth
//! tables by exhaustive completion, not the optimizer's propagation rules),
//! and its own replay of the rewrite steps. The trusted base is therefore
//! this file plus the netlist data structure — a bug anywhere in the
//! implication engine, the prover, or the rewriter surfaces as a rejected
//! certificate.
//!
//! What is checked, layer by layer:
//!
//! - **Shape** — the leading `begin` step must match the original netlist's
//!   interface.
//! - **Facts** — every `const`/`lemma` trace is replayed entry by entry: a
//!   `seed` entry must match the claimed assumption; a `const` citation
//!   must name an already-verified constant; a `gate` entry is accepted
//!   only if the assignment is *forced* — in every completion of the
//!   gate's unassigned terminals consistent with the gate function, the
//!   entry's net takes the entry's value (zero consistent completions is
//!   the vacuous case and also accepted, since the standing premises are
//!   already contradictory); `lemma`/`contra` citations must apply an
//!   earlier lemma directly or contrapositively. A `const` trace must end
//!   in a contradiction of its seeded complement; a `lemma` trace must
//!   derive its right-hand literal (or a contradiction, from which
//!   anything follows).
//! - **Rewrites** — substitutions must always point at a strictly smaller
//!   gate-output net, `equiv` must cite the exact lemma pair `drop=1 ⇒
//!   keep=1` and `keep=1 ⇒ drop=1` (which by contraposition gives full
//!   equivalence), `const_subst` needs equal verified constants on both
//!   nets, `drop_pin` needs a verified identity constant on the resolved
//!   pin source, `merge` needs equal kinds and equal resolved input
//!   multisets, and `dead` is re-justified by recounting the resolved
//!   consumers of the gate's output.
//! - **Rebuild** — the survivors are rebuilt into a netlist and compared
//!   structurally (`==`) against the optimizer's reduced netlist, so the
//!   certificate cannot under-describe the transformation.

use std::collections::HashMap;

use scanft_netlist::{GateKind, NetId, Netlist, NetlistBuilder};

/// Totals from a successful validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Total steps validated (including `begin`).
    pub steps: usize,
    /// Verified `const` facts.
    pub consts: usize,
    /// Verified `lemma` facts.
    pub lemmas: usize,
    /// Verified substitution/pin rewrites (`const_subst`, `equiv`, `merge`,
    /// `drop_pin`).
    pub rewrites: usize,
    /// Verified `dead` removals.
    pub dead: usize,
}

/// A rejected certificate: the offending line and what rule it broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// 1-based line number in the JSONL log (0 for end-of-log failures).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CheckError {}

fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, CheckError> {
    Err(CheckError {
        line,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// Minimal JSON value parser (this module's own; no shared code).
// ---------------------------------------------------------------------------

/// The subset of JSON the certificate format uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(want),
                self.pos
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'0'..=b'9') => self.parse_number(),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => return Err("escapes are not part of the format".to_owned()),
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_owned()),
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8 in string".to_owned())?
            .to_owned();
        self.pos += 1;
        Ok(text)
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn parse_line(line: &str) -> Result<Json, String> {
    let mut parser = Parser::new(line);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != line.len() {
        return Err(format!("trailing bytes at {}", parser.pos));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Field extraction helpers.
// ---------------------------------------------------------------------------

fn field_u64(step: &Json, key: &str, line: usize) -> Result<u64, CheckError> {
    step.get(key)
        .and_then(Json::as_u64)
        .ok_or(())
        .or_else(|()| fail(line, format!("missing numeric field '{key}'")))
}

fn field_bool(step: &Json, key: &str, line: usize) -> Result<bool, CheckError> {
    step.get(key)
        .and_then(Json::as_bool)
        .ok_or(())
        .or_else(|()| fail(line, format!("missing boolean field '{key}'")))
}

fn field_net(step: &Json, key: &str, num_nets: usize, line: usize) -> Result<NetId, CheckError> {
    let raw = field_u64(step, key, line)?;
    if raw >= num_nets as u64 {
        return fail(line, format!("'{key}' = {raw} out of range"));
    }
    Ok(raw as NetId)
}

// ---------------------------------------------------------------------------
// Trace verification.
// ---------------------------------------------------------------------------

/// A parsed trace-entry justification.
enum By {
    Seed,
    Const(NetId),
    Gate(usize),
    Lemma(usize),
    Contra(usize),
}

fn parse_by(value: &Json, line: usize) -> Result<By, CheckError> {
    if value.as_str() == Some("seed") {
        return Ok(By::Seed);
    }
    if let Some(net) = value.get("const").and_then(Json::as_u64) {
        return Ok(By::Const(net as NetId));
    }
    if let Some(g) = value.get("gate").and_then(Json::as_u64) {
        return Ok(By::Gate(g as usize));
    }
    if let Some(k) = value.get("lemma").and_then(Json::as_u64) {
        return Ok(By::Lemma(k as usize));
    }
    if let Some(k) = value.get("contra").and_then(Json::as_u64) {
        return Ok(By::Contra(k as usize));
    }
    fail(line, "unrecognized 'by' justification")
}

/// Independent gate evaluation — a truth table, not propagation rules.
fn eval_gate(kind: GateKind, inputs: &[bool]) -> bool {
    match kind {
        GateKind::Not => !inputs[0],
        GateKind::Buf => inputs[0],
        GateKind::And => inputs.iter().all(|&b| b),
        GateKind::Or => inputs.iter().any(|&b| b),
        GateKind::Nand => !inputs.iter().all(|&b| b),
        GateKind::Nor => !inputs.iter().any(|&b| b),
        GateKind::Xor => inputs.iter().fold(false, |p, &b| p ^ b),
    }
}

/// Largest number of free gate terminals the forced-assignment check will
/// enumerate (2^16 completions); certificates citing wider gates with that
/// many unknowns are rejected rather than trusted.
const MAX_FREE_TERMINALS: usize = 16;

/// Accepts `target = value` as forced by gate `g`: in every completion of
/// the gate's currently-unassigned terminals (with `target` treated as
/// free) that satisfies the gate function, `target` must read `value`.
fn gate_forces(
    netlist: &Netlist,
    g: usize,
    assignment: &HashMap<NetId, bool>,
    target: NetId,
    value: bool,
    line: usize,
) -> Result<(), CheckError> {
    let out = netlist.gate_output(g);
    let mut terminals: Vec<NetId> = netlist.fanins(g).to_vec();
    terminals.push(out);
    if !terminals.contains(&target) {
        return fail(line, format!("net {target} is not a terminal of gate {g}"));
    }
    let mut free: Vec<NetId> = Vec::new();
    for &t in &terminals {
        if (t == target || !assignment.contains_key(&t)) && !free.contains(&t) {
            free.push(t);
        }
    }
    if free.len() > MAX_FREE_TERMINALS {
        return fail(line, format!("gate {g} has too many free terminals"));
    }
    for completion in 0u32..(1u32 << free.len()) {
        let lookup = |net: NetId| -> bool {
            match free.iter().position(|&f| f == net) {
                Some(i) => completion >> i & 1 == 1,
                None => *assignment.get(&net).expect("terminal assigned or free"),
            }
        };
        let inputs: Vec<bool> = netlist.fanins(g).iter().map(|&i| lookup(i)).collect();
        if eval_gate(netlist.kind(g), &inputs) == lookup(out) && lookup(target) != value {
            return fail(
                line,
                format!("gate {g} does not force net {target} to {value}"),
            );
        }
    }
    Ok(())
}

/// Replays one trace, returning whether it ended in a contradiction plus
/// the final assignment.
fn verify_trace(
    netlist: &Netlist,
    consts: &[Option<bool>],
    lemmas: &[(NetId, bool, NetId, bool)],
    trace: &[Json],
    seed: (NetId, bool),
    line: usize,
) -> Result<(HashMap<NetId, bool>, bool), CheckError> {
    let mut assignment: HashMap<NetId, bool> = HashMap::new();
    let mut conflicted = false;
    let mut seeds = 0usize;
    for entry in trace {
        if conflicted {
            return fail(line, "trace continues past its contradiction");
        }
        let net = field_net(entry, "net", netlist.num_nets(), line)?;
        let value = field_bool(entry, "value", line)?;
        let by = entry
            .get("by")
            .ok_or(())
            .or_else(|()| fail(line, "trace entry missing 'by'"))?;
        match parse_by(by, line)? {
            By::Seed => {
                seeds += 1;
                if seeds > 1 {
                    return fail(line, "trace seeds more than once");
                }
                if (net, value) != seed {
                    return fail(line, "seed entry does not match the claimed assumption");
                }
            }
            By::Const(cited) => {
                if cited != net {
                    return fail(line, "constant citation names a different net");
                }
                if consts[net as usize] != Some(value) {
                    return fail(line, format!("net {net} has no verified constant {value}"));
                }
            }
            By::Gate(g) => {
                if g >= netlist.num_gates() {
                    return fail(line, format!("gate {g} out of range"));
                }
                gate_forces(netlist, g, &assignment, net, value, line)?;
            }
            By::Lemma(k) => {
                let &(a, av, b, bv) = lemmas
                    .get(k)
                    .ok_or(())
                    .or_else(|()| fail(line, format!("lemma {k} not yet proven")))?;
                if (net, value) != (b, bv) || assignment.get(&a) != Some(&av) {
                    return fail(line, format!("lemma {k} does not apply"));
                }
            }
            By::Contra(k) => {
                let &(a, av, b, bv) = lemmas
                    .get(k)
                    .ok_or(())
                    .or_else(|()| fail(line, format!("lemma {k} not yet proven")))?;
                if (net, value) != (a, !av) || assignment.get(&b) != Some(&(!bv)) {
                    return fail(line, format!("lemma {k} does not apply contrapositively"));
                }
            }
        }
        match assignment.get(&net) {
            None => {
                assignment.insert(net, value);
            }
            Some(&standing) if standing != value => conflicted = true,
            Some(_) => return fail(line, format!("net {net} assigned twice to the same value")),
        }
    }
    Ok((assignment, conflicted))
}

// ---------------------------------------------------------------------------
// Rewrite replay.
// ---------------------------------------------------------------------------

/// The identity constant a `drop_pin` step may cite, per gate kind.
fn droppable_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(true),
        GateKind::Or | GateKind::Nor | GateKind::Xor => Some(false),
        GateKind::Not | GateKind::Buf => None,
    }
}

/// Validates `certificate` as a proof that `reduced` is a sound
/// simplification of `original`.
///
/// # Errors
///
/// Returns the first [`CheckError`] — an unjustified fact, an unjustified
/// rewrite, a malformed line, or a final rebuild mismatch.
pub fn check(
    original: &Netlist,
    reduced: &Netlist,
    certificate: &str,
) -> Result<CheckReport, CheckError> {
    let num_nets = original.num_nets();
    let num_gates = original.num_gates();
    let io = (original.num_pis() + original.num_ppis()) as NetId;
    let mut report = CheckReport::default();
    let mut consts: Vec<Option<bool>> = vec![None; num_nets];
    let mut lemmas: Vec<(NetId, bool, NetId, bool)> = Vec::new();
    let mut subst: Vec<NetId> = (0..num_nets as NetId).collect();
    let resolve = |subst: &[NetId], mut net: NetId| -> NetId {
        while subst[net as usize] != net {
            net = subst[net as usize];
        }
        net
    };
    let mut alive = vec![true; num_gates];
    let mut inputs: Vec<Vec<NetId>> = (0..num_gates)
        .map(|g| original.fanins(g).to_vec())
        .collect();

    for (index, text) in certificate.lines().enumerate() {
        let line = index + 1;
        let step = match parse_line(text) {
            Ok(step) => step,
            Err(message) => return fail(line, message),
        };
        let kind = step
            .get("step")
            .and_then(Json::as_str)
            .ok_or(())
            .or_else(|()| fail(line, "missing 'step' discriminator"))?;
        if (line == 1) != (kind == "begin") {
            return fail(line, "'begin' must be exactly the first step");
        }
        report.steps += 1;
        match kind {
            "begin" => {
                if field_u64(&step, "num_pis", line)? != original.num_pis() as u64
                    || field_u64(&step, "num_ppis", line)? != original.num_ppis() as u64
                    || field_u64(&step, "num_gates", line)? != num_gates as u64
                {
                    return fail(line, "certificate is for a different netlist shape");
                }
            }
            "const" => {
                let net = field_net(&step, "net", num_nets, line)?;
                let value = field_bool(&step, "value", line)?;
                let trace = step
                    .get("trace")
                    .and_then(Json::as_arr)
                    .ok_or(())
                    .or_else(|()| fail(line, "missing 'trace'"))?;
                let (_, conflicted) =
                    verify_trace(original, &consts, &lemmas, trace, (net, !value), line)?;
                if !conflicted {
                    return fail(line, "constant trace does not reach a contradiction");
                }
                consts[net as usize] = Some(value);
                report.consts += 1;
            }
            "lemma" => {
                let id = field_u64(&step, "id", line)?;
                if id != lemmas.len() as u64 {
                    return fail(line, format!("lemma id {id} out of order"));
                }
                let net = field_net(&step, "net", num_nets, line)?;
                let value = field_bool(&step, "value", line)?;
                let to_net = field_net(&step, "to_net", num_nets, line)?;
                let to_value = field_bool(&step, "to_value", line)?;
                let trace = step
                    .get("trace")
                    .and_then(Json::as_arr)
                    .ok_or(())
                    .or_else(|()| fail(line, "missing 'trace'"))?;
                let (assignment, conflicted) =
                    verify_trace(original, &consts, &lemmas, trace, (net, value), line)?;
                if !conflicted && assignment.get(&to_net) != Some(&to_value) {
                    return fail(line, "lemma trace does not derive its conclusion");
                }
                lemmas.push((net, value, to_net, to_value));
                report.lemmas += 1;
            }
            "const_subst" => {
                let keep = field_net(&step, "keep", num_nets, line)?;
                let drop = field_net(&step, "drop", num_nets, line)?;
                let value = field_bool(&step, "value", line)?;
                if keep >= drop {
                    return fail(line, "substitution must point at a smaller net");
                }
                if drop < io {
                    return fail(line, "only gate outputs may be substituted");
                }
                if subst[drop as usize] != drop {
                    return fail(line, format!("net {drop} already substituted"));
                }
                if consts[keep as usize] != Some(value) || consts[drop as usize] != Some(value) {
                    return fail(line, "both nets need the same verified constant");
                }
                subst[drop as usize] = keep;
                report.rewrites += 1;
            }
            "equiv" => {
                let keep = field_net(&step, "keep", num_nets, line)?;
                let drop = field_net(&step, "drop", num_nets, line)?;
                let fwd = field_u64(&step, "fwd", line)? as usize;
                let bwd = field_u64(&step, "bwd", line)? as usize;
                if keep >= drop {
                    return fail(line, "substitution must point at a smaller net");
                }
                if drop < io {
                    return fail(line, "only gate outputs may be substituted");
                }
                if subst[drop as usize] != drop {
                    return fail(line, format!("net {drop} already substituted"));
                }
                // (drop=1 ⇒ keep=1) ∧ (keep=1 ⇒ drop=1) gives equality on
                // both values by contraposition.
                if lemmas.get(fwd) != Some(&(drop, true, keep, true)) {
                    return fail(line, "'fwd' lemma is not drop=1 ⇒ keep=1");
                }
                if lemmas.get(bwd) != Some(&(keep, true, drop, true)) {
                    return fail(line, "'bwd' lemma is not keep=1 ⇒ drop=1");
                }
                subst[drop as usize] = keep;
                report.rewrites += 1;
            }
            "merge" => {
                let keep = field_u64(&step, "keep", line)? as usize;
                let drop = field_u64(&step, "drop", line)? as usize;
                if keep >= drop || drop >= num_gates {
                    return fail(line, "merge must keep the earlier of two distinct gates");
                }
                if !alive[keep] || !alive[drop] {
                    return fail(line, "merge references a removed gate");
                }
                let keep_out = original.gate_output(keep);
                let drop_out = original.gate_output(drop);
                if subst[keep_out as usize] != keep_out {
                    return fail(line, "merge target's output is already substituted");
                }
                if subst[drop_out as usize] != drop_out {
                    return fail(line, format!("net {drop_out} already substituted"));
                }
                let kind_keep = original.kind(keep);
                if kind_keep != original.kind(drop) {
                    return fail(line, "merged gates differ in kind");
                }
                let mut keep_inputs: Vec<NetId> =
                    inputs[keep].iter().map(|&i| resolve(&subst, i)).collect();
                let mut drop_inputs: Vec<NetId> =
                    inputs[drop].iter().map(|&i| resolve(&subst, i)).collect();
                if !kind_keep.is_unary() {
                    keep_inputs.sort_unstable();
                    drop_inputs.sort_unstable();
                }
                if keep_inputs != drop_inputs {
                    return fail(line, "merged gates read different resolved inputs");
                }
                subst[drop_out as usize] = keep_out;
                report.rewrites += 1;
            }
            "drop_pin" => {
                let g = field_u64(&step, "gate", line)? as usize;
                let pin = field_u64(&step, "pin", line)? as usize;
                let net = field_net(&step, "net", num_nets, line)?;
                let value = field_bool(&step, "value", line)?;
                if g >= num_gates || !alive[g] {
                    return fail(line, "drop_pin references a removed or invalid gate");
                }
                let out = original.gate_output(g);
                if subst[out as usize] != out {
                    return fail(line, "drop_pin on a substituted gate");
                }
                if droppable_value(original.kind(g)) != Some(value) {
                    return fail(line, "dropped value is not the gate's identity constant");
                }
                if inputs[g].len() <= 1 || pin >= inputs[g].len() {
                    return fail(line, "pin index invalid or last pin dropped");
                }
                if resolve(&subst, inputs[g][pin]) != net {
                    return fail(line, "cited net is not the pin's resolved source");
                }
                if consts[net as usize] != Some(value) {
                    return fail(line, format!("net {net} has no verified constant {value}"));
                }
                inputs[g].remove(pin);
                report.rewrites += 1;
            }
            "dead" => {
                let g = field_u64(&step, "gate", line)? as usize;
                if g >= num_gates || !alive[g] {
                    return fail(line, "dead references a removed or invalid gate");
                }
                let out = original.gate_output(g);
                let consumed = (0..num_gates)
                    .filter(|&h| alive[h] && h != g)
                    .flat_map(|h| inputs[h].iter())
                    .chain(original.pos())
                    .chain(original.ppos())
                    .any(|&i| resolve(&subst, i) == out);
                if consumed {
                    return fail(line, format!("gate {g}'s output still has consumers"));
                }
                alive[g] = false;
                report.dead += 1;
            }
            other => return fail(line, format!("unknown step '{other}'")),
        }
    }
    if report.steps == 0 {
        return fail(0, "empty certificate");
    }

    // Rebuild the survivors and compare against the claimed reduced netlist.
    let mut builder = NetlistBuilder::new(original.num_pis(), original.num_ppis());
    let mut new_net: Vec<Option<NetId>> = (0..num_nets as NetId)
        .map(|net| (net < io).then_some(net))
        .collect();
    for g in 0..num_gates {
        if !alive[g] {
            continue;
        }
        let mut gate_inputs = Vec::with_capacity(inputs[g].len());
        for &i in &inputs[g] {
            match new_net[resolve(&subst, i) as usize] {
                Some(n) => gate_inputs.push(n),
                None => return fail(0, format!("input of surviving gate {g} did not survive")),
            }
        }
        let out = match builder.add_gate(original.kind(g), &gate_inputs) {
            Ok(out) => out,
            Err(e) => return fail(0, format!("rebuilding gate {g}: {e}")),
        };
        new_net[original.gate_output(g) as usize] = Some(out);
    }
    let mut observed = Vec::new();
    for (label, nets) in [
        ("primary output", original.pos()),
        ("next-state line", original.ppos()),
    ] {
        let mut mapped = Vec::with_capacity(nets.len());
        for &net in nets {
            match new_net[resolve(&subst, net) as usize] {
                Some(n) => mapped.push(n),
                None => return fail(0, format!("{label} net {net} did not survive")),
            }
        }
        observed.push(mapped);
    }
    let ppos = observed.pop().unwrap_or_default();
    let pos = observed.pop().unwrap_or_default();
    let rebuilt = match builder.finish(pos, ppos) {
        Ok(netlist) => netlist,
        Err(e) => return fail(0, format!("rebuilding netlist: {e}")),
    };
    if rebuilt != *reduced {
        return fail(0, "rebuilt netlist differs from the claimed reduction");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder as NB;

    fn opt_pair(n: &Netlist) -> crate::Optimized {
        crate::optimize(n)
    }

    fn redundant_netlist() -> Netlist {
        // Constant cone, duplicate gate, and double inversion all at once.
        let mut b = NB::new(2, 1);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let a2 = b.add_gate(GateKind::And, &[1, 0]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, a1, a2]).unwrap();
        let nz = b.add_gate(GateKind::Not, &[z]).unwrap();
        let y = b.add_gate(GateKind::Not, &[nz]).unwrap();
        let s = b.add_gate(GateKind::Xor, &[y, 2]).unwrap();
        b.finish(vec![y], vec![s]).unwrap()
    }

    #[test]
    fn accepts_a_real_certificate() {
        let n = redundant_netlist();
        let opt = opt_pair(&n);
        assert!(
            opt.stats.gates_removed > 0,
            "fixture must exercise rewrites"
        );
        let report = check(&n, &opt.netlist, &opt.certificate).expect("valid certificate");
        assert_eq!(report.steps, opt.stats.certificate_steps);
        assert_eq!(report.lemmas as u32, opt.stats.certificate_lemmas);
        assert_eq!(report.dead, opt.stats.gates_removed);
    }

    #[test]
    fn rejects_wrong_netlist_shape() {
        let n = redundant_netlist();
        let opt = opt_pair(&n);
        let mut b = NB::new(3, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let other = b.finish(vec![g], vec![]).unwrap();
        let err = check(&other, &opt.netlist, &opt.certificate).expect_err("shape mismatch");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_tampered_rewrites() {
        let n = redundant_netlist();
        let opt = opt_pair(&n);
        // Flip a claimed constant value: the trace no longer justifies it.
        if opt.certificate.contains("\"step\":\"const\",") {
            let tampered = opt.certificate.replacen(
                "\"step\":\"const\",\"net\":",
                "\"step\":\"const\",\"net\":9",
                1,
            );
            assert!(check(&n, &opt.netlist, &tampered).is_err());
        }
        // Drop a dead step: the rebuild no longer matches.
        let without_dead: String = opt
            .certificate
            .lines()
            .filter(|l| !l.contains("\"step\":\"dead\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check(&n, &opt.netlist, &without_dead).is_err());
        // Forge an extra substitution without a lemma.
        let forged = format!(
            "{}{{\"step\":\"equiv\",\"keep\":0,\"drop\":{},\"fwd\":0,\"bwd\":0}}\n",
            opt.certificate,
            n.num_nets() - 1
        );
        assert!(check(&n, &opt.netlist, &forged).is_err());
        // An empty certificate proves nothing.
        assert!(check(&n, &opt.netlist, "").is_err());
    }

    #[test]
    fn rejects_unjustified_dead_step() {
        let mut b = NB::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let opt = opt_pair(&n);
        // Claim the PO driver is dead: its output is still consumed.
        let forged = format!("{}{{\"step\":\"dead\",\"gate\":0}}\n", opt.certificate);
        let err = check(&n, &opt.netlist, &forged).expect_err("PO driver is consumed");
        assert!(err.message.contains("consumers"), "{err}");
    }

    #[test]
    fn identity_certificate_round_trips() {
        // No redundancy: the certificate is just `begin`, and the rebuild
        // must still reproduce the netlist exactly.
        let mut b = NB::new(2, 1);
        let g1 = b.add_gate(GateKind::Nand, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Xor, &[g1, 2]).unwrap();
        let n = b.finish(vec![g2], vec![g1]).unwrap();
        let opt = opt_pair(&n);
        assert_eq!(opt.stats.gates_removed, 0);
        let report = check(&n, &opt.netlist, &opt.certificate).expect("identity");
        assert_eq!(report.rewrites, 0);
    }
}
