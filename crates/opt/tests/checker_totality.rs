//! Totality of the independent checker on damaged proof logs.
//!
//! The ex3 and dk16 certificates are damaged by a seeded SplitMix64: byte
//! flips, digit changes, truncations, dropped lines and swapped lines.
//! Whatever the damage, `checker::check` must return rather than panic,
//! and a rejection must name a line of the damaged log (0 for a failure at
//! its end) no earlier than the first damaged line, since the lines above
//! it are the valid log's own. Separately, every proper line prefix that
//! leaves out a rewrite step must be rejected: the netlist it rebuilds can
//! no longer match the reduced one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use scanft_fsm::benchmarks;
use scanft_fsm::rng::SplitMix64;
use scanft_opt::{checker, optimize};
use scanft_synth::{synthesize, SynthConfig};

/// Damaged logs checked per certificate.
const CASES: usize = 300;

/// The steps that change the netlist (`begin`, `const` and `lemma` only
/// state facts).
const REWRITES: &[&str] = &["const_subst", "equiv", "merge", "drop_pin", "dead"];

fn is_rewrite(line: &str) -> bool {
    REWRITES
        .iter()
        .any(|kind| line.starts_with(&format!("{{\"step\":\"{kind}\"")))
}

fn join_lines(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// One seeded mutation of `text`.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<&str> = text.lines().collect();
    let pick = |rng: &mut SplitMix64, len: usize| rng.next_below(len as u64) as usize;
    match rng.next_below(5) {
        0 => {
            // A bit flip below the top bit keeps the log ASCII.
            let i = pick(rng, bytes.len());
            bytes[i] ^= 1 << rng.next_below(7);
        }
        1 => {
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            let i = digits[pick(rng, digits.len())];
            let shift = 1 + rng.next_below(9) as u8;
            bytes[i] = b'0' + (bytes[i] - b'0' + shift) % 10;
        }
        2 => bytes.truncate(pick(rng, bytes.len())),
        3 => {
            lines.remove(pick(rng, lines.len()));
            return join_lines(&lines);
        }
        _ => {
            let i = pick(rng, lines.len());
            let j = (i + 1 + pick(rng, lines.len() - 1)) % lines.len();
            lines.swap(i, j);
            return join_lines(&lines);
        }
    }
    String::from_utf8(bytes).expect("mutations keep the log ASCII")
}

/// The 1-based number of the first line of `damaged` that differs from
/// `original`'s, or one past the shorter log when one is a prefix of the
/// other.
fn first_damaged_line(original: &str, damaged: &str) -> usize {
    let same = original
        .lines()
        .zip(damaged.lines())
        .take_while(|(a, b)| a == b)
        .count();
    same + 1
}

#[test]
fn checker_is_total_on_damaged_certificates() {
    for name in ["ex3", "dk16"] {
        let table = benchmarks::build(name).expect("registry circuit");
        let circuit = synthesize(&table, &SynthConfig::default());
        let n = circuit.netlist();
        let opt = optimize(n);
        let cert = opt.certificate.as_str();
        checker::check(n, &opt.netlist, cert).expect("the undamaged log is accepted");
        let check = |text: &str| {
            catch_unwind(AssertUnwindSafe(|| checker::check(n, &opt.netlist, text)))
                .unwrap_or_else(|_| panic!("{name}: checker panicked on:\n{text}"))
        };

        let mut rng = SplitMix64::from_name(name);
        let mut rejected = 0;
        for case in 0..CASES {
            let damaged = mutate(cert, &mut rng);
            if let Err(e) = check(&damaged) {
                rejected += 1;
                let first = first_damaged_line(cert, &damaged);
                assert!(!e.message.is_empty(), "{name} case {case}: empty message");
                assert!(
                    e.line <= damaged.lines().count() && (e.line == 0 || e.line >= first),
                    "{name} case {case}: rejection names line {} (first damaged line {first}): {e}",
                    e.line
                );
            }
        }
        // Most damage breaks the proof; a few mutations (a swap of two
        // independent steps, a truncation inside the last step's final
        // field) may leave a valid log.
        assert!(
            rejected > CASES / 2,
            "{name}: only {rejected} of {CASES} rejected"
        );

        let lines: Vec<&str> = cert.lines().collect();
        for k in 0..lines.len() {
            if lines[k..].iter().any(|l| is_rewrite(l)) {
                assert!(
                    check(&join_lines(&lines[..k])).is_err(),
                    "{name}: the first {k} lines are accepted without the rewrites after them"
                );
            }
        }
    }
}
