//! `scanft simulate --resume` after a crash-torn journal tail.
//!
//! A killed campaign can leave its last journal record half written, with
//! no newline. Resuming must first cut the file back to its intact prefix:
//! appending straight after the fragment would fuse the first new record
//! onto it, and that line could never be read back.

#![allow(clippy::unwrap_used)]
use std::process::Command;

use scanft_harness::read_journal;

fn scanft(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_scanft"))
        .args(args)
        .output()
        .expect("run scanft");
    assert!(
        output.status.success(),
        "scanft {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn resume_after_a_torn_tail_keeps_one_intact_record_per_unit() {
    let dir = std::env::temp_dir().join(format!("scanft-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();
    let (tests, journal) = (path("bbtas.tests"), path("bbtas.jsonl"));
    scanft(&["generate", "bbtas", "--out", &tests]);
    let simulate = |extra: &[&str]| {
        let mut args = vec!["simulate", "bbtas", "--tests", &tests, "--threads", "1"];
        args.extend(["--journal", &journal]);
        args.extend(extra);
        scanft(&args)
    };
    simulate(&[]);
    let complete = std::fs::read_to_string(&journal).unwrap();
    let units = read_journal(&complete)
        .header
        .expect("journal header")
        .units;
    assert!(units >= 3, "bbtas journals {units} units");

    // Tear the last record in half, newline included.
    let body = complete.trim_end_matches('\n');
    let last_line = body.rfind('\n').unwrap() + 1;
    let torn = &body[..last_line + (body.len() - last_line) / 2];
    std::fs::write(&journal, torn).unwrap();

    let out = simulate(&["--resume"]);
    assert!(
        out.contains(&format!("{units}/{units} batches ({} resumed", units - 1)),
        "{out}"
    );
    let resumed = std::fs::read_to_string(&journal).unwrap();
    let parsed = read_journal(&resumed);
    assert_eq!(parsed.skipped_lines, 0, "damaged lines left:\n{resumed}");
    let mut seen: Vec<usize> = parsed.records.iter().map(|r| r.unit).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..units).collect::<Vec<_>>(), "one record per unit");
    // One thread journals units in order, so the repaired-and-resumed file
    // is the uninterrupted one byte for byte.
    assert_eq!(resumed, complete);
    std::fs::remove_dir_all(&dir).ok();
}
