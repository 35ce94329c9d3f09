//! Property test: WAL recovery over randomly damaged tails.
//!
//! The durability contract is that a crash can damage at most the line
//! being appended, and that reading the damaged file recovers *exactly*
//! the state of the longest valid prefix — nothing dropped before the
//! tear, nothing invented after it. This drives that property over a few
//! hundred seeded random cuts: truncate the WAL at an arbitrary byte
//! offset (optionally appending a garbage tail, the shape a torn
//! half-append leaves behind), and assert the parsed events and the
//! replayed per-job state equal those of the intact-line prefix.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use scanft_fsm::rng::SplitMix64;
use scanft_server::{read_wal, replay, JobKind, JobStatus, WalAdmit, WalEvent, WalWriter};

fn admit(n: u64, sticky: bool) -> WalAdmit {
    WalAdmit {
        id: format!("job-{n}"),
        tenant: if n.is_multiple_of(2) { "even" } else { "odd" }.to_owned(),
        circuit: format!("circ-{n}"),
        kind: if n.is_multiple_of(3) {
            JobKind::Atpg
        } else {
            JobKind::Simulate
        },
        idem: format!("key \"{n}\"\twith\nescapes"),
        sticky,
        journal_path: format!("/tmp/job-{n}.jsonl"),
        // Multi-line content with every escape class the journal format
        // handles, so a cut can land inside escaped text.
        kiss: format!(".i 2\n.o 1\n.p {n}\n-- s0 s1 0\n\"quoted\"\tand\\back\n"),
        tests: n
            .is_multiple_of(2)
            .then(|| format!(".circuit circ-{n}\na | 0{n} | b\n")),
    }
}

/// Builds a WAL file with a realistic mixed event sequence and returns its
/// raw text.
fn build_wal(path: &str) -> String {
    std::fs::remove_file(path).ok();
    let wal = WalWriter::open(path).unwrap();
    for n in 1..=6u64 {
        wal.log_admit(&admit(n, n % 2 == 1)).unwrap();
    }
    wal.log_claim("job-1").unwrap();
    wal.log_claim("job-2").unwrap();
    wal.log_cancel("job-3").unwrap();
    wal.log_done(
        "job-1",
        &JobStatus::Completed {
            coverage: 97.25,
            detected: 389,
            faults: 400,
            completed_units: 7,
            units: 7,
        },
    )
    .unwrap();
    wal.log_done("job-3", &JobStatus::Cancelled).unwrap();
    wal.log_done("job-2", &JobStatus::Failed("boom \"quoted\"\nline".into()))
        .unwrap();
    wal.log_claim("job-4").unwrap();
    std::fs::read_to_string(path).unwrap()
}

/// The longest prefix of `text[..cut]` made of complete lines: every line
/// whose content ends at or before the cut survives whole.
fn intact_prefix(text: &str, cut: usize) -> String {
    let mut kept = String::new();
    let mut offset = 0;
    for line in text.lines() {
        let end = offset + line.len();
        if end > cut {
            break;
        }
        kept.push_str(line);
        kept.push('\n');
        offset = end + 1; // the '\n'
    }
    kept
}

#[test]
fn recovery_from_random_tail_damage_equals_the_longest_valid_prefix() {
    let path = std::env::temp_dir()
        .join(format!("scanft-wal-prop-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let text = build_wal(&path);
    std::fs::remove_file(&path).ok();
    let header_end = text.find('\n').unwrap();
    let mut rng = SplitMix64::new(0x77a1_7e57);

    for case in 0..400u64 {
        // Cut anywhere from "just the header" to "nothing lost".
        let span = (text.len() - header_end) as u64;
        let cut = header_end + usize::try_from(rng.next_below(span + 1)).unwrap();
        let mut damaged = text[..cut].to_owned();
        // Half the cases also carry a garbage tail: the bytes a torn
        // half-append leaves after the truncation point.
        if rng.chance(1, 2) {
            damaged.push_str("{\"event\":\"adm\x01it\",garbage");
        }

        let torn = read_wal(&damaged);
        let expected = read_wal(&intact_prefix(&text, cut));
        assert!(torn.header_ok, "case {case}: header survives every cut");
        assert_eq!(
            torn.events, expected.events,
            "case {case} (cut {cut}): recovered events differ from the intact prefix"
        );
        assert!(
            torn.skipped_lines <= 1,
            "case {case}: a single tear damages at most one line, got {}",
            torn.skipped_lines
        );

        let torn_state = replay(&torn);
        let expected_state = replay(&expected);
        assert_eq!(
            format!("{torn_state:?}"),
            format!("{expected_state:?}"),
            "case {case} (cut {cut}): replayed job state diverges"
        );
        // next_id never runs backwards past the admitted prefix, so the
        // restarted server can only assign fresh ids.
        assert_eq!(torn_state.next_id, expected_state.next_id, "case {case}");
    }
}

/// The append-after-damage half of the durability contract: restarting on
/// a torn WAL must first truncate the fragment, so post-restart events
/// land on fresh lines and the *next* replay still equals the intact
/// prefix plus exactly the new events. Without the truncation the first
/// new event merges with the fragment and is lost — and its later events
/// become orphans that refuse startup forever.
#[test]
fn appending_after_random_tail_damage_preserves_prefix_plus_new_events() {
    let path = std::env::temp_dir()
        .join(format!(
            "scanft-wal-prop-append-{}.jsonl",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let text = build_wal(&path);
    let header_end = text.find('\n').unwrap();
    let mut rng = SplitMix64::new(0x5eed_ba5e);

    for case in 0..200u64 {
        let span = (text.len() - header_end) as u64;
        let cut = header_end + usize::try_from(rng.next_below(span + 1)).unwrap();
        let mut damaged = text[..cut].to_owned();
        if rng.chance(1, 2) {
            damaged.push_str("{\"event\":\"adm\x01it\",garbage");
        }
        std::fs::write(&path, &damaged).unwrap();
        // The binding invariant: `recover()` replays `read_wal` of the
        // damaged file, so reopening must preserve *exactly* those events
        // — truncating more would delete restored events from disk,
        // truncating less would fuse the fragment with the next append.
        let expected = read_wal(&damaged);

        // Restart: reopen the damaged WAL and acknowledge new work.
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit(90, false)).unwrap();
            wal.log_claim("job-90").unwrap();
        }
        let reopened = read_wal(&std::fs::read_to_string(&path).unwrap());
        assert!(reopened.header_ok, "case {case}");
        assert_eq!(
            reopened.skipped_lines, 0,
            "case {case} (cut {cut}): the torn fragment must be truncated away"
        );
        let mut want = expected.events.clone();
        want.push(WalEvent::Admit(admit(90, false)));
        want.push(WalEvent::Claim("job-90".to_owned()));
        assert_eq!(
            reopened.events, want,
            "case {case} (cut {cut}): prefix + new events, nothing fused or lost"
        );
        assert_eq!(replay(&reopened).orphan_events, 0, "case {case}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_file_replays_every_job_with_its_final_state() {
    let path = std::env::temp_dir()
        .join(format!("scanft-wal-prop-full-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let text = build_wal(&path);
    std::fs::remove_file(&path).ok();
    let state = replay(&read_wal(&text));
    assert_eq!(state.jobs.len(), 6);
    assert_eq!(state.next_id, 6);
    assert_eq!(state.orphan_events, 0);
    // Admit payloads round-trip byte-exact through escaping.
    for (i, job) in state.jobs.iter().enumerate() {
        assert_eq!(job.admit, admit(i as u64 + 1, (i as u64 + 1) % 2 == 1));
    }
    assert!(state.jobs[0].claimed);
    assert!(matches!(
        state.jobs[0].done,
        Some(JobStatus::Completed { detected: 389, .. })
    ));
    assert!(matches!(state.jobs[1].done, Some(JobStatus::Failed(ref m)) if m.contains('\n')));
    assert!(state.jobs[2].cancelled);
    assert_eq!(state.jobs[2].done, Some(JobStatus::Cancelled));
    assert!(state.jobs[3].claimed && state.jobs[3].done.is_none());
    assert!(!state.jobs[4].claimed && !state.jobs[5].claimed);
}

#[test]
fn mid_file_damage_that_orphans_events_refuses_to_start() {
    // A torn tail damages only the last line; a claim whose admit line is
    // gone means a record *mid-file* was destroyed — acknowledged work
    // would silently vanish, so startup must fail with the recovery code
    // (exit 9) instead of serving.
    let root = std::env::temp_dir().join(format!("scanft-wal-orphan-{}", std::process::id()));
    let state_dir = root.join("state");
    std::fs::create_dir_all(&state_dir).unwrap();
    std::fs::write(
        state_dir.join("jobs.wal"),
        "{\"wal\":\"scanft-server\",\"version\":1}\n\
         {\"event\":\"admit\",\"id\":\"job-1\",\"broken\":true}\n\
         {\"event\":\"claim\",\"id\":\"job-1\"}\n",
    )
    .unwrap();
    let err = scanft_server::Server::start(scanft_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        journal_dir: root.join("journals").to_string_lossy().into_owned(),
        state_dir: Some(state_dir.to_string_lossy().into_owned()),
        ..scanft_server::ServerConfig::default()
    })
    .unwrap_err();
    assert_eq!(err.exit_code(), 9, "{err}");
    assert!(err.to_string().contains("torn tail"), "{err}");
    std::fs::remove_dir_all(&root).ok();
}
