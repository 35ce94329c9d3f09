//! Pinned golden schema for the `server.*` observability surface.
//!
//! Lives alone in its own integration-test binary: the `scanft-obs`
//! registry is process-global, so only a test file with exactly one
//! scripted interaction sequence has deterministic counter values.
//!
//! The script: one malformed submission (rejected), one cold submission
//! (miss, completed), one duplicate of the cold job while it is active
//! (deduped onto it by content hash), one cancelled-while-queued job from
//! a second tenant (distinct tenant so content-hash dedup cannot merge it
//! with the active cold job), one warm submission (hit, completed), one
//! events stream. Every `server.*` counter value below is a consequence
//! of exactly that script.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::time::Duration;

use scanft_obs::{field_str, field_u64};
use scanft_server::{Client, JobKind, Server, ServerConfig};

#[test]
fn server_metrics_schema_and_values_are_pinned() {
    let dir = std::env::temp_dir().join(format!("scanft-server-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        campaign_threads: 1,
        journal_dir: dir.to_string_lossy().into_owned(),
        // Delay-only chaos slows each work unit, holding the queue busy
        // long enough to cancel a queued job deterministically.
        chaos_seed: Some(11),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::new(server.addr());
    let wait = Duration::from_secs(120);
    let kiss = scanft_fsm::kiss::write(&scanft_fsm::benchmarks::build("bbtas").unwrap());

    // 1. One malformed submission → server.jobs.rejected.
    let refused = client.submit("not kiss2 at all\n", "bad", "default", JobKind::Simulate);
    assert!(refused.is_err());

    // 2. Cold submission → cache miss; it occupies the single worker.
    let cold = client
        .submit(&kiss, "bbtas", "default", JobKind::Simulate)
        .unwrap();

    // 3. The same content from the same tenant while the cold job is
    //    active → deduped onto it, not run twice.
    let duplicate = client
        .submit(&kiss, "bbtas", "default", JobKind::Simulate)
        .unwrap();
    assert_eq!(duplicate.id, cold.id, "active duplicate dedupes");

    // 4. A job cancelled while still queued behind the cold one. A
    //    different tenant, so the content-hash key cannot merge it with
    //    the active cold job.
    let doomed = client
        .submit(&kiss, "bbtas", "doomed", JobKind::Simulate)
        .unwrap();
    assert_ne!(doomed.id, cold.id, "tenants do not share dedup keys");
    client.cancel(&doomed.id).unwrap();

    let cold = client.wait(&cold.id, wait).unwrap();
    assert_eq!(cold.status, "completed");
    let doomed = client.wait(&doomed.id, wait).unwrap();
    assert_eq!(doomed.status, "cancelled");

    // 5. Warm submission → cache hit (the cold job is terminal, so the
    //    content-hash dedup entry has lapsed and this runs fresh).
    let warm = client
        .submit(&kiss, "bbtas", "default", JobKind::Simulate)
        .unwrap();
    assert_ne!(
        warm.id, cold.id,
        "terminal jobs do not absorb resubmissions"
    );
    let warm = client.wait(&warm.id, wait).unwrap();
    assert_eq!(warm.status, "completed");

    // 6. Stream the warm job's journal → server.bytes_streamed.
    let events = client.events(&warm.id).unwrap();
    assert!(!events.is_empty());

    let metrics = client.metrics().unwrap();
    let mut counters = std::collections::BTreeMap::new();
    let mut timers = Vec::new();
    for line in metrics.lines().filter(|l| l.contains("\"name\":\"server.")) {
        let name = field_str(line, "name").unwrap();
        match field_str(line, "kind").unwrap().as_str() {
            "counter" | "gauge" => {
                counters.insert(name, field_u64(line, "value").unwrap());
            }
            "timer" => {
                // `Timer::stats` snapshots every field under the writer
                // lock, so an exported timer line can never tear: the
                // decade buckets must sum to exactly `count`.
                let count = field_u64(line, "count").unwrap();
                let key = "\"buckets\":[";
                let start = line.find(key).unwrap() + key.len();
                let end = start + line[start..].find(']').unwrap();
                let sum: u64 = line[start..end]
                    .split(',')
                    .map(|b| b.trim().parse::<u64>().unwrap())
                    .sum();
                assert_eq!(sum, count, "torn timer snapshot in {line}");
                timers.push((name, count));
            }
            other => panic!("unknown kind `{other}` in {line}"),
        }
    }

    // The pinned script outcome. A schema change here is a deliberate,
    // reviewed event — update the script comment above alongside it.
    let expected: &[(&str, u64)] = &[
        ("server.jobs.accepted", 3),
        ("server.jobs.deduped", 1),
        ("server.jobs.rejected", 1),
        ("server.jobs.completed", 2),
        ("server.jobs.cancelled", 1),
        ("server.cache.hits", 1),
        ("server.cache.misses", 1),
        ("server.queue.depth", 0),
    ];
    for &(name, value) in expected {
        assert_eq!(counters.get(name), Some(&value), "{name}: got {counters:?}");
    }
    let streamed = counters.get("server.bytes_streamed").copied().unwrap();
    assert!(streamed > 0, "events streaming counts bytes");

    assert_eq!(
        timers,
        vec![("server.cache.build".to_owned(), 1)],
        "one artifact build for one distinct circuit"
    );

    server.shutdown();
}
