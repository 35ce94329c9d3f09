//! Jobs: validated submissions queued for the campaign worker pool.
//!
//! A job is born `Queued` by `POST /jobs` (after its KISS2 and optional
//! test-set sections parse — malformed submissions never enter the queue),
//! claimed by a worker into `Running`, and ends `Completed`, `Cancelled` or
//! `Failed`. Cancellation is level-triggered through the job's
//! [`CancelToken`]: `DELETE /jobs/:id` flips the token, a queued job is
//! dropped at claim time, and a running campaign stops at its next work-unit
//! claim through the ordinary [`Budget`](scanft_harness::Budget) path.
//!
//! Tenant quotas are enforced at admission: each tenant (the
//! `X-Scanft-Tenant` header, `default` otherwise) may hold at most
//! [`TenantQuota::max_active`] queued-or-running jobs, and each of its
//! campaigns runs under [`TenantQuota::max_units`] work units. Admission
//! failures are 429s and never consume a job id.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use scanft_race::sync::{Arc, Condvar, Mutex};

use scanft_core::TestSet;
use scanft_fsm::StateTable;
use scanft_harness::{CancelToken, ScanftError};

use crate::hash::ContentKey;
use crate::wal::{WalAdmit, WalWriter};

/// What kind of campaign a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    /// Supervised stuck-at fault simulation (journaled; the default).
    #[default]
    Simulate,
    /// Functional-then-PODEM coverage top-up using the cached `Analysis`.
    Atpg,
}

impl JobKind {
    /// Parses the `kind` query parameter.
    #[must_use]
    pub fn from_param(value: &str) -> Option<Self> {
        match value {
            "simulate" => Some(JobKind::Simulate),
            "atpg" => Some(JobKind::Atpg),
            _ => None,
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Atpg => "atpg",
        }
    }
}

/// Lifecycle state of a job, with the terminal states carrying results.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is driving the campaign.
    Running,
    /// The campaign finished (all units done or budget-stopped).
    Completed {
        /// Coverage over the full fault list, percent (a lower bound when
        /// the run was budget-stopped).
        coverage: f64,
        /// Detected faults.
        detected: usize,
        /// Total faults simulated/targeted.
        faults: usize,
        /// Completed work units out of `units`.
        completed_units: usize,
        /// Total work units.
        units: usize,
    },
    /// `DELETE /jobs/:id` stopped it (queued or mid-flight).
    Cancelled,
    /// The campaign itself errored (journal I/O, poisoned worker, ...).
    Failed(
        /// What went wrong.
        String,
    ),
}

impl JobStatus {
    /// Stable lowercase name for JSON.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed { .. } => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed { .. } | JobStatus::Cancelled | JobStatus::Failed(_)
        )
    }
}

/// One validated submission.
#[derive(Debug)]
pub struct Job {
    /// Stable id (`job-<n>`).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Circuit name (the KISS2 parse name; journal label).
    pub circuit: String,
    /// Campaign kind.
    pub kind: JobKind,
    /// Content key of the canonicalized circuit.
    pub key: ContentKey,
    /// Parsed state table.
    pub table: StateTable,
    /// Parsed functional test set (`None` → per-transition length-1 tests).
    pub tests: Option<TestSet>,
    /// Cancellation hook shared with `DELETE /jobs/:id`.
    pub cancel: CancelToken,
    /// Journal file this job's campaign writes (simulate jobs).
    pub journal_path: String,
    /// When the job was admitted.
    pub submitted_at: Instant,
    /// Recovery flag: the job was re-queued from the WAL after a crash, so
    /// its worker should try to resume the on-disk journal instead of
    /// truncating it.
    pub resume: bool,
    state: Mutex<JobState>,
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    /// Whether this job's artifacts came from the cache.
    cache_hit: Option<bool>,
}

/// Everything needed to construct a [`Job`] (besides its assigned id).
#[derive(Debug)]
pub struct JobSpec {
    /// Owning tenant.
    pub tenant: String,
    /// Circuit name (journal label).
    pub circuit: String,
    /// Campaign kind.
    pub kind: JobKind,
    /// Content key of the canonicalized circuit.
    pub key: ContentKey,
    /// Parsed state table.
    pub table: StateTable,
    /// Parsed functional test set, if the submission carried one.
    pub tests: Option<TestSet>,
    /// Journal file the campaign will write.
    pub journal_path: String,
}

impl Job {
    /// Builds a fresh `Queued` job from a validated spec.
    #[must_use]
    pub fn new(id: String, spec: JobSpec) -> Self {
        Job {
            id,
            tenant: spec.tenant,
            circuit: spec.circuit,
            kind: spec.kind,
            key: spec.key,
            table: spec.table,
            tests: spec.tests,
            cancel: CancelToken::new(),
            journal_path: spec.journal_path,
            submitted_at: Instant::now(),
            resume: false,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                cache_hit: None,
            }),
        }
    }

    /// Current status (cloned snapshot).
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.state.lock().status.clone()
    }

    /// Whether the artifact cache served this job (`None` until it ran).
    #[must_use]
    pub fn cache_hit(&self) -> Option<bool> {
        self.state.lock().cache_hit
    }

    /// Moves the job to a new status; terminal states are sticky (a cancel
    /// racing a completion keeps whichever landed first).
    pub fn set_status(&self, status: JobStatus) {
        let mut state = self.state.lock();
        if !state.status.is_terminal() {
            state.status = status;
        }
    }

    /// Records whether the artifact cache hit for this job.
    pub fn set_cache_hit(&self, hit: bool) {
        self.state.lock().cache_hit = Some(hit);
    }

    /// Renders the status/result JSON object served by `GET /jobs/:id`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let status = self.status();
        let mut out = format!(
            "{{\"id\":\"{}\",\"tenant\":\"{}\",\"circuit\":\"{}\",\"kind\":\"{}\",\"key\":\"{}\",\"status\":\"{}\"",
            scanft_obs::escape_json_string(&self.id),
            scanft_obs::escape_json_string(&self.tenant),
            scanft_obs::escape_json_string(&self.circuit),
            self.kind.name(),
            self.key,
            status.name(),
        );
        match &status {
            JobStatus::Completed {
                coverage,
                detected,
                faults,
                completed_units,
                units,
            } => {
                out.push_str(&format!(
                    ",\"coverage\":{coverage:.4},\"detected\":{detected},\"faults\":{faults},\"completed_units\":{completed_units},\"units\":{units}"
                ));
            }
            JobStatus::Failed(message) => {
                out.push_str(&format!(
                    ",\"message\":\"{}\"",
                    scanft_obs::escape_json_string(message)
                ));
            }
            _ => {}
        }
        if let Some(hit) = self.cache_hit() {
            out.push_str(if hit {
                ",\"cache\":\"hit\""
            } else {
                ",\"cache\":\"miss\""
            });
        }
        out.push_str(&format!(
            ",\"journal\":\"{}\"}}",
            scanft_obs::escape_json_string(&self.journal_path)
        ));
        out
    }
}

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum queued-or-running jobs per tenant.
    pub max_active: usize,
    /// Work-unit cap applied to each campaign (`None` = unlimited).
    pub max_units: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_active: 8,
            max_units: None,
        }
    }
}

/// How an admission attempt resolved (the guarded path used by
/// `POST /jobs`).
#[derive(Debug)]
pub enum AdmitOutcome {
    /// A new job was admitted and enqueued.
    Fresh(
        /// The admitted job.
        Arc<Job>,
    ),
    /// The idempotency key matched an existing job; nothing was enqueued.
    Deduped(
        /// The original job the key maps to.
        Arc<Job>,
    ),
    /// The registry is draining (or shut down); admission refused.
    Draining,
    /// The queue is at its depth bound; admission shed.
    QueueFull(
        /// The queue depth at refusal time.
        usize,
    ),
}

/// The registry: all jobs by id, plus the FIFO work queue the campaign
/// workers block on.
#[derive(Debug, Default)]
pub struct JobRegistry {
    inner: Mutex<RegistryInner>,
    wakeup: Condvar,
}

#[derive(Debug, Default)]
struct RegistryInner {
    jobs: HashMap<String, Arc<Job>>,
    queue: VecDeque<Arc<Job>>,
    next_id: u64,
    shutdown: bool,
    draining: bool,
    /// Idempotency key → (job id, sticky). Sticky entries (client-supplied
    /// `Idempotency-Key`) dedupe forever; content-hash entries dedupe only
    /// while the mapped job is non-terminal, so deliberate warm
    /// resubmissions still re-run (and hit the artifact cache).
    idem: HashMap<String, (String, bool)>,
    /// When set, admissions/claims/cancels/terminal transitions are logged
    /// (and flushed) before they take effect.
    wal: Option<Arc<WalWriter>>,
}

impl RegistryInner {
    /// Best-effort WAL append: a failed event write is counted, not fatal —
    /// except at admission, which is handled separately (an unlogged job
    /// must not be acknowledged).
    fn wal_log(&self, write: impl FnOnce(&WalWriter) -> std::io::Result<()>) {
        if let Some(wal) = &self.wal {
            if write(wal).is_err() {
                scanft_obs::global().counter("server.wal.errors").inc();
            }
        }
    }
}

impl JobRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Attaches the durable WAL. Call before serving; recovery restores
    /// jobs first, then attaches the writer, so replayed events are not
    /// re-logged.
    pub fn set_wal(&self, wal: Arc<WalWriter>) {
        self.inner.lock().wal = Some(wal);
    }

    /// Number of jobs a tenant currently has queued or running.
    #[must_use]
    pub fn active_for(&self, tenant: &str) -> usize {
        let inner = self.inner.lock();
        inner
            .jobs
            .values()
            .filter(|j| {
                j.tenant == tenant && matches!(j.status(), JobStatus::Queued | JobStatus::Running)
            })
            .count()
    }

    /// Admits a job — the `POST /jobs` path: drain refusal, queue-depth
    /// bound, idempotent dedup, WAL logging — all under one registry lock
    /// so a concurrent duplicate cannot slip between the check and the
    /// insert. The caller has already enforced quotas and parsed the
    /// submission.
    ///
    /// `build` constructs the job (given its assigned id) plus the
    /// canonical submission text `(kiss, tests)` recorded in the WAL admit
    /// event.
    ///
    /// # Errors
    ///
    /// [`ScanftError::Io`] when the WAL admit append fails — the job is
    /// *not* admitted (an unlogged admission would vanish on restart
    /// despite its 202).
    pub fn admit_guarded(
        &self,
        idem_key: &str,
        sticky: bool,
        max_queue: usize,
        build: impl FnOnce(String) -> (Job, String, Option<String>),
    ) -> Result<AdmitOutcome, ScanftError> {
        let mut inner = self.inner.lock();
        // Dedupe before the drain and queue-depth refusals: returning the
        // existing job enqueues nothing, so neither bound applies — and a
        // client retrying its POST during a drain or a saturated queue
        // (exactly when retries happen) must still recover the original
        // job id instead of looping on 503 forever.
        if let Some((job_id, entry_sticky)) = inner.idem.get(idem_key) {
            if let Some(job) = inner.jobs.get(job_id) {
                if *entry_sticky || !job.status().is_terminal() {
                    return Ok(AdmitOutcome::Deduped(Arc::clone(job)));
                }
            }
        }
        if inner.shutdown || inner.draining {
            return Ok(AdmitOutcome::Draining);
        }
        if inner.queue.len() >= max_queue {
            return Ok(AdmitOutcome::QueueFull(inner.queue.len()));
        }
        inner.next_id += 1;
        let id = format!("job-{}", inner.next_id);
        let (job, kiss, tests) = build(id.clone());
        let job = Arc::new(job);
        if let Some(wal) = &inner.wal {
            let admit = WalAdmit {
                id: id.clone(),
                tenant: job.tenant.clone(),
                circuit: job.circuit.clone(),
                kind: job.kind,
                idem: idem_key.to_owned(),
                sticky,
                journal_path: job.journal_path.clone(),
                kiss,
                tests,
            };
            if let Err(source) = wal.log_admit(&admit) {
                // Roll the id back so the WAL's ordinals stay dense.
                inner.next_id -= 1;
                return Err(ScanftError::Io {
                    path: "jobs.wal".to_owned(),
                    source,
                });
            }
        }
        inner.jobs.insert(id.clone(), Arc::clone(&job));
        inner.idem.insert(idem_key.to_owned(), (id, sticky));
        inner.queue.push_back(Arc::clone(&job));
        scanft_obs::global().gauge("server.queue.depth").add(1);
        drop(inner);
        // notify_all, not notify_one: the condvar is shared with
        // `wait_drain_requested`, and a single wakeup could land on a
        // drain waiter instead of a claimer (lost-wakeup hazard).
        self.wakeup.notify_all();
        Ok(AdmitOutcome::Fresh(job))
    }

    /// Recovery-time restore: registers a job replayed from the WAL under
    /// its original id (bumping the id counter past it), optionally
    /// re-enqueueing it, and re-establishing its idempotency mapping.
    /// Never WAL-logged — the events being replayed are already durable.
    pub fn restore(&self, job: Job, enqueue: bool, idem: Option<(&str, bool)>) -> Arc<Job> {
        let mut inner = self.inner.lock();
        if let Some(n) = job.id.strip_prefix("job-").and_then(|s| s.parse().ok()) {
            inner.next_id = inner.next_id.max(n);
        }
        let job = Arc::new(job);
        inner.jobs.insert(job.id.clone(), Arc::clone(&job));
        if let Some((key, sticky)) = idem {
            inner.idem.insert(key.to_owned(), (job.id.clone(), sticky));
        }
        if enqueue {
            inner.queue.push_back(Arc::clone(&job));
            scanft_obs::global().gauge("server.queue.depth").add(1);
        }
        drop(inner);
        self.wakeup.notify_all();
        job
    }

    /// Looks up a job by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.inner.lock().jobs.get(id).cloned()
    }

    /// Blocks until a job is available (or shutdown), then claims it.
    /// Cancelled-while-queued jobs are marked `Cancelled` and skipped.
    /// Returns `None` on shutdown.
    ///
    /// The facade mutex never poisons, so a worker that panicked while
    /// holding the registry lock (a quarantined campaign bug, say) cannot
    /// wedge every later `claim` — the old `expect("registry poisoned")`
    /// here turned one bad request into a dead worker pool.
    pub fn claim(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock();
        loop {
            if inner.shutdown || inner.draining {
                return None;
            }
            if let Some(job) = inner.queue.pop_front() {
                scanft_obs::global().gauge("server.queue.depth").sub(1);
                if job.cancel.is_cancelled() {
                    job.set_status(JobStatus::Cancelled);
                    inner.wal_log(|wal| wal.log_done(&job.id, &JobStatus::Cancelled));
                    scanft_obs::global().counter("server.jobs.cancelled").inc();
                    continue;
                }
                job.set_status(JobStatus::Running);
                inner.wal_log(|wal| wal.log_claim(&job.id));
                return Some(job);
            }
            inner = self.wakeup.wait(inner);
        }
    }

    /// WAL-logs a cancellation request (the `DELETE /jobs/:id` handler
    /// flips the token, then calls this so a restart re-drops the job).
    pub fn log_cancel(&self, id: &str) {
        let inner = self.inner.lock();
        inner.wal_log(|wal| wal.log_cancel(id));
    }

    /// WAL-logs a job's terminal transition (called by the worker after
    /// `set_status`).
    pub fn log_done(&self, id: &str, status: &JobStatus) {
        let inner = self.inner.lock();
        inner.wal_log(|wal| wal.log_done(id, status));
    }

    /// Stops admission and claiming without discarding state: subsequent
    /// [`JobRegistry::admit_guarded`] calls return
    /// [`AdmitOutcome::Draining`], [`JobRegistry::claim`] returns `None`
    /// (queued jobs stay `Queued` in the WAL for the next boot), and
    /// [`JobRegistry::wait_drain_requested`] waiters wake.
    pub fn drain(&self) {
        self.inner.lock().draining = true;
        self.wakeup.notify_all();
    }

    /// Whether [`JobRegistry::drain`] (or shutdown) has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        let inner = self.inner.lock();
        inner.draining || inner.shutdown
    }

    /// Blocks until drain or shutdown is requested.
    pub fn wait_drain_requested(&self) {
        let mut inner = self.inner.lock();
        while !inner.draining && !inner.shutdown {
            inner = self.wakeup.wait(inner);
        }
    }

    /// Current queue depth (jobs admitted but not yet claimed).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Number of jobs currently `Running`.
    #[must_use]
    pub fn running_count(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .jobs
            .values()
            .filter(|j| matches!(j.status(), JobStatus::Running))
            .count()
    }

    /// Wakes every worker and makes subsequent [`JobRegistry::claim`]
    /// calls return `None`. Queued jobs are left `Queued` (a restart could
    /// resubmit them); running campaigns are not interrupted here — the
    /// server cancels them separately when shutting down.
    pub fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: String, tenant: &str) -> Job {
        let table = scanft_fsm::benchmarks::build("lion").unwrap();
        Job::new(
            id,
            JobSpec {
                tenant: tenant.to_owned(),
                circuit: "lion".to_owned(),
                kind: JobKind::Simulate,
                key: ContentKey::of_table(&table),
                table,
                tests: None,
                journal_path: String::new(),
            },
        )
    }

    /// Admits a job for `tenant` under its own non-sticky key, with no
    /// queue bound in reach.
    fn admit(registry: &JobRegistry, key: &str, tenant: &str) -> Arc<Job> {
        match registry
            .admit_guarded(key, false, usize::MAX, |id| {
                (job(id, tenant), ".i 1\n".to_owned(), None)
            })
            .unwrap()
        {
            AdmitOutcome::Fresh(job) => job,
            other => panic!("a fresh key must admit a fresh job, got {other:?}"),
        }
    }

    #[test]
    fn admit_claim_complete_round_trip() {
        let registry = JobRegistry::new();
        let admitted = admit(&registry, "k1", "t1");
        assert_eq!(admitted.id, "job-1");
        assert_eq!(admitted.status(), JobStatus::Queued);
        assert_eq!(registry.active_for("t1"), 1);
        assert_eq!(registry.active_for("t2"), 0);

        let claimed = registry.claim().unwrap();
        assert_eq!(claimed.id, "job-1");
        assert_eq!(claimed.status(), JobStatus::Running);
        claimed.set_status(JobStatus::Completed {
            coverage: 99.5,
            detected: 199,
            faults: 200,
            completed_units: 4,
            units: 4,
        });
        assert_eq!(registry.active_for("t1"), 0);
        let json = claimed.to_json();
        assert!(json.contains("\"status\":\"completed\""));
        assert!(json.contains("\"coverage\":99.5000"));
    }

    #[test]
    fn cancelled_while_queued_is_skipped_by_claim() {
        let registry = JobRegistry::new();
        let first = admit(&registry, "k1", "t");
        let second = admit(&registry, "k2", "t");
        first.cancel.cancel();
        let claimed = registry.claim().unwrap();
        assert_eq!(claimed.id, second.id);
        assert_eq!(first.status(), JobStatus::Cancelled);
    }

    #[test]
    fn terminal_states_are_sticky() {
        let registry = JobRegistry::new();
        let job = admit(&registry, "k1", "t");
        job.set_status(JobStatus::Cancelled);
        job.set_status(JobStatus::Completed {
            coverage: 1.0,
            detected: 1,
            faults: 1,
            completed_units: 1,
            units: 1,
        });
        assert_eq!(job.status(), JobStatus::Cancelled);
    }

    #[test]
    fn shutdown_unblocks_claim() {
        let registry = Arc::new(JobRegistry::new());
        let clone = Arc::clone(&registry);
        let waiter = std::thread::spawn(move || clone.claim());
        std::thread::sleep(std::time::Duration::from_millis(20));
        registry.shutdown();
        assert!(waiter.join().unwrap().is_none());
    }

    fn guarded(registry: &JobRegistry, key: &str, sticky: bool, max_queue: usize) -> AdmitOutcome {
        registry
            .admit_guarded(key, sticky, max_queue, |id| {
                (job(id, "t"), ".i 1\n".to_owned(), None)
            })
            .unwrap()
    }

    #[test]
    fn sticky_keys_dedupe_forever_content_keys_only_while_active() {
        let registry = JobRegistry::new();
        let AdmitOutcome::Fresh(first) = guarded(&registry, "sticky-k", true, 100) else {
            panic!("first admission must be fresh")
        };
        // Duplicate while queued: deduped either way.
        assert!(matches!(
            guarded(&registry, "sticky-k", true, 100),
            AdmitOutcome::Deduped(j) if j.id == first.id
        ));
        first.set_status(JobStatus::Cancelled);
        // Sticky: still deduped after the job is terminal.
        assert!(matches!(
            guarded(&registry, "sticky-k", true, 100),
            AdmitOutcome::Deduped(j) if j.id == first.id
        ));

        let AdmitOutcome::Fresh(content) = guarded(&registry, "hash-k", false, 100) else {
            panic!("fresh")
        };
        assert!(matches!(
            guarded(&registry, "hash-k", false, 100),
            AdmitOutcome::Deduped(j) if j.id == content.id
        ));
        content.set_status(JobStatus::Cancelled);
        // Content-hash default: a terminal job no longer blocks rerun.
        assert!(matches!(
            guarded(&registry, "hash-k", false, 100),
            AdmitOutcome::Fresh(j) if j.id != content.id
        ));
    }

    #[test]
    fn queue_bound_sheds_and_drain_refuses_admission() {
        let registry = JobRegistry::new();
        assert!(matches!(
            guarded(&registry, "a", false, 1),
            AdmitOutcome::Fresh(_)
        ));
        assert!(matches!(
            guarded(&registry, "b", false, 1),
            AdmitOutcome::QueueFull(1)
        ));
        registry.drain();
        assert!(registry.is_draining());
        assert!(matches!(
            guarded(&registry, "c", false, 100),
            AdmitOutcome::Draining
        ));
        // Drain leaves queued work queued and stops claiming.
        assert_eq!(registry.queue_depth(), 1);
        assert!(registry.claim().is_none());
        assert_eq!(registry.get("job-1").unwrap().status(), JobStatus::Queued);
    }

    /// The retry-during-drain regression: a duplicate POST must be deduped
    /// to its original job even while the registry is draining or the
    /// queue is full — those refusals only bound *new* work, and 503ing
    /// the retry would strand the client without its job id exactly when
    /// clients retry.
    #[test]
    fn dedupe_wins_over_drain_and_queue_full_refusals() {
        let registry = JobRegistry::new();
        let AdmitOutcome::Fresh(first) = guarded(&registry, "k", true, 1) else {
            panic!("fresh")
        };
        // Queue is at its bound of 1: fresh keys shed, duplicates dedupe.
        assert!(matches!(
            guarded(&registry, "other", false, 1),
            AdmitOutcome::QueueFull(1)
        ));
        assert!(matches!(
            guarded(&registry, "k", true, 1),
            AdmitOutcome::Deduped(j) if j.id == first.id
        ));
        registry.drain();
        assert!(matches!(
            guarded(&registry, "fresh-during-drain", false, 100),
            AdmitOutcome::Draining
        ));
        assert!(matches!(
            guarded(&registry, "k", true, 100),
            AdmitOutcome::Deduped(j) if j.id == first.id
        ));
    }

    #[test]
    fn wait_drain_requested_wakes_on_drain() {
        let registry = Arc::new(JobRegistry::new());
        let clone = Arc::clone(&registry);
        let waiter = std::thread::spawn(move || clone.wait_drain_requested());
        std::thread::sleep(std::time::Duration::from_millis(20));
        registry.drain();
        waiter.join().unwrap();
    }

    #[test]
    fn restore_bumps_the_id_counter_and_reestablishes_idempotency() {
        let registry = JobRegistry::new();
        let restored = registry.restore(job("job-7".into(), "t"), true, Some(("k7", true)));
        assert_eq!(restored.status(), JobStatus::Queued);
        assert_eq!(registry.queue_depth(), 1);
        // The idempotency mapping survives restore.
        assert!(matches!(
            guarded(&registry, "k7", true, 100),
            AdmitOutcome::Deduped(j) if j.id == "job-7"
        ));
        // Fresh ids start above the restored ordinal.
        let fresh = admit(&registry, "k8", "t");
        assert_eq!(fresh.id, "job-8");
    }

    /// Satellite regression for the old `expect("registry poisoned")`:
    /// a panic inside `admit_guarded`'s build closure unwinds while the
    /// registry lock is held. With the non-poisoning facade mutex the
    /// registry stays usable; before the fix every later call died on
    /// poisoning.
    #[test]
    fn registry_survives_a_panicking_admit_closure() {
        let registry = JobRegistry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = registry.admit_guarded("k1", false, usize::MAX, |_| {
                panic!("submission validation bug")
            });
        }));
        assert!(result.is_err(), "the panic propagates to the submitter");

        // The registry is not wedged: admission and claim still work.
        let admitted = admit(&registry, "k2", "t");
        assert_eq!(admitted.status(), JobStatus::Queued);
        let claimed = registry.claim().unwrap();
        assert_eq!(claimed.id, admitted.id);
        registry.shutdown();
        assert!(registry.claim().is_none());
    }
}
