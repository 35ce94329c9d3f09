//! The daemon: accept loop, campaign worker pool, and the route table.
//!
//! Threading model (all real threads via the `scanft-race` facade, no
//! async):
//!
//! - one **accept thread** takes connections off the `TcpListener` and
//!   spawns a short-lived **connection thread** per request (the server is
//!   strictly one-request-per-connection, `Connection: close`);
//! - a fixed pool of **job workers** blocks on the [`JobRegistry`] queue
//!   and drives one campaign at a time through
//!   [`scanft_sim::campaign::run_supervised`] (each campaign itself fans
//!   out over [`ServerConfig::campaign_threads`] supervisor workers);
//! - cancellation and shutdown are cooperative: `DELETE /jobs/:id` flips
//!   the job's [`CancelToken`](scanft_harness::CancelToken) and the
//!   campaign stops at its next work-unit claim via the ordinary
//!   [`Budget`] stop path.
//!
//! Submission body format for `POST /jobs`: a KISS2 circuit, optionally
//! followed by a line containing exactly `.tests` and then a functional
//! test set in `scanft_core::io` format. Without a test section the server
//! generates the paper's functional set (UIO-based, `scanft generate`
//! defaults) — so a bare KISS2 upload behaves like the one-shot CLI flow.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use scanft_race::sync::{Arc, AtomicBool, Ordering};
use scanft_race::thread;

use scanft_core::generate::{generate, GenConfig};
use scanft_core::top_up::{top_up_scan_with, TopUpConfig};
use scanft_fsm::kiss;
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_harness::{
    repair_journal, Budget, FailurePlan, JournalTailer, JournalWriter, ScanftError, StopReason,
};
use scanft_sim::campaign::{self, SupervisedConfig};
use scanft_sim::ScanTest;

use crate::cache::{ArtifactCache, Artifacts};
use crate::hash::ContentKey;
use crate::http::{self, HttpError, Request};
use crate::job::{AdmitOutcome, Job, JobKind, JobRegistry, JobSpec, JobStatus, TenantQuota};
use crate::wal::{self, WalWriter};

/// Marker line separating the KISS2 section from the test section in a
/// `POST /jobs` body.
pub const TESTS_MARKER: &str = ".tests";

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of job workers (concurrent campaigns).
    pub workers: usize,
    /// Supervisor threads *per campaign*.
    pub campaign_threads: usize,
    /// Maximum `POST /jobs` body size in bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Per-socket read timeout (408 beyond).
    pub read_timeout: Duration,
    /// Per-tenant admission limits.
    pub quota: TenantQuota,
    /// Directory campaign journals are written into.
    pub journal_dir: String,
    /// Artifact-cache capacity in circuits.
    pub cache_capacity: usize,
    /// When set, campaigns run under a delay-only chaos plan (no induced
    /// panics) seeded here — used by drills to hold a cancellation window
    /// open; never set in production serving.
    pub chaos_seed: Option<u64>,
    /// Durable state directory. When set, the server keeps a job WAL at
    /// `<state_dir>/jobs.wal` — every admission/claim/cancel/terminal
    /// transition is flushed before it is acknowledged — and replays it on
    /// startup: pending jobs are re-queued, interrupted campaigns resume
    /// their on-disk journals, finished jobs stay queryable. `None` keeps
    /// the registry memory-only (the pre-WAL behavior).
    pub state_dir: Option<String>,
    /// Queue-depth bound: admissions beyond this many queued jobs are shed
    /// with 503 + `Retry-After` (same refusal shape as draining).
    pub max_queue_depth: usize,
    /// The `Retry-After` value (seconds) sent with 503 refusals.
    pub retry_after_secs: u64,
    /// Maximum per-unit artificial delay (µs) of the chaos plan enabled by
    /// [`ServerConfig::chaos_seed`]. Drills widen this to hold a
    /// cancellation or kill window open on small circuits.
    pub chaos_delay_micros: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            campaign_threads: 2,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            quota: TenantQuota::default(),
            journal_dir: std::env::temp_dir()
                .join("scanft-serve")
                .to_string_lossy()
                .into_owned(),
            cache_capacity: 8,
            chaos_seed: None,
            state_dir: None,
            max_queue_depth: 256,
            retry_after_secs: 2,
            chaos_delay_micros: 20_000,
        }
    }
}

/// What startup recovery found in the state directory's WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverySummary {
    /// Intact WAL events replayed.
    pub wal_records: usize,
    /// Damaged WAL lines skipped (torn tail from the crash).
    pub wal_torn: usize,
    /// Jobs re-queued (queued or mid-flight at crash time).
    pub jobs_requeued: usize,
    /// Jobs restored in a terminal state (still queryable, never re-run).
    pub jobs_terminal: usize,
}

/// A running campaign server. Dropping the handle does *not* stop the
/// daemon; call [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<JobRegistry>,
    recovery: RecoverySummary,
    accept_handle: Option<thread::JoinHandle<()>>,
    worker_handles: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns. With
    /// [`ServerConfig::state_dir`] set, the state directory's WAL is
    /// replayed into the registry first — pending jobs re-queued, terminal
    /// jobs restored queryable — and every subsequent registry transition
    /// is logged durably.
    ///
    /// # Errors
    ///
    /// Returns the bind/journal-directory error as [`ScanftError::Io`],
    /// and an unreplayable WAL (an admitted job whose recorded submission
    /// no longer parses) as [`ScanftError::Recovery`] — starting fresh
    /// would silently drop acknowledged work.
    pub fn start(config: ServerConfig) -> Result<Server, ScanftError> {
        std::fs::create_dir_all(&config.journal_dir).map_err(|e| ScanftError::Io {
            path: config.journal_dir.clone(),
            source: e,
        })?;
        let registry = Arc::new(JobRegistry::new());
        let mut recovery = RecoverySummary::default();
        if let Some(state_dir) = &config.state_dir {
            std::fs::create_dir_all(state_dir).map_err(|e| ScanftError::Io {
                path: state_dir.clone(),
                source: e,
            })?;
            let wal_path = format!("{state_dir}/jobs.wal");
            recovery = recover(&registry, &wal_path)?;
            // Attach the writer only after replay: restored jobs must not
            // be re-logged, and new events append after the survivors.
            registry.set_wal(Arc::new(WalWriter::open(&wal_path)?));
        }
        let listener = TcpListener::bind(&config.addr).map_err(|e| ScanftError::Io {
            path: config.addr.clone(),
            source: e,
        })?;
        let addr = listener.local_addr().map_err(|e| ScanftError::Io {
            path: config.addr.clone(),
            source: e,
        })?;

        let shared = Arc::new(Shared {
            registry,
            cache: ArtifactCache::new(config.cache_capacity),
            recovery,
            config,
        });
        let stop = Arc::new(AtomicBool::new(false));

        let mut worker_handles = Vec::new();
        for worker in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                thread::spawn_named(format!("scanft-job-worker-{worker}"), move || {
                    while let Some(job) = shared.registry.claim() {
                        run_job(&shared, &job);
                    }
                })
                .map_err(|e| ScanftError::Io {
                    path: "job worker".to_owned(),
                    source: e,
                })?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_handle = thread::spawn_named("scanft-accept", move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let shared = Arc::clone(&accept_shared);
                // Connection threads are detached: each one answers a
                // single request under the read timeout and exits.
                let _ =
                    thread::spawn_named("scanft-conn", move || handle_connection(&shared, stream));
            }
        })
        .map_err(|e| ScanftError::Io {
            path: "accept loop".to_owned(),
            source: e,
        })?;

        let registry = Arc::clone(&shared.registry);
        Ok(Server {
            addr,
            stop,
            registry,
            recovery,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery replayed from the WAL (all zeros without a
    /// state directory).
    #[must_use]
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// Blocks until a drain has been requested (`POST /admin/drain`, or
    /// [`JobRegistry::drain`] directly). The CLI serve loop parks here,
    /// then calls [`Server::drain_and_shutdown`].
    pub fn wait_drain_requested(&self) {
        self.registry.wait_drain_requested();
    }

    /// Graceful drain: stops admission and claiming (503 + `Retry-After`
    /// for new submissions), lets in-flight campaigns finish — status and
    /// events queries keep being answered meanwhile — then stops the
    /// accept loop and joins everything. Queued jobs stay `Queued` in the
    /// WAL for the next boot.
    pub fn drain_and_shutdown(mut self) {
        self.registry.drain();
        scanft_obs::global().counter("server.drain.requests").inc();
        // In-flight campaigns run to completion (their terminal states are
        // WAL-logged); the accept loop stays up so clients can poll them.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        self.registry.shutdown();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, drains the worker pool, and joins all threads.
    /// Queued jobs are abandoned; running campaigns finish their current
    /// run (cancel them first for a fast stop).
    pub fn shutdown(mut self) {
        // Release/Acquire pairing with the accept loop's stop check: the
        // accept thread that sees the flag also sees the shutdown intent
        // recorded before the throwaway connection below.
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.registry.shutdown();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Replays the WAL at `wal_path` into `registry`: terminal jobs are
/// restored queryable, everything else is re-queued in admission order
/// (cancelled-but-not-done jobs re-queued pre-cancelled so the ordinary
/// claim path drops them and logs their terminal state).
fn recover(registry: &JobRegistry, wal_path: &str) -> Result<RecoverySummary, ScanftError> {
    let parsed = wal::read_wal_file(wal_path)?;
    let state = wal::replay(&parsed);
    // A torn tail can only damage the *last* line, which orphans nothing.
    // An event whose admit line is missing means a record mid-file was
    // destroyed — acknowledged work would be dropped, so refuse to start.
    if state.orphan_events > 0 {
        return Err(ScanftError::Recovery {
            message: format!(
                "{} WAL event(s) in {wal_path} reference a job whose admit \
                 record did not survive; the WAL is damaged beyond a torn tail",
                state.orphan_events
            ),
        });
    }
    let mut summary = RecoverySummary {
        wal_records: parsed.events.len(),
        wal_torn: parsed.skipped_lines,
        ..RecoverySummary::default()
    };
    let obs = scanft_obs::global();
    for recovered in &state.jobs {
        let admit = &recovered.admit;
        // The submission text was validated at admission, so a parse
        // failure here means the WAL (not just its tail) is damaged:
        // refuse to start rather than silently dropping accepted work.
        let table = kiss::parse_with(&admit.kiss, &admit.circuit, kiss::Completion::SelfLoop)
            .map_err(|err| ScanftError::Recovery {
                message: format!(
                    "WAL admit record for `{}` no longer parses as KISS2: {err}",
                    admit.id
                ),
            })?;
        let tests = match &admit.tests {
            None => None,
            Some(text) => Some(scanft_core::io::parse_tests(text, &table).map_err(|err| {
                ScanftError::Recovery {
                    message: format!(
                        "WAL admit record for `{}` has an unparseable test section: {err}",
                        admit.id
                    ),
                }
            })?),
        };
        let mut job = Job::new(
            admit.id.clone(),
            JobSpec {
                tenant: admit.tenant.clone(),
                circuit: admit.circuit.clone(),
                kind: admit.kind,
                key: ContentKey::of_table(&table),
                table,
                tests,
                journal_path: admit.journal_path.clone(),
            },
        );
        match &recovered.done {
            Some(status) => {
                job.set_status(status.clone());
                registry.restore(job, false, Some((&admit.idem, admit.sticky)));
                summary.jobs_terminal += 1;
            }
            None => {
                // Claimed-but-unfinished jobs resume their journal; the
                // claim is not replayed as `Running` — the job waits its
                // turn in the queue again.
                job.resume = recovered.claimed;
                if recovered.cancelled {
                    job.cancel.cancel();
                }
                registry.restore(job, true, Some((&admit.idem, admit.sticky)));
                summary.jobs_requeued += 1;
            }
        }
    }
    obs.counter("server.recovery.wal_records")
        .add(summary.wal_records as u64);
    obs.counter("server.recovery.wal_torn")
        .add(summary.wal_torn as u64);
    obs.counter("server.recovery.jobs_requeued")
        .add(summary.jobs_requeued as u64);
    obs.counter("server.recovery.jobs_terminal")
        .add(summary.jobs_terminal as u64);
    Ok(summary)
}

/// State shared by the accept loop, connection threads, and job workers.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    registry: Arc<JobRegistry>,
    cache: ArtifactCache,
    recovery: RecoverySummary,
}

/// Renders the uniform error body:
/// `{"error":{"code":N,"class":"...","message":"..."}}`.
fn error_body(code: u16, class: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":{code},\"class\":\"{}\",\"message\":\"{}\"}}}}",
        scanft_obs::escape_json_string(class),
        scanft_obs::escape_json_string(message),
    )
}

/// Error body for a workspace-taxonomy failure: `code` is the CLI exit
/// code ([`ScanftError::exit_code`]), `class` the stable class name, so
/// clients treat API errors and CLI exits uniformly.
fn taxonomy_body(err: &ScanftError) -> String {
    error_body(u16::from(err.exit_code()), err.class(), &err.to_string())
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let _ = http::write_response(stream, status, "application/json", body.as_bytes());
}

/// A 503 refusal with `Retry-After` — the uniform shape for drain and
/// queue shedding.
fn respond_unavailable(shared: &Shared, stream: &mut TcpStream, message: &str) {
    let retry_after = shared.config.retry_after_secs;
    let _ = http::write_response_with(
        stream,
        503,
        "application/json",
        &[("Retry-After", retry_after.to_string())],
        error_body(503, "unavailable", message).as_bytes(),
    );
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let request = match http::read_request(
        &mut stream,
        shared.config.read_timeout,
        shared.config.max_body_bytes,
    ) {
        Ok(request) => request,
        Err(HttpError::Closed) => return,
        Err(err) => {
            scanft_obs::global().counter("server.jobs.rejected").inc();
            respond(
                &mut stream,
                err.status(),
                &error_body(err.status(), "http", &err.to_string()),
            );
            return;
        }
    };
    route(shared, &request, &mut stream);
}

fn route(shared: &Shared, request: &Request, stream: &mut TcpStream) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(shared, request, stream),
        ("GET", ["jobs", id]) => match shared.registry.get(id) {
            Some(job) => respond(stream, 200, &job.to_json()),
            None => respond(
                stream,
                404,
                &error_body(404, "http", &format!("no such job `{id}`")),
            ),
        },
        ("DELETE", ["jobs", id]) => match shared.registry.get(id) {
            Some(job) => {
                job.cancel.cancel();
                // Durable: a restart must re-drop this job, not re-run it.
                shared.registry.log_cancel(&job.id);
                respond(
                    stream,
                    200,
                    &format!(
                        "{{\"id\":\"{}\",\"cancel\":\"requested\",\"status\":\"{}\"}}",
                        scanft_obs::escape_json_string(&job.id),
                        job.status().name()
                    ),
                );
            }
            None => respond(
                stream,
                404,
                &error_body(404, "http", &format!("no such job `{id}`")),
            ),
        },
        ("POST", ["admin", "drain"]) => {
            // Respond before flipping the flag: the drain wakes the serve
            // loop, which may tear the whole process down — the
            // acknowledgement must already be on the wire by then.
            scanft_obs::global().counter("server.drain.requests").inc();
            respond(
                stream,
                200,
                &format!(
                    "{{\"drain\":\"requested\",\"queued\":{},\"running\":{}}}",
                    shared.registry.queue_depth(),
                    shared.registry.running_count(),
                ),
            );
            shared.registry.drain();
        }
        ("GET", ["healthz"]) => {
            respond(stream, 200, &health_body(shared));
        }
        ("GET", ["readyz"]) => {
            if shared.registry.is_draining() {
                respond_unavailable(shared, stream, "draining: not accepting new jobs");
            } else {
                respond(stream, 200, "{\"ready\":true}");
            }
        }
        ("GET", ["jobs", id, "events"]) => match shared.registry.get(id) {
            Some(job) => stream_events(&job, stream),
            None => respond(
                stream,
                404,
                &error_body(404, "http", &format!("no such job `{id}`")),
            ),
        },
        ("GET", ["metrics"]) => {
            respond(stream, 200, &scanft_obs::global().to_jsonl());
        }
        (method, _) => {
            respond(
                stream,
                404,
                &error_body(
                    404,
                    "http",
                    &format!("no route for {method} {}", request.path),
                ),
            );
        }
    }
}

/// `POST /jobs`: validate, enforce the tenant quota, enqueue.
fn submit(shared: &Shared, request: &Request, stream: &mut TcpStream) {
    let obs = scanft_obs::global();
    let tenant = request
        .header("x-scanft-tenant")
        .unwrap_or("default")
        .to_owned();
    let name = request
        .header("x-scanft-circuit")
        .unwrap_or("submitted")
        .to_owned();
    let kind = match kind_of(&request.query) {
        Ok(kind) => kind,
        Err(message) => {
            obs.counter("server.jobs.rejected").inc();
            respond(stream, 400, &taxonomy_body(&ScanftError::usage(message)));
            return;
        }
    };

    let body = String::from_utf8_lossy(&request.body).into_owned();
    let (kiss_text, tests_text) = split_submission(&body);
    let table = match kiss::parse_with(kiss_text, &name, kiss::Completion::SelfLoop) {
        Ok(table) => table,
        Err(err) => {
            obs.counter("server.jobs.rejected").inc();
            respond(stream, 400, &taxonomy_body(&ScanftError::from(err)));
            return;
        }
    };
    let tests = match tests_text {
        None => None,
        Some(text) => match scanft_core::io::parse_tests(text, &table) {
            Ok(set) => Some(set),
            Err(err) => {
                obs.counter("server.jobs.rejected").inc();
                respond(
                    stream,
                    400,
                    &taxonomy_body(&ScanftError::TestFormat {
                        message: err.to_string(),
                    }),
                );
                return;
            }
        },
    };

    if shared.registry.active_for(&tenant) >= shared.config.quota.max_active {
        obs.counter("server.jobs.rejected").inc();
        respond(
            stream,
            429,
            &error_body(
                429,
                "quota",
                &format!(
                    "tenant `{tenant}` already has {} active job(s)",
                    shared.config.quota.max_active
                ),
            ),
        );
        return;
    }

    let key = ContentKey::of_table(&table);
    // Idempotency: an explicit `Idempotency-Key` header maps to its job
    // forever (a retried POST returns the original id even after it
    // finished); without one, the content hash of (tenant, kind, circuit)
    // dedupes only while the original job is active, so a deliberate warm
    // resubmission still re-runs and exercises the artifact cache.
    let (idem_key, sticky) = match request.header("idempotency-key") {
        Some(user_key) => (format!("user:{tenant}:{user_key}"), true),
        None => (format!("auto:{tenant}:{}:{key}", kind.name()), false),
    };
    let journal_dir = shared.config.journal_dir.clone();
    let circuit_name = table.name().to_owned();
    let outcome =
        shared
            .registry
            .admit_guarded(&idem_key, sticky, shared.config.max_queue_depth, |id| {
                let job = Job::new(
                    id.clone(),
                    JobSpec {
                        tenant,
                        circuit: circuit_name.clone(),
                        kind,
                        key,
                        table,
                        tests,
                        journal_path: format!("{journal_dir}/{id}.jsonl"),
                    },
                );
                (job, kiss_text.to_owned(), tests_text.map(str::to_owned))
            });
    match outcome {
        Ok(AdmitOutcome::Fresh(job)) => {
            obs.counter("server.jobs.accepted").inc();
            respond(stream, 202, &job.to_json());
        }
        Ok(AdmitOutcome::Deduped(job)) => {
            obs.counter("server.jobs.deduped").inc();
            respond(stream, 200, &job.to_json());
        }
        Ok(AdmitOutcome::Draining) => {
            obs.counter("server.drain.rejected").inc();
            respond_unavailable(shared, stream, "draining: not accepting new jobs");
        }
        Ok(AdmitOutcome::QueueFull(depth)) => {
            obs.counter("server.drain.shed").inc();
            respond_unavailable(
                shared,
                stream,
                &format!("queue depth {depth} at its bound; retry later"),
            );
        }
        Err(err) => {
            obs.counter("server.jobs.rejected").inc();
            respond(stream, 500, &taxonomy_body(&err));
        }
    }
}

/// The `/healthz` body: liveness plus drain/recovery state.
fn health_body(shared: &Shared) -> String {
    format!(
        "{{\"status\":\"ok\",\"draining\":{},\"queued\":{},\"running\":{},\"recovered_requeued\":{},\"recovered_terminal\":{},\"wal_torn\":{}}}",
        shared.registry.is_draining(),
        shared.registry.queue_depth(),
        shared.registry.running_count(),
        shared.recovery.jobs_requeued,
        shared.recovery.jobs_terminal,
        shared.recovery.wal_torn,
    )
}

fn kind_of(query: &str) -> Result<JobKind, String> {
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "kind" {
            return JobKind::from_param(v)
                .ok_or_else(|| format!("kind must be `simulate` or `atpg`, got `{v}`"));
        }
    }
    Ok(JobKind::default())
}

/// Splits a submission body at the first line that is exactly
/// [`TESTS_MARKER`]; returns the KISS2 text and the optional test text.
fn split_submission(body: &str) -> (&str, Option<&str>) {
    let mut offset = 0;
    for line in body.split_inclusive('\n') {
        if line.trim_end() == TESTS_MARKER && line.trim_start().starts_with('.') {
            let kiss_end = offset;
            let tests_start = offset + line.len();
            return (&body[..kiss_end], Some(&body[tests_start..]));
        }
        offset += line.len();
    }
    (body, None)
}

/// `GET /jobs/:id/events`: stream new journal lines until the job is
/// terminal and the journal is drained. Close-delimited JSONL.
fn stream_events(job: &Job, stream: &mut TcpStream) {
    if http::write_stream_head(stream, 200, "application/jsonl").is_err() {
        return;
    }
    let obs = scanft_obs::global();
    let mut tailer = JournalTailer::new(&job.journal_path);
    loop {
        let terminal = job.status().is_terminal();
        let lines = tailer.poll().unwrap_or_default();
        for line in &lines {
            let mut framed = line.clone();
            framed.push('\n');
            if stream.write_all(framed.as_bytes()).is_err() {
                return; // client went away
            }
            obs.counter("server.bytes_streamed")
                .add(framed.len() as u64);
        }
        if !lines.is_empty() && stream.flush().is_err() {
            return;
        }
        if terminal && lines.is_empty() {
            return; // drained after the campaign ended
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Runs one claimed job to a terminal state, counting the outcome.
fn run_job(shared: &Shared, job: &Arc<Job>) {
    let obs = scanft_obs::global();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| execute(shared, job)));
    let status = match outcome {
        Ok(Ok(status)) => status,
        Ok(Err(err)) => JobStatus::Failed(err.to_string()),
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            JobStatus::Failed(format!("job panicked: {message}"))
        }
    };
    match &status {
        JobStatus::Completed { .. } => obs.counter("server.jobs.completed").inc(),
        JobStatus::Cancelled => obs.counter("server.jobs.cancelled").inc(),
        JobStatus::Failed(_) => obs.counter("server.jobs.failed").inc(),
        _ => {}
    }
    job.set_status(status);
    // Log whatever actually stuck (terminal states are sticky, so a racing
    // cancel may have won): a restart restores this exact state.
    shared.registry.log_done(&job.id, &job.status());
}

/// The campaign body of a job: artifacts from the cache, tests from the
/// submission (or the paper's functional generator), then the supervised
/// run or the ATPG top-up.
fn execute(shared: &Shared, job: &Arc<Job>) -> Result<JobStatus, ScanftError> {
    let (artifacts, hit) = shared.cache.get_or_build(job.key, &job.table);
    job.set_cache_hit(hit);
    let scan_tests = scan_tests_for(job, &artifacts);
    let budget = tenant_budget(&shared.config.quota, job);

    match job.kind {
        JobKind::Simulate => {
            let fault_list = scanft_sim::faults::as_fault_list(
                &scanft_sim::faults::enumerate_stuck(artifacts.circuit.netlist()),
            );
            let order = campaign::decreasing_length_order(&scan_tests);
            let config = SupervisedConfig {
                num_threads: shared.config.campaign_threads.max(1),
                observe_scan_out: true,
                budget,
                label: job.circuit.clone(),
                arena: Some(Arc::clone(&artifacts.arena)),
                ..SupervisedConfig::default()
            };
            // Delay-only chaos (panic and truncation rates zero): drills
            // use it to hold a cancellation window open without exercising
            // quarantine or torn writes. Deliberately NOT attached to the
            // journal writer — served journals are never chaos-truncated.
            let chaos = shared.config.chaos_seed.map(|seed| {
                FailurePlan::new(seed)
                    .with_panic_rate(0, 1)
                    .with_truncate_rate(0, 1)
                    .with_delay_rate(1, 1, shared.config.chaos_delay_micros)
            });
            // Recovery resume: repair the crash-torn journal down to its
            // intact prefix, then append the missing units via the
            // ordinary resume path — the finished journal is byte-identical
            // to an uninterrupted run. Any doubt (no file, no intact
            // header) falls back to a fresh truncating run, which is
            // trivially identical too.
            let (writer, resume) = if job.resume {
                match repair_journal(&job.journal_path) {
                    Ok(journal) if journal.header.is_some() => {
                        scanft_obs::global()
                            .counter("server.recovery.jobs_resumed")
                            .inc();
                        (JournalWriter::append_to(&job.journal_path)?, Some(journal))
                    }
                    _ => (JournalWriter::create(&job.journal_path)?, None),
                }
            } else {
                (JournalWriter::create(&job.journal_path)?, None)
            };
            let partial = campaign::run_supervised(
                artifacts.circuit.netlist(),
                &scan_tests,
                &order,
                &fault_list,
                &config,
                Some(&writer),
                resume.as_ref(),
                chaos.as_ref(),
            )?;
            if !partial.resumed_units.is_empty() {
                scanft_obs::global()
                    .counter("server.recovery.units_resumed")
                    .add(partial.resumed_units.len() as u64);
            }
            if partial.stopped == Some(StopReason::Cancelled) {
                return Ok(JobStatus::Cancelled);
            }
            Ok(JobStatus::Completed {
                coverage: partial.coverage_lower_bound_percent(),
                detected: partial.report.detected(),
                faults: fault_list.len(),
                completed_units: partial.completed_units.len(),
                units: partial.num_units,
            })
        }
        JobKind::Atpg => {
            let config = TopUpConfig {
                budget,
                ..TopUpConfig::default()
            };
            let outcome = top_up_scan_with(
                artifacts.circuit.netlist(),
                &scan_tests,
                &config,
                Some((*artifacts.analysis()).clone()),
            );
            let report = &outcome.report;
            if report.stopped == Some(StopReason::Cancelled) {
                return Ok(JobStatus::Cancelled);
            }
            Ok(JobStatus::Completed {
                coverage: report.coverage_percent(),
                detected: report.detected_functional() + report.detected_atpg(),
                faults: report.faults.len(),
                completed_units: report.atpg_patterns,
                units: report.atpg_patterns,
            })
        }
    }
}

/// The submission's tests, or the paper's UIO-based functional set.
fn scan_tests_for(job: &Job, artifacts: &Artifacts) -> Vec<ScanTest> {
    match &job.tests {
        Some(set) => set.to_scan_tests(&artifacts.circuit),
        None => {
            let uios = derive_uios_with(
                &job.table,
                &UioConfig::with_max_len(job.table.num_state_vars()),
            );
            generate(&job.table, &uios, &GenConfig::default()).to_scan_tests(&artifacts.circuit)
        }
    }
}

/// The per-campaign budget: the tenant's work-unit cap plus this job's
/// cancel token, so `DELETE` rides the ordinary stop path.
fn tenant_budget(quota: &TenantQuota, job: &Job) -> Budget {
    let mut budget = Budget::unlimited().with_cancel(job.cancel.clone());
    if let Some(max_units) = quota.max_units {
        budget = budget.with_max_units(max_units);
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_splits_at_the_tests_marker() {
        let body = ".i 1\n.o 1\n.tests\n.circuit lion\ns0 | 0 | s0\n";
        let (kiss, tests) = split_submission(body);
        assert_eq!(kiss, ".i 1\n.o 1\n");
        assert_eq!(tests.unwrap(), ".circuit lion\ns0 | 0 | s0\n");
        let (all, none) = split_submission(".i 1\n.o 1\n");
        assert_eq!(all, ".i 1\n.o 1\n");
        assert!(none.is_none());
    }

    #[test]
    fn kind_parses_from_the_query_string() {
        assert_eq!(kind_of("").unwrap(), JobKind::Simulate);
        assert_eq!(kind_of("kind=simulate").unwrap(), JobKind::Simulate);
        assert_eq!(kind_of("kind=atpg&x=1").unwrap(), JobKind::Atpg);
        assert!(kind_of("kind=nope").is_err());
    }

    #[test]
    fn error_bodies_reuse_the_exit_code_taxonomy() {
        let err = ScanftError::TestFormat {
            message: "line 2: bad".into(),
        };
        let body = taxonomy_body(&err);
        assert!(body.contains("\"code\":7"));
        assert!(body.contains("\"class\":\"test-format\""));
    }
}
