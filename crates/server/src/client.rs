//! A tiny blocking client for the job API.
//!
//! Used by `scanft submit` / `scanft status` / `scanft cancel` / `scanft
//! events` and the CI drills. One TCP connection per call (mirroring the
//! server's one-request-per-connection contract); responses are read to
//! EOF, which is exactly the close-delimited framing the server emits.
//!
//! With [`Client::with_retry`], unit calls retry transparently on
//! transport errors and on 503/429 refusals, sleeping a capped
//! exponential backoff with seeded jitter ([`RetryPolicy`]) and honoring
//! the server's `Retry-After` as a floor. Retries are safe because the
//! API is idempotent: submissions dedupe on `Idempotency-Key` (or the
//! content hash), and status/cancel/drain are idempotent by nature.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::job::JobKind;
use crate::retry::RetryPolicy;
use scanft_obs::{field_f64, field_str, field_u64};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP round trip itself failed.
    Io(
        /// The underlying I/O error.
        std::io::Error,
    ),
    /// The server answered with a structured error body.
    Api {
        /// HTTP status.
        status: u16,
        /// Workspace taxonomy code (a CLI exit code) or the HTTP status for
        /// transport-level refusals.
        code: u64,
        /// Stable class name (`fsm`, `test-format`, `quota`, `http`, ...).
        class: String,
        /// Human-readable message.
        message: String,
    },
    /// The response did not parse as the protocol promises.
    Protocol(
        /// What was malformed.
        String,
    ),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport: {err}"),
            ClientError::Api {
                status,
                code,
                class,
                message,
            } => write!(f, "server refused ({status}, {class}/{code}): {message}"),
            ClientError::Protocol(what) => write!(f, "bad response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// A parsed job-status object (`POST /jobs` and `GET /jobs/:id` bodies).
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id (`job-<n>`).
    pub id: String,
    /// Lifecycle state name (`queued`, `running`, `completed`, `cancelled`,
    /// `failed`).
    pub status: String,
    /// Circuit name as the server parsed it.
    pub circuit: String,
    /// Content key (hex) of the canonicalized circuit.
    pub key: String,
    /// Coverage percent, present once completed.
    pub coverage: Option<f64>,
    /// Detected faults, present once completed.
    pub detected: Option<u64>,
    /// Total faults, present once completed.
    pub faults: Option<u64>,
    /// Completed work units, present once completed.
    pub completed_units: Option<u64>,
    /// Total work units, present once completed.
    pub units: Option<u64>,
    /// `"hit"` / `"miss"` once the artifact cache was consulted.
    pub cache: Option<String>,
    /// Failure message when `status == "failed"`.
    pub message: Option<String>,
    /// Server-side journal path.
    pub journal: Option<String>,
}

impl JobView {
    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self.status.as_str(), "completed" | "cancelled" | "failed")
    }

    fn parse(body: &str) -> Result<JobView, ClientError> {
        let id = field_str(body, "id")
            .ok_or_else(|| ClientError::Protocol(format!("job body without id: {body}")))?;
        let status = field_str(body, "status")
            .ok_or_else(|| ClientError::Protocol(format!("job body without status: {body}")))?;
        Ok(JobView {
            id,
            status,
            circuit: field_str(body, "circuit").unwrap_or_default(),
            key: field_str(body, "key").unwrap_or_default(),
            coverage: field_f64(body, "coverage"),
            detected: field_u64(body, "detected"),
            faults: field_u64(body, "faults"),
            completed_units: field_u64(body, "completed_units"),
            units: field_u64(body, "units"),
            cache: field_str(body, "cache"),
            message: field_str(body, "message"),
            journal: field_str(body, "journal"),
        })
    }
}

/// The blocking client: one connection per call.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// A client for the server at `addr`. Retries are off until
    /// [`Client::with_retry`] enables them.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            retry: None,
        }
    }

    /// Overrides the per-call socket timeout (default 30 s). Streaming
    /// calls ([`Client::events`]) use it as a read-inactivity bound.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables retries: transport errors and 503/429 refusals are retried
    /// up to `policy.max_retries` times with capped exponential backoff
    /// and seeded jitter, honoring `Retry-After` as a delay floor.
    /// Streaming calls ([`Client::events`]) never retry — a resumed
    /// stream could replay journal lines the caller already consumed.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Submits a circuit (a `POST /jobs` body: KISS2, optionally followed
    /// by a `.tests` section). Returns the queued job's view.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] carries the server's structured refusal.
    pub fn submit(
        &self,
        body: &str,
        circuit_name: &str,
        tenant: &str,
        kind: JobKind,
    ) -> Result<JobView, ClientError> {
        self.submit_with_key(body, circuit_name, tenant, kind, None)
    }

    /// Like [`Client::submit`], with an explicit `Idempotency-Key`. The
    /// server maps the key to the admitted job *forever*, so a retried or
    /// duplicated submission returns the original job instead of running
    /// the campaign twice.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] carries the server's structured refusal.
    pub fn submit_with_key(
        &self,
        body: &str,
        circuit_name: &str,
        tenant: &str,
        kind: JobKind,
        idempotency_key: Option<&str>,
    ) -> Result<JobView, ClientError> {
        let key_header = idempotency_key
            .map(|key| format!("Idempotency-Key: {key}\r\n"))
            .unwrap_or_default();
        let request = format!(
            "POST /jobs?kind={} HTTP/1.1\r\nHost: scanft\r\nX-Scanft-Circuit: {}\r\nX-Scanft-Tenant: {}\r\n{}Content-Length: {}\r\n\r\n",
            kind.name(),
            circuit_name,
            tenant,
            key_header,
            body.len(),
        );
        let (status, response) = self.call(&request, Some(body.as_bytes()))?;
        expect_ok(status, &response)?;
        JobView::parse(&response)
    }

    /// Fetches a job's status/result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with class `http` / status 404 for unknown ids.
    pub fn status(&self, id: &str) -> Result<JobView, ClientError> {
        let (status, response) = self.call(
            &format!("GET /jobs/{id} HTTP/1.1\r\nHost: scanft\r\n\r\n"),
            None,
        )?;
        expect_ok(status, &response)?;
        JobView::parse(&response)
    }

    /// Requests cancellation of a job (queued or running).
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] for unknown ids.
    pub fn cancel(&self, id: &str) -> Result<(), ClientError> {
        let (status, response) = self.call(
            &format!("DELETE /jobs/{id} HTTP/1.1\r\nHost: scanft\r\n\r\n"),
            None,
        )?;
        expect_ok(status, &response)?;
        Ok(())
    }

    /// Asks the server to drain: admission stops (503 + `Retry-After`),
    /// in-flight jobs finish, and the serve loop exits. Returns the
    /// `(queued, running)` counts at the moment the drain was requested.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure.
    pub fn drain(&self) -> Result<(u64, u64), ClientError> {
        let (status, response) = self.call(
            "POST /admin/drain HTTP/1.1\r\nHost: scanft\r\nContent-Length: 0\r\n\r\n",
            None,
        )?;
        expect_ok(status, &response)?;
        Ok((
            field_u64(&response, "queued").unwrap_or(0),
            field_u64(&response, "running").unwrap_or(0),
        ))
    }

    /// Fetches `GET /healthz` (always 200, even while draining); returns
    /// the raw JSON body.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure. Health checks never
    /// retry — a probe wants the current answer, not an eventual one.
    pub fn health(&self) -> Result<String, ClientError> {
        let (status, _, body) =
            self.round_trip("GET /healthz HTTP/1.1\r\nHost: scanft\r\n\r\n", None)?;
        expect_ok(status, &body)?;
        Ok(body)
    }

    /// Probes `GET /readyz`: `Ok(true)` while the server accepts work,
    /// `Ok(false)` when it answers 503 (draining).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure; never retries.
    pub fn ready(&self) -> Result<bool, ClientError> {
        let (status, _, body) =
            self.round_trip("GET /readyz HTTP/1.1\r\nHost: scanft\r\n\r\n", None)?;
        match status {
            200 => Ok(true),
            503 => Ok(false),
            _ => {
                expect_ok(status, &body)?;
                Ok(false)
            }
        }
    }

    /// Streams the job's journal events until the server closes the
    /// connection (job terminal and journal drained); returns every JSONL
    /// line received.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the stream stalls past the client timeout.
    pub fn events(&self, id: &str) -> Result<Vec<String>, ClientError> {
        // Deliberately no retry: a replayed stream would duplicate lines.
        let (status, _, body) = self.round_trip(
            &format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: scanft\r\n\r\n"),
            None,
        )?;
        expect_ok(status, &body)?;
        Ok(body.lines().map(str::to_owned).collect())
    }

    /// Fetches the server's `scanft-obs` metrics export (JSON lines).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let (status, body) = self.call("GET /metrics HTTP/1.1\r\nHost: scanft\r\n\r\n", None)?;
        expect_ok(status, &body)?;
        Ok(body)
    }

    /// Polls [`Client::status`] until the job is terminal or `deadline`
    /// elapses; returns the final view. Poll intervals follow
    /// [`RetryPolicy::polling`] — capped exponential backoff with seeded
    /// jitter — so a fleet of waiting clients does not hammer the server
    /// in lockstep the way a fixed interval would.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the deadline passes first.
    pub fn wait(&self, id: &str, deadline: Duration) -> Result<JobView, ClientError> {
        let started = Instant::now();
        let mut backoff = RetryPolicy::polling().backoff();
        loop {
            let view = self.status(id)?;
            if view.is_terminal() {
                return Ok(view);
            }
            if started.elapsed() > deadline {
                return Err(ClientError::Protocol(format!(
                    "job {id} still `{}` after {deadline:?}",
                    view.status
                )));
            }
            // The polling policy never exhausts; the deadline above bounds us.
            let delay = backoff.next_delay().unwrap_or(Duration::from_millis(200));
            scanft_race::thread::sleep(delay);
        }
    }

    /// One exchange with the retry loop around it: transport errors and
    /// 503/429 answers are retried (sleeping at least the server's
    /// `Retry-After`) until the policy is exhausted; the last answer or
    /// error is returned as-is so callers see the genuine refusal.
    fn call(&self, head: &str, body: Option<&[u8]>) -> Result<(u16, String), ClientError> {
        let Some(policy) = self.retry.clone() else {
            let (status, _, text) = self.round_trip(head, body)?;
            return Ok((status, text));
        };
        let mut backoff = policy.backoff();
        loop {
            // Only transport errors and 503/429 are retryable; anything
            // else (including other errors) is the genuine answer.
            let (result, retry_after) = match self.round_trip(head, body) {
                Ok((status, retry_after, text)) if matches!(status, 503 | 429) => {
                    (Ok((status, text)), retry_after)
                }
                Ok((status, _, text)) => return Ok((status, text)),
                Err(ClientError::Io(err)) => (Err(ClientError::Io(err)), None),
                Err(other) => return Err(other),
            };
            let delay = match retry_after {
                Some(secs) => backoff.next_delay_at_least(Duration::from_secs(secs)),
                None => backoff.next_delay(),
            };
            // Exhausted: surface the last refusal or transport error as-is.
            let Some(delay) = delay else { return result };
            scanft_obs::global().counter("client.retries").inc();
            scanft_race::thread::sleep(delay);
        }
    }

    /// One request/response exchange; returns (status, `Retry-After`
    /// seconds if present, body).
    fn round_trip(
        &self,
        head: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Option<u64>, String), ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            stream.write_all(body)?;
        }
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw).into_owned();
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            return Err(ClientError::Protocol(format!(
                "response without header terminator: {text}"
            )));
        };
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line: {head}")))?;
        let retry_after = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("retry-after"))
            .and_then(|(_, value)| value.trim().parse::<u64>().ok());
        Ok((status, retry_after, body.to_owned()))
    }
}

/// Turns a non-2xx response into [`ClientError::Api`] using the uniform
/// error body.
fn expect_ok(status: u16, body: &str) -> Result<(), ClientError> {
    if (200..300).contains(&status) {
        return Ok(());
    }
    Err(ClientError::Api {
        status,
        code: field_u64(body, "code").unwrap_or(u64::from(status)),
        class: field_str(body, "class").unwrap_or_else(|| "unknown".to_owned()),
        message: field_str(body, "message").unwrap_or_else(|| body.to_owned()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_view_parses_a_completed_body() {
        let body = "{\"id\":\"job-2\",\"tenant\":\"t\",\"circuit\":\"bbtas\",\"kind\":\"simulate\",\"key\":\"ab\",\"status\":\"completed\",\"coverage\":97.2500,\"detected\":389,\"faults\":400,\"completed_units\":7,\"units\":7,\"cache\":\"hit\",\"journal\":\"/tmp/j.jsonl\"}";
        let view = JobView::parse(body).unwrap();
        assert_eq!(view.id, "job-2");
        assert!(view.is_terminal());
        assert!((view.coverage.unwrap() - 97.25).abs() < 1e-9);
        assert_eq!(view.detected, Some(389));
        assert_eq!(view.cache.as_deref(), Some("hit"));
    }

    #[test]
    fn api_errors_surface_the_taxonomy() {
        let body = "{\"error\":{\"code\":3,\"class\":\"fsm\",\"message\":\"line 1: bad\"}}";
        let err = expect_ok(400, body).unwrap_err();
        match err {
            ClientError::Api {
                status,
                code,
                class,
                ..
            } => {
                assert_eq!(status, 400);
                assert_eq!(code, 3);
                assert_eq!(class, "fsm");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }
}
