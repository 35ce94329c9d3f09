//! Append-only JSONL checkpoint journals for resumable campaigns.
//!
//! A journal is one header line followed by one line per completed work
//! unit. Each record stores the unit's result lanes (for a fault-simulation
//! batch: the detecting-test position per fault lane, `null` when
//! undetected), so a resumed run can merge finished units without
//! re-simulating them. The format is deliberately line-oriented: a crash —
//! or a chaos-injected torn write — can only damage the line being written,
//! and the reader skips any line that does not parse back into a record,
//! which at worst re-runs that unit.
//!
//! ```text
//! {"journal":"scanft-campaign","version":1,"label":"lion","faults":120,"units":2,"order":18,"lanes_per_unit":64}
//! {"unit":0,"lanes":[3,null,7, ...]}
//! {"unit":1,"lanes":[null,0, ...]}
//! ```
//!
//! Everything is hand-rolled `std`: no serde, in keeping with the
//! workspace's offline, dependency-free policy.
//!
//! race-lint: deterministic-replay — this module is on the journal-replay
//! path: resume must be a pure function of the journal bytes, so nothing
//! here may read a wall clock or other ambient nondeterminism.

use std::io::Write;

use scanft_race::sync::{Arc, AtomicU64, Mutex, Ordering};

use scanft_obs::{field_str, field_u64};

use crate::chaos::{CrashPoint, FailurePlan};
use crate::error::ScanftError;

/// Magic value identifying a campaign journal header line.
const MAGIC: &str = "scanft-campaign";
/// Format version, bumped on incompatible record changes.
const VERSION: u64 = 1;

/// The header line of a journal: enough shape information to refuse
/// resuming against the wrong circuit, test set, or fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Human-readable campaign label (circuit name or file path).
    pub label: String,
    /// Number of faults in the campaign.
    pub faults: usize,
    /// Number of work units (64-fault batches).
    pub units: usize,
    /// Length of the simulated test order.
    pub order: usize,
    /// Fault lanes per work unit. Campaigns always journal 64-lane units
    /// regardless of the simulation kernel's word width, so a journal
    /// written by one kernel resumes bit-identically under another; the
    /// field is recorded (and checked on resume) to keep that invariant
    /// explicit.
    pub lanes_per_unit: usize,
}

impl JournalHeader {
    fn to_json(&self) -> String {
        format!(
            "{{\"journal\":\"{MAGIC}\",\"version\":{VERSION},\"label\":\"{}\",\"faults\":{},\"units\":{},\"order\":{},\"lanes_per_unit\":{}}}",
            scanft_obs::escape_json_string(&self.label),
            self.faults,
            self.units,
            self.order,
            self.lanes_per_unit,
        )
    }
}

/// One completed work unit: its index and the per-lane results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The work-unit index (batch number for fault-simulation campaigns).
    pub unit: usize,
    /// Per-lane payload; for campaigns, the detecting-test position or
    /// `None` for an undetected fault.
    pub lanes: Vec<Option<u64>>,
}

impl JournalRecord {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(24 + 4 * self.lanes.len());
        out.push_str("{\"unit\":");
        out.push_str(&self.unit.to_string());
        out.push_str(",\"lanes\":[");
        for (k, lane) in self.lanes.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            match lane {
                Some(v) => out.push_str(&v.to_string()),
                None => out.push_str("null"),
            }
        }
        out.push_str("]}");
        out
    }
}

/// A parsed journal: the header (if one survived), every intact record, and
/// a count of damaged lines that were skipped.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// The header line, when present and intact.
    pub header: Option<JournalHeader>,
    /// Every record that parsed back intact, in file order.
    pub records: Vec<JournalRecord>,
    /// Number of non-empty lines that failed to parse (torn writes).
    pub skipped_lines: usize,
}

impl Journal {
    /// Validates the journal against the shape of the campaign about to be
    /// resumed. Refuses journals without an intact header and journals
    /// whose recorded shape differs from `expected` — resuming against the
    /// wrong circuit would corrupt the merged report.
    pub fn validate(&self, expected: &JournalHeader) -> Result<(), ScanftError> {
        let Some(header) = &self.header else {
            return Err(ScanftError::Journal {
                message: "journal has no intact header line; refusing to resume".into(),
            });
        };
        if header.faults != expected.faults
            || header.units != expected.units
            || header.order != expected.order
            || header.lanes_per_unit != expected.lanes_per_unit
        {
            return Err(ScanftError::Journal {
                message: format!(
                    "journal shape mismatch: journal has {} faults/{} units/order {}/{} lanes per unit, campaign has {}/{}/{}/{}",
                    header.faults, header.units, header.order, header.lanes_per_unit,
                    expected.faults, expected.units, expected.order, expected.lanes_per_unit,
                ),
            });
        }
        Ok(())
    }
}

/// Parses a journal from its textual contents. Never fails: damaged lines
/// are counted in [`Journal::skipped_lines`] and otherwise ignored.
#[must_use]
pub fn read_journal(text: &str) -> Journal {
    let mut journal = Journal::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = parse_header(line) {
            // Last intact header wins; duplicates only arise from manual
            // concatenation and agree anyway once validated.
            journal.header = Some(header);
        } else if let Some(record) = parse_record(line) {
            journal.records.push(record);
        } else {
            journal.skipped_lines += 1;
        }
    }
    journal
}

/// Reads and parses a journal file.
pub fn read_journal_file(path: &str) -> Result<Journal, ScanftError> {
    let text = std::fs::read_to_string(path).map_err(|source| ScanftError::Io {
        path: path.to_owned(),
        source,
    })?;
    Ok(read_journal(&text))
}

fn parse_header(line: &str) -> Option<JournalHeader> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    if field_str(line, "journal")? != MAGIC || field_u64(line, "version")? != VERSION {
        return None;
    }
    Some(JournalHeader {
        label: field_str(line, "label")?,
        faults: usize::try_from(field_u64(line, "faults")?).ok()?,
        units: usize::try_from(field_u64(line, "units")?).ok()?,
        order: usize::try_from(field_u64(line, "order")?).ok()?,
        // Journals written before the field existed are all 64-lane.
        lanes_per_unit: usize::try_from(field_u64(line, "lanes_per_unit").unwrap_or(64)).ok()?,
    })
}

fn parse_record(line: &str) -> Option<JournalRecord> {
    if !line.starts_with('{') || !line.ends_with("]}") {
        return None;
    }
    let unit = usize::try_from(field_u64(line, "unit")?).ok()?;
    let start = line.find("\"lanes\":[")? + "\"lanes\":[".len();
    let body = &line[start..line.len() - 2];
    let mut lanes = Vec::new();
    if !body.is_empty() {
        for item in body.split(',') {
            match item.trim() {
                "null" => lanes.push(None),
                digits => lanes.push(Some(digits.parse::<u64>().ok()?)),
            }
        }
    }
    Some(JournalRecord { unit, lanes })
}

enum Sink {
    File(std::io::BufWriter<std::fs::File>),
    Memory(Arc<Mutex<Vec<u8>>>),
}

impl Sink {
    fn write_all_flush(&mut self, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
        match self {
            Sink::File(w) => {
                w.write_all(bytes)?;
                // Flush every record: the journal's whole purpose is to
                // survive the process dying mid-campaign.
                w.flush()?;
                // Flushing reaches the page cache (kill -9 safe); only an
                // fsync survives an OS crash or power loss. Opt-in because
                // it serializes on the disk — the job WAL takes it, the
                // per-unit campaign journals do not.
                if fsync {
                    w.get_ref().sync_data()?;
                }
                Ok(())
            }
            Sink::Memory(buf) => {
                buf.lock().extend(bytes);
                Ok(())
            }
        }
    }
}

struct SinkState {
    sink: Sink,
    /// A chaos-injected crash struck: the "process" is dead and every
    /// later write is silently dropped, exactly as a killed process's
    /// writes would be.
    dead: bool,
}

/// A thread-safe flushed-per-line JSONL writer: the shared durability
/// primitive under the campaign [`JournalWriter`] and the server's job WAL.
///
/// Each line is written and flushed under one lock so concurrent appenders
/// never interleave bytes. The default flush-per-line guarantee covers the
/// *process* dying (the bytes are in the page cache); callers that must
/// also survive an OS crash or power loss — the job WAL — opt into
/// [`JsonlWriter::with_fsync`], which `sync_data`s the file after every
/// line. An attached [`FailurePlan`] can tear individual line writes
/// ([`FailurePlan::truncated_write`]) or kill the writer outright at a
/// [`CrashPoint`] — after which every later write, including "whole" ones,
/// is dropped, modelling the process dying mid-campaign.
pub struct JsonlWriter {
    state: Mutex<SinkState>,
    lines_written: AtomicU64,
    chaos: Option<FailurePlan>,
    fsync: bool,
}

impl std::fmt::Debug for JsonlWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlWriter")
            .field("lines_written", &self.lines_written)
            .field("chaos", &self.chaos)
            .finish_non_exhaustive()
    }
}

impl JsonlWriter {
    /// Creates (truncating) a JSONL file.
    pub fn create(path: &str) -> Result<Self, ScanftError> {
        let file = std::fs::File::create(path).map_err(|source| ScanftError::Io {
            path: path.to_owned(),
            source,
        })?;
        Ok(Self::from_sink(Sink::File(std::io::BufWriter::new(file))))
    }

    /// Opens a JSONL file for appending, creating it if absent.
    pub fn append_to(path: &str) -> Result<Self, ScanftError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|source| ScanftError::Io {
                path: path.to_owned(),
                source,
            })?;
        Ok(Self::from_sink(Sink::File(std::io::BufWriter::new(file))))
    }

    /// Creates an in-memory writer plus a handle to its buffer.
    #[must_use]
    pub fn in_memory() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        (Self::from_sink(Sink::Memory(Arc::clone(&buffer))), buffer)
    }

    fn from_sink(sink: Sink) -> Self {
        JsonlWriter {
            state: Mutex::new(SinkState { sink, dead: false }),
            lines_written: AtomicU64::new(0),
            chaos: None,
            fsync: false,
        }
    }

    /// Attaches a chaos plan: some subsequent counted line writes may be
    /// torn, and (if the plan has a crash rate) the writer may die.
    #[must_use]
    pub fn with_chaos(mut self, plan: FailurePlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Upgrades the durability guarantee from flush-per-line (survives the
    /// process being killed) to fsync-per-line (survives an OS crash or
    /// power loss). No effect on in-memory sinks.
    #[must_use]
    pub fn with_fsync(mut self) -> Self {
        self.fsync = true;
        self
    }

    /// Writes `line` plus a newline, whole: never torn and never a crash
    /// site, and not counted in [`JsonlWriter::lines_written`]. Used for
    /// header lines, whose loss would orphan the whole file. A dead writer
    /// silently drops the write.
    pub fn write_line_whole(&self, line: &str) -> std::io::Result<()> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let mut state = self.state.lock();
        if state.dead {
            return Ok(());
        }
        state.sink.write_all_flush(&bytes, self.fsync)
    }

    /// Appends one counted line (plus newline). The attached chaos plan may
    /// tear the write or kill the writer at a [`CrashPoint`]; a dead writer
    /// silently drops the line.
    pub fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        // AcqRel: pairs with the Acquire in `lines_written` so a reader
        // that observes count N also observes the N writes behind it.
        let index = self.lines_written.fetch_add(1, Ordering::AcqRel);
        let mut state = self.state.lock();
        if state.dead {
            return Ok(());
        }
        if let Some(plan) = &self.chaos {
            if let Some(point) = plan.crash_point(index) {
                state.dead = true;
                let cut = match point {
                    // The flush never landed: a deterministic torn prefix
                    // (drawn from the truncation stream when it fires, half
                    // the line otherwise) is all the OS kept.
                    CrashPoint::BeforeFlush => plan
                        .truncated_write(index, bytes.len())
                        .unwrap_or(bytes.len() / 2),
                    // The flush landed; the record is the last durable one.
                    CrashPoint::AfterFlush => bytes.len(),
                };
                return state.sink.write_all_flush(&bytes[..cut], self.fsync);
            }
            if let Some(cut) = plan.truncated_write(index, bytes.len()) {
                return state.sink.write_all_flush(&bytes[..cut], self.fsync);
            }
        }
        state.sink.write_all_flush(&bytes, self.fsync)
    }

    /// Number of counted lines appended so far (torn and post-crash writes
    /// included).
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines_written.load(Ordering::Acquire)
    }

    /// Whether a chaos-injected crash has killed the writer.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }
}

/// A thread-safe append-only journal writer.
///
/// Workers append completed units concurrently; each record is written and
/// flushed under one lock so lines never interleave. An attached
/// [`FailurePlan`] makes the writer tear some record writes (for chaos
/// testing); the header is always written whole, so a chaos-damaged journal
/// is still attributable to its campaign.
#[derive(Debug)]
pub struct JournalWriter {
    inner: JsonlWriter,
}

impl JournalWriter {
    /// Creates (truncating) a journal file for a fresh campaign.
    pub fn create(path: &str) -> Result<Self, ScanftError> {
        Ok(JournalWriter {
            inner: JsonlWriter::create(path)?,
        })
    }

    /// Opens a journal file for appending (resume).
    pub fn append_to(path: &str) -> Result<Self, ScanftError> {
        Ok(JournalWriter {
            inner: JsonlWriter::append_to(path)?,
        })
    }

    /// Creates an in-memory journal writer plus a handle to its buffer —
    /// the property tests' way of exercising resume without touching disk.
    #[must_use]
    pub fn in_memory() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let (inner, buffer) = JsonlWriter::in_memory();
        (JournalWriter { inner }, buffer)
    }

    /// Attaches a chaos plan: some subsequent record writes will be torn.
    #[must_use]
    pub fn with_chaos(mut self, plan: FailurePlan) -> Self {
        self.inner = self.inner.with_chaos(plan);
        self
    }

    /// Writes the header line (never torn by chaos).
    pub fn write_header(&self, header: &JournalHeader) -> std::io::Result<()> {
        self.inner.write_line_whole(&header.to_json())
    }

    /// Appends one record, possibly torn by the attached chaos plan.
    pub fn append(&self, record: &JournalRecord) -> std::io::Result<()> {
        self.inner.write_line(&record.to_json())
    }

    /// Number of records appended so far (torn writes included).
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.inner.lines_written()
    }
}

/// Repairs a journal file crash-damaged by a torn tail: parses it, and if
/// any damaged lines were skipped, rewrites the file as exactly the header
/// plus the intact records (via a temp file + rename so the repair itself
/// cannot tear). Returns the parsed journal either way.
///
/// This is what makes post-crash resume byte-identical to an uninterrupted
/// run: appending after a torn half-record would otherwise leave the
/// garbage prefix in the file forever. Files without an intact header are
/// returned unrepaired — the caller falls back to a fresh run, which
/// truncates the file anyway.
pub fn repair_journal(path: &str) -> Result<Journal, ScanftError> {
    let text = std::fs::read_to_string(path).map_err(|source| ScanftError::Io {
        path: path.to_owned(),
        source,
    })?;
    let journal = read_journal(&text);
    let Some(header) = &journal.header else {
        return Ok(journal);
    };
    let mut clean = header.to_json();
    clean.push('\n');
    for record in &journal.records {
        clean.push_str(&record.to_json());
        clean.push('\n');
    }
    if clean != text {
        let tmp = format!("{path}.repair");
        let io_err = |source| ScanftError::Io {
            path: path.to_owned(),
            source,
        };
        std::fs::write(&tmp, clean.as_bytes()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
    }
    Ok(journal)
}

/// Renders an in-memory journal buffer as text for [`read_journal`].
#[must_use]
pub fn buffer_contents(buffer: &Arc<Mutex<Vec<u8>>>) -> String {
    String::from_utf8_lossy(&buffer.lock()).into_owned()
}

/// Splits freshly appended journal bytes at the last newline: everything up
/// through it is consumed (returned as whole lines), the torn tail is left
/// for a later poll. Shared by [`JournalTailer`] and [`BufferTailer`] so
/// both followers have identical torn-write behavior.
fn consume_complete_lines(fresh: &[u8]) -> (usize, Vec<String>) {
    let Some(last_newline) = fresh.iter().rposition(|&b| b == b'\n') else {
        return (0, Vec::new());
    };
    let text = String::from_utf8_lossy(&fresh[..=last_newline]);
    (last_newline + 1, text.lines().map(str::to_owned).collect())
}

/// A non-destructive follower for a journal file that is still being
/// written.
///
/// The `scanft serve` events endpoint polls a running campaign's journal;
/// re-reading the whole file per poll is quadratic in campaign length, so
/// the tailer remembers a byte offset and each [`JournalTailer::poll`]
/// reads only what was appended since. Because the writer flushes whole
/// lines under a lock — and a crash or chaos tear can leave at most one
/// unterminated trailing line — the tailer only ever consumes up through
/// the last `\n` it sees: a partially-written record stays buffered in the
/// file until its newline arrives, so a poll never yields a torn prefix of
/// a record that later completes.
#[derive(Debug, Clone)]
pub struct JournalTailer {
    path: String,
    offset: u64,
}

impl JournalTailer {
    /// Starts tailing `path` from the beginning. The file need not exist
    /// yet: polls before creation simply yield nothing.
    #[must_use]
    pub fn new(path: &str) -> Self {
        JournalTailer {
            path: path.to_owned(),
            offset: 0,
        }
    }

    /// Byte offset of the next unread position in the file.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Returns every *complete* line appended since the last poll, newline
    /// terminators stripped. Bytes after the final `\n` are left unread for
    /// a future poll. A missing file yields an empty batch, not an error.
    pub fn poll(&mut self) -> Result<Vec<String>, ScanftError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match std::fs::File::open(&self.path) {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(source) => {
                return Err(ScanftError::Io {
                    path: self.path.clone(),
                    source,
                })
            }
        };
        let io_err = |source| ScanftError::Io {
            path: self.path.clone(),
            source,
        };
        let len = file.metadata().map_err(io_err)?.len();
        if len <= self.offset {
            // Nothing new (or the file was truncated/recreated shorter —
            // journals are append-only, so treat that as nothing new).
            return Ok(Vec::new());
        }
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|source| ScanftError::Io {
                path: self.path.clone(),
                source,
            })?;
        let mut fresh = Vec::with_capacity(usize::try_from(len - self.offset).unwrap_or(0));
        file.take(len - self.offset)
            .read_to_end(&mut fresh)
            .map_err(|source| ScanftError::Io {
                path: self.path.clone(),
                source,
            })?;
        // Consume only up through the last newline; a torn trailing line
        // stays unread until the writer finishes it.
        let (consumed, lines) = consume_complete_lines(&fresh);
        self.offset += consumed as u64;
        Ok(lines)
    }

    /// Like [`JournalTailer::poll`], but parses each complete line as a
    /// [`JournalRecord`], silently skipping the header and any damaged
    /// lines (counted in the second tuple element).
    pub fn poll_records(&mut self) -> Result<(Vec<JournalRecord>, usize), ScanftError> {
        let mut records = Vec::new();
        let mut skipped = 0;
        for line in self.poll()? {
            let line = line.trim();
            if line.is_empty() || parse_header(line).is_some() {
                continue;
            }
            match parse_record(line) {
                Some(record) => records.push(record),
                None => skipped += 1,
            }
        }
        Ok((records, skipped))
    }
}

/// A non-destructive follower for an in-memory journal buffer (the
/// [`JournalWriter::in_memory`] sink), with the same torn-write contract as
/// [`JournalTailer`]: only complete lines are consumed, a record missing
/// its trailing newline stays invisible until the writer finishes it.
///
/// This is the follower the deterministic model tests race against a
/// writer: the file tailer's semantics, minus the filesystem.
#[derive(Debug, Clone)]
pub struct BufferTailer {
    buffer: Arc<Mutex<Vec<u8>>>,
    offset: usize,
}

impl BufferTailer {
    /// Starts tailing `buffer` from the beginning.
    #[must_use]
    pub fn new(buffer: Arc<Mutex<Vec<u8>>>) -> Self {
        BufferTailer { buffer, offset: 0 }
    }

    /// Byte offset of the next unread position in the buffer.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Returns every *complete* line appended since the last poll, newline
    /// terminators stripped; bytes after the final `\n` stay unread.
    pub fn poll(&mut self) -> Vec<String> {
        let fresh: Vec<u8> = {
            let buf = self.buffer.lock();
            if buf.len() <= self.offset {
                return Vec::new();
            }
            buf[self.offset..].to_vec()
        };
        let (consumed, lines) = consume_complete_lines(&fresh);
        self.offset += consumed;
        lines
    }

    /// Like [`BufferTailer::poll`], but parses each complete line as a
    /// [`JournalRecord`], skipping the header and counting damaged lines.
    pub fn poll_records(&mut self) -> (Vec<JournalRecord>, usize) {
        let mut records = Vec::new();
        let mut skipped = 0;
        for line in self.poll() {
            let line = line.trim();
            if line.is_empty() || parse_header(line).is_some() {
                continue;
            }
            match parse_record(line) {
                Some(record) => records.push(record),
                None => skipped += 1,
            }
        }
        (records, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            label: "lion".into(),
            faults: 120,
            units: 2,
            order: 18,
            lanes_per_unit: 64,
        }
    }

    #[test]
    fn round_trip_header_and_records() {
        let (writer, buffer) = JournalWriter::in_memory();
        writer.write_header(&header()).unwrap();
        let r0 = JournalRecord {
            unit: 0,
            lanes: vec![Some(3), None, Some(17)],
        };
        let r1 = JournalRecord {
            unit: 1,
            lanes: vec![None, None],
        };
        writer.append(&r0).unwrap();
        writer.append(&r1).unwrap();
        let journal = read_journal(&buffer_contents(&buffer));
        assert_eq!(journal.header, Some(header()));
        assert_eq!(journal.records, vec![r0, r1]);
        assert_eq!(journal.skipped_lines, 0);
        assert!(journal.validate(&header()).is_ok());
    }

    #[test]
    fn torn_trailing_record_is_skipped_not_fatal() {
        let (writer, buffer) = JournalWriter::in_memory();
        writer.write_header(&header()).unwrap();
        writer
            .append(&JournalRecord {
                unit: 0,
                lanes: vec![Some(1), None],
            })
            .unwrap();
        // Simulate a crash mid-write by hand-truncating the buffer.
        {
            let mut buf = buffer.lock();
            let keep = buf.len();
            buf.extend(b"{\"unit\":1,\"lanes\":[3,nu");
            assert!(buf.len() > keep);
        }
        let journal = read_journal(&buffer_contents(&buffer));
        assert_eq!(journal.records.len(), 1);
        assert_eq!(journal.skipped_lines, 1);
        assert!(journal.validate(&header()).is_ok());
    }

    #[test]
    fn chaos_writer_tears_records_but_never_the_header() {
        let plan = FailurePlan::new(11).with_truncate_rate(1, 1);
        let (writer, buffer) = JournalWriter::in_memory();
        let writer = writer.with_chaos(plan);
        writer.write_header(&header()).unwrap();
        for unit in 0..4 {
            writer
                .append(&JournalRecord {
                    unit,
                    lanes: vec![Some(9); 8],
                })
                .unwrap();
        }
        let journal = read_journal(&buffer_contents(&buffer));
        assert_eq!(journal.header, Some(header()), "header survives chaos");
        assert!(
            journal.records.len() < 4,
            "rate-1/1 truncation must damage some records"
        );
    }

    #[test]
    fn validate_refuses_shape_mismatch_and_missing_header() {
        let (writer, buffer) = JournalWriter::in_memory();
        writer.write_header(&header()).unwrap();
        let journal = read_journal(&buffer_contents(&buffer));
        let mut other = header();
        other.faults = 64;
        assert!(matches!(
            journal.validate(&other),
            Err(ScanftError::Journal { .. })
        ));

        let empty = read_journal("");
        assert!(matches!(
            empty.validate(&header()),
            Err(ScanftError::Journal { .. })
        ));
    }

    #[test]
    fn labels_with_quotes_and_backslashes_round_trip() {
        let tricky = JournalHeader {
            label: "pa\\th \"x\"".into(),
            faults: 1,
            units: 1,
            order: 1,
            lanes_per_unit: 64,
        };
        let (writer, buffer) = JournalWriter::in_memory();
        writer.write_header(&tricky).unwrap();
        let journal = read_journal(&buffer_contents(&buffer));
        assert_eq!(journal.header, Some(tricky));
    }

    #[test]
    fn repair_keeps_an_intact_journal_with_control_characters_in_its_label() {
        // A served job's label comes from a client header, which may hold a
        // tab. Reading it back must decode every escape, or repair rebuilds
        // the header from a mangled label and rewrites an intact file.
        let path = temp_path("repair-label");
        std::fs::remove_file(&path).ok();
        let labelled = JournalHeader {
            label: "a\tb\u{000b}c".into(),
            ..header()
        };
        let record = JournalRecord {
            unit: 0,
            lanes: vec![Some(1), None],
        };
        {
            let writer = JournalWriter::create(&path).unwrap();
            writer.write_header(&labelled).unwrap();
            writer.append(&record).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let repaired = repair_journal(&path).unwrap();
        assert_eq!(repaired.header, Some(labelled));
        assert_eq!(repaired.records, vec![record]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "intact file rewritten"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_header_without_lanes_per_unit_defaults_to_64() {
        // Journals written before the field existed must keep resuming.
        let text = "{\"journal\":\"scanft-campaign\",\"version\":1,\"label\":\"lion\",\"faults\":120,\"units\":2,\"order\":18}\n";
        let journal = read_journal(text);
        assert_eq!(journal.header, Some(header()));
        assert!(journal.validate(&header()).is_ok());
    }

    #[test]
    fn empty_lanes_and_garbage_lines() {
        let text = "\n\nnot json\n{\"unit\":5,\"lanes\":[]}\n{\"unit\":bad}\n";
        let journal = read_journal(text);
        assert_eq!(
            journal.records,
            vec![JournalRecord {
                unit: 5,
                lanes: vec![]
            }]
        );
        assert_eq!(journal.skipped_lines, 2);
    }

    fn temp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("scanft-{tag}-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn tailer_yields_only_new_complete_lines() {
        let path = temp_path("tail-basic");
        std::fs::remove_file(&path).ok();
        let mut tailer = JournalTailer::new(&path);
        // Polling before the file exists is not an error.
        assert!(tailer.poll().unwrap().is_empty());

        let writer = JournalWriter::create(&path).unwrap();
        writer.write_header(&header()).unwrap();
        writer
            .append(&JournalRecord {
                unit: 0,
                lanes: vec![Some(3), None],
            })
            .unwrap();
        let lines = tailer.poll().unwrap();
        assert_eq!(lines.len(), 2, "header plus one record");
        assert!(lines[0].contains("scanft-campaign"));

        // No new writes → empty poll, offset unchanged.
        let offset = tailer.offset();
        assert!(tailer.poll().unwrap().is_empty());
        assert_eq!(tailer.offset(), offset);

        writer
            .append(&JournalRecord {
                unit: 1,
                lanes: vec![None],
            })
            .unwrap();
        let (records, skipped) = tailer.poll_records().unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].unit, 1);
        std::fs::remove_file(&path).ok();
    }

    /// The satellite regression: tailing a journal mid-torn-write must
    /// never yield a partial record. A record written without its trailing
    /// newline stays invisible to the tailer until the newline arrives,
    /// at which point the *whole* line is delivered exactly once.
    #[test]
    fn tailer_never_yields_partial_record_mid_torn_write() {
        use std::io::Write as _;
        let path = temp_path("tail-torn");
        std::fs::remove_file(&path).ok();
        let full = "{\"unit\":7,\"lanes\":[3,null,9]}\n";
        let mut tailer = JournalTailer::new(&path);
        {
            let mut file = std::fs::File::create(&path).unwrap();
            // Crash mid-record: only half the line reaches the file.
            file.write_all(&full.as_bytes()[..13]).unwrap();
            file.flush().unwrap();
        }
        assert!(
            tailer.poll().unwrap().is_empty(),
            "an unterminated line must stay unread"
        );
        {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(&full.as_bytes()[13..]).unwrap();
        }
        let (records, skipped) = tailer.poll_records().unwrap();
        assert_eq!(skipped, 0, "the completed line parses whole");
        assert_eq!(
            records,
            vec![JournalRecord {
                unit: 7,
                lanes: vec![Some(3), None, Some(9)],
            }]
        );
        // Delivered exactly once.
        assert!(tailer.poll().unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A line torn *permanently* (the writer died and a new record follows
    /// it) is delivered as a damaged line and counted, never spliced into
    /// its successor.
    #[test]
    fn tailer_counts_permanently_torn_lines() {
        use std::io::Write as _;
        let path = temp_path("tail-dead");
        std::fs::remove_file(&path).ok();
        let mut tailer = JournalTailer::new(&path);
        {
            let mut file = std::fs::File::create(&path).unwrap();
            file.write_all(b"{\"unit\":0,\"lanes\":[1,nu\n").unwrap();
            file.write_all(b"{\"unit\":1,\"lanes\":[4]}\n").unwrap();
        }
        let (records, skipped) = tailer.poll_records().unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(
            records,
            vec![JournalRecord {
                unit: 1,
                lanes: vec![Some(4)],
            }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_before_flush_tears_the_line_and_kills_the_writer() {
        // Find a (seed, index-0) BeforeFlush crash so the test is exact.
        let plan = (0..)
            .map(|seed| FailurePlan::new(seed).with_crash_rate(1, 1))
            .find(|p| p.crash_point(0) == Some(CrashPoint::BeforeFlush))
            .unwrap();
        let (writer, buffer) = JsonlWriter::in_memory();
        let writer = writer.with_chaos(plan);
        writer.write_line_whole("{\"header\":true}").unwrap();
        writer
            .write_line("{\"unit\":0,\"lanes\":[1,2,3,4]}")
            .unwrap();
        assert!(writer.is_dead());
        // Every later write — counted or whole — is dropped.
        writer.write_line("{\"unit\":1,\"lanes\":[5]}").unwrap();
        writer.write_line_whole("{\"header\":true}").unwrap();
        let text = buffer_contents(&buffer);
        assert!(text.starts_with("{\"header\":true}\n"));
        let tail = &text["{\"header\":true}\n".len()..];
        assert!(
            tail.len() < "{\"unit\":0,\"lanes\":[1,2,3,4]}\n".len(),
            "crash-before-flush must leave a strict prefix, got {tail:?}"
        );
        assert!(!tail.contains("\"unit\":1"), "post-crash writes dropped");
        assert_eq!(writer.lines_written(), 2, "attempts still counted");
    }

    #[test]
    fn crash_after_flush_keeps_the_line_whole_then_kills() {
        let plan = (0..)
            .map(|seed| FailurePlan::new(seed).with_crash_rate(1, 1))
            .find(|p| p.crash_point(0) == Some(CrashPoint::AfterFlush))
            .unwrap();
        let (writer, buffer) = JsonlWriter::in_memory();
        let writer = writer.with_chaos(plan);
        writer.write_line("{\"unit\":0,\"lanes\":[7]}").unwrap();
        assert!(writer.is_dead());
        writer.write_line("{\"unit\":1,\"lanes\":[8]}").unwrap();
        assert_eq!(buffer_contents(&buffer), "{\"unit\":0,\"lanes\":[7]}\n");
    }

    #[test]
    fn repair_rewrites_torn_tail_to_header_plus_intact_records() {
        let path = temp_path("repair");
        std::fs::remove_file(&path).ok();
        let intact = JournalRecord {
            unit: 0,
            lanes: vec![Some(3), None],
        };
        {
            let writer = JournalWriter::create(&path).unwrap();
            writer.write_header(&header()).unwrap();
            writer.append(&intact).unwrap();
        }
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(b"{\"unit\":1,\"lanes\":[9,nu").unwrap();
        }
        let repaired = repair_journal(&path).unwrap();
        assert_eq!(repaired.skipped_lines, 1);
        assert_eq!(repaired.records, vec![intact.clone()]);
        // The file now round-trips exactly: header + intact records, no
        // garbage tail, so appending resumes byte-identically.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("9,nu"));
        let reread = read_journal(&text);
        assert_eq!(reread.skipped_lines, 0);
        assert_eq!(reread.records, vec![intact]);
        assert_eq!(reread.header, Some(header()));
        // Repairing a clean file is a no-op.
        let again = repair_journal(&path).unwrap();
        assert_eq!(again.skipped_lines, 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repair_leaves_headerless_files_alone() {
        let path = temp_path("repair-nohdr");
        std::fs::write(&path, "garbage line\n").unwrap();
        let journal = repair_journal(&path).unwrap();
        assert!(journal.header.is_none());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "garbage line\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip_with_append() {
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("scanft-journal-test-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        {
            let writer = JournalWriter::create(&path).unwrap();
            writer.write_header(&header()).unwrap();
            writer
                .append(&JournalRecord {
                    unit: 0,
                    lanes: vec![None],
                })
                .unwrap();
        }
        {
            let writer = JournalWriter::append_to(&path).unwrap();
            writer
                .append(&JournalRecord {
                    unit: 1,
                    lanes: vec![Some(2)],
                })
                .unwrap();
        }
        let journal = read_journal_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.header, Some(header()));
    }
}
