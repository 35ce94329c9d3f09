//! Reader for `GET /jobs/:id/events`, timestamping the stream's milestones.
//!
//! The server answers with a close-delimited JSONL body: the campaign
//! journal's header line, then one record per completed work unit. The
//! reader notes when the first complete unit record arrived and when the
//! server closed the stream, reading the clock right after the `read` that
//! delivered each.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One events stream as read off the wire.
#[derive(Debug)]
pub struct EventStream<T> {
    /// HTTP status of the response.
    pub status: u16,
    /// Body lines (journal JSONL), in arrival order.
    pub lines: Vec<String>,
    /// Body bytes received.
    pub body_bytes: usize,
    /// Clock reading at the read that completed the first unit record.
    pub first_unit_at: Option<T>,
    /// Clock reading at the read that saw the server close the stream.
    pub closed_at: T,
}

fn is_unit_record(line: &str) -> bool {
    line.starts_with("{\"unit\":")
}

/// Reads a whole close-delimited HTTP response from `reader`, calling
/// `now` after every `read` and keeping the readings of the first
/// completed unit record and of the close.
///
/// # Errors
///
/// Read errors, or a response whose head is malformed or never ends.
pub fn read_stream<R: Read, T: Copy>(
    mut reader: R,
    mut now: impl FnMut() -> T,
) -> io::Result<EventStream<T>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut body_start: Option<usize> = None;
    let mut scanned = 0;
    let mut lines = Vec::new();
    let mut first_unit_at = None;
    let closed_at = loop {
        let n = match reader.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let at = now();
        if n == 0 {
            break at;
        }
        buf.extend_from_slice(&chunk[..n]);
        if body_start.is_none() {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                body_start = Some(p + 4);
                scanned = p + 4;
            }
        }
        if body_start.is_some() {
            while let Some(nl) = buf[scanned..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[scanned..scanned + nl]).into_owned();
                scanned += nl + 1;
                if first_unit_at.is_none() && is_unit_record(&line) {
                    first_unit_at = Some(at);
                }
                lines.push(line);
            }
        }
    };
    let body_start = body_start.ok_or_else(|| bad("response head never ended"))?;
    if scanned < buf.len() {
        // An unterminated last line still counts as received.
        lines.push(String::from_utf8_lossy(&buf[scanned..]).into_owned());
    }
    let head = String::from_utf8_lossy(&buf[..body_start]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    Ok(EventStream {
        status,
        lines,
        body_bytes: buf.len() - body_start,
        first_unit_at,
        closed_at,
    })
}

/// Opens `GET /jobs/<id>/events` on `addr` and reads it to the close.
///
/// # Errors
///
/// Connection or read errors, including a stall longer than `timeout`.
pub fn fetch_events(
    addr: SocketAddr,
    id: &str,
    timeout: Duration,
) -> io::Result<EventStream<Instant>> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream
        .write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: scanft\r\n\r\n").as_bytes())?;
    read_stream(stream, Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `data` in `size`-byte reads, then end of stream.
    struct Chunked<'a> {
        data: &'a [u8],
        size: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.size.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const RESPONSE: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n\
        {\"journal\":\"scanft-campaign\",\"version\":1,\"label\":\"x\",\"faults\":70,\"units\":2,\"order\":3,\"lanes_per_unit\":64}\n\
        {\"unit\":1,\"lanes\":[0,null]}\n\
        {\"unit\":0,\"lanes\":[2,1]}\n";

    #[test]
    fn timestamps_hold_for_every_chunk_size() {
        let data = RESPONSE.as_bytes();
        let first_unit_end =
            RESPONSE.find("{\"unit\":1").unwrap() + "{\"unit\":1,\"lanes\":[0,null]}".len();
        for size in 1..=data.len() {
            let mut reads = 0usize;
            let stream = read_stream(Chunked { data, size }, || {
                reads += 1;
                reads - 1
            })
            .unwrap();
            // Read k delivers bytes [k*size, (k+1)*size); the unit record is
            // complete once its newline has arrived.
            assert_eq!(
                stream.first_unit_at,
                Some(first_unit_end / size),
                "size {size}"
            );
            assert_eq!(stream.closed_at, data.len().div_ceil(size), "size {size}");
            assert_eq!(stream.status, 200);
            assert_eq!(stream.lines.len(), 3);
            assert!(stream.lines[2].starts_with("{\"unit\":0"));
            assert_eq!(
                stream.body_bytes,
                data.len() - RESPONSE.find("\r\n\r\n").unwrap() - 4
            );
        }
    }

    #[test]
    fn a_stream_without_units_has_no_first_unit() {
        let response = "HTTP/1.1 200 OK\r\n\r\n";
        let stream = read_stream(
            Chunked {
                data: response.as_bytes(),
                size: 3,
            },
            || 7,
        )
        .unwrap();
        assert_eq!(stream.first_unit_at, None);
        assert!(stream.lines.is_empty());
        assert_eq!(stream.closed_at, 7);
    }

    #[test]
    fn a_header_line_is_not_a_unit_record() {
        let response = "HTTP/1.1 200 OK\r\n\r\n{\"journal\":\"scanft-campaign\",\"units\":0}\n";
        let stream = read_stream(
            Chunked {
                data: response.as_bytes(),
                size: 5,
            },
            || 1,
        )
        .unwrap();
        assert_eq!(stream.first_unit_at, None);
        assert_eq!(stream.lines.len(), 1);
    }

    #[test]
    fn refusals_and_truncated_heads_are_reported() {
        let refused = "HTTP/1.1 404 Not Found\r\n\r\n{\"error\":{}}";
        let stream = read_stream(
            Chunked {
                data: refused.as_bytes(),
                size: 4,
            },
            || 0,
        )
        .unwrap();
        assert_eq!(stream.status, 404);
        assert_eq!(stream.lines, vec!["{\"error\":{}}".to_owned()]);
        let truncated = "HTTP/1.1 200 OK\r\n";
        assert!(read_stream(
            Chunked {
                data: truncated.as_bytes(),
                size: 4
            },
            || 0
        )
        .is_err());
    }
}
