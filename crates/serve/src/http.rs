//! Minimal HTTP/1.1 plumbing over std I/O — just enough protocol for
//! an observability plane: request-line parsing, fixed-length
//! responses, and chunked transfer encoding for event streams. No
//! keep-alive (every response closes the connection), no TLS, no
//! request bodies.

use std::io::{self, BufRead, Read, Write};

/// A parsed request line: method, path, and the raw query string (the
/// part after `?`, if any). Headers are drained but ignored — no
/// endpoint here needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `HEAD`, ...).
    pub method: String,
    /// The decoded-enough path: everything before `?`.
    pub path: String,
    /// The raw query string after `?`, if present.
    pub query: Option<String>,
}

impl Request {
    /// The value of `key` in the query string (`k=v` pairs joined by
    /// `&`; no percent-decoding — the values used here are numbers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Longest request or header line accepted, terminator included. The
/// per-read timeout never fires while bytes keep arriving, so without
/// this bound a peer streaming a newline-free line grows the buffer
/// without limit.
const MAX_LINE: usize = 8192;

fn bad_request(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad request: {what}"))
}

/// Reads one line of at most [`MAX_LINE`] bytes into `line`, returning
/// the bytes read (`0` at end of stream).
fn read_line_bounded(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64 + 1).read_line(line)?;
    if n > MAX_LINE {
        return Err(bad_request("line too long"));
    }
    Ok(n)
}

/// Reads one request head (request line plus headers, up to the blank
/// line) from the stream.
///
/// # Errors
///
/// I/O errors from the underlying stream (including read timeouts),
/// or [`io::ErrorKind::InvalidData`] for a malformed request line or a
/// request or header line longer than 8 KiB.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let mut line = String::new();
    if read_line_bounded(reader, &mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a request line",
        ));
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad_request("empty line"))?;
    let target = parts.next().ok_or_else(|| bad_request("no target"))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/")) {
        return Err(bad_request("missing HTTP version"));
    }
    // Drain headers; cap the count so a hostile peer cannot feed an
    // endless header section.
    for _ in 0..128 {
        let mut header = String::new();
        let n = read_line_bounded(reader, &mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query.to_string())),
        None => (target, None),
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
    })
}

/// Writes a complete fixed-length response and flushes.
///
/// # Errors
///
/// I/O errors from the stream (including write timeouts).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience: a `200 OK` response.
pub fn ok(stream: &mut impl Write, content_type: &str, body: &[u8]) -> io::Result<()> {
    write_response(stream, 200, "OK", content_type, body)
}

/// Convenience: a plain-text `404 Not Found`.
pub fn not_found(stream: &mut impl Write, what: &str) -> io::Result<()> {
    write_response(
        stream,
        404,
        "Not Found",
        "text/plain; charset=utf-8",
        format!("not found: {what}\n").as_bytes(),
    )
}

/// Convenience: a plain-text `405 Method Not Allowed`.
pub fn method_not_allowed(stream: &mut impl Write) -> io::Result<()> {
    write_response(
        stream,
        405,
        "Method Not Allowed",
        "text/plain; charset=utf-8",
        b"method not allowed for this endpoint\n",
    )
}

/// Convenience: a plain-text `500 Internal Server Error`.
pub fn server_error(stream: &mut impl Write, what: &str) -> io::Result<()> {
    write_response(
        stream,
        500,
        "Internal Server Error",
        "text/plain; charset=utf-8",
        format!("error: {what}\n").as_bytes(),
    )
}

/// Starts a chunked (streaming) `200 OK` response; follow with
/// [`write_chunk`] per record and [`finish_chunks`] to end the stream.
///
/// # Errors
///
/// I/O errors from the stream.
pub fn start_chunked(stream: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Writes one chunk (hex length, CRLF, payload, CRLF) and flushes, so
/// every record is visible to the client as soon as it is produced.
///
/// # Errors
///
/// I/O errors from the stream.
pub fn write_chunk(stream: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        // An empty chunk would terminate the stream early.
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Writes the zero-length terminator chunk and flushes.
///
/// # Errors
///
/// I/O errors from the stream.
pub fn finish_chunks(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_request_line_with_query_and_headers() {
        let raw = b"GET /runs/run-0001/events?limit=5 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let request = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/runs/run-0001/events");
        assert_eq!(request.query.as_deref(), Some("limit=5"));
        assert_eq!(request.query_param("limit"), Some("5"));
        assert_eq!(request.query_param("missing"), None);
    }

    #[test]
    fn rejects_a_malformed_request_line() {
        let raw = b"nonsense\r\n\r\n";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_an_oversized_header_line() {
        let mut raw = b"GET /metrics HTTP/1.1\r\nX-Filler: ".to_vec();
        raw.resize(raw.len() + (1 << 20), b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn accepts_a_header_line_at_the_length_limit() {
        let mut raw = b"GET /metrics HTTP/1.1\r\nX-Filler: ".to_vec();
        raw.resize(raw.len() + MAX_LINE - "X-Filler: \r\n".len(), b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let request = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(request.path, "/metrics");
    }

    #[test]
    fn fixed_response_carries_content_length() {
        let mut out = Vec::new();
        ok(&mut out, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn chunked_stream_frames_each_record() {
        let mut out = Vec::new();
        start_chunked(&mut out, "application/x-ndjson").unwrap();
        write_chunk(&mut out, b"{\"a\":1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // no-op, not a terminator
        finish_chunks(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
