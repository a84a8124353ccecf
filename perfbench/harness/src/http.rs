//! A minimal HTTP/1.1 client that timestamps what it reads: time to
//! first byte, total time, and the arrival time of each streamed line.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

/// One timed response.
#[derive(Debug)]
pub struct Timed {
    pub status: u16,
    pub body: Vec<u8>,
    pub first_byte_s: f64,
    pub total_s: f64,
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
}

fn send(addr: SocketAddr, path: &str) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    write!(
        writer,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    writer.flush()?;
    Ok(BufReader::new(stream))
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn read_head(reader: &mut BufReader<TcpStream>) -> io::Result<Head> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut head = Head {
        status,
        content_length: None,
        chunked: false,
    };
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(head);
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }
}

/// Reads one chunk; `None` at the terminator.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Vec<u8>>> {
    let mut size = String::new();
    if reader.read_line(&mut size)? == 0 {
        return Err(invalid("stream closed before its terminator chunk".into()));
    }
    let size = usize::from_str_radix(size.trim(), 16)
        .map_err(|_| invalid(format!("bad chunk size {size:?}")))?;
    let mut data = vec![0u8; size + 2];
    reader.read_exact(&mut data)?;
    data.truncate(size);
    Ok((size > 0).then_some(data))
}

/// `GET path`, timing the first response byte and the whole body.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Timed> {
    let started = Instant::now();
    let mut reader = send(addr, path)?;
    reader.fill_buf()?;
    let first_byte_s = started.elapsed().as_secs_f64();
    let head = read_head(&mut reader)?;
    let mut body = Vec::new();
    if head.chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            body.extend_from_slice(&chunk);
        }
    } else if let Some(length) = head.content_length {
        body.resize(length, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(Timed {
        status: head.status,
        body,
        first_byte_s,
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// Tails a chunked NDJSON stream to its end, stamping each line with
/// the instant its chunk was read.
pub fn tail(addr: SocketAddr, path: &str) -> io::Result<Vec<(Instant, String)>> {
    let mut reader = send(addr, path)?;
    let head = read_head(&mut reader)?;
    if head.status != 200 || !head.chunked {
        return Err(invalid(format!("event stream answered {}", head.status)));
    }
    let mut lines = Vec::new();
    let mut pending = String::new();
    while let Some(chunk) = read_chunk(&mut reader)? {
        let arrived = Instant::now();
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(end) = pending.find('\n') {
            let line: String = pending.drain(..=end).collect();
            lines.push((arrived, line.trim_end().to_string()));
        }
    }
    Ok(lines)
}
