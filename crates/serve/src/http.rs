//! A minimal, defensive HTTP/1.1 layer over `TcpStream`.
//!
//! Just enough of RFC 9112 for the JSON-RPC service: request line, headers,
//! `Content-Length` bodies, `Connection: close` responses. Every limit is
//! explicit — header block and body sizes are capped and the socket carries
//! a read timeout before parsing starts — so a slow, malicious or simply
//! confused client can tie up one connection thread for a bounded time and
//! a bounded number of bytes, never the whole service.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum accepted request-line + header block, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body, in bytes. Inline `.sasm` programs are the
/// largest legitimate payload; 4 MiB is orders of magnitude above them.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Lower-cased header names with their trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == &name.to_ascii_lowercase()).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each maps to one response status.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed before sending anything (not an error worth a response).
    Closed,
    /// Malformed request line / headers, or an unsupported framing.
    Bad(String),
    /// Head or body over the configured limits.
    TooLarge,
    /// Socket error or read timeout.
    Io(std::io::Error),
}

/// Reads one request from any byte source (a socket in the daemon, a
/// slice in the properties). The caller is expected to have set a read
/// timeout on a socket; a timeout mid-request surfaces as
/// [`ReadError::Io`]. The head buffer is [`MAX_HEAD`] bytes and the body
/// buffer is exactly the declared `Content-Length` (at most [`MAX_BODY`]),
/// so no allocation grows with what the peer sends beyond those caps.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, ReadError> {
    // Accumulate bytes until the blank line ending the header block.
    let mut head = vec![0u8; MAX_HEAD];
    let mut filled = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&head[..filled]) {
            break pos;
        }
        if filled == MAX_HEAD {
            return Err(ReadError::TooLarge);
        }
        match stream.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Err(ReadError::Closed),
            Ok(0) => return Err(ReadError::Bad("eof inside header block".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(ReadError::Io(e)),
        }
    };
    let rest = &head[head_end..filled];

    let text = String::from_utf8_lossy(&head[..head_end]);
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Bad(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request { method, path, headers, body: Vec::new() };

    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad("chunked bodies are not supported".into()));
    }
    let length: usize = match req.header("content-length") {
        None => 0,
        Some(v) => v.parse().map_err(|_| ReadError::Bad(format!("bad content-length {v:?}")))?,
    };
    if length > MAX_BODY {
        return Err(ReadError::TooLarge);
    }
    // Bytes past the body are pipelined requests: ignored, we always close.
    let early = rest.len().min(length);
    req.body = vec![0u8; length];
    req.body[..early].copy_from_slice(&rest[..early]);
    let mut got = early;
    while got < length {
        match stream.read(&mut req.body[got..]) {
            Ok(0) => return Err(ReadError::Bad("eof inside body".into())),
            Ok(n) => got += n,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(req)
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Writes one `Connection: close` response. Errors are returned for the
/// caller to log; a peer that hung up mid-response costs nothing.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Writes the head of a streaming response (no `Content-Length`; the body
/// is produced incrementally and the connection close delimits it). Used
/// by the `GET /watch/<job>` server-sent-events bridge.
pub fn stream_head(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let out = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ncache-control: no-cache\r\nconnection: close\r\n\r\n"
    );
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Escapes a string for embedding in a JSON document (the workspace's one
/// escaper, `sas_telemetry::json::escape`).
pub use sas_telemetry::json::escape as json_escape;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let req = read_request(&mut stream);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(
            b"POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\nX-Client: alice\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rpc");
        assert_eq!(req.header("x-client"), Some("alice"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(round_trip(b"garbage\r\n\r\n"), Err(ReadError::Bad(_))));
        assert!(matches!(
            round_trip(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(ReadError::TooLarge)
        ));
        assert!(matches!(round_trip(b""), Err(ReadError::Closed)));
    }

    #[test]
    fn json_escape_handles_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
