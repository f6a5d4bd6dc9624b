//! A minimal HTTP/1.1 request/response layer over `std::net`.
//!
//! Only what the measurement service needs: request-line + header
//! parsing, `Content-Length` bodies, percent-decoded query strings,
//! plain (unchunked) responses, and HTTP/1.1 persistent connections
//! (`Connection: close` honored, HTTP/1.0 defaults to close). No TLS,
//! no chunked transfer — clients that want more are welcome to put a
//! real proxy in front (docs/SERVING.md has an nginx/caddy recipe).
//!
//! Parsing comes in two shapes: [`try_parse`] is the incremental,
//! buffer-based form the nonblocking event loop feeds — it consumes
//! zero bytes until a full request is buffered, so pipelined requests
//! and partial reads fall out naturally — and [`read_request`] is the
//! blocking convenience wrapper over one `TcpStream` that tests and
//! simple clients use. [`try_parse_response`] is the same parser's
//! client side, which a dist coordinator reads `/batch` answers with.

use std::io::{Read, Write};
use std::net::TcpStream;

use syncperf_core::obs::json;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (`/compute` specs are tiny; dist cuts `/batch` shards to fit).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Method verb (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Path component, percent-decoded (e.g. `/job/abc`).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: String,
    /// Whether the connection may serve another request afterwards:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value for the query parameter `key`.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseFailure {
    /// Malformed request (bad request line, oversized body, …) —
    /// answer 400.
    BadRequest(&'static str),
    /// The request line + headers exceed [`MAX_HEAD_BYTES`] — answer
    /// 431 (Request Header Fields Too Large).
    HeadTooLarge,
    /// The socket timed out or was dropped mid-request — answer 408 if
    /// the connection is still writable.
    Timeout,
    /// The socket closed or idled out before the first request byte —
    /// a keep-alive connection ending between requests; close quietly.
    Idle,
}

impl ParseFailure {
    /// The HTTP status code a parse failure answers with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ParseFailure::BadRequest(_) => 400,
            ParseFailure::HeadTooLarge => 431,
            ParseFailure::Timeout | ParseFailure::Idle => 408,
        }
    }

    /// The error message for the response body.
    #[must_use]
    pub fn message(&self) -> &'static str {
        match self {
            ParseFailure::BadRequest(msg) => msg,
            ParseFailure::HeadTooLarge => "request head too large",
            ParseFailure::Timeout | ParseFailure::Idle => "request timed out",
        }
    }
}

/// Outcome of one parse call over a receive buffer.
#[derive(Debug)]
pub enum ParseStep<T = Request> {
    /// The buffer does not yet hold a complete message; read more.
    Incomplete,
    /// One complete message, plus the number of buffer bytes it
    /// consumed (the caller drains them; any remainder is the start of
    /// the next pipelined message).
    Complete(T, usize),
}

/// Incrementally parses the first request in `buf` without consuming
/// anything. Returns [`ParseStep::Incomplete`] until the head *and*
/// the declared body are fully buffered.
///
/// # Errors
///
/// [`ParseFailure::HeadTooLarge`] once more than [`MAX_HEAD_BYTES`]
/// arrive without a blank line, [`ParseFailure::BadRequest`] for
/// malformed request lines, versions, or oversized bodies.
pub fn try_parse(buf: &[u8]) -> Result<ParseStep, ParseFailure> {
    let Some((head, body_start)) = find_head_end(buf)? else {
        return Ok(ParseStep::Incomplete);
    };
    let parsed = parse_head(&head)?;
    let total = body_start + parsed.content_length;
    let Some(body) = buf.get(body_start..total) else {
        return Ok(ParseStep::Incomplete);
    };
    let (path, query) = match parsed.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (parsed.target.as_str(), ""),
    };
    Ok(ParseStep::Complete(
        Request {
            method: parsed.method,
            path: percent_decode(path),
            query: parse_query(query),
            body: String::from_utf8_lossy(body).into_owned(),
            keep_alive: parsed.keep_alive,
        },
        total,
    ))
}

/// One response as a client reads it.
#[derive(Debug, Clone, Default)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Whether the server keeps the connection open afterwards.
    pub keep_alive: bool,
}

/// Incrementally parses the first response in `buf`: the client side
/// of [`try_parse`], with its head limit and `Content-Length` handling
/// and no body limit.
///
/// # Errors
///
/// As [`try_parse`], for a malformed status line or header.
pub fn try_parse_response(buf: &[u8]) -> Result<ParseStep<ClientResponse>, ParseFailure> {
    let Some((head, body_start)) = find_head_end(buf)? else {
        return Ok(ParseStep::Incomplete);
    };
    let mut lines = head.split("\r\n");
    let mut status_line = lines.next().unwrap_or_default().split_ascii_whitespace();
    let (Some(version), Some(Ok(status))) =
        (status_line.next(), status_line.next().map(str::parse))
    else {
        return Err(ParseFailure::BadRequest("malformed status line"));
    };
    let (len, keep_alive) = scan_headers(version, lines)?;
    // The length is the peer's word: a huge one just never completes.
    let end = body_start.saturating_add(len);
    let Some(body) = buf.get(body_start..end) else {
        return Ok(ParseStep::Incomplete);
    };
    let body = String::from_utf8_lossy(body).into_owned();
    let resp = ClientResponse {
        status,
        body,
        keep_alive,
    };
    Ok(ParseStep::Complete(resp, end))
}

/// The head of the first message in `buf` and the offset its body
/// starts at, once the blank line ending the head is buffered.
fn find_head_end(buf: &[u8]) -> Result<Option<(std::borrow::Cow<'_, str>, usize)>, ParseFailure> {
    match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(end) if end <= MAX_HEAD_BYTES => {
            Ok(Some((String::from_utf8_lossy(&buf[..end]), end + 4)))
        }
        None if buf.len() <= MAX_HEAD_BYTES => Ok(None),
        _ => Err(ParseFailure::HeadTooLarge),
    }
}

/// The request line + headers, parsed but not yet bound to a body.
struct Head {
    method: String,
    target: String,
    keep_alive: bool,
    content_length: usize,
}

/// Parses the request line and headers (`head` excludes the blank
/// line).
fn parse_head(head: &str) -> Result<Head, ParseFailure> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseFailure::BadRequest("malformed request line"));
    };
    let (content_length, keep_alive) = scan_headers(version, lines)?;
    if content_length > MAX_BODY_BYTES {
        return Err(ParseFailure::BadRequest("request body too large"));
    }
    Ok(Head {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        keep_alive,
        content_length,
    })
}

/// Checks a message's HTTP/1.x `version` and reads its header lines:
/// the `Content-Length` (0 when absent), and whether the connection
/// persists afterwards — HTTP/1.1 unless `Connection: close`, HTTP/1.0
/// only with `Connection: keep-alive`.
fn scan_headers<'a>(
    version: &str,
    lines: impl Iterator<Item = &'a str>,
) -> Result<(usize, bool), ParseFailure> {
    if !version.starts_with("HTTP/1.") {
        return Err(ParseFailure::BadRequest("unsupported HTTP version"));
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| ParseFailure::BadRequest("bad Content-Length"))?;
            } else if k.eq_ignore_ascii_case("connection") {
                connection = v.trim().to_ascii_lowercase();
            }
        }
    }
    let keep_alive = if version == "HTTP/1.0" {
        connection == "keep-alive"
    } else {
        connection != "close"
    };
    Ok((content_length, keep_alive))
}

/// Reads and parses one request from `stream`, blocking. Read
/// timeouts must be configured by the caller
/// (`TcpStream::set_read_timeout`).
///
/// # Errors
///
/// [`ParseFailure::BadRequest`] / [`ParseFailure::HeadTooLarge`] for
/// malformed input, [`ParseFailure::Timeout`] when the socket blocks
/// past its timeout or closes early, [`ParseFailure::Idle`] when it
/// does so before the first byte.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseFailure> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    let mut head_seen = false;
    loop {
        // Only attempt a parse once the head terminator has arrived
        // (byte-at-a-time reads mean it can only be a suffix), keeping
        // the per-byte cost constant instead of rescanning the buffer.
        head_seen = head_seen || buf.ends_with(b"\r\n\r\n");
        if head_seen {
            match try_parse(&buf)? {
                ParseStep::Complete(req, _consumed) => return Ok(req),
                ParseStep::Incomplete => {}
            }
        } else if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseFailure::HeadTooLarge);
        }
        // Before the first byte the connection is merely idle (a
        // keep-alive peer that went away); after it, a stall is a
        // genuine mid-request timeout. Byte-at-a-time keeps pipelined
        // follow-up requests in the kernel buffer for the next call.
        let stalled = || {
            if buf.is_empty() {
                ParseFailure::Idle
            } else {
                ParseFailure::Timeout
            }
        };
        match stream.read(&mut byte) {
            Ok(0) => return Err(stalled()),
            Ok(_) => buf.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(stalled()),
        }
    }
}

/// Parses `a=1&b=two` into percent-decoded pairs (valueless keys get
/// an empty value).
#[must_use]
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Decodes `%xx` escapes and `+`-for-space; invalid escapes pass
/// through literally.
#[must_use]
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                if let Some(b) = hex {
                    out.push(b);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response ready to serialize.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value in seconds (backpressure
    /// 503s carry one so clients know when to come back).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A JSON error response with a `{"error": ...}` body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": {}}}\n", json::string(message)),
        )
    }

    /// Attaches a `Retry-After` header (seconds).
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// The reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `resp` to wire bytes, advertising whether the server
/// will keep the connection open for another request. The event loop
/// queues these bytes on its per-connection write buffer.
#[must_use]
pub fn render_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(resp.body.as_bytes());
    out
}

/// Serializes `resp` onto `stream` (best-effort; a dead client is not
/// an error worth propagating), blocking form of [`render_response`].
pub fn write_response(stream: &mut TcpStream, resp: &Response, keep_alive: bool) {
    let _ = stream.write_all(&render_response(resp, keep_alive));
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_decode() {
        let q = parse_query("kernel=omp_barrier&threads=8&label=a+b%2Fc&flag");
        assert_eq!(q[0], ("kernel".into(), "omp_barrier".into()));
        assert_eq!(q[1], ("threads".into(), "8".into()));
        assert_eq!(q[2], ("label".into(), "a b/c".into()));
        assert_eq!(q[3], ("flag".into(), String::new()));
    }

    #[test]
    fn percent_decoding_tolerates_garbage() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("a+b"), "a b");
    }

    #[test]
    fn request_param_lookup() {
        let req = Request {
            query: parse_query("a=1&b=2&a=3"),
            ..Request::default()
        };
        assert_eq!(req.query_param("a"), Some("1"));
        assert_eq!(req.query_param("b"), Some("2"));
        assert_eq!(req.query_param("c"), None);
    }

    #[test]
    fn responses_have_reasons() {
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(431), "Request Header Fields Too Large");
        assert_eq!(reason(599), "Unknown");
        let r = Response::error(404, "no such \"job\"");
        assert!(r.body.contains("\\\"job\\\""));
    }

    #[test]
    fn incremental_parse_handles_partial_and_pipelined_input() {
        let raw = b"POST /compute?x=1 HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\nGET /healthz HTTP/1.1\r\n\r\n";
        // Every prefix short of the full first request is Incomplete.
        for cut in [0, 5, 30, 52, 57] {
            assert!(
                matches!(try_parse(&raw[..cut]), Ok(ParseStep::Incomplete)),
                "cut at {cut} must be incomplete"
            );
        }
        let ParseStep::Complete(req, consumed) = try_parse(raw).unwrap() else {
            panic!("full buffer parses")
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compute");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        // The pipelined follow-up parses from the remainder.
        let ParseStep::Complete(req2, consumed2) = try_parse(&raw[consumed..]).unwrap() else {
            panic!("pipelined request parses")
        };
        assert_eq!(req2.path, "/healthz");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn responses_parse_incrementally_with_their_keep_alive() {
        let ok = render_response(&Response::text(200, "two\nlines"), true);
        let mut raw = ok.clone();
        raw.extend(render_response(&Response::error(500, "x"), false));
        for cut in [0, 10, ok.len() - 1] {
            assert!(matches!(
                try_parse_response(&raw[..cut]),
                Ok(ParseStep::Incomplete)
            ));
        }
        let Ok(ParseStep::Complete(first, used)) = try_parse_response(&raw) else {
            panic!("a whole response parses")
        };
        assert_eq!((first.status, first.body.as_str()), (200, "two\nlines"));
        assert!(first.keep_alive);
        assert_eq!(used, ok.len());
        let Ok(ParseStep::Complete(second, rest)) = try_parse_response(&raw[used..]) else {
            panic!("the pipelined answer parses")
        };
        assert_eq!(second.status, 500);
        assert!(!second.keep_alive, "Connection: close is read");
        assert_eq!(used + rest, raw.len());
        // A response body has no request-side limit.
        let big = render_response(&Response::text(200, "x".repeat(MAX_BODY_BYTES + 1)), true);
        assert!(matches!(
            try_parse_response(&big),
            Ok(ParseStep::Complete(r, _)) if r.body.len() == MAX_BODY_BYTES + 1
        ));
        let huge = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nx", usize::MAX);
        assert!(matches!(
            try_parse_response(huge.as_bytes()),
            Ok(ParseStep::Incomplete)
        ));
        assert!(try_parse_response(b"HTTP/1.1 OK\r\n\r\n").is_err());
        assert!(try_parse_response(b"SSH-2.0 200\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_heads_fail_with_431() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        let err = try_parse(&raw).unwrap_err();
        assert!(matches!(err, ParseFailure::HeadTooLarge));
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn malformed_requests_fail_with_400() {
        let bad = |raw: &[u8]| match try_parse(raw) {
            Err(ParseFailure::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        };
        bad(b"GARBAGE\r\n\r\n");
        bad(b"GET / HTTP/2.0\r\n\r\n");
        bad(b"GET / HTTP/1.1\r\nContent-Length: potato\r\n\r\n");
        bad(format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .as_bytes());
    }

    #[test]
    fn roundtrip_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            write_response(&mut s, &Response::json(200, req.body.clone()), false);
            req
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(
            b"POST /compute?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .unwrap();
        let req = t.join().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compute");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let mut reply = String::new();
        c.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(reply.contains("Connection: close\r\n"));
        assert!(reply.ends_with("{\"a\": 1}\n"));
    }

    #[test]
    fn retry_after_header_renders() {
        let resp = Response::error(503, "overloaded").with_retry_after(2);
        let bytes = render_response(&resp, false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("HTTP/1.1 503 Service Unavailable\r\n"));
        let plain = render_response(&Response::text(200, "ok"), true);
        assert!(!String::from_utf8(plain).unwrap().contains("Retry-After"));
    }

    /// Parses one request served from a raw byte string.
    fn parse_bytes(raw: &[u8]) -> Result<Request, ParseFailure> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let t = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&raw).unwrap();
        });
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        let req = read_request(&mut s);
        t.join().unwrap();
        req
    }

    #[test]
    fn connection_header_decides_keep_alive() {
        let req = parse_bytes(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(req.keep_alive, "1.1 without Connection header persists");
        let req = parse_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "Connection: close honored");
        let req = parse_bytes(b"GET / HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");
        let req = parse_bytes(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive, "1.0 opts in case-insensitively");
    }

    #[test]
    fn empty_connection_is_idle_not_timeout() {
        assert!(matches!(parse_bytes(b""), Err(ParseFailure::Idle)));
        assert!(matches!(parse_bytes(b"GET"), Err(ParseFailure::Timeout)));
    }
}
