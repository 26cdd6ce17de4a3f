//! Minimal HTTP/1.1 over `std::net`: exactly the subset the session
//! service speaks — `GET`/`POST`/`DELETE`, JSON bodies with
//! `Content-Length`, and keep-alive connection reuse. Both directions
//! live here so the server ([`crate::server`]) and the `kgae-client`
//! crate parse the wire identically.
//!
//! Requests are decoded by [`RequestParser`], the **resumable** decoder
//! the readiness reactor ([`crate::reactor`]) drives: it consumes
//! whatever bytes have arrived, carries partial request-line/header/body
//! state across readiness events, and enforces every limit
//! incrementally. Feeding it the same bytes in any split produces the
//! same requests and the same errors (property-tested). Responses are
//! read by the blocking [`read_response`], over a [`BufRead`] stream.
//!
//! Hard limits protect the server from hostile peers: 8 KiB per line,
//! 100 headers, 8 MiB bodies. Anything outside the subset (chunked
//! transfer encoding, upgrades) is rejected loudly rather than
//! half-supported.

use std::io::{BufRead, Read, Write};

/// Maximum length of the request line or any header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers per message.
pub const MAX_HEADERS: usize = 100;
/// Maximum body size in bytes (snapshot hex dumps stay well below).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Why reading an HTTP message failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a message started — the
    /// normal end of a keep-alive session.
    Closed,
    /// The socket's read timeout fired before the first byte of a new
    /// message. No data was consumed, so the caller may keep waiting
    /// (servers use short timeouts as shutdown-check ticks) or close
    /// the idle connection.
    IdleTimeout,
    /// Transport failure mid-message.
    Io(std::io::Error),
    /// The bytes are not the HTTP subset this module speaks. The
    /// payload is a human-readable reason.
    Malformed(&'static str),
    /// A line, header count or body exceeded its hard limit.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::IdleTimeout => write!(f, "idle timeout before a new message"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
            HttpError::Malformed(why) => write!(f, "malformed HTTP message: {why}"),
            HttpError::TooLarge(what) => write!(f, "HTTP message too large: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// An incoming request, decoded.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Absolute path, without query string.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// A decoded response (client side).
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Seconds from the `Retry-After` header, when the server sent one
    /// (quota and drain refusals do).
    pub retry_after: Option<u64>,
}

fn read_line<R: BufRead>(reader: &mut R, first: bool) -> Result<String, HttpError> {
    let mut line = Vec::with_capacity(64);
    loop {
        let n = match reader
            .by_ref()
            .take((MAX_LINE - line.len()) as u64)
            .read_until(b'\n', &mut line)
        {
            Ok(n) => n,
            // A timeout before any byte of a *new* message leaves the
            // stream positioned cleanly; report it as idleness rather
            // than a transport failure. Mid-message timeouts cannot be
            // resynchronized and stay hard errors.
            Err(e)
                if first
                    && line.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
            {
                return Err(HttpError::IdleTimeout)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            return if line.is_empty() && first {
                Err(HttpError::Closed)
            } else {
                Err(HttpError::Malformed("unterminated line"))
            };
        }
        if line.last() == Some(&b'\n') {
            break;
        }
        if line.len() >= MAX_LINE {
            return Err(HttpError::TooLarge("line exceeds MAX_LINE"));
        }
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 line"))
}

/// The headers this module interprets, decoded from one header block.
#[derive(Debug, Default)]
struct HeaderBlock {
    content_length: usize,
    close: bool,
    keep: bool,
    retry_after: Option<u64>,
}

/// Folds one non-empty header line into the block — the single header
/// grammar of requests and responses.
fn apply_header_line(headers: &mut HeaderBlock, line: &str) -> Result<(), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed("header line without ':'"));
    };
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim();
    match name.as_str() {
        "content-length" => {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::Malformed("unparseable Content-Length"))?;
            if n > MAX_BODY {
                return Err(HttpError::TooLarge("body exceeds MAX_BODY"));
            }
            headers.content_length = n;
        }
        "transfer-encoding" => {
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported; send Content-Length",
            ));
        }
        "connection" => {
            for token in value.split(',') {
                match token.trim().to_ascii_lowercase().as_str() {
                    "close" => headers.close = true,
                    "keep-alive" => headers.keep = true,
                    _ => {}
                }
            }
        }
        // Seconds form only (the HTTP-date form is not worth a
        // date parser here); unparseable values are ignored rather
        // than fatal — the header is advisory.
        "retry-after" => headers.retry_after = value.parse().ok(),
        _ => {}
    }
    Ok(())
}

fn read_headers<R: BufRead>(reader: &mut R) -> Result<HeaderBlock, HttpError> {
    let mut headers = HeaderBlock::default();
    for count in 0.. {
        if count > MAX_HEADERS {
            return Err(HttpError::TooLarge("more than MAX_HEADERS headers"));
        }
        let line = read_line(reader, false)?;
        if line.is_empty() {
            return Ok(headers);
        }
        apply_header_line(&mut headers, &line)?;
    }
    unreachable!("loop returns or errors")
}

fn read_body<R: BufRead>(reader: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("body shorter than Content-Length")
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(body)
}

/// Decodes `METHOD target HTTP/1.x`. Returns the upper-cased method, the query-stripped absolute path,
/// and whether the version was HTTP/1.1.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("request line without a target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("request line without a version"))?;
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("unsupported HTTP version")),
    };
    let path = target.split('?').next().unwrap_or(target);
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("request target must be absolute"));
    }
    Ok((method.to_ascii_uppercase(), path.to_string(), http11))
}

/// The keep-alive decision for a request: HTTP/1.1
/// defaults open unless `Connection: close`; HTTP/1.0 defaults closed
/// unless `Connection: keep-alive`.
fn request_keep_alive(http11: bool, headers: &HeaderBlock) -> bool {
    if http11 {
        !headers.close
    } else {
        headers.keep
    }
}

/// How a [`RequestParser::feed`] call left the parser.
#[derive(Debug)]
pub enum Parsed {
    /// The fed bytes were consumed (possibly into partial state) and
    /// no request completed yet — wait for more readiness.
    NeedMore,
    /// A complete request was decoded. Bytes after it were **not**
    /// consumed (see the `usize` in [`RequestParser::feed`]'s return) —
    /// they belong to the next pipelined request.
    Complete(Request),
}

/// Which message section [`RequestParser`] is accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParseState {
    RequestLine,
    Headers,
    Body,
}

/// The resumable request decoder: one instance per connection, fed
/// whatever bytes each readiness event delivered. The header grammar,
/// `apply_header_line`, is the one [`read_response`] applies; the unit
/// tests pin every error text, and the `http_incremental` property
/// suite pins that any byte split decodes as one feed does.
///
/// After [`Parsed::Complete`] the parser has reset itself and is ready
/// for the next pipelined request on the same connection. After any
/// `Err` the connection is poisoned — close it.
#[derive(Debug)]
pub struct RequestParser {
    state: ParseState,
    line: Vec<u8>,
    method: String,
    path: String,
    http11: bool,
    headers: HeaderBlock,
    header_lines: usize,
    body: Vec<u8>,
    started: bool,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser positioned before the first byte of a request.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: ParseState::RequestLine,
            line: Vec::with_capacity(64),
            method: String::new(),
            path: String::new(),
            http11: false,
            headers: HeaderBlock::default(),
            header_lines: 0,
            body: Vec::new(),
            started: false,
        }
    }

    /// Whether the parser sits between messages — no byte of a new
    /// request has been consumed. The reactor's keep-alive reaper only
    /// closes connections in this state or stalled ones; a connection
    /// actively streaming a body keeps refreshing its deadline.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        !self.started
    }

    /// Consumes bytes from `input`, advancing the partial-message
    /// state. Returns how many bytes were consumed and whether a
    /// request completed; on completion, unconsumed bytes belong to
    /// the next pipelined request — feed them to the (now reset)
    /// parser again.
    ///
    /// # Errors
    ///
    /// `Malformed` for grammar violations, `TooLarge` for exceeded
    /// limits, the same for the same byte stream in any split. `Closed`/`IdleTimeout`/`Io` never originate here — they
    /// are transport-level conditions (see [`RequestParser::eof`]).
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Parsed), HttpError> {
        let mut consumed = 0;
        while consumed < input.len() {
            match self.state {
                ParseState::RequestLine | ParseState::Headers => {
                    let byte = input[consumed];
                    consumed += 1;
                    self.started = true;
                    self.line.push(byte);
                    if byte == b'\n' {
                        if self.take_line()? {
                            return Ok((consumed, Parsed::Complete(self.complete())));
                        }
                    } else if self.line.len() >= MAX_LINE {
                        return Err(HttpError::TooLarge("line exceeds MAX_LINE"));
                    }
                }
                ParseState::Body => {
                    let want = self.headers.content_length - self.body.len();
                    let take = want.min(input.len() - consumed);
                    self.body
                        .extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if self.body.len() == self.headers.content_length {
                        return Ok((consumed, Parsed::Complete(self.complete())));
                    }
                }
            }
        }
        Ok((consumed, Parsed::NeedMore))
    }

    /// Finishes the just-terminated line in `self.line`. Returns `true`
    /// when the whole message is complete (headers ended with no body
    /// owed).
    fn take_line(&mut self) -> Result<bool, HttpError> {
        // Same trailing-terminator trim as the blocking `read_line`.
        while matches!(self.line.last(), Some(b'\n' | b'\r')) {
            self.line.pop();
        }
        let line = std::str::from_utf8(&self.line)
            .map_err(|_| HttpError::Malformed("non-UTF-8 line"))?
            .to_string();
        self.line.clear();
        match self.state {
            ParseState::RequestLine => {
                let (method, path, http11) = parse_request_line(&line)?;
                self.method = method;
                self.path = path;
                self.http11 = http11;
                self.state = ParseState::Headers;
                Ok(false)
            }
            ParseState::Headers => {
                if line.is_empty() {
                    if self.headers.content_length == 0 {
                        return Ok(true);
                    }
                    self.state = ParseState::Body;
                    self.body.reserve(self.headers.content_length);
                    return Ok(false);
                }
                self.header_lines += 1;
                // A just-read line is applied *before* the count
                // check, as `read_headers` does, so a malformed 101st
                // header reports Malformed, not TooLarge.
                apply_header_line(&mut self.headers, &line)?;
                if self.header_lines > MAX_HEADERS {
                    return Err(HttpError::TooLarge("more than MAX_HEADERS headers"));
                }
                Ok(false)
            }
            ParseState::Body => unreachable!("body bytes are not line-framed"),
        }
    }

    /// Assembles the finished request and resets for the next one.
    fn complete(&mut self) -> Request {
        let request = Request {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            body: std::mem::take(&mut self.body),
            keep_alive: request_keep_alive(self.http11, &self.headers),
        };
        self.state = ParseState::RequestLine;
        self.line.clear();
        self.http11 = false;
        self.headers = HeaderBlock::default();
        self.header_lines = 0;
        self.started = false;
        request
    }

    /// The error an end-of-stream at the current position means: a
    /// clean [`HttpError::Closed`] between messages, `Malformed` when
    /// the peer died mid-message.
    #[must_use]
    pub fn eof(&self) -> HttpError {
        if !self.started {
            HttpError::Closed
        } else if self.state == ParseState::Body {
            HttpError::Malformed("body shorter than Content-Length")
        } else {
            HttpError::Malformed("unterminated line")
        }
    }
}

/// Reads one response from a connection (client side).
///
/// # Errors
///
/// See [`HttpError`].
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, HttpError> {
    let line = read_line(reader, true)?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("unparseable status code"))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, headers.content_length)?;
    let http11 = version == "HTTP/1.1";
    Ok(Response {
        status,
        body,
        keep_alive: if http11 { !headers.close } else { headers.keep },
        retry_after: headers.retry_after,
    })
}

/// The standard reason phrase for the status codes the service emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete JSON response to bytes — status line, standard
/// headers, any `extra` headers, and the body. The reactor queues these
/// bytes, and callers that need byte-level control of the transmit
/// (fault-injection harnesses writing torn prefixes) share the exact
/// production formatting.
#[must_use]
pub fn format_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, String)],
) -> Vec<u8> {
    format_response_with(status, body, keep_alive, "application/json", extra)
}

/// [`format_response`] with an explicit `Content-Type` — the `/metrics`
/// route answers `text/plain; version=0.0.4` (the Prometheus text
/// exposition type) while everything else stays JSON.
#[must_use]
pub fn format_response_with(
    status: u16,
    body: &str,
    keep_alive: bool,
    content_type: &str,
    extra: &[(&str, String)],
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Writes a JSON request (client side). `body` may be empty (`GET`).
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: kgae\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len(),
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Decodes the first request in `wire` with one feed, or the error
    /// an end of stream after `wire` means.
    fn parse(wire: &[u8]) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        match parser.feed(wire)? {
            (_, Parsed::Complete(request)) => Ok(request),
            (_, Parsed::NeedMore) => Err(parser.eof()),
        }
    }

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/sessions", r#"{"id":"a"}"#).unwrap();
        let req = parse(&wire).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sessions");
        assert_eq!(req.body, br#"{"id":"a"}"#);
        assert!(req.keep_alive);
    }

    #[test]
    fn response_round_trip() {
        let wire = format_response(201, r#"{"ok":true}"#, true, &[]);
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body, br#"{"ok":true}"#);
        assert!(resp.keep_alive);
    }

    #[test]
    fn retry_after_round_trips_and_bad_values_are_ignored() {
        let wire = format_response(
            429,
            r#"{"error":"quota"}"#,
            true,
            &[("Retry-After", "7".to_string())],
        );
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(7));

        let resp = read_response(&mut BufReader::new(
            &b"HTTP/1.1 200 OK\r\nRetry-After: soon\r\nContent-Length: 0\r\n\r\n"[..],
        ))
        .unwrap();
        assert_eq!(resp.retry_after, None);
    }

    #[test]
    fn clean_close_is_distinguished_from_garbage() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(
            parse(b"BLARGH\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    /// Every error the request grammar reports, by its exact text: the
    /// reactor answers these, so a reworded reason is a wire change.
    #[test]
    fn request_error_texts_are_pinned() {
        let long_line = {
            let mut wire = Vec::from(&b"GET /"[..]);
            wire.extend(std::iter::repeat_n(b'a', MAX_LINE * 2));
            wire.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            wire
        };
        let headers = |count: usize, last: &str| {
            let mut wire = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
            for i in 0..count {
                wire.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
            }
            wire.extend_from_slice(format!("{last}\r\n").as_bytes());
            wire
        };
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (b"".to_vec(), "connection closed"),
            (
                b"\r\n".to_vec(),
                "malformed HTTP message: empty request line",
            ),
            (
                b"BLARGH\r\n\r\n".to_vec(),
                "malformed HTTP message: request line without a target",
            ),
            (
                b"GET /\r\n\r\n".to_vec(),
                "malformed HTTP message: request line without a version",
            ),
            (
                b"GET / HTTP/2.0\r\n\r\n".to_vec(),
                "malformed HTTP message: unsupported HTTP version",
            ),
            (
                b"GET relative HTTP/1.1\r\n\r\n".to_vec(),
                "malformed HTTP message: request target must be absolute",
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: soon\r\n\r\n".to_vec(),
                "malformed HTTP message: unparseable Content-Length",
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_vec(),
                "HTTP message too large: body exceeds MAX_BODY",
            ),
            (
                b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
                "malformed HTTP message: Transfer-Encoding is not supported; send Content-Length",
            ),
            (
                b"GET / HTTP/1.1\r\nno colon\r\n\r\n".to_vec(),
                "malformed HTTP message: header line without ':'",
            ),
            (
                b"GET / HTTP/1.1\r\nX-Bin: \xff\xfe\r\n\r\n".to_vec(),
                "malformed HTTP message: non-UTF-8 line",
            ),
            (long_line, "HTTP message too large: line exceeds MAX_LINE"),
            (
                headers(MAX_HEADERS + 1, ""),
                "HTTP message too large: more than MAX_HEADERS headers",
            ),
            // A garbage 101st header is applied before the count check:
            // Malformed wins over TooLarge.
            (
                headers(MAX_HEADERS, "no colon here"),
                "malformed HTTP message: header line without ':'",
            ),
            (
                b"GET / HTT".to_vec(),
                "malformed HTTP message: unterminated line",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nab".to_vec(),
                "malformed HTTP message: body shorter than Content-Length",
            ),
        ];
        for (wire, want) in cases {
            let got = parse(&wire).expect_err("the request is refused");
            assert_eq!(
                got.to_string(),
                want,
                "{:?}",
                String::from_utf8_lossy(&wire)
            );
        }
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }
}
