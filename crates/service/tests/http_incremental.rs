//! Split-invariance properties for the resumable HTTP request parser:
//! fed a byte stream in **any split**, `RequestParser` must produce
//! exactly the requests — and exactly the errors — it produces when the
//! whole stream arrives in one feed (the unit tests in `http.rs` pin
//! what that one feed decodes and every error text). Covers a
//! generative corpus of valid requests across random chunkings,
//! pipelined back-to-back requests on one stream, torn-header/torn-body
//! truncations at every byte position, a malformed-input gauntlet, and
//! random byte mutations. The parser must never panic on any input.

use kgae_service::http::{self, Parsed, Request, RequestParser};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference: the first request of `bytes` from one feed of the
/// whole stream, or the end-of-stream verdict.
fn whole_parse(bytes: &[u8]) -> Result<Request, http::HttpError> {
    let mut parser = RequestParser::new();
    match parser.feed(bytes)? {
        (_, Parsed::Complete(request)) => Ok(request),
        (_, Parsed::NeedMore) => Err(parser.eof()),
    }
}

/// Drive the resumable parser over `bytes` delivered in the given
/// chunk sizes (a final oversized chunk flushes the remainder), then
/// report the outcome of the *first* message: `Ok(Ok(request))`,
/// `Ok(Err(feed error))`, or `Err(eof verdict)` when the stream ended
/// mid-message.
fn incremental_parse(
    bytes: &[u8],
    chunks: &[usize],
) -> Result<Result<Request, http::HttpError>, http::HttpError> {
    let mut parser = RequestParser::new();
    let mut at = 0;
    let mut chunk_sizes = chunks.iter().copied().chain(std::iter::repeat(usize::MAX));
    while at < bytes.len() {
        let take = chunk_sizes.next().unwrap().min(bytes.len() - at);
        if take == 0 {
            continue;
        }
        let mut window = &bytes[at..at + take];
        at += take;
        // A window may span a request boundary: feed the remainder to
        // the (reset) parser, like the reactor's spillover buffer.
        while !window.is_empty() {
            match parser.feed(window) {
                Ok((consumed, Parsed::Complete(request))) => {
                    assert!(consumed <= window.len(), "consumed beyond the window");
                    return Ok(Ok(request));
                }
                Ok((consumed, Parsed::NeedMore)) => {
                    assert_eq!(
                        consumed,
                        window.len(),
                        "NeedMore must consume the whole window"
                    );
                    window = &window[consumed..];
                }
                Err(e) => return Ok(Err(e)),
            }
        }
    }
    Err(parser.eof())
}

/// Errors are compared by rendered text: variant plus the exact
/// human-readable reason must match the one-feed decode's.
fn err_text(e: &http::HttpError) -> String {
    e.to_string()
}

fn assert_equivalent(bytes: &[u8], chunks: &[usize], context: &str) {
    let reference = whole_parse(bytes);
    let incremental = incremental_parse(bytes, chunks);
    match (reference, incremental) {
        (Ok(want), Ok(Ok(got))) => {
            assert_eq!(got.method, want.method, "{context}: method diverged");
            assert_eq!(got.path, want.path, "{context}: path diverged");
            assert_eq!(got.body, want.body, "{context}: body diverged");
            assert_eq!(
                got.keep_alive, want.keep_alive,
                "{context}: keep_alive diverged"
            );
        }
        (Err(want), Ok(Err(got))) | (Err(want), Err(got)) => {
            assert_eq!(err_text(&got), err_text(&want), "{context}: error diverged");
        }
        (Ok(want), Ok(Err(got))) => {
            panic!("{context}: one feed parsed {want:?}, incremental errored {got}")
        }
        (Ok(want), Err(got)) => {
            panic!("{context}: one feed parsed {want:?}, incremental hit eof {got}")
        }
        (Err(want), Ok(Ok(got))) => {
            panic!("{context}: one feed errored {want}, incremental parsed {got:?}")
        }
    }
}

/// Random split points for `len` bytes: byte-at-a-time, one big chunk,
/// or a random partition — the shapes readiness events actually take.
fn random_chunks(rng: &mut SmallRng, len: usize) -> Vec<usize> {
    match rng.gen_range(0..4u64) {
        0 => vec![1; len],
        1 => vec![len.max(1)],
        2 => {
            let cut = rng.gen_range(0..=len as u64) as usize;
            vec![cut, len - cut]
        }
        _ => {
            let mut chunks = Vec::new();
            let mut left = len;
            while left > 0 {
                let take = rng.gen_range(1..=(left.min(19)) as u64) as usize;
                chunks.push(take);
                left -= take;
            }
            chunks
        }
    }
}

/// A generative valid-ish request: varied methods, query strings,
/// header shapes, line endings, bodies and keep-alive modes. A slice
/// of the generated cases is deliberately on the edge (HTTP/1.0,
/// multiple trailing CRs, padded spacing) — valid in one split iff
/// valid in every other.
fn random_request(rng: &mut SmallRng) -> Vec<u8> {
    let method = ["GET", "POST", "DELETE", "get", "Po st"][rng.gen_range(0..5u64) as usize];
    let path = [
        "/healthz",
        "/v1/sessions/abc/labels",
        "/v1/sessions?limit=5",
        "/",
        "/x%20y",
    ][rng.gen_range(0..5u64) as usize];
    let version = ["HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..2u64) as usize];
    let eol = ["\r\n", "\n", "\r\r\n"][rng.gen_range(0..3u64) as usize];
    let mut message = format!("{method} {path} {version}{eol}").into_bytes();
    let body_len = rng.gen_range(0..200u64) as usize;
    if body_len > 0 || rng.gen_bool(0.3) {
        message.extend_from_slice(format!("Content-Length: {body_len}{eol}").as_bytes());
    }
    if rng.gen_bool(0.5) {
        let conn = ["close", "keep-alive", "Keep-Alive , close"][rng.gen_range(0..3u64) as usize];
        message.extend_from_slice(format!("Connection: {conn}{eol}").as_bytes());
    }
    for i in 0..rng.gen_range(0..4u64) {
        message.extend_from_slice(format!("X-Extra-{i}:  padded value {eol}").as_bytes());
    }
    message.extend_from_slice(eol.as_bytes());
    for _ in 0..body_len {
        message.push(rng.gen_range(0..=255u8));
    }
    message
}

#[test]
fn valid_requests_parse_identically_across_random_splits() {
    let mut rng = SmallRng::seed_from_u64(0x11770);
    for case in 0..600 {
        let message = random_request(&mut rng);
        let chunks = random_chunks(&mut rng, message.len());
        assert_equivalent(&message, &chunks, &format!("case {case} chunks {chunks:?}"));
    }
}

#[test]
fn pipelined_requests_decode_in_order_across_random_splits() {
    let mut rng = SmallRng::seed_from_u64(0xBACC);
    for case in 0..200 {
        let count = rng.gen_range(2..6u64) as usize;
        let messages: Vec<Vec<u8>> = (0..count).map(|_| random_request(&mut rng)).collect();
        let stream: Vec<u8> = messages.concat();

        // Reference: decode the pipeline sequentially, each request
        // from one feed of the rest of the stream.
        let mut reference: Vec<Result<Request, http::HttpError>> = Vec::new();
        let mut parser = RequestParser::new();
        let mut rest = &stream[..];
        while reference.len() < count {
            match parser.feed(rest) {
                Ok((consumed, Parsed::Complete(request))) => {
                    reference.push(Ok(request));
                    rest = &rest[consumed..];
                }
                Ok((_, Parsed::NeedMore)) => {
                    reference.push(Err(parser.eof()));
                    break;
                }
                Err(e) => {
                    reference.push(Err(e));
                    break;
                }
            }
        }

        // Incremental: one parser, random chunking, spillover re-fed
        // after each completion — the reactor's exact loop.
        let mut parser = RequestParser::new();
        let mut decoded: Vec<Result<Request, http::HttpError>> = Vec::new();
        let mut poisoned = false;
        let mut at = 0;
        'stream: while at < stream.len() && decoded.len() < count {
            let take = rng.gen_range(1..=(stream.len() - at).min(37) as u64) as usize;
            let mut window = &stream[at..at + take];
            at += take;
            while !window.is_empty() {
                match parser.feed(window) {
                    Ok((consumed, Parsed::Complete(request))) => {
                        decoded.push(Ok(request));
                        window = &window[consumed..];
                    }
                    Ok((consumed, Parsed::NeedMore)) => {
                        assert_eq!(consumed, window.len());
                        window = &window[consumed..];
                    }
                    Err(e) => {
                        decoded.push(Err(e));
                        poisoned = true;
                        break 'stream;
                    }
                }
            }
        }

        for (i, (want, got)) in reference.iter().zip(decoded.iter()).enumerate() {
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(got.method, want.method, "case {case} msg {i}");
                    assert_eq!(got.path, want.path, "case {case} msg {i}");
                    assert_eq!(got.body, want.body, "case {case} msg {i}");
                    assert_eq!(got.keep_alive, want.keep_alive, "case {case} msg {i}");
                }
                (Err(want), Err(got)) => {
                    assert_eq!(err_text(got), err_text(want), "case {case} msg {i}");
                }
                _ => panic!("case {case} msg {i}: {want:?} vs {got:?}"),
            }
        }
        // A poisoned stream legitimately stops early; otherwise every
        // pipelined message must have come through.
        if !poisoned {
            assert_eq!(decoded.len(), count, "case {case} lost pipelined requests");
        }
    }
}

#[test]
fn truncations_match_the_one_feed_verdict_at_every_byte() {
    // A deterministic corpus hitting each parser section: request
    // line, headers, header/body boundary, body.
    let corpus: &[&[u8]] = &[
        b"GET /healthz HTTP/1.1\r\n\r\n",
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"id\":\"x\"}!",
        b"DELETE /v1/sessions/a%7A HTTP/1.0\r\nConnection: keep-alive\r\nX-Pad: y\r\n\r\n",
        b"POST /n HTTP/1.1\nContent-Length: 3\n\nabc",
    ];
    let mut rng = SmallRng::seed_from_u64(0x7047);
    for (which, message) in corpus.iter().enumerate() {
        for cut in 0..=message.len() {
            let torn = &message[..cut];
            let chunks = random_chunks(&mut rng, torn.len());
            assert_equivalent(
                torn,
                &chunks,
                &format!("corpus {which} torn at {cut} chunks {chunks:?}"),
            );
        }
    }
}

#[test]
fn malformed_and_oversized_inputs_error_identically() {
    let big_line = {
        let mut line = Vec::from(&b"GET /"[..]);
        line.extend(std::iter::repeat_n(b'a', http::MAX_LINE * 2));
        line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        line
    };
    let many_headers = {
        let mut message = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        for i in 0..http::MAX_HEADERS + 1 {
            message.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        message.extend_from_slice(b"\r\n");
        message
    };
    let malformed_101st = {
        // The 101st header is garbage: a line is applied before the
        // count check, so Malformed must win over TooLarge — in every
        // split.
        let mut message = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        for i in 0..http::MAX_HEADERS {
            message.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        message.extend_from_slice(b"no colon here\r\n\r\n");
        message
    };
    let mut cases: Vec<Vec<u8>> = vec![
        b"\r\n".to_vec(),
        b"BLARGH\r\n\r\n".to_vec(),
        b"GET / HTTP/2.0\r\n\r\n".to_vec(),
        b"GET relative HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nContent-Length: soon\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nno colon\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nX-Bin: \xff\xfe\r\n\r\n".to_vec(),
        big_line,
        many_headers,
        malformed_101st,
    ];
    // Byte-level mutations of a valid request: anything goes, as long
    // as every split agrees and none panics.
    let mut rng = SmallRng::seed_from_u64(0xF1A2);
    let seed: &[u8] = b"POST /v1/sessions/s1/labels HTTP/1.1\r\nContent-Length: 16\r\nConnection: keep-alive\r\n\r\n{\"labels\":[true]";
    for _ in 0..400 {
        let mut mutated = seed.to_vec();
        for _ in 0..rng.gen_range(1..=4u64) {
            let i = rng.gen_range(0..mutated.len() as u64) as usize;
            mutated[i] = rng.gen_range(0..=255u8);
        }
        cases.push(mutated);
    }
    for (which, case) in cases.iter().enumerate() {
        let chunks = random_chunks(&mut rng, case.len());
        assert_equivalent(case, &chunks, &format!("case {which} chunks {chunks:?}"));
    }
}

#[test]
fn parser_resets_cleanly_between_messages() {
    // After a completed request the parser must be indistinguishable
    // from a fresh one: headers, body state and keep-alive flags from
    // message N must not leak into message N+1.
    let first = b"POST /a HTTP/1.0\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
    let second = b"GET /b HTTP/1.1\r\n\r\n";
    let mut parser = RequestParser::new();
    let (consumed, parsed) = parser.feed(first).unwrap();
    assert_eq!(consumed, first.len());
    let Parsed::Complete(req) = parsed else {
        panic!("first message incomplete")
    };
    assert_eq!(req.body, b"hello");
    assert!(req.keep_alive, "HTTP/1.0 + keep-alive header stays open");
    assert!(parser.is_idle(), "parser must be idle between messages");

    let (consumed, parsed) = parser.feed(second).unwrap();
    assert_eq!(consumed, second.len());
    let Parsed::Complete(req) = parsed else {
        panic!("second message incomplete")
    };
    assert_eq!(req.method, "GET");
    assert_eq!(req.path, "/b");
    assert!(req.body.is_empty(), "no stale body leaked");
    assert!(req.keep_alive, "HTTP/1.1 default restored");
    assert!(
        matches!(parser.eof(), http::HttpError::Closed),
        "eof between messages is a clean close"
    );
}
