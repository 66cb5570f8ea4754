//! The crate's one HTTP/1.1 layer: the daemon's frontend, the connection
//! loop the fleet router shares with it, and the codec both directions
//! use — no external dependencies, persistent connections
//! (`Connection: keep-alive`).
//!
//! Routes:
//!
//! * `POST /v1/schedule` — body is one request document, JSON by default
//!   or the binary wire format when `Content-Type:
//!   application/x-batsched-bin` is declared (an unknown media type is a
//!   typed 415 that keeps the connection alive); `Accept:
//!   application/x-batsched-bin` asks for the 200 response in binary
//!   (typed errors stay JSON). Answers `200` (with `X-Cache: hit|miss`),
//!   `400` for client errors, `503` when the queue is full, `500` for
//!   internal failures;
//! * `GET /v1/stats` — the service's counters as JSON;
//! * `GET /v1/metrics` — counters, gauges and latency histograms in
//!   Prometheus text exposition format;
//! * `GET /healthz` — liveness probe: answers 200 whenever the process
//!   can serve HTTP at all;
//! * `GET /readyz` — readiness probe: 503 (with the reasons) while the
//!   disk breaker is open, the worker pool is below target, or shutdown
//!   has begun;
//! * `POST /v1/shutdown` — acknowledges, then stops the acceptor (the
//!   owner's [`HttpServer::wait`] returns so it can drain the service).
//!
//! Every request on `/v1/schedule` carries a trace id: a client-supplied
//! `X-Request-Id` (sane ones are echoed verbatim on the response,
//! including typed errors) or one generated from the body's content hash
//! plus a monotonic sequence. When the service was started with a span
//! log, completing the request emits one structured JSON line with the
//! full stage timing breakdown (see [`crate::trace::Span`]).
//!
//! Each accepted connection runs one request loop, shared with the fleet
//! router: HTTP/1.1 connections are kept alive by default (HTTP/1.0 ones
//! only on an explicit `Connection: keep-alive`), bounded by
//! [`ServiceConfig::max_requests_per_conn`] and a
//! [`ServiceConfig::idle_timeout`] between requests (defaults
//! [`MAX_REQUESTS_PER_CONNECTION`] and [`IDLE_TIMEOUT`], which the router
//! uses). Framing is strict, because on a shared connection a parsing
//! slip desynchronises every later request: premature EOF anywhere in a
//! request, a duplicate/conflicting `Content-Length` and any
//! `Transfer-Encoding` are answered with a typed error and a lingering
//! close — the server never guesses where the next request starts.
//!
//! The client side — [`write_request`] and [`read_response`] — applies
//! the same head budget and `Content-Length` rules to responses. The
//! router's upstream exchange and readiness probe use it, and so do the
//! load generator and the tests.
//!
//! The acceptor polls a non-blocking listener so shutdown needs no
//! self-connection trick; each accepted connection is handled on its own
//! thread (the worker pool, not the connection count, bounds solving
//! concurrency — the queue provides the backpressure).

#[cfg(doc)]
use crate::service::ServiceConfig;
use crate::service::{Disposition, Service};
use crate::trace::{self, Span};
use crate::wire::{ErrorResponse, ScheduleResponse};
use crate::wire_bin::{self, WireFormat};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted message body, request or response (an n=50, m=8
/// instance is ~60 KB; this leaves two orders of magnitude of headroom
/// without letting one peer balloon memory).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted message head (start line + headers). Everything a
/// connection can make either side buffer is capped: head lines are read
/// through a shrinking byte budget, so a peer streaming newline-free
/// garbage cannot grow memory past it.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Default for [`ServiceConfig::max_requests_per_conn`]: requests served
/// on one connection before the daemon closes it (announced with
/// `Connection: close` on the final response). Bounds how long one client
/// can monopolise a connection thread.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// Default for [`ServiceConfig::idle_timeout`]: how long a kept-alive
/// connection may sit idle between requests before the daemon closes it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a framing-violation close waits for the peer to take the
/// typed error response before closing anyway (see [`linger_close`]).
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

const ACCEPT_POLL: Duration = Duration::from_millis(15);
/// Poll granularity while waiting at a request boundary — keeps idle
/// connections responsive to daemon shutdown without busy-waiting.
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Per-read timeout once a request has started arriving.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `Content-Type` of every JSON body.
pub(crate) const JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition.
pub(crate) const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A running HTTP frontend bound to a local address.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections against `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_server(
            "batsched-http",
            listener,
            Arc::clone(&shutdown),
            service.http_limits(),
            Arc::new(move |req: Request, stream: &mut TcpStream| serve_one(req, stream, &service)),
        )?;
        Ok(HttpServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the acceptor to stop after its current poll tick.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the acceptor exits — either [`Self::stop`] was called
    /// or a client hit `POST /v1/shutdown`.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The shared server: accept loop and keep-alive connection loop
// ---------------------------------------------------------------------------

/// What the connection loop does after a handler has answered.
pub(crate) enum Next {
    /// Serve the next request if [`Request::keep_alive`] allowed it.
    Continue,
    /// The response announced `Connection: close`; hang up now.
    Close,
}

/// A server's per-request handler: answers one well-framed request on
/// the stream. Framing errors never reach it — the connection loop
/// answers those.
pub(crate) type Handler = dyn Fn(Request, &mut TcpStream) -> io::Result<Next> + Send + Sync;

/// Starts the acceptor thread `<name>-accept`, which serves `listener`
/// until `shutdown` is set: each connection runs [`serve_connection`] on
/// its own `<name>-conn` thread under `limits` (idle timeout at a request
/// boundary, requests per connection), and the acceptor joins them all
/// before it exits.
pub(crate) fn spawn_server(
    name: &str,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    limits: (Duration, usize),
    handler: Arc<Handler>,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let handler = Arc::clone(&handler);
                        let flag = Arc::clone(&shutdown);
                        if let Ok(h) =
                            std::thread::Builder::new()
                                .name(conn_name.clone())
                                .spawn(move || {
                                    let _ = serve_connection(stream, &flag, limits, &*handler);
                                })
                        {
                            conns.push(h);
                        }
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Reap finished connections here too: an idle or
                        // slow-trickle workload otherwise accumulates exited
                        // JoinHandles until the next successful accept.
                        conns.retain(|h| !h.is_finished());
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            for h in conns {
                let _ = h.join();
            }
        })
}

/// The keep-alive request loop of one connection: wait at the request
/// boundary, frame one request, hand it to `handler`, repeat while both
/// sides agree. A framing error is answered here — typed 400/413/501,
/// then a lingering close.
fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    (idle_timeout, max_requests): (Duration, usize),
    handler: &Handler,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Small responses on a kept-alive connection: without NODELAY, Nagle
    // batches the next response behind the previous ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut served = 0usize;

    loop {
        // Wait at the request boundary: EOF or idle timeout here is a
        // clean close, not an error. Poll in short read-timeout ticks so
        // a shutdown doesn't wait out the whole idle window.
        let mut idled = Duration::ZERO;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            stream.set_read_timeout(Some(IDLE_POLL))?;
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // peer closed between requests
                Ok(_) => break,          // first bytes of the next request
                Err(e) if is_timeout(&e) => {
                    idled += IDLE_POLL;
                    if idled >= idle_timeout {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // A request is arriving: per-read timeout from here on.
        stream.set_read_timeout(Some(IO_TIMEOUT))?;

        served += 1;
        let (status, code, msg) = match read_request(&mut reader) {
            Ok(mut req) => {
                req.keep_alive &= served < max_requests && !shutdown.load(Ordering::SeqCst);
                let keep_alive = req.keep_alive;
                // Liveness and shutdown mean the same on every server;
                // everything else is the handler's.
                let next = match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/healthz") => {
                        let echo = req.echo_header();
                        let ok = br#"{"ok":true}"#;
                        write_response(&mut stream, 200, JSON, ok, echo.as_slice(), keep_alive)?;
                        Next::Continue
                    }
                    ("POST", "/v1/shutdown") => {
                        let echo = req.echo_header();
                        let ack = br#"{"ok":true,"shutting_down":true}"#;
                        write_response(&mut stream, 200, JSON, ack, echo.as_slice(), false)?;
                        shutdown.store(true, Ordering::SeqCst);
                        Next::Close
                    }
                    _ => handler(req, &mut stream)?,
                };
                // Continue the loop only when both sides agreed to keep going.
                if matches!(next, Next::Close) || !keep_alive {
                    return Ok(());
                }
                continue;
            }
            Err(FrameError::Io(e)) => return Err(e),
            Err(FrameError::TooLarge) => (
                413,
                "too_large",
                "request head or body exceeds the size limit".to_string(),
            ),
            Err(FrameError::Unsupported(msg)) => (501, "unsupported_transfer_encoding", msg),
            Err(FrameError::Malformed(msg)) => (400, "bad_http", msg),
            Err(FrameError::Truncated(msg)) => (400, "bad_http", msg.to_string()),
        };
        // A framing error closes the connection: after a malformed head
        // or a short body the next request's start is unknowable, and
        // guessing would hand one client's request to another's response.
        let body = ErrorResponse::new(code, msg).to_json();
        write_response(&mut stream, status, JSON, body.as_bytes(), &[], false)?;
        linger_close(&mut stream);
        return Ok(());
    }
}

/// Lingering close for responses that reject a request mid-read
/// (oversized head, malformed framing): the socket still holds unread
/// request bytes, and closing with pending input makes the kernel send
/// RST — which can destroy the in-flight typed error before the peer
/// reads it. Half-close the write side (response and FIN go out in
/// order), then drain and discard input until the peer closes or a
/// short deadline passes, so the error response reliably survives.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => break, // peer saw the FIN and closed
            Ok(_) => {}     // discarding the rejected request's tail
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------------
// The daemon's routes
// ---------------------------------------------------------------------------

/// Answers one request against the service.
fn serve_one(req: Request, stream: &mut TcpStream, service: &Service) -> io::Result<Next> {
    let keep_alive = req.keep_alive;
    let echo = req.echo_header();
    let mut reply_json = |status: u16, body: &str| {
        write_response(
            stream,
            status,
            JSON,
            body.as_bytes(),
            echo.as_slice(),
            keep_alive,
        )
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/schedule") => {
            // Content negotiation: the declared Content-Type picks the
            // request decoder. An unknown media type is a typed 415 — the
            // framing was sound, so the connection stays usable.
            let Some(format) = negotiate_format(req.content_type.as_deref()) else {
                let declared = req.content_type.as_deref().unwrap_or("");
                let err = ErrorResponse::new(
                    "unsupported_media_type",
                    format!(
                        "unsupported Content-Type {declared:?}; use application/json or {}",
                        wire_bin::CONTENT_TYPE
                    ),
                );
                reply_json(415, &err.to_json())?;
                return Ok(Next::Continue);
            };
            let trace_id = req
                .request_id
                .clone()
                .unwrap_or_else(|| trace::make_trace_id(&req.body, service.next_trace_seq()));
            // Connection-level fault sites need the body text for their
            // key predicate, but `call_bytes` consumes the body — copy it
            // only while a plane is armed (never on the production path).
            let fault_key = if service.faults().is_armed() {
                Some(String::from_utf8_lossy(&req.body).into_owned())
            } else {
                None
            };
            let reply = service.call_bytes(req.body, format);
            let status = trace::status_code(reply.disposition);
            if let Some(key) = &fault_key {
                // A stalled upstream holds the answer: the request was read
                // and answered internally, but no response byte leaves —
                // exactly what a wedged worker looks like from a router.
                if let Some(stall) = service.faults().conn_stall(key) {
                    std::thread::sleep(stall);
                }
                // A dropped connection severs mid-body: full head, half the
                // body, then close — the peer sees a premature EOF inside
                // a Content-Length-framed response.
                if service.faults().conn_drop(key) {
                    write_severed_response(stream, status, &reply.body)?;
                    return Ok(Next::Close);
                }
            }
            let mut headers = vec![format!("X-Request-Id: {trace_id}")];
            match reply.disposition {
                Disposition::Ok { cached: true } => headers.push("X-Cache: hit".into()),
                Disposition::Ok { cached: false } => headers.push("X-Cache: miss".into()),
                _ => {}
            }
            let write_started = Instant::now();
            // `Accept`-negotiated binary responses are transcoded at this
            // edge from the canonical JSON the service (and its cache
            // tiers) always speak. Only a 200 schedule has a binary
            // spelling; typed errors stay JSON so failures are always
            // debuggable with any client.
            let binary_body = if req.accept_binary && status == 200 {
                serde_json::from_str::<ScheduleResponse>(&reply.body)
                    .ok()
                    .map(|resp| wire_bin::encode_response(&resp))
            } else {
                None
            };
            let (content_type, body) = match &binary_body {
                Some(bin) => (wire_bin::CONTENT_TYPE, bin.as_slice()),
                None => (JSON, reply.body.as_bytes()),
            };
            write_response(stream, status, content_type, body, &headers, keep_alive)?;
            let write_us = write_started.elapsed().as_micros() as u64;
            service.observe_http(req.read_us, write_us);
            let total_us = req.started.elapsed().as_micros() as u64;
            service.log_span(
                &Span::new(trace_id, &reply, req.read_us, write_us, total_us)
                    .with_fleet_worker(service.fleet_worker()),
            );
        }
        ("GET", "/v1/stats") => reply_json(200, &service.stats_json())?,
        ("GET", "/v1/metrics") => write_response(
            stream,
            200,
            PROMETHEUS_TEXT,
            service.metrics_text().as_bytes(),
            echo.as_slice(),
            keep_alive,
        )?,
        ("GET", "/readyz") => match service.readiness() {
            Ok(()) => reply_json(200, r#"{"ready":true}"#)?,
            Err(reasons) => {
                let listed: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
                let body = format!("{{\"ready\":false,\"reasons\":[{}]}}", listed.join(","));
                reply_json(503, &body)?;
            }
        },
        _ => reply_json(404, &req.not_found().to_json())?,
    }
    Ok(Next::Continue)
}

/// Writes a deliberately truncated response for an injected `conn-drop`
/// fault: a sound head declaring the full `Content-Length`, then only half
/// the body. The caller closes the connection, so the peer observes an
/// upstream dying mid-body — the failover case a fleet router must retry.
fn write_severed_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {JSON}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason_phrase(status),
        body.len()
    );
    let half = body.as_bytes().get(..body.len() / 2).unwrap_or_default();
    write_message(stream, head, &[] as &[&str], half)
}

/// The reason phrase [`write_response`] puts on the status line.
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// The media type of a `Content-Type`/`Accept` value: the part before any
/// `;` parameters, trimmed.
fn media_type(value: &str) -> &str {
    value.split(';').next().unwrap_or("").trim()
}

/// Resolves the request's declared `Content-Type` to a wire format. An
/// absent header (or `application/json`) is the JSON compat path; anything
/// unrecognised is `None` → a typed 415.
fn negotiate_format(content_type: Option<&str>) -> Option<WireFormat> {
    match content_type.map(media_type) {
        None | Some("") => Some(WireFormat::Json),
        Some(t) if t.eq_ignore_ascii_case(JSON) => Some(WireFormat::Json),
        Some(t) if t.eq_ignore_ascii_case(wire_bin::CONTENT_TYPE) => Some(WireFormat::Binary),
        Some(_) => None,
    }
}

// ---------------------------------------------------------------------------
// Framing: the rules shared by requests and responses
// ---------------------------------------------------------------------------

/// One fully framed request off the wire. The fleet router frames client
/// requests with exactly the daemon's rules before proxying them.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Raw body bytes; wire-format interpretation (JSON vs binary) is
    /// route-level content negotiation, not a framing concern.
    pub(crate) body: Vec<u8>,
    /// The `Content-Type` header value, if any (parameters included).
    pub(crate) content_type: Option<String>,
    /// `true` when the `Accept` header asks for binary responses.
    pub(crate) accept_binary: bool,
    /// Whether another request may follow on this connection: the
    /// client's side of the keep-alive negotiation, narrowed by the
    /// connection loop (request cap reached, server shutting down).
    pub(crate) keep_alive: bool,
    /// A sane client-supplied `X-Request-Id`, already sanitised.
    pub(crate) request_id: Option<String>,
    /// When the request's first byte was read: its end-to-end clock.
    pub(crate) started: Instant,
    /// Time spent reading and framing the request, in microseconds.
    pub(crate) read_us: u64,
}

impl Request {
    /// The header echoing a sane client-supplied `X-Request-Id` — every
    /// response carries it, typed errors included, so the caller can
    /// correlate across retries.
    pub(crate) fn echo_header(&self) -> Option<String> {
        self.request_id
            .as_ref()
            .map(|id| format!("X-Request-Id: {id}"))
    }

    /// The typed 404 body for a route no server knows.
    pub(crate) fn not_found(&self) -> ErrorResponse {
        ErrorResponse::new(
            "not_found",
            format!("no route {} {}", self.method, self.path),
        )
    }
}

/// Why a message could not be framed. A server answers each variant but
/// `Io` with a typed error and closes; a client sees an [`io::Error`].
pub(crate) enum FrameError {
    /// The message violates HTTP framing; the connection must close.
    Malformed(String),
    /// The peer closed partway through the message.
    Truncated(&'static str),
    /// Head or declared body size beyond the caps.
    TooLarge,
    /// Syntactically valid but using a feature this crate refuses
    /// (currently any `Transfer-Encoding`); a server answers 501.
    Unsupported(String),
    Io(io::Error),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e,
            FrameError::Truncated(_) => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed partway through a message",
            ),
            FrameError::TooLarge => io::Error::new(
                io::ErrorKind::InvalidData,
                "message head or body exceeds the size limit",
            ),
            FrameError::Malformed(msg) | FrameError::Unsupported(msg) => {
                io::Error::new(io::ErrorKind::InvalidData, msg)
            }
        }
    }
}

/// Reads one head line (CRLF- or LF-terminated) through the shrinking
/// `budget`. Returns `None` on EOF before any byte of this line.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, FrameError> {
    let mut raw = Vec::new();
    // Allow one byte beyond the budget so "line exactly exhausts the
    // budget without terminating" is distinguishable from EOF.
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut raw)?;
    if n > *budget {
        return Err(FrameError::TooLarge);
    }
    *budget -= n;
    if n == 0 {
        return Ok(None);
    }
    if raw.last() != Some(&b'\n') {
        // More bytes would have been read if the stream had them: the
        // peer closed (or half-closed) mid-line.
        return Err(FrameError::Truncated(
            "premature EOF inside the request head",
        ));
    }
    let line = String::from_utf8(raw)
        .map_err(|_| FrameError::Malformed("request head is not UTF-8".into()))?;
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

/// The header section of a message head, after its start line.
struct Headers {
    /// The header lines as received, each CRLF-terminated.
    text: String,
    /// The one `Content-Length`, when the message declared it.
    content_length: Option<usize>,
}

/// Reads header lines up to the blank line, through what is left of the
/// head `budget`, and applies the framing rules both directions share:
///
/// * every line is `Name: value`;
/// * `Content-Length` may appear at most once and must parse — duplicate
///   or conflicting values are the classic request-smuggling vector;
/// * any `Transfer-Encoding` is `Unsupported`: nothing here parses
///   chunked bodies, and silently reading the body as empty would poison
///   every later message on the connection.
fn read_headers<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<Headers, FrameError> {
    let mut text = String::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_head_line(reader, budget)?
            .ok_or(FrameError::Truncated("premature EOF in headers"))?;
        if line.is_empty() {
            return Ok(Headers {
                text,
                content_length,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(FrameError::Malformed(format!(
                "header line without a colon: {line:?}"
            )));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| FrameError::Malformed(format!("bad Content-Length {value:?}")))?;
            if content_length.replace(parsed).is_some() {
                return Err(FrameError::Malformed(
                    "duplicate Content-Length header".into(),
                ));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(FrameError::Unsupported(format!(
                "Transfer-Encoding ({value}) is not supported; send a Content-Length body"
            )));
        }
        text.push_str(&line);
        text.push_str("\r\n");
    }
}

/// `(name, trimmed value)` for each `Name: value` line of `text`.
fn header_fields(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.lines()
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name, value.trim()))
}

/// Reads exactly `len` body bytes, refusing a declared length over
/// [`MAX_BODY_BYTES`] before allocating. EOF first is `Truncated` — a
/// short body must fail fast, not sit out the IO timeout in `read_exact`.
fn read_body<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, FrameError> {
    if len > MAX_BODY_BYTES {
        return Err(FrameError::TooLarge);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated("premature EOF in the request body")
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(body)
}

/// Reads and strictly frames one request: request line, headers (see
/// [`read_headers`]), body. The request line must be exactly `METHOD SP
/// PATH SP HTTP/1.0|1.1`; EOF anywhere is `Truncated`.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, FrameError> {
    let started = Instant::now();
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_head_line(reader, &mut budget)?
        .ok_or_else(|| FrameError::Malformed("EOF before the request line".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/") => {
            (m.to_string(), p.to_string(), v.to_string())
        }
        _ => {
            return Err(FrameError::Malformed(format!(
                "unreadable request line {request_line:?}"
            )))
        }
    };
    // Keep-alive default by version: 1.1 persists unless told otherwise,
    // 1.0 closes unless told otherwise. Anything else is refused rather
    // than guessed at.
    let mut keep_alive = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => {
            return Err(FrameError::Malformed(format!(
                "unsupported protocol version {v:?}"
            )))
        }
    };

    let headers = read_headers(reader, &mut budget)?;
    let mut request_id: Option<String> = None;
    let mut content_type: Option<String> = None;
    let mut accept_binary = false;
    for (name, value) in header_fields(&headers.text) {
        if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("accept") {
            accept_binary = value
                .split(',')
                .any(|t| media_type(t).eq_ignore_ascii_case(wire_bin::CONTENT_TYPE));
        } else if name.eq_ignore_ascii_case("x-request-id") {
            // An insane id (empty, oversized, non-printable) is ignored —
            // the request still gets a generated trace id — rather than
            // rejected: the id is advisory, not part of the contract.
            request_id = trace::sanitize_client_id(value);
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    // The body stays raw bytes: UTF-8 is a JSON-format concern, validated
    // by the service with a typed error that keeps the connection alive —
    // the framing here was fine.
    let body = read_body(reader, headers.content_length.unwrap_or(0))?;
    Ok(Request {
        method,
        path,
        body,
        content_type,
        accept_binary,
        keep_alive,
        request_id,
        started,
        read_us: started.elapsed().as_micros() as u64,
    })
}

/// Writes one response: status line with [`reason_phrase`],
/// `Content-Type`, `Content-Length`, `Connection` (`keep-alive` or
/// `close`), then each of `extra_headers` (`Name: value`, no CRLF).
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[String],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason_phrase(status),
        body.len()
    );
    write_message(w, head, extra_headers, body)
}

/// Finishes `head` with `extra_headers` and the blank line, then writes
/// head and body and flushes.
fn write_message<W: Write, H: AsRef<str>>(
    w: &mut W,
    mut head: String,
    extra_headers: &[H],
    body: &[u8],
) -> io::Result<()> {
    for h in extra_headers {
        head.push_str(h.as_ref());
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One framed response, as a client reads it with [`read_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The status line and header lines, each CRLF-terminated (without
    /// the blank line that ends the head).
    pub head: String,
    /// Exactly `Content-Length` bytes of body.
    pub body: Vec<u8>,
}

impl Response {
    /// The trimmed value of the first header called `name` (ASCII
    /// case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let headers = self.head.split_once('\n').map_or("", |(_, rest)| rest);
        header_fields(headers).find_map(|(n, v)| n.eq_ignore_ascii_case(name).then_some(v))
    }

    /// The body as text (non-UTF-8 bytes are replaced).
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Writes one request: the request line, `Content-Length`, each of
/// `extra_headers` (`Name: value`, no CRLF), the blank line and `body`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_request<W: Write, H: AsRef<str>>(
    w: &mut W,
    method: &str,
    path: &str,
    extra_headers: &[H],
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n",
        body.len()
    );
    write_message(w, head, extra_headers, body)
}

/// Connects to `addr` for request/response traffic: `TCP_NODELAY`, and
/// the connect and every later read and write bounded by `timeout`.
///
/// # Errors
///
/// Connect and socket-option failures.
pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// One request carrying `body` on a fresh connection
/// (`Connection: close`), every step bounded by `timeout`.
///
/// # Errors
///
/// Connect and write failures, [`read_response`] errors, and
/// `UnexpectedEof` when the peer closes without answering.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Response> {
    let stream = connect(addr, timeout)?;
    let headers = [format!("Host: {addr}"), "Connection: close".into()];
    write_request(&mut &stream, method, path, &headers, body)?;
    read_response(&mut BufReader::new(&stream))?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )
    })
}

/// Reads one response with the request rules: the head through the
/// [`MAX_HEAD_BYTES`] budget, then exactly one `Content-Length` (required,
/// at most [`MAX_BODY_BYTES`]) of body. `Ok(None)` when the peer closed
/// at a response boundary.
///
/// # Errors
///
/// `UnexpectedEof` when the response is cut off partway; `InvalidData`
/// for an unreadable status line, a framing violation or a size cap; any
/// I/O error of `reader`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Option<Response>> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(status_line) = read_head_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = status_line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") && code.len() == 3 => code.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unreadable status line {status_line:?}"),
        )
    })?;
    let headers = read_headers(reader, &mut budget)?;
    let len = headers.content_length.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without Content-Length",
        )
    })?;
    let body = read_body(reader, len)?;
    Ok(Some(Response {
        status,
        head: format!("{status_line}\r\n{}", headers.text),
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &[u8]) -> io::Result<Option<Response>> {
        read_response(&mut io::Cursor::new(raw))
    }

    fn kind(raw: &[u8]) -> io::ErrorKind {
        read(raw).expect_err("must be rejected").kind()
    }

    #[test]
    fn response_round_trips_through_the_writer() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, JSON, b"{}", &["X-Cache: hit".into()], true).unwrap();
        write_response(&mut wire, 409, JSON, b"[1]", &[], false).unwrap();
        let mut reader = io::Cursor::new(wire);
        let first = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"{}");
        assert_eq!(first.header("x-cache"), Some("hit"));
        assert_eq!(first.header("Connection"), Some("keep-alive"));
        assert!(
            first.head.starts_with("HTTP/1.1 200 OK\r\n"),
            "{}",
            first.head
        );
        let second = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((second.status, second.text().as_ref()), (409, "[1]"));
        assert!(second.head.starts_with("HTTP/1.1 409 Conflict\r\n"));
        assert_eq!(second.header("connection"), Some("close"));
        assert!(read_response(&mut reader).unwrap().is_none());
    }

    #[test]
    fn responses_cut_off_partway_are_unexpected_eof() {
        assert!(read(b"").unwrap().is_none(), "EOF at a boundary is None");
        // Mid status line, mid headers, at a header-line boundary, mid body.
        for raw in [
            &b"HTTP/1.1 200"[..],
            b"HTTP/1.1 200 OK\r\nContent-Len",
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab",
        ] {
            assert_eq!(kind(raw), io::ErrorKind::UnexpectedEof, "{raw:?}");
        }
    }

    #[test]
    fn misframed_responses_are_invalid_data() {
        for raw in [
            // Content-Length missing, duplicated, conflicting, unparseable.
            &b"HTTP/1.1 200 OK\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2, 2\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            // Unreadable status lines.
            b"garbage\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
            b"SMTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
        ] {
            assert_eq!(kind(raw), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn oversized_heads_and_declared_bodies_are_rejected() {
        // The bodies are never sent: the cap check precedes the
        // allocation, so these fail as InvalidData, not as an EOF after
        // allocating the declared length.
        for len in [MAX_BODY_BYTES + 1, usize::MAX] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n");
            assert_eq!(kind(raw.as_bytes()), io::ErrorKind::InvalidData, "{len}");
        }
        let filler = "x".repeat(MAX_HEAD_BYTES);
        let raw = format!("HTTP/1.1 200 OK\r\nX-Filler: {filler}\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(kind(raw.as_bytes()), io::ErrorKind::InvalidData);
    }

    #[test]
    fn written_requests_frame_back_identically() {
        let mut wire = Vec::new();
        let body = br#"{"v":1}"#;
        write_request(
            &mut wire,
            "POST",
            "/v1/schedule",
            &[
                "Content-Type: application/json",
                "Accept: application/x-batsched-bin",
                "X-Request-Id: abc-1",
                "Connection: close",
            ],
            body,
        )
        .unwrap();
        write_request(&mut wire, "GET", "/readyz", &[] as &[&str], b"").unwrap();
        let mut reader = io::Cursor::new(wire);
        let Ok(req) = read_request(&mut reader) else {
            panic!("a written request frames")
        };
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/schedule")
        );
        assert_eq!(req.body, body);
        assert_eq!(req.content_type.as_deref(), Some("application/json"));
        assert!(req.accept_binary);
        assert_eq!(req.request_id.as_deref(), Some("abc-1"));
        assert!(!req.keep_alive);
        let Ok(next) = read_request(&mut reader) else {
            panic!("the second request frames")
        };
        assert_eq!(
            (next.method.as_str(), next.path.as_str()),
            ("GET", "/readyz")
        );
        assert!(next.body.is_empty() && next.keep_alive);
    }

    #[test]
    fn every_emitted_status_has_its_reason_phrase() {
        for (status, reason) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (409, "Conflict"),
            (413, "Payload Too Large"),
            (415, "Unsupported Media Type"),
            (500, "Internal Server Error"),
            (501, "Not Implemented"),
            (503, "Service Unavailable"),
            (504, "Gateway Timeout"),
        ] {
            assert_eq!(reason_phrase(status), reason, "{status}");
        }
    }
}
