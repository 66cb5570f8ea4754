//! A minimal HTTP/1.1 keep-alive client: one request at a time on one
//! connection, `Content-Length` framing only (all the daemon and the
//! fleet router ever send).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One HTTP response.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// Status code.
    pub status: u16,
    /// `X-Cache` (`hit` / `miss`), when present.
    pub x_cache: Option<String>,
    /// `X-Fleet-Worker`, when present.
    pub fleet_worker: Option<usize>,
    /// `true` when the server announced `Connection: close`.
    pub closing: bool,
    /// The body.
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    head: String,
    out: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout (a stuck
    /// server fails the request instead of hanging the benchmark).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            head: String::new(),
            out: Vec::new(),
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed responses.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<Answer> {
        self.out.clear();
        self.out.extend_from_slice(method.as_bytes());
        self.out.push(b' ');
        self.out.extend_from_slice(path.as_bytes());
        self.out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
        if let Some(ct) = content_type {
            self.out.extend_from_slice(b"Content-Type: ");
            self.out.extend_from_slice(ct.as_bytes());
            self.out.extend_from_slice(b"\r\n");
        }
        self.out
            .extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        self.out.extend_from_slice(body);
        self.writer.write_all(&self.out)?;
        self.read_answer()
    }

    fn read_answer(&mut self) -> io::Result<Answer> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut answer = Answer::default();
        let mut length: Option<usize> = None;
        let mut first = true;
        loop {
            self.head.clear();
            if self.reader.read_line(&mut self.head)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            let line = self.head.trim_end_matches(['\r', '\n']);
            if first {
                first = false;
                answer.status = line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad status line"))?;
                continue;
            }
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("bad header line"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("x-cache") {
                answer.x_cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("x-fleet-worker") {
                answer.fleet_worker = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                answer.closing = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        if length > MAX_BODY {
            return Err(bad("response body too large"));
        }
        answer.body.resize(length, 0);
        self.reader.read_exact(&mut answer.body)?;
        Ok(answer)
    }
}

/// One request on a fresh connection (probes and control calls).
///
/// # Errors
///
/// As [`Conn::send`].
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Answer> {
    Conn::connect(addr)?.send(method, path, None, body)
}
