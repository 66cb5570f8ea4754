//! The closed-loop client: a fixed number of keep-alive connections, each
//! sending its next request only after the previous answer arrived.
//! Request bodies are built and answers judged between requests, outside
//! the timed round trip.

use crate::client::{Answer, Conn};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One request to send.
pub struct Request {
    /// The body.
    pub body: Vec<u8>,
    /// Its `Content-Type`.
    pub content_type: &'static str,
}

/// What one run of the loop did.
pub struct Phase<R> {
    /// One judged record per request sent, in completion order per
    /// connection.
    pub records: Vec<R>,
    /// From the first send to the last answer.
    pub elapsed: Duration,
}

/// Drives `conns` connections against `addr`. Request `i` (numbered from
/// 0 across all connections, so the sent requests are always a prefix of
/// the list) comes from `make`; the loop ends when `make` returns `None`
/// or, with `duration`, once that long has passed since the first send —
/// requests already sent are still answered. `judge` turns each round
/// trip (its index, latency in nanoseconds and outcome) into a record.
pub fn run<R: Send>(
    addr: SocketAddr,
    conns: usize,
    duration: Option<Duration>,
    make: &(dyn Fn(u64) -> Option<Request> + Sync),
    judge: &(dyn Fn(u64, u64, io::Result<Answer>) -> R + Sync),
) -> Phase<R> {
    let next = AtomicU64::new(0);
    let start: OnceLock<Instant> = OnceLock::new();
    let barrier = Barrier::new(conns);
    let per_conn: Vec<(Vec<R>, Option<Instant>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::connect(addr).ok();
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    let mut records = Vec::new();
                    let mut last = None;
                    loop {
                        if duration.is_some_and(|d| t0.elapsed() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = make(i) else { break };
                        let sent = Instant::now();
                        let outcome = match conn.as_mut() {
                            Some(c) => {
                                c.send("POST", "/v1/schedule", Some(req.content_type), &req.body)
                            }
                            None => Err(io::Error::new(
                                io::ErrorKind::NotConnected,
                                "could not connect",
                            )),
                        };
                        let done = Instant::now();
                        last = Some(done);
                        let latency = done.duration_since(sent).as_nanos() as u64;
                        let reconnect = outcome.as_ref().map_or(true, |a| a.closing);
                        records.push(judge(i, latency, outcome));
                        if reconnect {
                            conn = Conn::connect(addr).ok();
                        }
                    }
                    (records, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_conn.iter().filter_map(|(_, last)| *last).max();
    let elapsed = match (start.get(), end) {
        (Some(&t0), Some(end)) => end.duration_since(t0),
        _ => Duration::ZERO,
    };
    Phase {
        records: per_conn.into_iter().flat_map(|(r, _)| r).collect(),
        elapsed,
    }
}
