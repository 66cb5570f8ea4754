//! The workloads and their untraced end-to-end runs.
//!
//! Each run boots the daemon several times to measure set-up,
//! keeps the last one for the measured phase, drives it from one client
//! process over two keep-alive connections in a closed loop, then checks
//! every answer and every workload guard outside the timed region. The
//! measured phase runs in one-second slices with a host-speed probe
//! sample between them (see `perfbench::speed`).

use perfbench::catalog;
use perfbench::client::Answer;
use perfbench::closed_loop::{self, Request};
use perfbench::gen::{ColdList, Wire};
use perfbench::server::Server;
use perfbench::speed::{self, Probe};
use perfbench::stats;
use perfbench::verify::verify;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client connections, one per core of the 2-core box the benchmark was
/// sized on; each waits for its answer before sending again.
pub const CONNECTIONS: usize = 2;

/// Length of one slice of the measured phase; the speed probe runs
/// between slices. Host-speed spells last tens of seconds or more, so
/// probing once a second keeps up with them.
const SLICE: Duration = Duration::from_secs(1);

/// Speed-probe samples after each slice (~10 ms each). One sample can
/// differ from the next by 20%; a run's median of two a second moves by a
/// few percent from run to run on a calm host.
const PROBES_PER_SLICE: usize = 2;

/// Daemon boots per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Fresh graphs per cold list (request `i` uses graph `i mod` this).
/// Each seed draws its own graphs, so the seed-to-seed spread of every
/// figure shrinks with their number; at 900, about as many as a cold_json
/// run gets through, it stays below ~5% for the timings.
pub const COLD_GRAPHS: usize = 900;

/// `sigma_norm_mean` of a cold workload averages the answers to the
/// first this-many requests — every distinct graph once. A run that did
/// not reach them all sends the rest untimed, so the figure repeats
/// exactly for a seed whatever the program's speed.
const COLD_QUALITY: u64 = COLD_GRAPHS as u64;

/// Memory-cache entries of the cold daemons. No cold request repeats, so
/// the cache only ever holds dead entries; but its alias index keeps the
/// raw body of up to four requests per entry, which at the default 256
/// entries takes ~1,300 cold JSON requests (~60 MiB) to fill. A faster
/// program would fill more of it within the measured phase and read as a
/// memory regression. At 64 entries every run reaches the steady state
/// early, so `peak_rss_mb` does not depend on the program's speed.
pub const COLD_CACHE: usize = 64;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh graphs as JSON to a memory-only daemon.
    ColdJson,
    /// The same list in the binary spelling.
    ColdBin,
}

impl Workload {
    /// Every workload, in report order (the order `BENCHMARK.json` lists
    /// them in).
    pub const ALL: [Workload; 2] = [Workload::ColdJson, Workload::ColdBin];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdJson => "cold_json",
            Workload::ColdBin => "cold_bin",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spelling requests are sent in.
    pub fn wire(self) -> Wire {
        match self {
            Workload::ColdJson => Wire::Json,
            Workload::ColdBin => Wire::Binary,
        }
    }
}

/// The daemon's command line: a memory-only daemon with two solver
/// threads.
pub fn daemon_args() -> Vec<String> {
    let cache = COLD_CACHE.to_string();
    [
        "serve",
        "--workers",
        "2",
        "--http",
        "127.0.0.1:0",
        "--cache",
        &cache,
    ]
    .map(String::from)
    .to_vec()
}

/// A workload's generated inputs.
pub struct Inputs {
    /// Measured list.
    pub list: ColdList,
    /// Warm-up list (disjoint).
    pub warm: ColdList,
}

impl Inputs {
    /// Generates the inputs for `seed`; both workloads share them.
    pub fn generate(seed: u64) -> Inputs {
        Inputs {
            list: ColdList::generate(seed, COLD_GRAPHS),
            warm: ColdList::warmup(),
        }
    }
}

/// What the run needs from its surroundings.
pub struct Ctx {
    /// The `batsched` binary.
    pub bin: PathBuf,
    /// Scratch directory for the replays' files.
    pub dir: PathBuf,
    /// Length of the measured phase.
    pub seconds: u64,
}

/// The outcome of an untraced run.
pub struct E2e {
    /// The end-to-end metrics, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests sent (warm-up, measured and quality top-up).
    pub attempted: u64,
    /// Requests that failed: non-200, transport failure or rejected.
    pub failed: u64,
    /// Verifier rejections and guard violations; empty when correct.
    pub problems: Vec<String>,
    /// Requests that got no 200 answer.
    pub failures: Vec<String>,
    /// Requests in the measured phase.
    pub measured: usize,
    /// Length of the measured phase.
    pub measured_secs: f64,
    /// Median time of the speed probe over the measured phase.
    pub probe_secs: f64,
}

impl E2e {
    /// One metric by name.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("every end-to-end metric is reported")
    }

    /// The metrics with every time and rate at the probe's reference
    /// speed (see `perfbench::speed`); the others as measured.
    pub fn at_reference_speed(&self) -> Vec<(&'static str, f64)> {
        let slowdown = self.probe_secs / speed::REFERENCE_SECS;
        self.metrics
            .iter()
            .map(|&(name, v)| match catalog::unit_of(name) {
                Some("s" | "ms") => (name, v / slowdown),
                Some("1/s") => (name, v * slowdown),
                _ => (name, v),
            })
            .collect()
    }
}

/// One judged round trip.
struct Rec {
    index: u64,
    latency_ns: u64,
    /// HTTP status; 0 when the request got no answer.
    status: u16,
    x_cache: Option<String>,
    /// The body, verified after the run.
    body: Option<Vec<u8>>,
}

fn keep(index: u64, latency_ns: u64, outcome: io::Result<Answer>) -> Rec {
    match outcome {
        Ok(a) => Rec {
            index,
            latency_ns,
            status: a.status,
            x_cache: a.x_cache,
            body: Some(a.body),
        },
        Err(_) => Rec {
            index,
            latency_ns,
            status: 0,
            x_cache: None,
            body: None,
        },
    }
}

/// Boots the daemon and runs its untimed warm-up. Returns the server,
/// the set-up time (spawn to end of warm-up) and the warm-up round trips,
/// judged afterwards.
fn boot(ctx: &Ctx, w: Workload, warm: &ColdList) -> io::Result<(Server, f64, Vec<Rec>)> {
    let t0 = Instant::now();
    let server = Server::spawn(&ctx.bin, &daemon_args())?;
    server.wait_ready()?;
    let (wire, ct) = (w.wire(), w.wire().content_type());
    let n = warm.graph_count() as u64;
    let make = |i: u64| {
        (i < n).then(|| Request {
            body: warm.body(i, wire),
            content_type: ct,
        })
    };
    let warm_records = closed_loop::run(server.addr(), CONNECTIONS, None, &make, &keep).records;
    Ok((server, t0.elapsed().as_secs_f64(), warm_records))
}

/// Runs one untraced end-to-end run of `w`, booting the daemon `reps`
/// times and measuring the last boot.
pub fn run(ctx: &Ctx, w: Workload, inputs: &Inputs, reps: usize) -> io::Result<E2e> {
    let Inputs { list, warm } = inputs;
    let mut tally = Tally::default();
    let mut warm_all = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (s, secs, records) = boot(ctx, w, warm)?;
        tally.setups.push(secs);
        warm_all.extend(records);
        server = Some(s);
    }
    let server = server.expect("at least one boot");
    for r in &warm_all {
        judge(&mut tally, &warm.request(r.index), r, "warm-up request");
    }
    let (wire, ct) = (w.wire(), w.wire().content_type());
    // The measured phase: slices of closed-loop load, each followed by
    // speed-probe samples while the daemon idles. Slice `k` goes on with
    // the list where slice `k - 1` stopped, so the sent requests stay a
    // prefix of the list.
    let mut probe = Probe::spawn()?;
    let mut records: Vec<Rec> = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut probes = Vec::new();
    while elapsed < Duration::from_secs(ctx.seconds) {
        let base = records.len() as u64;
        let make = |i: u64| {
            Some(Request {
                body: list.body(base + i, wire),
                content_type: ct,
            })
        };
        let slice = closed_loop::run(
            server.addr(),
            CONNECTIONS,
            Some(SLICE),
            &make,
            &|i, l, a| keep(base + i, l, a),
        );
        elapsed += slice.elapsed;
        records.extend(slice.records);
        for _ in 0..PROBES_PER_SLICE {
            probes.push(probe.sample()?);
        }
    }
    drop(probe);
    // Top up, untimed, whatever part of the quality prefix the measured
    // phase did not reach.
    let sent = records.len() as u64;
    let top_up = |i: u64| {
        (sent + i < COLD_QUALITY).then(|| Request {
            body: list.body(sent + i, wire),
            content_type: ct,
        })
    };
    let extra = closed_loop::run(server.addr(), CONNECTIONS, None, &top_up, &|i, l, a| {
        keep(sent + i, l, a)
    });
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;

    let mut latencies = Vec::new();
    let mut quality = vec![None; COLD_QUALITY as usize];
    let measured = records.len();
    for (k, r) in records.iter().chain(&extra.records).enumerate() {
        if r.status == 200 && r.x_cache.as_deref() != Some("miss") {
            tally.problems.push(format!(
                "guard: request {} answered X-Cache {:?}, not miss",
                r.index, r.x_cache
            ));
        }
        if let Some(q) = judge(&mut tally, &list.request(r.index), r, "request") {
            if k < measured {
                latencies.push(r.latency_ns as f64 / 1e6);
            }
            if let Some(slot) = quality.get_mut(r.index as usize) {
                *slot = Some(q);
            }
        }
    }
    let quality: Vec<f64> = quality.into_iter().flatten().collect();
    if quality.len() as u64 != COLD_QUALITY {
        tally
            .problems
            .push("the quality prefix was not fully answered".into());
    }
    Ok(assemble(
        tally,
        &latencies,
        elapsed,
        &quality,
        rss,
        measured,
        stats::quantile(&probes, 0.5).unwrap_or(f64::NAN),
    ))
}

/// Judges one answer: the answer's quality when it is a 200 the
/// verifier accepts; otherwise the request is counted as failed.
fn judge(
    tally: &mut Tally,
    req: &batsched_service::ScheduleRequest,
    r: &Rec,
    what: &str,
) -> Option<f64> {
    tally.attempted += 1;
    match r.status {
        200 => match verify(req, r.body.as_deref().unwrap_or_default()) {
            Ok(q) => Some(q),
            Err(e) => {
                tally.reject(format!("{what} {}: {e}", r.index));
                None
            }
        },
        0 => {
            tally.fail(format!("{what} {}: no answer", r.index));
            None
        }
        s => {
            tally.fail(format!("{what} {}: HTTP {s}", r.index));
            None
        }
    }
}

#[derive(Default)]
struct Tally {
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Wrong outputs and tripped guards: the run is not correct.
    problems: Vec<String>,
    /// Requests that got no 200 answer: counted in `failed` only.
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, failure: String) {
        self.failed += 1;
        self.failures.push(failure);
    }

    fn reject(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

fn assemble(
    tally: Tally,
    latencies: &[f64],
    elapsed: Duration,
    quality: &[f64],
    rss: f64,
    measured: usize,
    probe_secs: f64,
) -> E2e {
    let nan = f64::NAN;
    let metrics = vec![
        (
            "setup_s",
            stats::quantile(&tally.setups, 0.5).unwrap_or(nan),
        ),
        (
            "throughput_rps",
            latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        ),
        (
            "latency_p50_ms",
            stats::quantile(latencies, 0.5).unwrap_or(nan),
        ),
        (
            "latency_p95_ms",
            stats::quantile(latencies, 0.95).unwrap_or(nan),
        ),
        (
            "success_rate",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
        ("sigma_norm_mean", stats::mean(quality).unwrap_or(nan)),
        ("peak_rss_mb", rss),
    ];
    E2e {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        failures: tally.failures,
        measured,
        measured_secs: elapsed.as_secs_f64(),
        probe_secs,
    }
}
