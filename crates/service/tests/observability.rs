//! Observability contract tests: trace-id propagation over HTTP (client
//! ids echoed — including on typed errors — and generated ids unique
//! across keep-alive pipelining), the one-span-per-request contract with
//! exact stage reconciliation, and property tests pinning the log-bucket
//! histogram to a sorted-vec oracle.

use batsched_service::http::{read_response, write_request, Response};
use batsched_service::prelude::*;
use batsched_service::{HistogramSnapshot, LogTarget, Service, BUCKET_BOUNDS_US};
use batsched_taskgraph::paper::g2;
use proptest::prelude::*;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

fn g2_body() -> String {
    serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).expect("serialises")
}

fn tmp_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("batsched_observability_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!("{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Sends one framed request over `stream` with optional extra header
/// lines and reads the response. Keep-alive unless `close`.
fn roundtrip(
    stream: &mut TcpStream,
    path: &str,
    extra_headers: &[&str],
    body: &str,
    close: bool,
) -> Response {
    let connection = format!("Connection: {}", if close { "close" } else { "keep-alive" });
    let headers = [&["Host: localhost", &connection], extra_headers].concat();
    write_request(stream, "POST", path, &headers, body.as_bytes()).expect("send");
    let resp = read_response(&mut BufReader::new(&*stream))
        .expect("a well-framed response")
        .expect("eof");
    assert!(std::str::from_utf8(&resp.body).is_ok(), "utf8");
    resp
}

/// The echoed `X-Request-Id` of a response.
fn request_id(resp: &Response) -> String {
    resp.header("x-request-id")
        .unwrap_or_else(|| panic!("no X-Request-Id in head: {}", resp.head))
        .to_string()
}

// ------------------------------------------------- trace-id propagation

#[test]
fn client_request_ids_are_echoed_even_on_typed_errors() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // A good request: the client's id comes back verbatim.
    let resp = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: client-abc-123"],
        &g2_body(),
        false,
    );
    assert_eq!(resp.status, 200);
    assert_eq!(request_id(&resp), "client-abc-123");

    // A malformed request: the typed 400 still carries the client's id.
    let resp = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: client-bad-7"],
        "{ nope",
        false,
    );
    assert_eq!(resp.status, 400);
    let err: ErrorResponse = serde_json::from_str(&resp.text()).expect("typed error");
    assert_eq!(err.error, "bad_json");
    assert_eq!(request_id(&resp), "client-bad-7");

    // An unusable id (embedded whitespace) is ignored, not rejected: the
    // request succeeds under a server-generated id instead.
    let resp = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: has a space"],
        &g2_body(),
        true,
    );
    assert_eq!(resp.status, 200);
    let generated = request_id(&resp);
    assert_ne!(generated, "has a space");
    assert!(
        generated.contains('-'),
        "generated ids are hash-seq: {generated}"
    );

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();
}

#[test]
fn generated_ids_are_unique_across_keepalive_pipelining() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // The same body replayed down one connection: every response gets its
    // own id (the sequence part), while the hash prefix — derived from
    // the body — stays identical, so replays correlate.
    let body = g2_body();
    let mut ids = Vec::new();
    for i in 0..8 {
        let resp = roundtrip(&mut stream, "/v1/schedule", &[], &body, i == 7);
        assert_eq!(resp.status, 200);
        ids.push(request_id(&resp));
    }
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate generated ids: {ids:?}");
    let prefixes: std::collections::HashSet<&str> = ids
        .iter()
        .map(|id| id.split_once('-').expect("hash-seq form").0)
        .collect();
    assert_eq!(
        prefixes.len(),
        1,
        "same body must share a hash prefix: {ids:?}"
    );

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();
}

// ------------------------------------------------- span-per-request contract

#[test]
fn one_span_per_request_with_exact_stage_reconciliation() {
    let span_path = tmp_file("span_contract");
    let svc = Arc::new(Service::start(ServiceConfig {
        log_json: Some(LogTarget::File(span_path.clone())),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let resp = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: span-contract-1"],
        &g2_body(),
        true,
    );
    assert_eq!(resp.status, 200);
    assert_eq!(request_id(&resp), "span-contract-1");

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let spans: Vec<&str> = raw.lines().filter(|l| l.contains("\"trace_id\"")).collect();
    assert_eq!(spans.len(), 1, "exactly one span per request: {raw}");
    let span = spans[0];
    assert!(span.contains("\"trace_id\":\"span-contract-1\""), "{span}");
    assert!(span.contains("\"outcome\":\"solved\""), "{span}");
    assert!(span.contains("\"level\":\"info\""), "{span}");

    // The stage durations (plus the explicit `other_us` remainder) sum
    // exactly to the end-to-end latency — stronger than the 5% budget.
    let field = |name: &str| -> u64 {
        let tag = format!("\"{name}\":");
        let at = span.find(&tag).unwrap_or_else(|| panic!("{name}: {span}"));
        span[at + tag.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("integer field")
    };
    let staged: u64 = [
        "read_us",
        "queue_us",
        "parse_us",
        "hash_us",
        "cache_us",
        "disk_us",
        "solve_us",
        "serialize_us",
        "write_us",
        "other_us",
    ]
    .iter()
    .map(|f| field(f))
    .sum();
    assert_eq!(staged, field("total_us"), "{span}");
    assert!(
        field("solve_us") > 0,
        "a cold solve takes real time: {span}"
    );

    std::fs::remove_file(&span_path).unwrap();
}

#[test]
fn jsonl_frontend_spans_one_line_per_request() {
    let span_path = tmp_file("jsonl_spans");
    let svc = Service::start(ServiceConfig {
        log_json: Some(LogTarget::File(span_path.clone())),
        ..ServiceConfig::default()
    });
    // Two identical lines: two spans, distinct ids, shared hash prefix.
    let req = g2_body();
    let input = format!("{req}\n{req}\n");
    let mut out = Vec::new();
    let summary = run_jsonl(&svc, input.as_bytes(), &mut out).expect("jsonl session");
    assert_eq!(summary.requests, 2);
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let ids: Vec<String> = raw
        .lines()
        .filter(|l| l.contains("\"trace_id\""))
        .map(|l| {
            let at = l.find("\"trace_id\":\"").expect("id field") + "\"trace_id\":\"".len();
            l[at..]
                .split('"')
                .next()
                .expect("closed string")
                .to_string()
        })
        .collect();
    assert_eq!(ids.len(), 2, "{raw}");
    assert_ne!(ids[0], ids[1], "replays need distinct ids");
    assert_eq!(
        ids[0].split_once('-').map(|(h, _)| h),
        ids[1].split_once('-').map(|(h, _)| h),
        "identical bodies share a hash prefix"
    );
    std::fs::remove_file(&span_path).unwrap();
}

// ------------------------------------------------ exposition pinning

/// The `# TYPE` lines of an exposition, in order, as `(name, kind)`.
fn type_lines(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let (name, kind) = l.split_once(' ').expect("`# TYPE name kind`");
            (name.to_string(), kind.to_string())
        })
        .collect()
}

/// The value of the sample line `series` (name plus its `{labels}`, if
/// any) in an exposition.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample `{series}` in:\n{text}"))
        .parse()
        .unwrap_or_else(|e| panic!("`{series}` is not an integer: {e}"))
}

/// The label sets a series is sampled with, in order.
fn label_sets(text: &str, name: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix('{'))
        .map(|l| l.split_once('}').expect("closed label set").0.to_string())
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, k)| (n.to_string(), k.to_string()))
        .collect()
}

/// The daemon's series, in exposition order (a fleet worker adds
/// `batsched_fleet_worker_id` after `batsched_ready`).
const DAEMON_TYPES: [(&str, &str); 38] = [
    ("batsched_received_total", "counter"),
    ("batsched_solved_total", "counter"),
    ("batsched_cache_hits_total", "counter"),
    ("batsched_disk_hits_total", "counter"),
    ("batsched_cache_misses_total", "counter"),
    ("batsched_client_errors_total", "counter"),
    ("batsched_internal_errors_total", "counter"),
    ("batsched_rejected_total", "counter"),
    ("batsched_timeouts_total", "counter"),
    ("batsched_worker_panics_total", "counter"),
    ("batsched_worker_respawns_total", "counter"),
    ("batsched_disk_errors_total", "counter"),
    ("batsched_disk_breaker_trips_total", "counter"),
    ("batsched_disk_rearms_total", "counter"),
    ("batsched_fault_injected_total", "counter"),
    ("batsched_spans_dropped_total", "counter"),
    ("batsched_requests_by_format", "counter"),
    ("batsched_queue_depth", "gauge"),
    ("batsched_workers_live", "gauge"),
    ("batsched_workers_target", "gauge"),
    ("batsched_disk_breaker_open", "gauge"),
    ("batsched_cache_entries", "gauge"),
    ("batsched_cache_capacity", "gauge"),
    ("batsched_disk_entries", "gauge"),
    ("batsched_ready", "gauge"),
    ("batsched_solver_windows_total", "counter"),
    ("batsched_solver_carry_hits_total", "counter"),
    ("batsched_solver_carry_misses_total", "counter"),
    ("batsched_solver_rows_full_total", "counter"),
    ("batsched_solver_rows_carried_total", "counter"),
    ("batsched_solver_journal_promotions_total", "counter"),
    ("batsched_solver_journal_rollbacks_total", "counter"),
    ("batsched_solver_sigma_evals_total", "counter"),
    ("batsched_solver_sigma_reused_total", "counter"),
    ("batsched_solver_sigma_fresh_total", "counter"),
    ("batsched_request_duration_us", "histogram"),
    ("batsched_stage_duration_us", "histogram"),
    ("batsched_solve_cold_duration_us", "histogram"),
];

/// The `/v1/stats` keys, in document order.
const STATS_KEYS: [&str; 38] = [
    "v",
    "workers",
    "queue_capacity",
    "cache_capacity",
    "cache_len",
    "cache_shards",
    "shard_occupancy",
    "disk_enabled",
    "disk_degraded",
    "disk_entries",
    "received",
    "binary_requests",
    "solved",
    "cache_hits",
    "disk_hits",
    "cache_misses",
    "client_errors",
    "internal_errors",
    "rejected",
    "timeouts",
    "worker_panics",
    "worker_respawns",
    "disk_errors",
    "disk_breaker_trips",
    "disk_rearms",
    "solve_mean_us",
    "hit_mean_us",
    "disk_hit_mean_us",
    "queue_depth",
    "workers_live",
    "faults_injected",
    "spans_dropped",
    "e2e_p50_us",
    "e2e_p95_us",
    "e2e_p99_us",
    "solve_p50_us",
    "solve_p95_us",
    "solve_p99_us",
];

/// Drives a fixed traffic mix through an in-process daemon — cold JSON,
/// cold binary, a memory hit, a disk hit after a restart, malformed JSON
/// and malformed binary — and pins both expositions: the `/v1/metrics`
/// series order and values, and the `/v1/stats` keys and their agreement
/// with the `_total` series.
#[test]
fn daemon_expositions_are_pinned_for_a_fixed_traffic_mix() {
    let path = tmp_file("pinned_exposition");
    let cfg = ServiceConfig {
        disk_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let g3_body = serde_json::to_string(&ScheduleRequest::new(
        batsched_taskgraph::paper::g3(),
        230.0,
    ))
    .expect("serialises");
    let first = Service::try_start(cfg.clone()).expect("start");
    let seeded = first.call(g3_body.clone());
    assert_eq!(seeded.disposition, Disposition::Ok { cached: false });
    first.shutdown();

    let svc = Service::try_start(cfg).expect("restart");
    let replies = [
        (svc.call(g2_body()), Disposition::Ok { cached: false }),
        (
            svc.call_bytes(
                encode_request(&ScheduleRequest::new(g2(), 80.0)),
                WireFormat::Binary,
            ),
            Disposition::Ok { cached: false },
        ),
        (svc.call(g2_body()), Disposition::Ok { cached: true }),
        (svc.call(g3_body), Disposition::Ok { cached: true }),
        (svc.call("{ nope".into()), Disposition::ClientError),
        (
            svc.call_bytes(b"\x00not a request".to_vec(), WireFormat::Binary),
            Disposition::ClientError,
        ),
    ];
    for (k, (reply, expected)) in replies.iter().enumerate() {
        assert_eq!(reply.disposition, *expected, "reply {k}: {}", reply.body);
    }
    assert!(
        replies[3].0.trace.served_from_disk,
        "the g3 replay is a disk hit"
    );

    let text = svc.metrics_text();
    assert_eq!(type_lines(&text), owned(&DAEMON_TYPES), "{text}");

    let counters = [
        ("batsched_received_total", 6),
        ("batsched_solved_total", 2),
        ("batsched_cache_hits_total", 1),
        ("batsched_disk_hits_total", 1),
        ("batsched_cache_misses_total", 2),
        ("batsched_client_errors_total", 2),
        ("batsched_internal_errors_total", 0),
        ("batsched_rejected_total", 0),
        ("batsched_timeouts_total", 0),
        ("batsched_worker_panics_total", 0),
        ("batsched_worker_respawns_total", 0),
        ("batsched_disk_errors_total", 0),
        ("batsched_disk_breaker_trips_total", 0),
        ("batsched_disk_rearms_total", 0),
        ("batsched_fault_injected_total", 0),
        ("batsched_spans_dropped_total", 0),
        ("batsched_requests_by_format{format=\"json\"}", 4),
        ("batsched_requests_by_format{format=\"binary\"}", 2),
        ("batsched_queue_depth", 0),
        ("batsched_workers_live", 2),
        ("batsched_workers_target", 2),
        ("batsched_disk_breaker_open", 0),
        ("batsched_cache_entries", 3),
        ("batsched_cache_capacity", 256),
        ("batsched_disk_entries", 3),
        ("batsched_ready", 1),
    ];
    for (series, value) in counters {
        assert_eq!(sample(&text, series), value, "{series}");
    }

    // Every histogram's `_count`: `total` once per call, the worker
    // stages once per worker-handled request, the connection stages
    // never (no HTTP frontend), the cold-solve histogram per cold solve.
    assert_eq!(sample(&text, "batsched_request_duration_us_count"), 6);
    for (stage, count) in [
        ("read", 0),
        ("queue", 6),
        ("parse", 6),
        ("hash", 6),
        ("cache", 6),
        ("disk", 6),
        ("solve", 6),
        ("serialize", 6),
        ("write", 0),
    ] {
        let series = format!("batsched_stage_duration_us_count{{stage=\"{stage}\"}}");
        assert_eq!(sample(&text, &series), count, "{series}");
    }
    assert_eq!(sample(&text, "batsched_solve_cold_duration_us_count"), 2);

    // The solver totals are exactly the sum of the replies' profiles.
    let mut prof = batsched_core::Prof::default();
    for (reply, _) in &replies {
        prof.merge(&reply.trace.prof);
    }
    assert!(prof.windows > 0, "the cold solves swept windows");
    for (name, value) in [
        ("windows", prof.windows),
        ("carry_hits", prof.carry_hits),
        ("carry_misses", prof.carry_misses),
        ("rows_full", prof.rows_full),
        ("rows_carried", prof.rows_carried),
        ("journal_promotions", prof.journal_promotions),
        ("journal_rollbacks", prof.journal_rollbacks),
        ("sigma_evals", prof.sigma_evals),
        ("sigma_reused", prof.sigma_reused),
        ("sigma_fresh", prof.sigma_fresh),
    ] {
        let series = format!("batsched_solver_{name}_total");
        assert_eq!(sample(&text, &series), value, "{series}");
    }

    // `/v1/stats` agrees with its `/v1/metrics` twins.
    let stats = svc.stats();
    for (series, value) in [
        ("batsched_received_total", stats.received),
        ("batsched_solved_total", stats.solved),
        ("batsched_cache_hits_total", stats.cache_hits),
        ("batsched_disk_hits_total", stats.disk_hits),
        ("batsched_cache_misses_total", stats.cache_misses),
        ("batsched_client_errors_total", stats.client_errors),
        ("batsched_internal_errors_total", stats.internal_errors),
        ("batsched_rejected_total", stats.rejected),
        ("batsched_timeouts_total", stats.timeouts),
        ("batsched_worker_panics_total", stats.worker_panics),
        ("batsched_worker_respawns_total", stats.worker_respawns),
        ("batsched_disk_errors_total", stats.disk_errors),
        (
            "batsched_disk_breaker_trips_total",
            stats.disk_breaker_trips,
        ),
        ("batsched_disk_rearms_total", stats.disk_rearms),
        ("batsched_fault_injected_total", stats.faults_injected),
        ("batsched_spans_dropped_total", stats.spans_dropped),
        (
            "batsched_requests_by_format{format=\"binary\"}",
            stats.binary_requests,
        ),
        ("batsched_queue_depth", stats.queue_depth),
        ("batsched_workers_live", stats.workers_live),
        ("batsched_workers_target", stats.workers as u64),
        ("batsched_disk_breaker_open", u64::from(stats.disk_degraded)),
        ("batsched_cache_entries", stats.cache_len as u64),
        ("batsched_cache_capacity", stats.cache_capacity as u64),
        ("batsched_disk_entries", stats.disk_entries as u64),
    ] {
        assert_eq!(sample(&text, series), value, "{series}");
    }
    assert!(stats.solve_mean_us > 0.0, "a cold solve takes real time");

    let doc = serde::json::parse(&svc.stats_json()).expect("stats JSON parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("stats is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, STATS_KEYS);

    svc.shutdown();
    std::fs::remove_file(&path).expect("cleanup");
}

/// The router's exposition: its series in order, each per-worker series
/// sampled once per slot; a fleet worker's own exposition adds its slot
/// gauge after `batsched_ready`.
#[test]
fn fleet_exposition_is_pinned() {
    let launcher = InProcessLauncher::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let fleet = Fleet::start(
        FleetConfig {
            size: 2,
            ..FleetConfig::default()
        },
        Box::new(launcher),
        "127.0.0.1:0",
    )
    .expect("fleet starts");
    assert!(fleet.wait_ready(std::time::Duration::from_secs(20)));

    let text = fleet.metrics_text();
    let per_worker = [
        ("batsched_fleet_worker_up", "gauge"),
        ("batsched_fleet_worker_inflight", "gauge"),
        ("batsched_fleet_worker_proxied_total", "counter"),
        ("batsched_fleet_worker_upstream_errors_total", "counter"),
        ("batsched_fleet_worker_restarts_total", "counter"),
    ];
    let mut expected = vec![
        ("batsched_fleet_size", "gauge"),
        ("batsched_fleet_ready", "gauge"),
        ("batsched_fleet_requests_total", "counter"),
        ("batsched_fleet_retries_total", "counter"),
        ("batsched_fleet_unavailable_total", "counter"),
    ];
    expected.extend(per_worker);
    assert_eq!(type_lines(&text), owned(&expected), "{text}");
    assert_eq!(sample(&text, "batsched_fleet_size"), 2);
    assert_eq!(sample(&text, "batsched_fleet_ready"), 1);
    for (name, _) in per_worker {
        assert_eq!(
            label_sets(&text, name),
            ["worker=\"0\"", "worker=\"1\""],
            "{name}"
        );
    }
    for k in 0..2 {
        let up = format!("batsched_fleet_worker_up{{worker=\"{k}\"}}");
        assert_eq!(sample(&text, &up), 1, "{up}");
    }

    let status = fleet.status();
    let addr = status.workers[1]
        .addr
        .as_deref()
        .expect("a ready worker has an address")
        .parse()
        .expect("a socket address");
    let worker = batsched_service::http::call(
        addr,
        "GET",
        "/v1/metrics",
        b"",
        std::time::Duration::from_secs(10),
    )
    .expect("worker metrics");
    let worker_text = worker.text();
    let mut expected = DAEMON_TYPES.to_vec();
    let ready = expected
        .iter()
        .position(|(n, _)| *n == "batsched_ready")
        .expect("batsched_ready");
    expected.insert(ready + 1, ("batsched_fleet_worker_id", "gauge"));
    assert_eq!(type_lines(&worker_text), owned(&expected), "{worker_text}");
    assert_eq!(sample(&worker_text, "batsched_fleet_worker_id"), 1);
    fleet.shutdown();
}

// ---------------------------------------------- histogram vs oracle props

/// Bucket bounds `[lower, upper]` containing the value `v` (upper is
/// +Inf for the overflow bucket).
fn bucket_bounds(v: u64) -> (f64, f64) {
    let i = BUCKET_BOUNDS_US.partition_point(|&b| b < v);
    let lower = if i == 0 {
        0.0
    } else {
        BUCKET_BOUNDS_US[i - 1] as f64
    };
    let upper = if i == BUCKET_BOUNDS_US.len() {
        f64::INFINITY
    } else {
        BUCKET_BOUNDS_US[i] as f64
    };
    (lower, upper)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The histogram quantile lands inside the bucket that holds the
    /// sorted-vec oracle's value — the estimator's documented error
    /// bound — for arbitrary value sets and quantiles.
    #[test]
    fn quantile_lands_in_the_oracle_bucket(
        values in prop::collection::vec(0u64..100_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut h = HistogramSnapshot::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // The implementation targets rank max(q·n, 1); the oracle is the
        // value at that rank (1-based, ceiling).
        let target = (q * sorted.len() as f64).max(1.0);
        let rank = (target.ceil() as usize).clamp(1, sorted.len());
        let oracle = sorted[rank - 1];
        let est = h.quantile(q);
        let (lower, upper) = bucket_bounds(oracle);
        // Overflow reports the last finite boundary, otherwise the
        // estimate interpolates within the oracle's bucket.
        let est_ok = if upper.is_infinite() {
            (est - BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64).abs() < 1e-9
        } else {
            est >= lower && est <= upper
        };
        prop_assert!(
            est_ok,
            "q={q}: estimate {est} vs oracle {oracle} in [{lower}, {upper}]"
        );
    }

    /// Merging two snapshots is exactly equivalent to observing the
    /// concatenated value stream, and the +Inf invariant (bucket counts
    /// sum to `count`) holds throughout.
    #[test]
    fn merge_equals_concatenated_observation(
        a in prop::collection::vec(0u64..100_000_000, 0..150),
        b in prop::collection::vec(0u64..100_000_000, 0..150),
    ) {
        let mut ha = HistogramSnapshot::new();
        for &v in &a {
            ha.observe(v);
        }
        let mut hb = HistogramSnapshot::new();
        for &v in &b {
            hb.observe(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut oracle = HistogramSnapshot::new();
        for &v in a.iter().chain(&b) {
            oracle.observe(v);
        }
        prop_assert_eq!(&merged, &oracle);
        prop_assert_eq!(merged.buckets.iter().sum::<u64>(), merged.count);
        prop_assert_eq!(
            merged.sum_us,
            a.iter().chain(&b).sum::<u64>()
        );
    }
}
