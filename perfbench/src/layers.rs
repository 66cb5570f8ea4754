//! The traced run's layer replays. The workload's own inputs go through
//! each layer's public functions in-process, one span around each call,
//! so every end-to-end number can be explained layer by layer:
//!
//! * the **kernel pass** answers each request the way a daemon answers a
//!   cold one (alias lookup, JSON parse and hash, binary decode, canonical
//!   lookup, solve, serialise, cache insert, disk append), timing every
//!   layer even where the workload's own path skips it, then reads every
//!   answer back from the disk tier;
//! * the **service pass** sends the requests through an in-process
//!   `Service` from two concurrent callers (queue wait, call time), then
//!   through an in-process `HttpServer` on hits, paired with direct calls
//!   on the same hits (`http.overhead`);
//! * the **fleet probe** boots a real two-worker fleet and pairs each
//!   round trip through the router with one direct to the worker that
//!   answered it, on the same hit (`fleet.hop`).

use crate::workload::{Ctx, E2e, Inputs, Workload, COLD_CACHE};
use batsched_battery::{MilliAmpMinutes, Minutes};
use batsched_core::{schedule_in, Prof, SolverWorkspace};
use batsched_service::{
    decode_request, parse_request, wire, DiskTier, Disposition, HttpServer, ScheduleRequest,
    Service, ServiceConfig, ShardedCache, WireFormat,
};
use perfbench::catalog::PER_LAYER;
use perfbench::client::{self, Conn};
use perfbench::gen::Wire;
use perfbench::server::Server;
use perfbench::spans::{self, Span, Tracer};
use perfbench::stats::{mean, quantile, quantile_truncated};
use perfbench::verify::verify;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed (the list's first blocks: ten of each size).
const REPLAY: u64 = 30;

/// Paired round trips behind `http.overhead` and `fleet.hop`.
const PAIRS: usize = 300;

/// Distinct bodies the fleet probe cycles through.
const PROBE_BODIES: usize = 12;

/// The fleet the probe boots: two single-threaded workers, together as
/// many solver threads as the workloads' daemon.
const PROBE_FLEET: [&str; 11] = [
    "fleet",
    "--size",
    "2",
    "--workers",
    "1",
    "--http",
    "127.0.0.1:0",
    "--cache",
    "12",
    "--shards",
    "2",
];

/// One distinct request in both spellings.
struct Item {
    req: ScheduleRequest,
    json: Vec<u8>,
    bin: Vec<u8>,
}

impl Item {
    fn body(&self, wire: Wire) -> &[u8] {
        match wire {
            Wire::Json => &self.json,
            Wire::Binary => &self.bin,
        }
    }
}

/// The outcome of the traced replays.
pub struct Traced {
    /// The per-layer metrics, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// The workload's request path: layer and its p50 in microseconds.
    pub path: Vec<(&'static str, f64)>,
    /// Answers produced or received by the replays.
    pub attempted: u64,
    /// Answers that failed or were rejected.
    pub failed: u64,
    /// What went wrong; empty when correct.
    pub problems: Vec<String>,
}

#[derive(Default)]
struct Totals {
    prof: Prof,
    calls: u64,
    iterations: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Totals {
    fn check(&mut self, what: impl FnOnce() -> Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = what() {
            self.failed += 1;
            self.problems.push(e);
        }
    }
}

fn format_of(wire: Wire) -> WireFormat {
    match wire {
        Wire::Json => WireFormat::Json,
        Wire::Binary => WireFormat::Binary,
    }
}

/// Runs every replay of `w` on its inputs and assembles the per-layer
/// metrics; `e2e` is the untraced phase of the same run.
pub fn run(ctx: &Ctx, w: Workload, inputs: &Inputs, e2e: &E2e) -> io::Result<Traced> {
    let wire = w.wire();
    let items: Vec<Item> = (0..REPLAY)
        .map(|i| Item {
            req: inputs.list.request(i),
            json: inputs.list.body(i, Wire::Json),
            bin: inputs.list.body(i, Wire::Binary),
        })
        .collect();

    let origin = Instant::now();
    let mut t = Tracer::new(origin, 0);
    let mut totals = Totals::default();
    let disk_path = ctx.dir.join("replay-disk");
    let _ = std::fs::remove_file(&disk_path);
    let mut disk = DiskTier::open(&disk_path)?;
    let answers = kernel_pass(&mut t, &items, wire, &mut disk, &mut totals);
    drop(disk);
    let svc = service_pass(wire, &items, &answers, &mut totals)?;
    let probe_bodies: Vec<&[u8]> = items
        .iter()
        .take(PROBE_BODIES)
        .map(|it| it.body(wire))
        .collect();
    let (hop, probe_spans) = fleet_probe(ctx, wire, &probe_bodies, &mut totals)?;

    let mut spans = t.into_spans();
    spans.extend(svc.spans);
    spans.extend(probe_spans);
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        samples.entry(s.name).or_default().push(s.micros());
    }
    samples.insert("http.overhead", svc.overhead);
    samples.insert("fleet.hop", hop);
    let quantile_of = |layer: &str, p: f64| match layer {
        "service.queue_wait" => quantile_truncated(&svc.queue_us, p),
        _ => samples.get(layer).and_then(|v| quantile(v, p)),
    };

    let path: Vec<(&'static str, f64)> = path_of(w)
        .iter()
        .map(|&layer| (layer, quantile_of(layer, 0.5).unwrap_or(f64::NAN)))
        .collect();
    let explained_us: f64 = path.iter().map(|(_, us)| us).sum();
    let latency_us = e2e.metric("latency_p50_ms") * 1e3;

    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let calls = totals.calls.max(1) as f64;
    let request_kb = mean(
        &items
            .iter()
            .map(|it| it.body(wire).len() as f64 / 1024.0)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    let p = totals.prof;
    let mut metrics = Vec::new();
    for m in &PER_LAYER {
        let value = if let Some(layer) = m.name.strip_suffix("_us.p50") {
            quantile_of(layer, 0.50)
        } else if let Some(layer) = m.name.strip_suffix("_us.p95") {
            quantile_of(layer, 0.95)
        } else {
            Some(match m.name {
                "wire.request_kb" => request_kb,
                "core.sigma_evals" => p.sigma_evals as f64 / calls,
                "core.sigma_reused_ratio" => ratio(p.sigma_reused, p.sigma_fresh),
                "core.windows" => p.windows as f64 / calls,
                "core.rows_carried_ratio" => ratio(p.rows_carried, p.rows_full),
                "core.carry_hit_ratio" => ratio(p.carry_hits, p.carry_misses),
                "core.iterations" => totals.iterations as f64 / calls,
                // The size of the gap, whichever way it goes: the layers
                // can over-explain the round trip as well as under-explain
                // it.
                "trace.unexplained_share" => (1.0 - explained_us / latency_us).abs(),
                other => unreachable!("metric {other} has no source"),
            })
        };
        match value {
            Some(v) if v.is_finite() => metrics.push((m.name, v)),
            _ => {
                totals.problems.push(format!("no value for {}", m.name));
                metrics.push((m.name, 0.0));
            }
        }
    }
    Ok(Traced {
        metrics,
        spans,
        path,
        attempted: totals.attempted,
        failed: totals.failed,
        problems: totals.problems,
    })
}

/// The layers a request of `w` passes through, in order, named after
/// their spans. Their p50s, summed, are what the trace explains of the
/// untraced p50 round trip.
fn path_of(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::ColdJson => &[
            "http.overhead",
            "service.queue_wait",
            "cache.alias_get",
            "wire.parse",
            "wire.hash",
            "cache.get",
            "core.schedule",
            "battery.model",
            "wire.serialize",
            "cache.insert",
        ],
        Workload::ColdBin => &[
            "http.overhead",
            "service.queue_wait",
            "cache.alias_get",
            "wire_bin.decode",
            "cache.get",
            "core.schedule",
            "battery.model",
            "wire.serialize",
            "cache.insert",
        ],
    }
}

/// Answers every item cold, timing each layer, and returns the rendered
/// answers (`None` where a layer failed).
fn kernel_pass(
    t: &mut Tracer,
    items: &[Item],
    wire: Wire,
    disk: &mut DiskTier,
    totals: &mut Totals,
) -> Vec<Option<String>> {
    let cache = ShardedCache::new(COLD_CACHE, ServiceConfig::default().cache_shards);
    let mut ws = SolverWorkspace::new();
    let mut answers = Vec::with_capacity(items.len());
    for (k, it) in items.iter().enumerate() {
        let rid = k as u64;
        let root = t.open(rid, None, "request");
        let p = Some(root.id());
        let body = it.body(wire);
        let raw = wire::fnv1a64(body);
        t.time(rid, p, "cache.alias_get", || {
            cache.get_by_alias(wire::fnv1a64(body), body)
        });
        let json = std::str::from_utf8(&it.json).expect("generated JSON is UTF-8");
        let parsed = t.time(rid, p, "wire.parse", || parse_request(json));
        let decoded = t.time(rid, p, "wire_bin.decode", || decode_request(&it.bin));
        let (req, bin_key) = match (parsed, decoded) {
            (Ok(req), Ok((_, bin_key))) => (req, bin_key),
            (Err(e), _) | (_, Err(e)) => {
                t.close(root);
                totals.check(|| Err(format!("replay item {k} rejected: {e}")));
                answers.push(None);
                continue;
            }
        };
        let key = t.time(rid, p, "wire.hash", || req.content_hash());
        t.time(rid, p, "cache.get", || cache.get(key));
        let config = wire::scheduler_config(&req);
        let before = ws.prof();
        let solution = t.time(rid, p, "core.schedule", || {
            schedule_in(&req.graph, Minutes::new(req.deadline), &config, &mut ws)
        });
        let solved = solution.map(|sol| {
            totals.prof.merge(&ws.prof().since(&before));
            totals.calls += 1;
            totals.iterations += sol.iterations as u64;
            t.time(rid, p, "battery.model", || {
                let spec = req
                    .model
                    .clone()
                    .unwrap_or_else(wire::ModelSpec::default_rv);
                let model = spec.build().expect("validated at parse");
                let profile = sol.schedule.to_profile(&req.graph);
                let charge = model.apparent_charge(&profile, profile.end());
                let lifetime = req
                    .capacity
                    .and_then(|c| model.lifetime(&profile, MilliAmpMinutes::new(c)));
                (charge, lifetime)
            });
        });
        let resp = t.time(rid, p, "service.solve", || {
            batsched_service::solve(&req, &mut ws)
        });
        let rendered = match (solved, resp) {
            (Ok(()), Ok(resp)) => Some(t.time(rid, p, "wire.serialize", || {
                serde_json::to_string(&resp).expect("responses serialise")
            })),
            _ => None,
        };
        if let Some(rendered) = &rendered {
            t.time(rid, p, "cache.insert", || {
                cache.insert(key, rendered.clone());
                cache.alias(raw, body, key);
            });
            let put = t.time(rid, p, "disk.put", || disk.put(key, rendered));
            totals.check(|| put.map_err(|e| format!("disk append: {e}")));
        }
        t.close(root);
        totals.check(|| {
            if bin_key != key {
                return Err(format!("replay item {k}: binary and JSON keys differ"));
            }
            let r = rendered
                .as_deref()
                .ok_or(format!("replay item {k} did not solve"))?;
            verify(&it.req, r.as_bytes()).map(|_| ())
        });
        answers.push(rendered);
    }
    for (k, it) in items.iter().enumerate() {
        let rid = k as u64;
        let key = it.req.content_hash();
        let root = t.open(rid, None, "readback");
        let got = t.time(rid, Some(root.id()), "disk.get", || disk.get(key));
        t.close(root);
        totals.check(|| match (got, &answers[k]) {
            (Ok(Some(b)), Some(want)) if b == *want => Ok(()),
            (_, None) => Ok(()), // already counted as failed
            _ => Err(format!("disk tier lost the answer of item {k}")),
        });
    }
    answers
}

struct ServicePass {
    /// `RequestTrace::queue_us` of every call.
    queue_us: Vec<u64>,
    /// HTTP round trip minus direct call on the same hit, µs.
    overhead: Vec<f64>,
    spans: Vec<Span>,
}

/// The service pass and the HTTP pass on the same in-process service,
/// configured like the workloads' daemon. Returns the queue-wait readings
/// (whole microseconds, as the service reports them), the `http.overhead`
/// samples and the spans.
fn service_pass(
    wire: Wire,
    items: &[Item],
    answers: &[Option<String>],
    totals: &mut Totals,
) -> io::Result<ServicePass> {
    let format = format_of(wire);
    let cfg = ServiceConfig {
        cache_capacity: COLD_CACHE,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(Service::try_start(cfg).map_err(|e| io::Error::other(e.to_string()))?);
    let origin = Instant::now();
    let callers: Vec<(Tracer, Vec<u64>, Vec<String>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|c| {
                let svc = &svc;
                s.spawn(move || {
                    let mut t = Tracer::new(origin, 1_000_000_000 * (c as u64 + 1));
                    let mut queue = Vec::new();
                    let mut problems = Vec::new();
                    let mut attempted = 0;
                    for (k, it) in items.iter().enumerate().skip(c).step_by(2) {
                        let body = it.body(wire).to_vec();
                        let reply = t.time(k as u64, None, "service.call", || {
                            svc.call_bytes(body, format)
                        });
                        queue.push(reply.trace.queue_us);
                        attempted += 1;
                        let ok = reply.disposition == (Disposition::Ok { cached: false })
                            && answers[k].as_deref() == Some(reply.body.as_str());
                        if !ok {
                            problems
                                .push(format!("service pass request {k}: {:?}", reply.disposition));
                        }
                    }
                    (t, queue, problems, attempted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut queue = Vec::new();
    for (t, q, problems, attempted) in callers {
        spans.extend(t.into_spans());
        queue.extend(q);
        totals.attempted += attempted;
        totals.failed += problems.len() as u64;
        totals.problems.extend(problems);
    }

    // HTTP on hits: the service pass left every request cached.
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0")?;
    let mut conn = Conn::connect(server.local_addr())?;
    let mut t = Tracer::new(origin, 3_000_000_000);
    let mut overhead = Vec::with_capacity(PAIRS);
    for k in 0..PAIRS {
        let item = k % items.len();
        let body = items[item].body(wire);
        let rid = 3_000_000_000 + k as u64;
        let answer = t.time(rid, None, "http.roundtrip", || {
            conn.send("POST", "/v1/schedule", Some(wire.content_type()), body)
        });
        let http_us = t.last_micros();
        let reply = t.time(rid, None, "service.call.hit", || {
            svc.call_bytes(body.to_vec(), format)
        });
        overhead.push(http_us - t.last_micros());
        totals.check(|| match answer {
            Ok(a) if a.status == 200 && a.x_cache.as_deref() == Some("hit") => {
                if Some(a.body.as_slice()) == answers[item].as_deref().map(str::as_bytes)
                    && reply.disposition == (Disposition::Ok { cached: true })
                {
                    Ok(())
                } else {
                    Err(format!("http pair {k}: answers differ"))
                }
            }
            other => Err(format!("http pair {k}: {:?}", other.map(|a| a.status))),
        });
    }
    drop(conn);
    server.stop();
    server.wait();
    svc.shutdown();
    spans.extend(t.into_spans());
    Ok(ServicePass {
        queue_us: queue,
        overhead,
        spans,
    })
}

/// The router's `batsched_fleet_retries_total`.
fn router_retries(router: SocketAddr) -> io::Result<u64> {
    let a = client::call(router, "GET", "/v1/metrics", b"")?;
    String::from_utf8_lossy(&a.body)
        .lines()
        .find_map(|l| l.strip_prefix("batsched_fleet_retries_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .ok_or_else(|| io::Error::other("no batsched_fleet_retries_total"))
}

/// Boots a real two-worker fleet and pairs each round trip through the
/// router with one direct to the worker that answered it, on the same
/// hit. Returns the hop samples and the spans. A router retry during the
/// probe is a problem: no worker failed.
fn fleet_probe(
    ctx: &Ctx,
    wire: Wire,
    bodies: &[&[u8]],
    totals: &mut Totals,
) -> io::Result<(Vec<f64>, Vec<Span>)> {
    let mut server = Server::spawn(&ctx.bin, &PROBE_FLEET.map(String::from))?;
    server.wait_ready()?;
    let workers = server.discover_workers()?.to_vec();
    let retries_before = router_retries(server.addr())?;
    let ct = Some(wire.content_type());
    let mut router = Conn::connect(server.addr())?;
    let mut direct = workers
        .iter()
        .map(|w| Conn::connect(w.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut first = Vec::with_capacity(bodies.len());
    for (k, body) in bodies.iter().enumerate() {
        let a = router.send("POST", "/v1/schedule", ct, body)?;
        totals.check(|| match a.status {
            200 => Ok(()),
            s => Err(format!("fleet probe warm-up {k}: HTTP {s}")),
        });
        first.push(a.body);
    }
    let mut t = Tracer::new(Instant::now(), 4_000_000_000);
    let mut hop = Vec::with_capacity(PAIRS);
    for k in 0..PAIRS {
        let body = bodies[k % bodies.len()];
        let rid = 4_000_000_000 + k as u64;
        let via = t.time(rid, None, "fleet.router_roundtrip", || {
            router.send("POST", "/v1/schedule", ct, body)
        })?;
        let via_us = t.last_micros();
        let Some(conn) = via.fleet_worker.and_then(|w| direct.get_mut(w)) else {
            totals.check(|| Err(format!("fleet probe pair {k}: no X-Fleet-Worker")));
            continue;
        };
        let to_worker = t.time(rid, None, "fleet.direct_roundtrip", || {
            conn.send("POST", "/v1/schedule", ct, body)
        })?;
        hop.push(via_us - t.last_micros());
        let want = &first[k % bodies.len()];
        totals.check(|| {
            if via.status == 200 && via.body == *want && to_worker.body == via.body {
                Ok(())
            } else {
                Err(format!("fleet probe pair {k}: answers differ"))
            }
        });
    }
    let retries = router_retries(server.addr())? - retries_before;
    totals.check(|| match retries {
        0 => Ok(()),
        n => Err(format!(
            "guard: the router retried {n} times during the fleet probe"
        )),
    });
    drop(router);
    drop(direct);
    server.shutdown()?;
    Ok((hop, t.into_spans()))
}

/// Per-span-name count, p50, p95 and self-time p50, for the report.
pub fn breakdown(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64, f64)> {
    let own = spans::self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.micros());
    }
    by_name
        .into_iter()
        .map(|(name, d)| {
            let self_p50 = own.get(name).and_then(|v| quantile(v, 0.5)).unwrap_or(0.0);
            (
                name,
                d.len(),
                quantile(&d, 0.5).unwrap_or(0.0),
                quantile(&d, 0.95).unwrap_or(0.0),
                self_p50,
            )
        })
        .collect()
}
