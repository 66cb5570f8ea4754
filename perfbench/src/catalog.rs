//! Every metric the benchmark reports, with its unit, its direction and —
//! for per-layer metrics — which end-to-end metric on which workload it
//! should move. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// A metric a user of the daemon sees, reported by untraced runs.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The end-to-end metrics, reported on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "success_rate",
        unit: "ratio",
        better: "higher",
    },
    EndToEnd {
        name: "sigma_norm_mean",
        unit: "ratio",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
    },
];

/// A metric of one layer, reported by traced runs.
pub struct PerLayer {
    /// Metric name: `<layer>.<quantity>[.p50|.p95]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metrics and workloads a change of this metric
    /// should move (and, where stated, leave alone).
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const PARSE: &str = "latency_p50_ms, latency_p95_ms, throughput_rps on cold_json; not cold_bin";
const SERIALIZE: &str = "latency_p50_ms, latency_p95_ms, throughput_rps on cold_json and cold_bin";
const DECODE: &str = "latency_p50_ms, latency_p95_ms on cold_bin only";
const SCHEDULE: &str =
    "latency_p50_ms, latency_p95_ms, throughput_rps on cold_bin (and cold_json once parsing is linear)";
const COUNTS: &str = "latency_p50_ms, latency_p95_ms on cold_bin";
const MODEL: &str = "latency_p50_ms, latency_p95_ms on cold_json and cold_bin, a little";
const SOLVE: &str = "latency_p50_ms, latency_p95_ms on cold_json and cold_bin";
const QUEUE: &str = "throughput_rps, latency_p95_ms on cold_json and cold_bin";
const CACHE: &str = "latency_p50_ms on cold_json and cold_bin, a little (every cold request \
    looks up and inserts once); repeated traffic, which no workload sends";
const DISK: &str = "nothing on cold_json or cold_bin (their daemons run without a disk \
    tier); disk-backed repeated traffic, which no workload sends";
const HTTP: &str = "latency_p50_ms, latency_p95_ms, throughput_rps on cold_json and cold_bin, \
    a little (a fixed cost per request)";
const HOP: &str = "nothing on cold_json or cold_bin (no fleet); the cost a fleet adds per request";
const EXPLAINED: &str = "context, not a comparison metric: |1 - (sum of the request path's \
    layer p50s) / latency_p50_ms| on this workload, how far the layers are from accounting \
    for the round trip, either way";

/// The per-layer metrics, reported on every workload (each layer is
/// exercised with that workload's inputs).
pub const PER_LAYER: [PerLayer; 40] = [
    layer("wire.parse_us.p50", "us", "lower", PARSE),
    layer("wire.parse_us.p95", "us", "lower", PARSE),
    layer("wire.hash_us.p50", "us", "lower", PARSE),
    layer("wire.hash_us.p95", "us", "lower", PARSE),
    layer("wire.serialize_us.p50", "us", "lower", SERIALIZE),
    layer("wire.serialize_us.p95", "us", "lower", SERIALIZE),
    layer(
        "wire.request_kb",
        "KiB",
        "lower",
        "context: mean request body size in the workload's spelling",
    ),
    layer("wire_bin.decode_us.p50", "us", "lower", DECODE),
    layer("wire_bin.decode_us.p95", "us", "lower", DECODE),
    layer("core.schedule_us.p50", "us", "lower", SCHEDULE),
    layer("core.schedule_us.p95", "us", "lower", SCHEDULE),
    layer("core.sigma_evals", "count", "lower", COUNTS),
    layer("core.sigma_reused_ratio", "ratio", "higher", COUNTS),
    layer("core.windows", "count", "lower", COUNTS),
    layer("core.rows_carried_ratio", "ratio", "higher", COUNTS),
    layer("core.carry_hit_ratio", "ratio", "higher", COUNTS),
    layer("core.iterations", "count", "lower", COUNTS),
    layer("battery.model_us.p50", "us", "lower", MODEL),
    layer("battery.model_us.p95", "us", "lower", MODEL),
    layer("service.solve_us.p50", "us", "lower", SOLVE),
    layer("service.solve_us.p95", "us", "lower", SOLVE),
    layer("service.call_us.p50", "us", "lower", SOLVE),
    layer("service.call_us.p95", "us", "lower", SOLVE),
    layer("service.queue_wait_us.p50", "us", "lower", QUEUE),
    layer("service.queue_wait_us.p95", "us", "lower", QUEUE),
    layer("cache.alias_get_us.p50", "us", "lower", CACHE),
    layer("cache.alias_get_us.p95", "us", "lower", CACHE),
    layer("cache.get_us.p50", "us", "lower", CACHE),
    layer("cache.get_us.p95", "us", "lower", CACHE),
    layer("cache.insert_us.p50", "us", "lower", CACHE),
    layer("cache.insert_us.p95", "us", "lower", CACHE),
    layer("disk.get_us.p50", "us", "lower", DISK),
    layer("disk.get_us.p95", "us", "lower", DISK),
    layer("disk.put_us.p50", "us", "lower", DISK),
    layer("disk.put_us.p95", "us", "lower", DISK),
    layer("http.overhead_us.p50", "us", "lower", HTTP),
    layer("http.overhead_us.p95", "us", "lower", HTTP),
    layer("fleet.hop_us.p50", "us", "lower", HOP),
    layer("fleet.hop_us.p95", "us", "lower", HOP),
    layer("trace.unexplained_share", "ratio", "lower", EXPLAINED),
];

/// The unit of a metric named in either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The catalogue as JSON: `{"end_to_end": [...], "per_layer": [...]}`.
pub fn describe() -> String {
    use serde::json::Value;
    let s = |v: &str| Value::Str(v.to_string());
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let doc = obj(vec![
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("moves", s(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = String::new();
    serde::json::write_pretty(&doc, &mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Arr(list)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key}");
        };
        list.iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key} entry field {k}: {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let want = |it: &mut dyn Iterator<Item = (&str, &str, &str)>| {
            it.map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(&doc, "end_to_end"),
            want(&mut END_TO_END.iter().map(|m| (m.name, m.unit, m.better)))
        );
        assert_eq!(
            names(&doc, "per_layer"),
            want(&mut PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        );
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(unit_of("fleet.hop_us.p95"), Some("us"));
        assert_eq!(unit_of("nope"), None);
    }
}
