//! Hand-rolled metrics primitives: a fixed-boundary log-bucket latency
//! histogram with atomic buckets and mergeable snapshots, plus the
//! Prometheus text-exposition rendering behind `GET /v1/metrics`: series
//! tables (`Series` rows read from one snapshot, the daemon's and the
//! router's alike) and histogram families.
//!
//! No external dependencies: the bucket boundaries are a compile-time
//! 1–2–5 ladder in microseconds (1 µs … 60 s), wide enough that a cache
//! hit (~tens of µs) and a pathological 60 s solve land in distinct
//! buckets while the whole histogram stays 25 counters. `observe` is two
//! relaxed atomic adds and a branch-free binary search — cheap enough to
//! sit on the cache-hit fast path.
//!
//! [`HistogramSnapshot`] is the *shared* histogram type: the service
//! snapshots its atomic histograms into it for rendering and quantiles,
//! and `loadgen` accumulates into it directly (single-threaded, no
//! atomics) so benchmark percentiles and service percentiles come from
//! the same estimator.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bucket boundaries in microseconds (`le` values), ascending.
/// Observations above the last boundary land in the overflow bucket
/// (`le="+Inf"`).
pub const BUCKET_BOUNDS_US: [u64; 24] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Buckets per histogram: one per boundary plus the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// Index of the bucket an observation of `us` microseconds falls into
/// (`BUCKET_BOUNDS_US.len()` = overflow).
fn bucket_index(us: u64) -> usize {
    BUCKET_BOUNDS_US.partition_point(|&b| b < us)
}

/// The largest finite bucket boundary (the value percentile estimation
/// reports when the mass lands in the overflow bucket).
fn last_finite_bound() -> u64 {
    BUCKET_BOUNDS_US.last().copied().unwrap_or(0)
}

/// A concurrent fixed-boundary histogram: per-bucket atomic counters plus
/// an atomic sum/count pair. Microsecond observations only — the unit is
/// part of the metric name, not the type.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        self.buckets[bucket_index(us).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy (consistent enough: buckets are read after
    /// sum/count, so a racing `observe` can at worst appear in the buckets
    /// but not yet in the totals by one observation).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain (non-atomic) histogram over the same boundaries: the snapshot
/// of a [`Histogram`], the accumulator `loadgen` fills directly, and the
/// unit both sides derive quantiles from. Mergeable by bucket-wise
/// addition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (index = [`BUCKET_BOUNDS_US`] index;
    /// last = overflow).
    pub buckets: Vec<u64>,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Number of observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            sum_us: 0,
            count: 0,
        }
    }

    /// Records one observation (single-threaded accumulation).
    pub fn observe(&mut self, us: u64) {
        self.buckets[bucket_index(us).min(BUCKETS - 1)] += 1;
        self.sum_us += us;
        self.count += 1;
    }

    /// Adds `other`'s observations into `self` (bucket-wise; both sides
    /// share the compile-time boundaries, so merging is exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in microseconds: finds the
    /// bucket holding the target rank and interpolates linearly inside
    /// it. The estimate is bounded by the bucket (never off by more than
    /// one bucket width); the overflow bucket reports its lower boundary.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let Some(&upper) = BUCKET_BOUNDS_US.get(i) else {
                    // Overflow bucket: no upper boundary to interpolate
                    // toward; report the last finite boundary.
                    return last_finite_bound() as f64;
                };
                let lower = if i == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_US.get(i - 1).copied().unwrap_or(0)
                } as f64;
                let frac = (target - cum as f64) / c as f64;
                return lower + (upper as f64 - lower) * frac;
            }
            cum = next;
        }
        last_finite_bound() as f64
    }

    /// Mean observation in microseconds (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// One exposition series read from a snapshot `S`: its name (a fixed
/// label set may follow in braces, e.g. `x{format="json"}`), its kind
/// (`counter`, `gauge`, `histogram`) and the getter for its value.
pub(crate) type Series<S> = (&'static str, &'static str, fn(&S) -> u64);

/// Renders `table` over `rows`: for each series, its `# TYPE` line, then
/// one sample per row with that row's labels (e.g. `worker="K"`; empty
/// for an unlabelled snapshot). Consecutive series sharing a name (they
/// differ in their fixed labels) share one `# TYPE` line. Adding a
/// series to an exposition is adding one row to its table.
pub(crate) fn render_series<S>(out: &mut String, table: &[Series<S>], rows: &[(String, &S)]) {
    let mut family = "";
    for &(series, kind, get) in table {
        let (name, fixed) = match series.split_once('{') {
            Some((name, labels)) => (name, labels.trim_end_matches('}')),
            None => (series, ""),
        };
        if name != family {
            family = name;
            render_type(out, name, kind);
        }
        for (labels, snap) in rows {
            let sep = if fixed.is_empty() || labels.is_empty() {
                ""
            } else {
                ","
            };
            render_sample(out, name, &format!("{fixed}{sep}{labels}"), get(snap));
        }
    }
}

/// Appends one `# TYPE` header line.
pub(crate) fn render_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends one `name{labels} value` sample line (`labels` already
/// rendered, without braces; empty = no label set).
fn render_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Appends a full Prometheus histogram family member — cumulative
/// `_bucket` series (including `le="+Inf"`), `_sum` and `_count` — with
/// `labels` (e.g. `stage="solve"`) merged into each bucket's label set.
pub(crate) fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        cum += c;
        let le = match BUCKET_BOUNDS_US.get(i) {
            Some(b) => b.to_string(),
            None => "+Inf".to_string(),
        };
        let sep = if labels.is_empty() { "" } else { "," };
        let full = format!("{labels}{sep}le=\"{le}\"");
        render_sample(out, &format!("{name}_bucket"), &full, cum);
    }
    render_sample(out, &format!("{name}_sum"), labels, snap.sum_us);
    render_sample(out, &format!("{name}_count"), labels, snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_le_semantics() {
        // An observation equal to a boundary lands in that boundary's
        // bucket (Prometheus `le` is inclusive).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1_000), 9);
        assert_eq!(bucket_index(1_001), 10);
        assert_eq!(bucket_index(60_000_000), BUCKET_BOUNDS_US.len() - 1);
        assert_eq!(bucket_index(60_000_001), BUCKET_BOUNDS_US.len());
    }

    #[test]
    fn atomic_and_plain_histograms_agree() {
        let h = Histogram::new();
        let mut s = HistogramSnapshot::new();
        for us in [0, 1, 7, 499, 500, 501, 70_000_000] {
            h.observe(us);
            s.observe(us);
        }
        assert_eq!(h.snapshot(), s);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum_us, 1 + 7 + 499 + 500 + 501 + 70_000_000);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        for us in [3, 40, 900] {
            a.observe(us);
        }
        for us in [4, 41, 901, 5_000_000] {
            b.observe(us);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut oracle = HistogramSnapshot::new();
        for us in [3, 40, 900, 4, 41, 901, 5_000_000] {
            oracle.observe(us);
        }
        assert_eq!(merged, oracle);
    }

    #[test]
    fn quantiles_bound_the_sorted_vec_oracle() {
        // The histogram quantile must land within the bucket that holds
        // the oracle value (the estimator's documented error bound).
        let values: Vec<u64> = (0..1000).map(|i| (i * i) % 90_000 + 1).collect();
        let mut h = HistogramSnapshot::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let oracle = sorted[((sorted.len() - 1) as f64 * q) as usize];
            let est = h.quantile(q);
            let oracle_bucket = bucket_index(oracle);
            let lower = if oracle_bucket == 0 {
                0
            } else {
                BUCKET_BOUNDS_US[oracle_bucket - 1]
            } as f64;
            let upper = BUCKET_BOUNDS_US[oracle_bucket] as f64;
            assert!(
                est >= lower && est <= upper,
                "q={q}: estimate {est} outside oracle bucket [{lower}, {upper}] (oracle {oracle})"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramSnapshot::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        let mut one = HistogramSnapshot::new();
        one.observe(7);
        // A single observation: every quantile lands in its bucket.
        for q in [0.0, 0.5, 1.0] {
            let est = one.quantile(q);
            assert!((5.0..=10.0).contains(&est), "q={q} -> {est}");
        }
        // Everything in the overflow bucket reports the last boundary.
        let mut over = HistogramSnapshot::new();
        over.observe(120_000_000);
        assert_eq!(over.quantile(0.5), 60_000_000.0);
    }

    #[test]
    fn series_sharing_a_name_share_one_type_line() {
        let table: [Series<(u64, u64)>; 3] = [
            ("x_total", "counter", |s| s.0),
            ("y{kind=\"a\"}", "gauge", |s| s.1),
            ("y{kind=\"b\"}", "gauge", |s| s.0 + s.1),
        ];
        let mut out = String::new();
        render_series(&mut out, &table, &[(String::new(), &(1, 2))]);
        assert_eq!(
            out,
            "# TYPE x_total counter\nx_total 1\n\
             # TYPE y gauge\ny{kind=\"a\"} 2\ny{kind=\"b\"} 3\n"
        );
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_complete() {
        let mut s = HistogramSnapshot::new();
        for us in [1, 3, 70_000_000] {
            s.observe(us);
        }
        let mut out = String::new();
        render_histogram(&mut out, "x_us", "stage=\"solve\"", &s);
        assert!(
            out.contains("x_us_bucket{stage=\"solve\",le=\"1\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("x_us_bucket{stage=\"solve\",le=\"5\"} 2\n"),
            "{out}"
        );
        assert!(
            out.contains("x_us_bucket{stage=\"solve\",le=\"+Inf\"} 3\n"),
            "{out}"
        );
        assert!(
            out.contains("x_us_sum{stage=\"solve\"} 70000004\n"),
            "{out}"
        );
        assert!(out.contains("x_us_count{stage=\"solve\"} 3\n"), "{out}");
        // +Inf bucket equals _count — the exposition-format invariant.
        let inf: u64 = out
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(inf, s.count);
    }
}
