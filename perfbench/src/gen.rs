//! Deterministic request generators for the benchmark workloads.
//!
//! Everything here is a pure function of the workload seed: the same seed
//! gives byte-identical request bodies, a different seed different ones.
//! The daemon under test only ever sees the generated bytes.
//!
//! * [`ColdList`] — the `cold_json` / `cold_bin` request list: fresh
//!   layered graphs (m = 8, n ∈ {50, 100, 200} in equal shares) with a
//!   deadline slack drawn in [0.3, 0.9]. Request `i` runs on graph
//!   `i mod len` with a deadline drawn for `i` alone, so every request is
//!   a distinct cache key however many a fast program gets through; the
//!   first `len` requests are also distinct graphs.

use batsched_service::{wire_bin, ScheduleRequest};
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::{analysis, TaskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Design points per synthetic task.
pub const POINTS: usize = 8;

/// Cold-workload instance sizes, drawn in equal shares.
pub const COLD_SIZES: [usize; 3] = [50, 100, 200];

/// Deadline slack range for cold requests: the deadline sits this far
/// between the all-fastest and all-leanest makespans.
pub const SLACK: (f64, f64) = (0.3, 0.9);

/// The layered-graph parameters of `batsched_bench::workloads` (m = 8,
/// width-5 layers, edge probability 0.35), which keeps them private to
/// its fixed-seed instances. A test regenerates
/// `batsched_bench::workloads::synthetic_scaling` from this copy byte for
/// byte, so the two cannot drift apart.
fn layered_params() -> TaskParams {
    TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 12.0),
        factors: (0..POINTS)
            .map(|j| 1.0 - 0.67 * j as f64 / (POINTS - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    }
}

/// A width-5 layered graph of `n` tasks (`n` a multiple of 5) drawn from
/// `rng` with [`layered_params`].
fn layered_graph(n: usize, rng: &mut StdRng) -> TaskGraph {
    layered(n / 5, 5, 0.35, &layered_params(), rng).expect("valid generator config")
}

/// Independent streams of randomness derived from one seed.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
enum Stream {
    SizeOrder = 1,
    Graph = 2,
    Deadline = 3,
    Warmup = 6,
}

/// 64 well-mixed bits for item `i` of `stream` under `seed` (SplitMix64
/// finalizer over the combined input), so any item can be generated on
/// its own, in any order.
fn mix(seed: u64, stream: Stream, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from 64 bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The two request spellings the daemon accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `application/json`.
    Json,
    /// `application/x-batsched-bin`.
    Binary,
}

impl Wire {
    /// The `Content-Type` a request in this spelling declares.
    pub fn content_type(self) -> &'static str {
        match self {
            Wire::Json => "application/json",
            Wire::Binary => wire_bin::CONTENT_TYPE,
        }
    }

    /// The request's bytes in this spelling.
    pub fn encode(self, req: &ScheduleRequest) -> Vec<u8> {
        match self {
            Wire::Json => serde_json::to_string(req)
                .expect("requests serialise")
                .into_bytes(),
            Wire::Binary => wire_bin::encode_request(req),
        }
    }

    fn encode_deadline(self, deadline: f64) -> Vec<u8> {
        match self {
            Wire::Json => serde_json::to_string(&deadline)
                .expect("numbers serialise")
                .into_bytes(),
            Wire::Binary => deadline.to_bits().to_le_bytes().to_vec(),
        }
    }
}

/// A deadline no generated request uses, whose encoding occurs exactly
/// once in a body: marks where the deadline sits.
const SENTINEL_DEADLINE: f64 = 987_654.321_098_765_4;

/// One request body with its deadline cut out, so a body for any deadline
/// is two copies instead of a full serialisation of the graph.
#[derive(Debug, Clone)]
struct Template {
    head: Vec<u8>,
    tail: Vec<u8>,
}

impl Template {
    fn new(graph: &TaskGraph, wire: Wire) -> Template {
        let body = wire.encode(&ScheduleRequest::new(graph.clone(), SENTINEL_DEADLINE));
        let needle = wire.encode_deadline(SENTINEL_DEADLINE);
        let mut hits = body
            .windows(needle.len())
            .enumerate()
            .filter(|(_, w)| *w == needle.as_slice())
            .map(|(at, _)| at);
        let at = hits.next().expect("the deadline appears in the body");
        assert!(hits.next().is_none(), "the deadline marker is unique");
        Template {
            head: body[..at].to_vec(),
            tail: body[at + needle.len()..].to_vec(),
        }
    }

    fn body(&self, deadline: f64, wire: Wire) -> Vec<u8> {
        let d = wire.encode_deadline(deadline);
        let mut out = Vec::with_capacity(self.head.len() + d.len() + self.tail.len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&d);
        out.extend_from_slice(&self.tail);
        out
    }
}

struct ColdGraph {
    graph: Arc<TaskGraph>,
    lo: f64,
    hi: f64,
    json: Template,
    bin: Template,
}

/// The cold-workload request list for one seed (see the module docs).
pub struct ColdList {
    seed: u64,
    graphs: Vec<ColdGraph>,
}

impl ColdList {
    /// Generates `graphs` fresh graphs (a multiple of 3: each block of
    /// three holds one graph of every size, in a seed-drawn order).
    pub fn generate(seed: u64, graphs: usize) -> ColdList {
        assert!(
            graphs > 0 && graphs.is_multiple_of(COLD_SIZES.len()),
            "cold lists hold whole blocks of sizes"
        );
        let graphs = (0..graphs)
            .map(|j| {
                let block = (j / 3) as u64;
                let order = permutation3(mix(seed, Stream::SizeOrder, block));
                let n = COLD_SIZES[order[j % 3]];
                let mut rng = StdRng::seed_from_u64(mix(seed, Stream::Graph, j as u64));
                let graph = layered_graph(n, &mut rng);
                ColdGraph {
                    lo: analysis::min_makespan(&graph).value(),
                    hi: analysis::max_makespan(&graph).value(),
                    json: Template::new(&graph, Wire::Json),
                    bin: Template::new(&graph, Wire::Binary),
                    graph: Arc::new(graph),
                }
            })
            .collect();
        ColdList { seed, graphs }
    }

    /// The untimed warm-up list: two graphs of every size, from a stream
    /// disjoint from the measured lists'. It is the same for every seed,
    /// so `setup_s`, which includes it, times the same work in every run.
    pub fn warmup() -> ColdList {
        ColdList::generate(mix(0, Stream::Warmup, 0), 2 * COLD_SIZES.len())
    }

    /// Number of distinct graphs.
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    fn entry(&self, i: u64) -> &ColdGraph {
        &self.graphs[(i % self.graphs.len() as u64) as usize]
    }

    /// The graph request `i` schedules.
    pub fn graph(&self, i: u64) -> &TaskGraph {
        &self.entry(i).graph
    }

    /// Request `i`'s deadline (minutes).
    pub fn deadline(&self, i: u64) -> f64 {
        let g = self.entry(i);
        let slack = SLACK.0 + (SLACK.1 - SLACK.0) * unit(mix(self.seed, Stream::Deadline, i));
        g.lo + slack * (g.hi - g.lo)
    }

    /// Request `i` as a value.
    pub fn request(&self, i: u64) -> ScheduleRequest {
        ScheduleRequest::new(self.graph(i).clone(), self.deadline(i))
    }

    /// Request `i`'s body in the given spelling.
    pub fn body(&self, i: u64, wire: Wire) -> Vec<u8> {
        let g = self.entry(i);
        let template = match wire {
            Wire::Json => &g.json,
            Wire::Binary => &g.bin,
        };
        template.body(self.deadline(i), wire)
    }
}

/// A permutation of `[0, 1, 2]` chosen by `bits`.
fn permutation3(bits: u64) -> [usize; 3] {
    const ALL: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    ALL[(bits % 6) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_service::{decode_request, parse_request};

    #[test]
    fn layered_params_match_the_bench_crate() {
        use batsched_bench::workloads::{synthetic_scaling, SYNTH_N50_M8_SEED};
        for n in [50usize, 100] {
            let mut rng = StdRng::seed_from_u64(SYNTH_N50_M8_SEED ^ n as u64);
            let ours = serde_json::to_string(&layered_graph(n, &mut rng)).unwrap();
            let theirs = serde_json::to_string(&synthetic_scaling(n)).unwrap();
            assert_eq!(ours, theirs, "n = {n}");
        }
    }

    #[test]
    fn cold_lists_are_deterministic_per_seed() {
        let a = ColdList::generate(11, 6);
        let b = ColdList::generate(11, 6);
        let c = ColdList::generate(12, 6);
        for i in 0..12 {
            for wire in [Wire::Json, Wire::Binary] {
                assert_eq!(a.body(i, wire), b.body(i, wire), "same seed, request {i}");
                assert_ne!(a.body(i, wire), c.body(i, wire), "other seed, request {i}");
            }
        }
    }

    #[test]
    fn cold_requests_are_distinct_sized_and_spelled_alike() {
        let list = ColdList::generate(3, 6);
        let mut sizes = Vec::new();
        let mut keys = std::collections::BTreeSet::new();
        for i in 0..12 {
            let req = list.request(i);
            let json = list.body(i, Wire::Json);
            let bin = list.body(i, Wire::Binary);
            let parsed = parse_request(std::str::from_utf8(&json).unwrap()).unwrap();
            let (decoded, hash) = decode_request(&bin).unwrap();
            assert_eq!(parsed.key(), req.key());
            assert_eq!(decoded.key(), req.key());
            assert_eq!(hash, req.content_hash());
            assert!(keys.insert(req.key()), "request {i} repeats a key");
            let g = list.graph(i);
            let (lo, hi) = (
                analysis::min_makespan(g).value(),
                analysis::max_makespan(g).value(),
            );
            let slack = (req.deadline - lo) / (hi - lo);
            assert!((SLACK.0..=SLACK.1).contains(&slack), "slack {slack}");
            if i < 6 {
                sizes.push(g.task_count());
            }
        }
        sizes.sort_unstable();
        assert_eq!(sizes, [50, 50, 100, 100, 200, 200]);
    }

    #[test]
    fn warmup_list_is_disjoint_from_the_measured_list() {
        let list = ColdList::generate(5, 3);
        let warm = ColdList::warmup();
        for i in 0..warm.graph_count() as u64 {
            for j in 0..3 {
                assert_ne!(warm.request(i).key(), list.request(j).key());
            }
        }
    }
}
