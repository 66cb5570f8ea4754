//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload cold_json|cold_bin|all] \
//!     [--seed N] [--seconds S] [--trace 0|1] [--describe]
//! ```
//!
//! `all`, the default, runs both workloads. Run it from the repository
//! root: it first builds the `batsched`
//! binary with the repository's own release profile (honouring
//! `CARGO_TARGET_DIR`), then, per workload:
//!
//! * `--trace 0` boots the daemon seven times to time set-up,
//!   drives the last boot for `--seconds` from two closed-loop keep-alive
//!   connections, verifies every answer and checks the workload's guards,
//!   and prints the end-to-end metrics, with every time and rate at the
//!   reference host speed (see `perfbench::speed`; the text report also
//!   gives them as measured);
//! * `--trace 1` does one boot and the same measured phase, then replays
//!   the workload's inputs in-process through each layer (see
//!   `layers.rs`), prints the per-layer metrics with the request path's
//!   breakdown, and writes the spans to
//!   `.bench_run/spans-<workload>-<seed>.jsonl`.
//!
//! `--describe` prints the metric catalogue instead — every metric's unit
//! and direction and, per layer, what it should move — as JSON.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `correct` is false when the verifier rejected an answer or a workload
//! guard tripped; a request that got no 200 answer counts in `failed`
//! (and so in `success_rate`) without making the run incorrect. The exit
//! code is 0 for a correct run, 1 for an incorrect one and 2 when the run
//! could not be made.

mod layers;
mod workload;

use perfbench::catalog;
use perfbench::server;
use perfbench::spans;
use perfbench::speed;
use std::fmt::Write as _;
use std::path::Path;
use workload::{Ctx, Inputs, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            println!("{}", catalog::describe());
            std::process::exit(0);
        }
        if flag == "--help" || flag == "-h" {
            println!(
                "perfbench [--workload cold_json|cold_bin|all] \
                 [--seed N] [--seconds S] [--trace 0|1] [--describe]"
            );
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

/// One workload's printed result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

fn run_one(root: &Path, bin: &Path, args: &Args, w: Workload) -> Result<Report, String> {
    let out = root.join(".bench_run");
    let dir = out.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        bin: bin.to_path_buf(),
        dir: dir.clone(),
        seconds: args.seconds,
    };
    let inputs = Inputs::generate(args.seed);
    let fail = |e: std::io::Error| format!("{}: {e}", w.name());
    let reps = if args.trace { 1 } else { workload::SETUP_REPS };
    let e2e = workload::run(&ctx, w, &inputs, reps).map_err(fail)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} seed {}: {} requests measured in {:.2} s from {} closed-loop connections (nproc {nproc})",
        w.name(),
        args.seed,
        e2e.measured,
        e2e.measured_secs,
        workload::CONNECTIONS,
    );
    let _ = writeln!(
        text,
        "  error_rate {:.6}",
        e2e.failed as f64 / e2e.attempted.max(1) as f64,
    );
    let mut report = if args.trace {
        let traced = layers::run(&ctx, w, &inputs, &e2e).map_err(fail)?;
        let spans_file = out.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        std::fs::write(&spans_file, spans::to_jsonl(&traced.spans))
            .map_err(|e| format!("{}: {e}", spans_file.display()))?;
        let latency_us = e2e.metric("latency_p50_ms") * 1e3;
        let _ = writeln!(
            text,
            "  request path (p50 µs and share of the untraced p50 of {latency_us:.1} µs):"
        );
        for (layer, us) in &traced.path {
            let _ = writeln!(
                text,
                "    {layer:<22} {us:>12.1}  {:>6.1}%",
                100.0 * us / latency_us
            );
        }
        if let Some((layer, _)) = traced.path.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            let _ = writeln!(text, "  largest layer on the path: {layer}");
        }
        let _ = writeln!(
            text,
            "  spans (count, p50 µs, p95 µs, self p50 µs) → {}",
            spans_file.display()
        );
        for (name, n, p50, p95, own) in layers::breakdown(&traced.spans) {
            let _ = writeln!(
                text,
                "    {name:<24} {n:>6} {p50:>12.1} {p95:>12.1} {own:>12.1}"
            );
        }
        let mut problems = e2e.problems;
        problems.extend(traced.problems);
        report(&mut text, "FAILED", &e2e.failures);
        report(&mut text, "REJECTED", &problems);
        Report {
            correct: problems.is_empty(),
            attempted: e2e.attempted + traced.attempted,
            failed: e2e.failed + traced.failed,
            metrics: traced.metrics,
        }
    } else {
        let _ = writeln!(
            text,
            "  speed probe median {:.3} ms, reference {:.3} ms; as measured:",
            e2e.probe_secs * 1e3,
            speed::REFERENCE_SECS * 1e3,
        );
        for (name, value) in &e2e.metrics {
            let _ = writeln!(text, "    {name:<24} {value:>16.6}");
        }
        report(&mut text, "FAILED", &e2e.failures);
        report(&mut text, "REJECTED", &e2e.problems);
        let _ = writeln!(text, "  at the reference speed:");
        Report {
            correct: e2e.problems.is_empty(),
            attempted: e2e.attempted,
            failed: e2e.failed,
            metrics: e2e.at_reference_speed(),
        }
    };
    for (name, value) in &report.metrics {
        let unit = catalog::unit_of(name).unwrap_or("");
        let _ = writeln!(text, "  {name:<26} {value:>16.6} {unit}");
        if !value.is_finite() {
            report.correct = false;
        }
    }
    print!("{text}");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

fn report(text: &mut String, label: &str, lines: &[String]) {
    for line in lines.iter().take(20) {
        let _ = writeln!(text, "  {label}: {line}");
    }
    if lines.len() > 20 {
        let _ = writeln!(text, "  … and {} more", lines.len() - 20);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (k, (name, value)) in metrics.iter().enumerate() {
        let unit = catalog::unit_of(name.rsplit_once(':').map_or(name, |(_, n)| n)).unwrap_or("");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        let name = name.replace(':', ".");
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let code = match real_main() {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let bin = server::build_binary(&root).map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for &w in &args.workloads {
        reports.push((w, run_one(&root, &bin, &args, w)?));
    }
    let correct = reports.iter().all(|(_, r)| r.correct);
    let attempted = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed = reports.iter().map(|(_, r)| r.failed).sum();
    // One workload reports bare metric names; several prefix each with
    // the workload (`cold_json:latency_p50_ms` prints as
    // `cold_json.latency_p50_ms`).
    let single = reports.len() == 1;
    let metrics: Vec<(String, f64)> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |(name, v)| {
                let key = if single {
                    (*name).to_string()
                } else {
                    format!("{}:{name}", w.name())
                };
                (key, *v)
            })
        })
        .collect();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
