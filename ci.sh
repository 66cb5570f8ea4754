#!/usr/bin/env bash
# CI pipeline: formatting, lints, build, tests (plus the sim crate's
# parallel feature), example compile-check, the service smokes (daemon or
# router + loadgen drill, booted by one shared helper), and the
# perf/service snapshots. Mirrors the recipes in ./justfile.
#
# `./ci.sh serve-smoke` runs only the daemon smoke test (used by
# `just serve-smoke`); `./ci.sh chaos-smoke` runs only the fault-injection
# drill against a real armed daemon (used by `just chaos`);
# `./ci.sh metrics-smoke` boots a span-logging daemon, drives traffic and
# verifies the /v1/metrics exposition and the span log (used by
# `just metrics`); `./ci.sh fleet-smoke` boots the fleet router with 3
# real worker processes, kill -9s one mid-burst and asserts zero lost
# requests, respawn and the drain/readyz transitions (used by
# `just fleet`).
set -euo pipefail
cd "$(dirname "$0")"

# The boot-drive-cleanup sequence every smoke shares. A smoke sets `log`
# (the server's stderr) and `tmp` (temp paths and globs to remove) first.

# Boots `batsched <args…>` in the background and waits up to $1 tenths of
# a second for it to announce its address; sets $pid and $addr. Only the
# booted process prints "listening on" — fleet worker announce lines are
# consumed by the launcher, never re-emitted.
boot() {
  local tries="$1"
  shift
  : > "$log"
  ./target/release/batsched "$@" 2> "$log" &
  pid=$!
  addr=""
  for _ in $(seq 1 "$tries"); do
    addr=$(grep -oE 'listening on http://127\.0\.0\.1:[0-9]+' "$log" \
      | head -1 | grep -oE '127\.0\.0\.1:[0-9]+' || true)
    [ -n "$addr" ] && return 0
    sleep 0.1
  done
  abort "batsched $1 did not announce an address; log:"
}

# Runs `loadgen <mode…> --addr $addr` against the booted process, then
# waits for its clean exit (every drill ends with POST /v1/shutdown).
drive() {
  ./target/release/loadgen "$@" --addr "$addr" || abort "loadgen $* failed; log:"
  wait "$pid"
}

# Prints $1 and the log, stops the booted process, removes the temp
# files and fails the pipeline — never leaving a server orphaned.
abort() {
  echo "$1" >&2
  cat "$log" >&2
  kill "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  cleanup
  exit 1
}

cleanup() {
  # $tmp holds globs on purpose (a fleet's disk shards).
  # shellcheck disable=SC2086
  rm -f $tmp
}

serve_smoke() {
  echo "==> service smoke (daemon + loadgen burst + warm restart)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local cache
  log="$(mktemp)"
  cache="$(mktemp -u).jsonl"
  tmp="$log $cache"

  # Each round boots the daemon on a free port with a disk-backed cache,
  # runs one loadgen smoke mode against it, then waits for the clean exit.
  # Round 1: schedule (JSON + binary wire formats, one shared cache key)
  # + malformed + keep-alive pass + stats + shutdown (the daemon compacts
  # its disk cache on the way out).
  boot 100 serve --http 127.0.0.1:0 --disk-cache "$cache"
  drive --smoke
  echo "daemon shut down cleanly"
  # Round 2: a fresh daemon on the same cache file must answer the same
  # request — in either wire format — as an X-Cache hit attributed to the
  # disk tier.
  boot 100 serve --http 127.0.0.1:0 --disk-cache "$cache"
  drive --smoke-warm
  echo "warm restart served from the disk tier"
  cleanup
}

chaos_smoke() {
  echo "==> chaos smoke (armed daemon + loadgen fault drill)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local cache
  log="$(mktemp)"
  cache="$(mktemp -u).jsonl"
  tmp="$log $cache"

  # Boot a real daemon with the fault plane armed: one solver panic
  # (targeted at the G2/deadline-75 request), a burst of 10 disk-append
  # failures, and 500 ms of injected latency (2x the request deadline) on
  # every 20th request. The rules mirror CHAOS_FAULTS in loadgen.rs —
  # keep the two lists in lockstep.
  boot 100 serve --http 127.0.0.1:0 --disk-cache "$cache" \
    --request-timeout 250 --disk-breaker 3 --disk-probe-ms 150 \
    --fault 'solver-panic:count=1,key="deadline":75' \
    --fault 'disk-append:after=5,count=10' \
    --fault 'solver-latency:every=20,ms=500,count=5'
  # --check asserts: zero lost requests, only typed timeout/internal
  # errors, >=1 worker respawn, disk breaker tripped then re-armed.
  drive --chaos --check
  echo "chaos drill survived: typed errors only, pool respawned, disk tier re-armed"
  cleanup
}

metrics_smoke() {
  echo "==> metrics smoke (daemon + /v1/metrics scrape + span log)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local spans
  log="$(mktemp)"
  spans="$(mktemp)"
  tmp="$log $spans"
  : > "$spans"

  # Boot the daemon with structured span logging; loadgen's first request
  # is a /readyz probe, so the drive only starts once the pool is ready.
  boot 100 serve --http 127.0.0.1:0 --log-json "$spans"
  # loadgen drives 4 /v1/schedule requests (cold, 2 hits, malformed),
  # scrapes /v1/metrics and asserts exposition shape and exact counts.
  drive --metrics-smoke

  # The span log must carry exactly one span per /v1/schedule request
  # (stats/metrics/readyz/shutdown emit none) with client ids preserved.
  local lines
  lines=$(grep -c '"trace_id"' "$spans" || true)
  if [ "$lines" -ne 4 ]; then
    echo "expected 4 span lines, got $lines; span log:" >&2
    cat "$spans" >&2
    cleanup
    exit 1
  fi
  for id in '"trace_id":"metrics-smoke-1"' '"trace_id":"metrics-smoke-bad"'; do
    if ! grep -q "$id" "$spans"; then
      echo "client trace id $id missing from span log:" >&2
      cat "$spans" >&2
      cleanup
      exit 1
    fi
  done
  echo "metrics exposition well-formed; span log carried $lines spans with client ids"
  cleanup
}

fleet_smoke() {
  echo "==> fleet smoke (router + 3 workers, kill -9 mid-burst, drain/restart)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local cache
  log="$(mktemp)"
  cache="$(mktemp -u).jsonl"
  tmp="$log $cache.shard-*"

  # Boot the router with 3 supervised `batsched serve` children, each
  # owning its own disk shard ($cache.shard-K). Small probe/backoff
  # budgets keep the kill -9 → respawn → ready cycle fast.
  boot 200 fleet --http 127.0.0.1:0 --size 3 --workers 1 \
    --disk-cache "$cache" \
    --probe-interval-ms 50 --restart-backoff-ms 100 --restart-backoff-max-ms 1000
  # loadgen --fleet-smoke: warm burst with pinned routing, kill -9 of the
  # worker owning a known hash slice (pid read from /v1/fleet), zero-loss
  # failover burst, respawn + /readyz recovery, drain drill asserting the
  # ready -> not-ready -> ready transition, then /v1/shutdown.
  drive --fleet-smoke
  echo "fleet drill survived: kill -9 lost nothing, worker respawned, drain cycled readyz"
  cleanup
}

if [ "${1:-}" = "serve-smoke" ]; then
  serve_smoke
  exit 0
fi

if [ "${1:-}" = "chaos-smoke" ]; then
  chaos_smoke
  exit 0
fi

if [ "${1:-}" = "metrics-smoke" ]; then
  metrics_smoke
  exit 0
fi

if [ "${1:-}" = "fleet-smoke" ]; then
  fleet_smoke
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -D warnings (sim crate, parallel feature)"
# Only crates/sim has a parallel path (its Monte-Carlo fan-out).
cargo clippy -p batsched-sim --all-targets --features parallel -- -D warnings

echo "==> batsched-lint (invariant gates: panic-path, nested-lock, uncapped-wire-alloc, nondeterministic-iter, crate-hygiene)"
# The workspace invariant linter (crates/lint): hard gate, zero findings
# allowed — suppressions only via an annotated, machine-checked
# `// lint:allow(<rule>): <reason>`, and stale allows are errors too.
# See docs/LINT.md for the rule catalogue.
cargo run --release -q -p batsched-lint --bin batsched-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples (compile-check examples/)"
cargo build --release --examples

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test (sim crate, parallel feature)"
cargo test -p batsched-sim -q --features parallel

serve_smoke

chaos_smoke

metrics_smoke

fleet_smoke

echo "==> perf smoke + snapshot (BENCH_scheduler.json, floors enforced)"
# Quick-mode perf smoke: regenerates the snapshot and fails the pipeline if
# sigma_full_vs_naive or cdp_speedup regress below their conservative 2x
# floors, if row_carry (carry-off/on schedule_in ratio) drops below 1.5x,
# or if the sweep_scaling fitted growth exponent climbs above 1.4 (same
# command as `just bench-quick`).
cargo run --release -q -p batsched-bench --bin repro_bench_json -- --quick --check

echo "==> wire-format A/B (binary admission floor, JSON admission exponent ceiling)"
# --wire --check admits the n-scaling instances in both wire formats:
# both must produce the same cache key, binary decode+hash must beat
# JSON parse+hash by >= 2x at n=200, and JSON admission time must grow
# no faster than n^1.5 (a quadratic parser reads ~2). Both are judged on
# the median of interleaved rounds.
cargo run --release -q -p batsched-bench --bin loadgen -- --wire --quick --check

echo "==> service load snapshot (BENCH_service.json, keep-alive floor enforced)"
# --check gates the keep-alive vs connection-per-request A/B (>= 1.5x on
# the duplicate-heavy stream) and re-runs the wire admission gate; the
# snapshot records the wire envelope alongside the request streams.
cargo run --release -q -p batsched-bench --bin loadgen -- --quick --check

echo "CI OK"
