//! # batsched-perfbench
//!
//! The repository's end-to-end and per-layer benchmark (see
//! `BENCHMARK.json` at the repository root). The `perfbench` binary boots
//! a real `batsched serve` daemon per workload, drives it in a closed loop
//! over HTTP/1.1 keep-alive, verifies every answer and prints the
//! end-to-end metrics; a traced run replays the same inputs in-process
//! through each layer's public functions, times one hop through a real
//! `batsched fleet`, and prints the per-layer metrics.
//!
//! This library holds the parts with logic worth testing on their own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod closed_loop;
pub mod gen;
pub mod server;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod verify;
