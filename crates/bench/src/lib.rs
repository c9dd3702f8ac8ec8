//! # actcomp-bench
//!
//! Benchmark harnesses that regenerate every table and figure of *"Does
//! Compressing Activations Help Model Parallel Training?"* (MLSys 2024).
//!
//! Each `bin/` target reproduces one artifact and prints the paper's
//! reported numbers next to ours; `run_all` executes the full set and
//! writes JSON records plus a markdown summary under `results/`.
//!
//! Performance is measured by one harness, the `ledger` package under
//! `src/bin/ledger/` (its workloads are declared in `BENCHMARK.json`):
//! a step's or a request's time split by layer, from GEMM to transport.
//! `bin/net.rs` also sweeps capped links for the compression crossover.

pub mod paper;
pub mod util;
