//! `slbench` — the wall-clock benchmark of the sublayered and monolithic TCP
//! stacks. See `README.md` for the workloads, the metrics and how to read
//! the trace; `BENCHMARK.json` at the repository root names them all.

pub mod alloc;
pub mod arm;
pub mod chain;
pub mod micro;
pub mod pipe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;
