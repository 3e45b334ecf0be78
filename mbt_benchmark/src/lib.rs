//! `mbt_benchmark` — the repository's benchmark: five workloads,
//! end-to-end and per-layer metrics for the treecode serving stack. The
//! binary beside this library is the one command; see `README.md`.

pub mod harness;
pub mod workloads;
