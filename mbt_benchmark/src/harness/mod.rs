//! What the workloads share: the metric table, statistics, tracing, the
//! machine block, correctness references, kernel probes, JSON, and the
//! `--compare` tool.

pub mod check;
pub mod compare;
pub mod json;
pub mod machine;
pub mod probes;
pub mod stats;
pub mod table;
pub mod trace;
