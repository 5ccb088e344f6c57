//! `bench_e2e`: the repository's wall-clock benchmark.
//!
//! Six workloads (four of them in `BENCHMARK.json`) drive the program
//! under test through its public library API only, from a loopback HTTP
//! request down to `qgemm_t`;
//! a traced run adds an outside-in per-layer breakdown. See
//! `benchmark/README.md` for the metric glossary and how to run it.

pub mod bench;
pub mod client;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod plan;
pub mod probes;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
