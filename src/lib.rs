//! llm-pq-suite: workspace umbrella re-exporting all crates for examples and integration tests.

#![forbid(unsafe_code)]

pub use llm_pq as core;
pub use llmpq_cluster as cluster;
pub use llmpq_cost as cost;
pub use llmpq_model as model;
pub use llmpq_quality as quality;
pub use llmpq_quant as quant;
pub use llmpq_runtime as runtime;
pub use llmpq_sim as sim;
pub use llmpq_solver as solver;
pub use llmpq_workload as workload;
