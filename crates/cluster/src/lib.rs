//! # llmpq-cluster
//!
//! The heterogeneous-cluster substrate: a database of the GPU models the
//! paper evaluates (A100/A800/V100/T4/P100) with their compute, memory
//! and per-bitwidth kernel-efficiency characteristics, interconnect
//! topology (NVLink within a node, 100/800 Gbps Ethernet between nodes),
//! the paper's eleven evaluation clusters (Table 3), and a synthetic
//! production-cluster trace generator reproducing Figure 1's motivation
//! (few high-calibre GPUs, heavily utilized; many low-calibre GPUs, idle).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod economics;
pub mod device;
pub mod interconnect;
pub mod spec_file;
pub mod trace;

pub use cluster::{all_paper_clusters, paper_cluster, Cluster, DeviceInstance};
pub use economics::{cluster_hourly_cost, hourly_rate, serving_cost, ServingCost};
pub use device::{DeviceSpec, GpuModel};
pub use interconnect::{Interconnect, Link};
pub use spec_file::{ClusterSpec, GroupSpec};
pub use trace::{ProductionTrace, TraceConfig};
