//! Cluster topology and the paper's eleven evaluation clusters (Table 3).

use crate::device::{DeviceSpec, GpuModel};
use crate::interconnect::Interconnect;
use serde::{Deserialize, Serialize};

/// One pipeline device of a cluster, pinned to a node: one GPU, or a
/// tensor-parallel group of `tp_width` identical GPUs on that node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceInstance {
    /// The device type (of every GPU in a group).
    pub gpu: GpuModel,
    /// Node index; GPUs of one type share a node in the paper's testbed.
    pub node: usize,
    /// GPUs acting as this one device: 1 everywhere except on a cluster
    /// folded into tensor-parallel groups (`llm_pq::tp`).
    pub tp_width: usize,
}

impl DeviceInstance {
    /// Datasheet spec of one GPU of this instance.
    pub fn spec(&self) -> DeviceSpec {
        self.gpu.spec()
    }

    /// Usable memory in bytes: the GPU's times the group width.
    pub fn mem_bytes(&self) -> f64 {
        self.spec().mem_bytes() * self.tp_width as f64
    }
}

/// A serving cluster: devices + node topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Human-readable name, e.g. `"cluster-3"`.
    pub name: String,
    /// The devices, in node order.
    pub devices: Vec<DeviceInstance>,
    /// Interconnect class between distinct nodes.
    pub inter_node: Interconnect,
    /// Model the paper assigns to this cluster (`"opt-30b"` etc.), kept
    /// here so the bench harness can reproduce Table 3 one-to-one.
    pub paper_model: Option<String>,
}

impl Cluster {
    /// Build a cluster from `(gpu, count)` groups; each group gets its
    /// own node, matching the paper's placement.
    pub fn from_groups(
        name: impl Into<String>,
        groups: &[(GpuModel, usize)],
        inter_node: Interconnect,
        paper_model: Option<&str>,
    ) -> Self {
        let mut devices = Vec::new();
        for (node, &(gpu, count)) in groups.iter().enumerate() {
            assert!(count > 0, "empty device group");
            for _ in 0..count {
                devices.push(DeviceInstance { gpu, node, tp_width: 1 });
            }
        }
        Self {
            name: name.into(),
            devices,
            inter_node,
            paper_model: paper_model.map(str::to_owned),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total device memory in bytes.
    pub fn total_mem_bytes(&self) -> f64 {
        self.devices.iter().map(DeviceInstance::mem_bytes).sum()
    }

    /// Whether all devices are the same GPU model.
    pub fn is_homogeneous(&self) -> bool {
        self.devices.windows(2).all(|w| w[0].gpu == w[1].gpu)
    }

    /// Interconnect between device indices `a` and `b` (NVLink within a
    /// node, the cluster's Ethernet class across nodes).
    pub fn link_between(&self, a: usize, b: usize) -> Interconnect {
        if self.devices[a].node == self.devices[b].node {
            Interconnect::NvLink
        } else {
            self.inter_node
        }
    }

    /// The cluster minus the given device indices — the surviving
    /// sub-cluster after permanent device loss. Returns the sub-cluster
    /// (named `"<name>-degraded"`) and a map from new device index to
    /// the index it had in `self`, so plans computed on the sub-cluster
    /// can be translated back into original device ids.
    pub fn without_devices(&self, lost: &[usize]) -> (Cluster, Vec<usize>) {
        let mut devices = Vec::new();
        let mut new_to_old = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            if !lost.contains(&i) {
                devices.push(*d);
                new_to_old.push(i);
            }
        }
        let sub = Cluster {
            name: format!("{}-degraded", self.name),
            devices,
            inter_node: self.inter_node,
            paper_model: self.paper_model.clone(),
        };
        (sub, new_to_old)
    }

    /// Distinct GPU models present, with counts.
    pub fn model_counts(&self) -> Vec<(GpuModel, usize)> {
        let mut out: Vec<(GpuModel, usize)> = Vec::new();
        for d in &self.devices {
            if let Some(e) = out.iter_mut().find(|(g, _)| *g == d.gpu) {
                e.1 += 1;
            } else {
                out.push((d.gpu, 1));
            }
        }
        out
    }
}

/// The paper's Table 3 clusters, by number (1–11).
///
/// | # | Devices | Model |
/// |---|---------|-------|
/// | 1 | 1×V100-32G | 13b |
/// | 2 | 1×A100-40G | 13b |
/// | 3 | 3×T4 + 1×V100 (800G) | 30b |
/// | 4 | 3×P100 + 1×V100 (100G) | 30b |
/// | 5 | 4×T4 + 2×V100 (800G) | 66b |
/// | 6 | 2×V100 + 2×A100 (100G) | 66b |
/// | 7 | 4×V100 + 4×A100 (100G) | 176b |
/// | 8 | 4×V100 + 2×A800 (800G) | 176b |
/// | 9 | 4×T4 | 30b |
/// | 10 | 4×V100 | 66b |
/// | 11 | 4×A800 (800G) | 176b |
pub fn paper_cluster(n: usize) -> Cluster {
    use GpuModel::*;
    use Interconnect::*;
    let (groups, inter, model): (Vec<(GpuModel, usize)>, Interconnect, &str) = match n {
        1 => (vec![(V100_32G, 1)], Ethernet800G, "opt-13b"),
        2 => (vec![(A100_40G, 1)], Ethernet800G, "opt-13b"),
        3 => (vec![(T4_16G, 3), (V100_32G, 1)], Ethernet800G, "opt-30b"),
        4 => (vec![(P100_12G, 3), (V100_32G, 1)], Ethernet100G, "opt-30b"),
        5 => (vec![(T4_16G, 4), (V100_32G, 2)], Ethernet800G, "opt-66b"),
        6 => (vec![(V100_32G, 2), (A100_40G, 2)], Ethernet100G, "opt-66b"),
        7 => (vec![(V100_32G, 4), (A100_40G, 4)], Ethernet100G, "bloom-176b"),
        8 => (vec![(V100_32G, 4), (A800_80G, 2)], Ethernet800G, "bloom-176b"),
        9 => (vec![(T4_16G, 4)], Ethernet800G, "opt-30b"),
        10 => (vec![(V100_32G, 4)], Ethernet800G, "opt-66b"),
        11 => (vec![(A800_80G, 4)], Ethernet800G, "bloom-176b"),
        other => panic!("paper defines clusters 1–11, got {other}"),
    };
    Cluster::from_groups(format!("cluster-{n}"), &groups, inter, Some(model))
}

/// All eleven paper clusters.
pub fn all_paper_clusters() -> Vec<Cluster> {
    (1..=11).map(paper_cluster).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shapes() {
        assert_eq!(paper_cluster(1).len(), 1);
        assert_eq!(paper_cluster(3).len(), 4);
        assert_eq!(paper_cluster(5).len(), 6);
        assert_eq!(paper_cluster(7).len(), 8);
        assert_eq!(paper_cluster(8).len(), 6);
        assert_eq!(paper_cluster(11).len(), 4);
    }

    #[test]
    fn homogeneity_split_matches_paper() {
        for n in 1..=11 {
            let c = paper_cluster(n);
            let homo = c.is_homogeneous();
            // 1, 2, 9, 10, 11 are single-type; 3–8 are mixed.
            assert_eq!(homo, matches!(n, 1 | 2 | 9 | 10 | 11), "cluster {n}");
        }
    }

    #[test]
    fn intra_node_is_nvlink() {
        let c = paper_cluster(3); // T4 T4 T4 | V100
        assert_eq!(c.link_between(0, 1), Interconnect::NvLink);
        assert_eq!(c.link_between(2, 3), Interconnect::Ethernet800G);
    }

    #[test]
    fn model_sizing_rule_holds() {
        // Paper: model FP16 weight size comparable to total cluster
        // memory. Check cluster 5 (64+64=128... 4×16+2×32=128 GB) vs
        // OPT-66b ≈ 132 GB.
        let c = paper_cluster(5);
        let gb = c.total_mem_bytes() / 1e9;
        assert!((gb - 128.0).abs() < 1.0);
    }

    #[test]
    fn model_counts_aggregate() {
        let c = paper_cluster(5);
        let counts = c.model_counts();
        assert_eq!(counts, vec![(GpuModel::T4_16G, 4), (GpuModel::V100_32G, 2)]);
    }

    #[test]
    #[should_panic(expected = "clusters 1–11")]
    fn rejects_unknown_cluster() {
        paper_cluster(12);
    }

    #[test]
    fn paper_model_recorded() {
        assert_eq!(paper_cluster(7).paper_model.as_deref(), Some("bloom-176b"));
    }

    #[test]
    fn without_devices_maps_survivors_back() {
        let c = paper_cluster(3); // T4 T4 T4 | V100
        let (sub, map) = c.without_devices(&[1]);
        assert_eq!(sub.len(), 3);
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(sub.devices[2].gpu, GpuModel::V100_32G);
        assert_eq!(sub.name, "cluster-3-degraded");
        // Node structure is preserved, so surviving intra-node pairs
        // still see NVLink.
        assert_eq!(sub.link_between(0, 1), Interconnect::NvLink);
        assert_eq!(sub.link_between(1, 2), Interconnect::Ethernet800G);
        // Losing everything yields an empty (invalid-for-planning)
        // cluster rather than a panic.
        let (empty, map) = c.without_devices(&[0, 1, 2, 3]);
        assert!(empty.is_empty());
        assert!(map.is_empty());
    }
}
