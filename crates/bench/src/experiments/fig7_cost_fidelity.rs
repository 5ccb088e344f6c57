//! Figure 7: fidelity of the memory and latency cost models.
//!
//! Memory model: BLOOM-560m/1b7 and OPT-13b/30b/66b, random shapes and
//! precisions per the paper's protocol (prompt 128–512, batch {2,4,8},
//! generation 100–200, random per-layer bits). Latency model: 50 unseen
//! workloads per device (batch {3,5,7}, past {384,768}).
//!
//! Paper claims: memory error "almost negligible", latency error < 6%
//! on average.

use crate::{Args, Out, TextTable};
use llmpq_cluster::GpuModel;
use llmpq_cost::{latency_fidelity, memory_fidelity, CostDb, ProfilerConfig};
use llmpq_model::zoo;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Figure 7 — cost-model fidelity\n");

    let mut t = TextTable::new(&["Model", "Cases", "Mean memory err", "Max memory err"]);
    for spec in [zoo::bloom_560m(), zoo::bloom_1b7(), zoo::opt_13b(), zoo::opt_30b(), zoo::opt_66b()] {
        let r = memory_fidelity(&spec, 50, 2024);
        t.row(vec![
            spec.name.clone(),
            r.n.to_string(),
            format!("{:.3}%", r.mean_rel_err * 100.0),
            format!("{:.3}%", r.max_rel_err * 100.0),
        ]);
    }
    say!(out, "Memory cost model:");
    out.table(&t);

    let env = KernelEnv::default();
    let devices = [
        GpuModel::P100_12G,
        GpuModel::T4_16G,
        GpuModel::V100_32G,
        GpuModel::A100_40G,
        GpuModel::A800_80G,
    ];
    let mut t = TextTable::new(&["Model", "Devices", "Unseen cases", "Mean latency err", "Max latency err"]);
    for spec in [zoo::opt_13b(), zoo::opt_30b(), zoo::opt_66b()] {
        let specs: Vec<_> = devices.iter().map(|g| g.spec()).collect();
        let db = CostDb::fit(&specs, &env, &spec, &ProfilerConfig::default());
        let r = latency_fidelity(&db, &env, &spec, &devices, 50, 7);
        t.row(vec![
            spec.name.clone(),
            devices.len().to_string(),
            r.n.to_string(),
            format!("{:.2}%", r.mean_rel_err * 100.0),
            format!("{:.2}%", r.max_rel_err * 100.0),
        ]);
    }
    say!(out, "Latency cost model (fitted on the profiling grid, scored on unseen shapes):");
    out.table(&t);
    say!(out, "Paper claim: memory error ~negligible; average latency error < 6%.");
}
