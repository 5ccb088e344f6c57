//! Ablation: KV-cache precision (extension).
//!
//! The paper's memory model carries the KV-cache bitwidth as a
//! parameter but the evaluation keeps it at FP16. This extension lets
//! the assigner also consider an INT8 KV cache: it halves the dominant
//! decode-phase memory traffic *and* the largest memory consumer on
//! long-generation jobs, often buying back weight precision.
//! (Quality impact of KV quantization is not modelled — this bench
//! reports the systems-side trade only.)

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::assign;
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — KV-cache precision in the search space\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&[
        "Cluster", "Job", "KV search", "chosen KV", "Throughput (tok/s)", "mean weight bits",
    ]);
    // A long-generation job makes the KV cache the dominant tenant.
    let long_job = BatchJob { global_batch: 32, prompt_len: 512, n_generate: 800 };
    for (n, job, label) in [
        (3usize, BatchJob::paper_default(), "s=512,n=100"),
        (3, long_job, "s=512,n=800"),
        (9, BatchJob::paper_default(), "s=512,n=100"),
        (9, long_job, "s=512,n=800"),
    ] {
        let mut setup = ServingSetup::paper(n);
        setup.job = job;
        let indicator = zoo_indicator(&setup.spec);
        for kv8 in [false, true] {
            setup.cfg.search_kv8 = kv8;
            match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
                Ok(out) => t.row(vec![
                    n.to_string(),
                    label.into(),
                    if kv8 { "fp16+int8" } else { "fp16 only" }.into(),
                    format!("kv{}", out.plan.kv_bits),
                    format!("{:.2}", out.report.throughput),
                    format!("{:.1}", out.report.mean_bits),
                ]),
                Err(e) => t.row(vec![n.to_string(), label.into(), if kv8 { "fp16+int8" } else { "fp16 only" }.into(), e, "-".into(), "-".into()]),
            }
        }
    }
    out.table(&t);
    say!(out, "Expectation: with short generations kv16 stays optimal; with n=800 the");
    say!(out, "KV cache dominates memory and int8 KV unlocks higher weight precision");
    say!(out, "and/or throughput on the memory-tight clusters.");
}
