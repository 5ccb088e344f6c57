//! Ablation: telemetry overhead — observed vs. unobserved pipeline runs.
//!
//! The telemetry layer records per-item histograms (relaxed atomics) and
//! lifecycle spans (one mutex push per span) on the hot path of every
//! stage worker. This bench executes the same generation workload on the
//! live threaded runtime with telemetry off and on, takes the median
//! wall-clock of several trials each, and reports the overhead — the
//! observability layer must stay well under 2% so it can be left on in
//! production runs.

use llm_pq::ExecutionPlan;
use crate::{Args, Out, TextTable};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::Bitwidth;
use llmpq_runtime::{Pipeline, Telemetry};
use llmpq_workload::MicrobatchPlan;

fn plan(n_layers: usize) -> ExecutionPlan {
    let split = n_layers / 2;
    let bits = vec![vec![Bitwidth::Int8; split], vec![Bitwidth::Fp16; n_layers - split]];
    let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 2, decode_size: 4, decode_count: 1 };
    ExecutionPlan::contiguous("tiny", "bench", bits, mb)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — telemetry overhead on the live pipeline runtime\n");
    let model = RefModel::new(RefConfig::tiny());
    let p = plan(model.cfg.n_layers);
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|i| (0..12).map(|j| (i * 31 + j * 7) % model.cfg.vocab).collect()).collect();
    let n_generate = 48;
    let trials = 7;

    // Interleave off/on trials so drift (cache warmup, CPU frequency)
    // hits both arms equally.
    let mut off = Vec::with_capacity(trials);
    let mut on = Vec::with_capacity(trials);
    let mut spans_recorded = 0usize;
    for _ in 0..trials {
        let plain =
            Pipeline::new(&model, &p).run(&prompts, n_generate)
                .expect("plain run");
        off.push(plain.wall_s);
        let tel = Telemetry::new(p.stages.len());
        let observed = Pipeline::new(&model, &p).telemetry(tel.clone()).run(&prompts, n_generate)
            .expect("observed run");
        assert_eq!(plain.tokens, observed.tokens, "telemetry must not perturb tokens");
        on.push(observed.wall_s);
        spans_recorded = tel.spans().len();
    }
    let (m_off, m_on) = (median(off.clone()), median(on.clone()));
    let overhead = (m_on - m_off) / m_off;

    let mut t = TextTable::new(&["telemetry", "median wall (ms)", "min (ms)", "max (ms)"]);
    for (label, xs) in [("off", &off), ("on", &on)] {
        t.row(vec![
            label.to_string(),
            format!("{:.2}", median(xs.clone()) * 1e3),
            format!("{:.2}", xs.iter().cloned().fold(f64::MAX, f64::min) * 1e3),
            format!("{:.2}", xs.iter().cloned().fold(0.0f64, f64::max) * 1e3),
        ]);
    }
    out.table(&t);
    say!(out,
        "per run: {spans_recorded} spans, {} work items, {} trials each arm",
        p.microbatch.prefill_count + (n_generate - 1) * p.microbatch.decode_count,
        trials
    );
    say!(out, "telemetry overhead: {:.2}% (median-over-median)", overhead * 100.0);
    say!(out, "\nExpectation: overhead < 2% — the recorders are relaxed atomics and the");
    say!(out, "span log is one short mutex push per item, both dwarfed by a layer forward.");
}
