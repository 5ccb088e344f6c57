//! Figure 4: perplexity and zero-shot accuracy vs quantization scheme.
//!
//! (a) BLOOM-3b-like PPL on three corpora under fp16 / int8 / int4 /
//!     int3 / mixed4-8 / mixed3-4 (mixed = uniformly random per layer,
//!     as in the paper);
//! (b) OPT-1.3b-like zero-shot accuracy on three task suites under the
//!     same schemes.
//!
//! Paper shapes: PPL rises (accuracy falls) as bits shrink, and each
//! mixed scheme lands **between** its two uniform endpoints.

use crate::{scaled_teacher, Args, Out, TextTable};
use llmpq_model::zoo;
use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
use llmpq_quality::tasks::standard_tasks;
use llmpq_quality::{accuracy_suite, perplexity_suite, standard_corpora};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mixed(n_layers: usize, a: Bitwidth, b: Bitwidth, seed: u64) -> BitAssignment {
    let mut rng = SmallRng::seed_from_u64(seed);
    BitAssignment {
        bits: (0..n_layers).map(|_| if rng.gen_bool(0.5) { a } else { b }).collect(),
    }
}

fn schemes(n_layers: usize) -> Vec<(String, BitAssignment)> {
    vec![
        ("fp16".into(), BitAssignment::uniform(n_layers, Bitwidth::Fp16)),
        ("int8".into(), BitAssignment::uniform(n_layers, Bitwidth::Int8)),
        ("mixed4-8".into(), mixed(n_layers, Bitwidth::Int4, Bitwidth::Int8, 48)),
        ("int4".into(), BitAssignment::uniform(n_layers, Bitwidth::Int4)),
        ("mixed3-4".into(), mixed(n_layers, Bitwidth::Int3, Bitwidth::Int4, 34)),
        ("int3".into(), BitAssignment::uniform(n_layers, Bitwidth::Int3)),
    ]
}

pub fn run(out: &mut Out, _: &Args) {
    // (a) BLOOM-3b PPL.
    let bloom = zoo::bloom_3b();
    let teacher = scaled_teacher(&bloom);
    let corpora = standard_corpora(&teacher, 6, 28);
    say!(out, "Figure 4(a) — {}-like PPL vs bitwidth\n", bloom.name);
    let mut t = TextTable::new(&["Scheme", "wikitext2-syn", "ptb-syn", "c4-syn", "avg PPL"]);
    for (name, bits) in schemes(bloom.n_layers) {
        let q = quantize_model(&teacher, &bits, Rounding::Deterministic, 0);
        let r = perplexity_suite(&q, &corpora);
        t.row(vec![
            name,
            format!("{:.3}", r.per_corpus[0].1),
            format!("{:.3}", r.per_corpus[1].1),
            format!("{:.3}", r.per_corpus[2].1),
            format!("{:.3}", r.average),
        ]);
    }
    out.table(&t);

    // (b) OPT-1.3b accuracy.
    let opt = zoo::opt_1_3b();
    let teacher = scaled_teacher(&opt);
    let tasks = standard_tasks(&teacher, 40);
    say!(out, "Figure 4(b) — {}-like zero-shot accuracy vs bitwidth\n", opt.name);
    let mut t = TextTable::new(&["Scheme", "lambada-syn", "arc-syn", "piqa-syn", "avg acc (%)"]);
    for (name, bits) in schemes(opt.n_layers) {
        let q = quantize_model(&teacher, &bits, Rounding::Deterministic, 0);
        let per: Vec<f64> = tasks.iter().map(|s| llmpq_quality::task_accuracy(&q, s)).collect();
        let avg = accuracy_suite(&q, &tasks);
        t.row(vec![
            name,
            format!("{:.1}", per[0] * 100.0),
            format!("{:.1}", per[1] * 100.0),
            format!("{:.1}", per[2] * 100.0),
            format!("{:.1}", avg * 100.0),
        ]);
    }
    out.table(&t);
    say!(out, "Paper shape check: PPL monotone in bits; mixed4-8 between int4 and int8;");
    say!(out, "mixed3-4 between int3 and int4; accuracy roughly the mirror image.");
}
