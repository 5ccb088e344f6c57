//! Zero-shot multiple-choice accuracy (LAMBADA/ARC/PIQA analogues).
//!
//! Each task item is a context plus `k` candidate continuations, exactly
//! one of which was sampled from the teacher at low temperature (the
//! "natural" continuation); distractors are sampled at high temperature
//! from shuffled contexts. A model answers by picking the continuation
//! with the highest length-normalized log-likelihood — the standard
//! zero-shot protocol. The teacher scores high but below 100% (sampling
//! noise); quantization erodes the margin, so accuracy falls with bits,
//! reproducing Fig 4(b)'s shape.

use llmpq_model::{log_softmax_at, RefModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One multiple-choice item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChoiceTask {
    /// Shared context tokens.
    pub context: Vec<usize>,
    /// Candidate continuations.
    pub choices: Vec<Vec<usize>>,
    /// Index of the correct choice.
    pub answer: usize,
}

/// A named set of tasks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSet {
    /// Benchmark name (`"lambada-syn"`, …).
    pub name: String,
    /// The items.
    pub tasks: Vec<ChoiceTask>,
}

impl TaskSet {
    /// Build a task set from the teacher: `n` items with `n_choices`
    /// candidates, contexts of `ctx_len` tokens, continuations of
    /// `cont_len`.
    pub fn generate(
        name: &str,
        teacher: &RefModel,
        n: usize,
        n_choices: usize,
        ctx_len: usize,
        cont_len: usize,
        seed: u64,
    ) -> TaskSet {
        assert!(n_choices >= 2);
        assert!(ctx_len + cont_len <= teacher.cfg.max_seq);
        let tasks = (0..n)
            .map(|i| {
                let s = seed ^ ((i as u64) << 16);
                // Context: a medium-temperature sample.
                let start = 1 + (i * 37) % (teacher.cfg.vocab - 1);
                let ctx_gen = teacher.generate(&[start], ctx_len - 1, 0.9, s);
                let mut context = vec![start];
                context.extend(ctx_gen.tokens);
                // Correct continuation: low-temperature (natural) sample.
                let correct = teacher
                    .generate(&context, cont_len, 0.3, s ^ 0xC0)
                    .tokens;
                // Distractors must be *hard*: alternating between
                // (a) minimal pairs — the correct continuation with one
                //     token swapped for the teacher's *second choice* at
                //     that position, so the likelihood margin is the gap
                //     between the top-2 next-token probabilities, which
                //     quantization noise readily flips — and
                // (b) plausible same-context samples at a higher
                //     temperature.
                let mut rng = SmallRng::seed_from_u64(s ^ 0xD15);
                let mut choices: Vec<Vec<usize>> = (1..n_choices)
                    .map(|d| {
                        if d % 2 == 1 {
                            let pos = rng.gen_range(0..correct.len());
                            let mut prefix = context.clone();
                            prefix.extend_from_slice(&correct[..pos]);
                            let (logits, _) = teacher.prefill(&prefix);
                            let row = logits.row(logits.rows - 1);
                            let runner_up = row
                                .iter()
                                .enumerate()
                                .filter(|(t, _)| *t != correct[pos])
                                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                                .map(|(t, _)| t)
                                .unwrap();
                            let mut mutated = correct.clone();
                            mutated[pos] = runner_up;
                            mutated
                        } else {
                            teacher.generate(&context, cont_len, 1.1, s ^ (d as u64)).tokens
                        }
                    })
                    .collect();
                // A distractor colliding with the correct answer would
                // make the item ambiguous; nudge its first token.
                for c in &mut choices {
                    if *c == correct {
                        c[0] = (c[0] + 1) % teacher.cfg.vocab;
                    }
                }
                let answer = i % n_choices;
                choices.insert(answer, correct);
                ChoiceTask { context, choices, answer }
            })
            .collect();
        TaskSet { name: name.to_string(), tasks }
    }
}

/// Length-normalized log-likelihood of `continuation` after `context`.
pub fn continuation_logprob(model: &RefModel, context: &[usize], continuation: &[usize]) -> f64 {
    assert!(!context.is_empty() && !continuation.is_empty());
    let mut full = context.to_vec();
    full.extend_from_slice(continuation);
    let (logits, _) = model.prefill(&full[..full.len() - 1]);
    let mut total = 0.0;
    for (k, &tok) in continuation.iter().enumerate() {
        let pos = context.len() + k - 1; // logits row predicting this token
        total += log_softmax_at(logits.row(pos), tok);
    }
    total / continuation.len() as f64
}

/// Accuracy of `model` on a task set.
pub fn task_accuracy(model: &RefModel, set: &TaskSet) -> f64 {
    let correct: usize = set
        .tasks
        .iter()
        .map(|t| {
            let best = t
                .choices
                .iter()
                .enumerate()
                .map(|(i, c)| (i, continuation_logprob(model, &t.context, c)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            usize::from(best == t.answer)
        })
        .sum();
    correct as f64 / set.tasks.len() as f64
}

/// The paper's three zero-shot benchmarks, teacher-generated.
pub fn standard_tasks(teacher: &RefModel, n_per_set: usize) -> Vec<TaskSet> {
    vec![
        TaskSet::generate("lambada-syn", teacher, n_per_set, 4, 20, 4, 0x1A),
        TaskSet::generate("arc-syn", teacher, n_per_set, 4, 16, 6, 0xA2C),
        TaskSet::generate("piqa-syn", teacher, n_per_set, 2, 18, 8, 0x919A),
    ]
}

/// Mean accuracy over several task sets — the "Avg. Accuracy" column.
pub fn accuracy_suite(model: &RefModel, sets: &[TaskSet]) -> f64 {
    assert!(!sets.is_empty());
    sets.iter().map(|s| task_accuracy(model, s)).sum::<f64>() / sets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::{RefConfig, RefModel};
    use llmpq_quant::{quantize_model_uniform, Bitwidth, Rounding};

    fn teacher() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    #[test]
    fn teacher_accuracy_is_high_but_not_perfect_floor() {
        let m = teacher();
        let sets = standard_tasks(&m, 30);
        let acc = accuracy_suite(&m, &sets);
        // The teacher should comfortably beat chance (~0.29 for mixed 4/4/2).
        assert!(acc > 0.55, "teacher accuracy {acc}");
    }

    #[test]
    fn heavy_quantization_hurts_accuracy() {
        let m = teacher();
        let sets = standard_tasks(&m, 30);
        let base = accuracy_suite(&m, &sets);
        let q3 = quantize_model_uniform(&m, Bitwidth::Int3, Rounding::Deterministic, 0);
        let quant = accuracy_suite(&q3, &sets);
        assert!(
            quant <= base + 0.02,
            "int3 accuracy {quant} should not beat fp32 {base}"
        );
    }

    #[test]
    fn continuation_logprob_prefers_natural_text() {
        let m = teacher();
        let ctx = {
            let g = m.generate(&[5], 15, 0.8, 1);
            let mut c = vec![5];
            c.extend(g.tokens);
            c
        };
        let natural = m.generate(&ctx, 5, 0.1, 2).tokens;
        let random: Vec<usize> = vec![11, 73, 2, 90, 41];
        let lp_nat = continuation_logprob(&m, &ctx, &natural);
        let lp_rand = continuation_logprob(&m, &ctx, &random);
        assert!(lp_nat > lp_rand, "natural {lp_nat} vs random {lp_rand}");
    }

    #[test]
    fn answer_positions_are_spread() {
        let m = teacher();
        let set = TaskSet::generate("t", &m, 12, 4, 12, 3, 9);
        let positions: std::collections::HashSet<usize> =
            set.tasks.iter().map(|t| t.answer).collect();
        assert!(positions.len() > 1, "answers must not all share a slot");
        for t in &set.tasks {
            assert_eq!(t.choices.len(), 4);
            assert!(t.answer < 4);
        }
    }

    #[test]
    fn task_generation_reproducible() {
        let m = teacher();
        let a = TaskSet::generate("t", &m, 5, 3, 10, 4, 42);
        let b = TaskSet::generate("t", &m, 5, 3, 10, 4, 42);
        assert_eq!(a, b);
    }
}
