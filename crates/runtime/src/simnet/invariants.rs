//! The one checker behind every chaos sweep. A harness runs its world,
//! then hands what came out to [`Invariants`] — one method per ground
//! truth — and the violations it collects are the run's verdict. The
//! checker only reads outcomes and never touches the simulated world,
//! so event traces and sweep summaries do not depend on it. DESIGN.md
//! §13 tabulates the rules and which sweep checks which.

use crate::migrate::{hybrid_oracle_tokens, SwapReport};
use crate::overload::AdmissionStats;
use llm_pq::ExecutionPlan;
use llmpq_model::RefModel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// The violations found so far; none means every rule checked held.
#[derive(Debug, Default)]
pub(crate) struct Invariants(Vec<String>);

impl Invariants {
    /// A checker that starts from violations the run found itself (the
    /// scheduler's deadlock and horizon findings), kept unchanged.
    pub(crate) fn new(found: Vec<String>) -> Self {
        Self(found)
    }

    /// The verdict, in the order the violations were found.
    pub(crate) fn into_violations(self) -> Vec<String> {
        self.0
    }

    /// Admission conservation: `offered == served + shed + expired +
    /// pending`, and a run that has ended leaves nothing pending (a
    /// harness counts what it legitimately gave up on as shed).
    pub(crate) fn conservation(&mut self, s: &AdmissionStats, pending: usize) {
        if !s.conserves(pending) {
            self.0.push(format!(
                "admission conservation violated: offered {} != served {} + shed {} + expired {} \
                 + pending {pending}",
                s.offered, s.served, s.shed, s.expired
            ));
        }
        if pending > 0 {
            self.0.push(format!("{pending} request(s) stranded: still pending when the run ended"));
        }
    }

    /// Restart bound: a run takes at most `budget` restarts.
    pub(crate) fn restart_bound(&mut self, restarts: u64, budget: usize) {
        if restarts > budget as u64 {
            self.0.push(format!("restart count {restarts} exceeds the recovery bound {budget}"));
        }
    }

    /// Oracle token identity: every request got exactly the tokens
    /// `oracle` (named in the message) produced for it.
    pub(crate) fn matches_oracle(
        &mut self,
        oracle: &str,
        want: impl IntoIterator<Item = (usize, Vec<usize>)>,
        got: impl IntoIterator<Item = (usize, Vec<usize>)>,
    ) {
        let want: BTreeMap<_, _> = want.into_iter().collect();
        let got: BTreeMap<_, _> = got.into_iter().collect();
        if want == got {
            return;
        }
        let diverged: Vec<usize> =
            want.iter().filter(|(id, t)| got.get(id) != Some(t)).map(|(id, _)| *id).collect();
        self.0.push(format!(
            "token output diverges from {oracle}: {} of {} requests differ (ids {diverged:?})",
            diverged.len().max(want.len().abs_diff(got.len())),
            want.len()
        ));
    }

    /// Oracle token identity across a committed live swap from `old` to
    /// `new`: `got` must match *some* legal recovery history. Boundary
    /// `b` starts at `at_token` and walks up one per pre-commit barrier
    /// death; at most one post-commit restart is visible (it
    /// re-prefills under `new` — later restarts regenerate the same
    /// tail by greedy determinism). Every sequence must agree on the
    /// same `(b, resume)` history.
    pub(crate) fn legal_swap_history(
        &mut self,
        old: &RefModel,
        new: &RefModel,
        at_token: usize,
        prompts: &[Vec<usize>],
        n_generate: usize,
        got: &[Vec<usize>],
    ) {
        let legal = (at_token.max(1)..n_generate).any(|b| {
            std::iter::once(None).chain((1..=n_generate).map(Some)).any(|resume| {
                let oracle = |p: &Vec<usize>| {
                    hybrid_oracle_tokens(&[(0, old), (b, new)], p, n_generate, resume)
                };
                prompts.iter().map(oracle).eq(got.iter().cloned())
            })
        });
        if !legal {
            self.0.push("committed migration produced tokens matching no legal swap history".into());
        }
    }

    /// Fault-free sanity, and survival in general: `what` — a run with
    /// no faults, or one whose schedule is drawn survivable — completed.
    /// Hands the value back so the harness can go on checking it.
    pub(crate) fn completed<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        result.map_err(|e| self.0.push(format!("{what} failed: {e}"))).ok()
    }

    /// Fault-free sanity: a run with no faults takes no restart and does
    /// not skip its scheduled swap.
    pub(crate) fn fault_free(&mut self, restarts: u64, swap_skipped: bool) {
        if restarts != 0 {
            self.0.push(format!("fault-free run took {restarts} restart(s)"));
        }
        if swap_skipped {
            self.0.push("fault-free migration run failed to commit the swap".into());
        }
    }

    /// Served exactly once: every finished request — one `(id, tokens
    /// served)` per completion — was offered, finished once, and got the
    /// length `offered` asked for (`None`: the harness serves no tokens).
    pub(crate) fn served_once(
        &mut self,
        offered: &BTreeMap<usize, Option<usize>>,
        finished: impl IntoIterator<Item = (usize, usize)>,
    ) {
        let mut times: BTreeMap<usize, usize> = BTreeMap::new();
        for (id, len) in finished {
            *times.entry(id).or_default() += 1;
            match offered.get(&id) {
                None => self.0.push(format!("request {id} served but never offered")),
                Some(&Some(want)) if len != want => {
                    self.0.push(format!("request {id} served {len} tokens, asked for {want}"))
                }
                Some(_) => {}
            }
        }
        for (id, n) in times.into_iter().filter(|&(_, n)| n > 1) {
            self.0.push(format!("request {id} served {n} times"));
        }
    }

    /// Stream consistency: no `(request, index)` position of what `who`
    /// streamed — every `(request, index, token)` landing, in order —
    /// lands two different tokens. A streaming consumer that emitted the
    /// first landing would hold a token the final answer disagrees with.
    pub(crate) fn stream_consistent(&mut self, who: &str, landed: &[(usize, usize, usize)]) {
        let mut first: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for &(id, index, token) in landed {
            let prev = *first.entry((id, index)).or_insert(token);
            if prev != token {
                self.0.push(format!(
                    "{who}: stream contradiction: request {id} token {index} landed as {prev}, \
                     re-landed as {token}"
                ));
            }
        }
    }

    /// Committed plans use only live devices: every stage of `plan` sits
    /// on a device in `live`; `when` places the check in the run.
    pub(crate) fn plan_live(&mut self, plan: &ExecutionPlan, live: &BTreeSet<usize>, when: impl Display) {
        if !plan.stages.iter().all(|s| live.contains(&s.device)) {
            self.0.push(format!("committed plan references a dead device {when} (live: {live:?})"));
        }
    }

    /// Swap epochs strictly increase across a run's swap reports, from
    /// the starting epoch 0: no two proposals share a number.
    pub(crate) fn epochs_increase(&mut self, swaps: &[SwapReport]) {
        let mut prev = 0;
        for r in swaps {
            if r.epoch <= prev {
                self.0.push(format!("swap epoch {} does not follow epoch {prev}", r.epoch));
            }
            prev = r.epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::RefConfig;

    /// Run one rule on a fresh checker and return its verdict.
    fn verdict(check: impl FnOnce(&mut Invariants)) -> Vec<String> {
        let mut inv = Invariants::default();
        check(&mut inv);
        inv.into_violations()
    }

    fn one(v: Vec<String>, phrase: &str) {
        assert_eq!(v.len(), 1, "want exactly one violation: {v:?}");
        assert!(v[0].contains(phrase), "{:?} lacks {phrase:?}", v[0]);
    }

    #[test]
    fn scheduler_findings_are_kept_unchanged() {
        let v = Invariants::new(vec!["deadlock at 5µs".into()]).into_violations();
        assert_eq!(v, ["deadlock at 5µs"]);
    }

    #[test]
    fn conservation_flags_a_double_count_and_a_stranded_request() {
        let s = AdmissionStats { offered: 2, admitted: 2, served: 3, ..Default::default() };
        one(verdict(|i| i.conservation(&s, 0)), "conservation");
        let s = AdmissionStats { offered: 2, admitted: 2, served: 1, ..Default::default() };
        one(verdict(|i| i.conservation(&s, 1)), "stranded");
        let s = AdmissionStats { offered: 4, served: 1, shed: 1, expired: 1, ..Default::default() };
        assert!(verdict(|i| i.conservation(&s, 1)).len() == 1, "pending alone is one finding");
        assert!(verdict(|i| i.conservation(&AdmissionStats::default(), 0)).is_empty());
    }

    #[test]
    fn restart_bound_flags_one_restart_too_many() {
        one(verdict(|i| i.restart_bound(4, 3)), "recovery bound 3");
        assert!(verdict(|i| i.restart_bound(3, 3)).is_empty());
    }

    #[test]
    fn oracle_identity_names_the_diverged_requests() {
        let want = || [vec![1, 2], vec![3, 4]].into_iter().enumerate();
        let got = [vec![1, 2], vec![3, 5]].into_iter().enumerate();
        one(verdict(|i| i.matches_oracle("the oracle", want(), got)), "1 of 2 requests differ (ids [1])");
        assert!(verdict(|i| i.matches_oracle("the oracle", want(), want())).is_empty());
    }

    #[test]
    fn swap_history_accepts_the_hybrid_oracle_and_nothing_else() {
        let old = RefModel::new(RefConfig::tiny());
        let new = RefModel::new(RefConfig { n_layers: 1, ..RefConfig::tiny() });
        let prompts = vec![vec![1, 2, 3]];
        let legal = vec![hybrid_oracle_tokens(&[(0, &old), (2, &new)], &prompts[0], 4, None)];
        let mut torn = legal.clone();
        torn[0][3] = (torn[0][3] + 1) % old.cfg.vocab;
        assert!(verdict(|i| i.legal_swap_history(&old, &new, 2, &prompts, 4, &legal)).is_empty());
        one(verdict(|i| i.legal_swap_history(&old, &new, 2, &prompts, 4, &torn)), "no legal swap history");
    }

    #[test]
    fn survival_records_a_failed_run_and_hands_back_a_completed_one() {
        let mut inv = Invariants::default();
        assert_eq!(inv.completed("fault-free run", Ok::<_, String>(7)), Some(7));
        assert_eq!(inv.completed("distributed run", Err::<u8, _>("ring lost")), None);
        one(inv.into_violations(), "distributed run failed: ring lost");
    }

    #[test]
    fn fault_free_runs_neither_restart_nor_skip_their_swap() {
        one(verdict(|i| i.fault_free(1, false)), "took 1 restart(s)");
        one(verdict(|i| i.fault_free(0, true)), "failed to commit the swap");
        assert!(verdict(|i| i.fault_free(0, false)).is_empty());
    }

    #[test]
    fn served_once_flags_a_double_serve_a_short_answer_and_a_stranger() {
        let offered: BTreeMap<usize, Option<usize>> = [(0, Some(3)), (1, None)].into();
        one(verdict(|i| i.served_once(&offered, [(0, 3), (1, 0), (1, 0)])), "served 2 times");
        one(verdict(|i| i.served_once(&offered, [(0, 2), (1, 0)])), "served 2 tokens, asked for 3");
        one(verdict(|i| i.served_once(&offered, [(0, 3), (9, 0)])), "never offered");
        assert!(verdict(|i| i.served_once(&offered, [(0, 3), (1, 0)])).is_empty());
    }

    #[test]
    fn a_relanded_token_that_changed_is_a_stream_contradiction() {
        let relanded_same = [(0, 0, 5), (0, 1, 6), (0, 1, 6)];
        assert!(verdict(|i| i.stream_consistent("ring", &relanded_same)).is_empty());
        let changed = [(0, 0, 5), (0, 1, 6), (0, 1, 7)];
        one(verdict(|i| i.stream_consistent("ring", &changed)), "landed as 6, re-landed as 7");
    }

    #[test]
    fn a_plan_on_a_dead_device_is_flagged() {
        let plan = ExecutionPlan {
            model: "t".into(),
            cluster: "c".into(),
            stages: crate::elastic::even_split(2, &[0, 1], |_| usize::MAX, |_, _| {
                llmpq_quant::Bitwidth::Int8
            }),
            microbatch: llm_pq::MicrobatchPlan {
                prefill_size: 1,
                prefill_count: 1,
                decode_size: 1,
                decode_count: 1,
            },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        one(verdict(|i| i.plan_live(&plan, &[0, 2].into(), "at t=5us")), "dead device at t=5us");
        assert!(verdict(|i| i.plan_live(&plan, &[0, 1, 2].into(), "at t=5us")).is_empty());
    }

    #[test]
    fn a_repeated_swap_epoch_is_flagged() {
        let swap = |epoch| SwapReport {
            epoch,
            at_token: 1,
            committed: false,
            reason: Some("aborted".into()),
            latency_us: 0,
            kv_bytes: 0,
        };
        one(verdict(|i| i.epochs_increase(&[swap(1), swap(1)])), "swap epoch 1 does not follow epoch 1");
        one(verdict(|i| i.epochs_increase(&[swap(0)])), "does not follow epoch 0");
        assert!(verdict(|i| i.epochs_increase(&[swap(1), swap(3)])).is_empty());
    }
}
