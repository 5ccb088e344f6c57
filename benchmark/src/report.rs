//! The metric tables (names, units, direction, bounds), the result
//! record a run produces, and `compare` between two result sets.

use crate::stats::{iqr_share, median};
use crate::workloads::SUITE_ONLY;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A bounded metric: `bound` is the share of the baseline's median by
/// which it may get worse before that counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Bounded {
    Bounded {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Bounded {
    Bounded {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// The end-to-end metrics of `BENCHMARK.json`: every workload reports
/// every one of them, from the untraced run.
///
/// The three timings are those of the lap a tenth of the way in from the
/// fast end of the run (`stats::fast_decile`), which is what repeats on
/// a shared host. The timing bounds are nevertheless as wide as the
/// contract allows: in the host's bad hours (its other tenants slow a
/// pinned, single-threaded loop by 40 % for seconds at a time) no tenth
/// of a run may be left alone, and a bound below that spread would fail
/// commits that changed nothing.
pub const END_TO_END: [Bounded; 5] = [
    lower("setup_s", "s", 0.25),
    lower("latency_p50_ms", "ms", 0.25),
    lower("latency_p75_ms", "ms", 0.25),
    higher("req_per_s", "req/s", 0.25),
    lower("peak_rss_mb", "MB", 0.15),
];

/// End-to-end metrics only some workloads have. They are printed, kept
/// in the result files and judged by `compare`, but are not in
/// `BENCHMARK.json`, whose metrics every workload must report. They are
/// taken over the whole run, not its fast laps, so they follow the
/// host's mood: two suite runs of one commit an hour apart differed by
/// 19–24 % on every `chat_decode` timing, and `compare` will call them
/// unresolved as often as not.
pub const EXTENDED: [Bounded; 10] = [
    lower("ttft_p50_ms", "ms", 0.25),
    lower("ttft_p90_ms", "ms", 0.25),
    lower("tpot_p50_ms", "ms", 0.25),
    lower("tpot_p90_ms", "ms", 0.25),
    lower("itl_p99_ms", "ms", 0.25),
    higher("output_tok_s", "tok/s", 0.25),
    higher("goodput_rps", "req/s", 0.25),
    lower("latency_p99_ms", "ms", 0.25),
    lower("plan_cold_s", "s", 0.25),
    lower("replan_warm_s", "s", 0.25),
];

/// The per-layer metrics of `BENCHMARK.json` (traced run; no bounds).
pub const PER_LAYER: [(&str, &str, Better); 61] = {
    use Better::{Higher as H, Lower as L};
    [
        ("http.frontdoor_us_p50", "us", L),
        ("http.parse_us_per_req", "us", L),
        ("http.requests", "count", H),
        ("http.dropped", "count", L),
        ("http.resp_5xx", "count", L),
        ("serve.step_self_us_mean", "us", L),
        ("serve.iterations", "count", L),
        ("serve.queue_wait_ms_p50", "ms", L),
        ("serve.queue_wait_ms_p90", "ms", L),
        ("serve.batch_occupancy_mean", "count", H),
        ("serve.peak_batch", "count", H),
        ("serve.preemptions", "count", L),
        ("serve.shed", "count", L),
        ("serve.recompute_ratio", "ratio", L),
        ("engine.prefill_us_per_tok", "us", L),
        ("engine.decode_us_per_tok_p50", "us", L),
        ("engine.decode_us_per_tok_p99", "us", L),
        ("engine.decode_us_per_tok.ctx_le64", "us", L),
        ("engine.decode_us_per_tok.ctx_gt128", "us", L),
        ("engine.prefill_busy_s", "s", L),
        ("engine.decode_busy_s", "s", L),
        ("engine.busy_frac", "ratio", H),
        ("ring.hop_us", "us", L),
        ("ring.wire_codec_us.decode", "us", L),
        ("ring.wire_codec_us.prefill64", "us", L),
        ("ring.wire_bytes_per_tok", "B", L),
        ("kvpool.gather_us.ctx128", "us", L),
        ("kvpool.gather_us.ctx384", "us", L),
        ("kvpool.append_us", "us", L),
        ("kvpool.peak_blocks", "count", L),
        ("kvpool.reserved_over_used", "ratio", L),
        ("kernels.decode_gemv_us_per_tok.f32", "us", L),
        ("kernels.decode_gemv_us_per_tok.int8", "us", L),
        ("kernels.decode_gemv_us_per_tok.int4", "us", L),
        ("kernels.prefill_gemm_us_per_tok.f32", "us", L),
        ("kernels.prefill_gemm_us_per_tok.int8", "us", L),
        ("kernels.prefill_gemm_us_per_tok.int4", "us", L),
        ("kernels.gemv4096_ms.int4", "ms", L),
        ("kernels.flops_per_tok", "flop", L),
        ("kernels.weight_bytes_per_tok.int4", "B", L),
        ("kernels.decode_eff_gbs.int4", "GB/s", H),
        ("kernels.prefill_gflops.int4", "GFLOP/s", H),
        ("model.nongemm_us_per_tok.decode", "us", L),
        ("model.quantize_s", "s", L),
        ("planner.build_problem_ms", "ms", L),
        ("planner.partition_solve_ms", "ms", L),
        ("planner.dp_calls", "count", L),
        ("planner.pairs_pruned", "count", H),
        ("planner.seeds_pruned", "count", H),
        ("planner.hints_applied", "count", H),
        ("planner.cost_cache_hit_rate", "ratio", H),
        ("planner.eval_cache_hit_rate", "ratio", H),
        ("probe.mem_bw_gbs", "GB/s", H),
        ("probe.peak_f32_gflops", "GFLOP/s", H),
        ("loadgen.lateness_ms_p99", "ms", L),
        ("trace.overhead_frac", "ratio", L),
        ("attr.engine_frac", "ratio", H),
        ("attr.sched_frac", "ratio", L),
        ("attr.frontdoor_frac", "ratio", L),
        ("attr.idle_frac", "ratio", L),
        ("attr.unattributed_frac", "ratio", L),
    ]
};

/// Unit of any metric this benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&EXTENDED)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("count")
}

/// One metric value with the number of samples behind it (0 = not a
/// statistic of samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value, all digits.
    pub value: f64,
    /// Samples behind a percentile or rate.
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests (or planning calls) sent.
    pub attempted: usize,
    /// Of those, how many failed.
    pub failed: usize,
    /// Output-check failures; empty means correct.
    pub failures: Vec<String>,
    /// Metrics of the last JSON line: end-to-end when untraced,
    /// per-layer when traced.
    pub metrics: Vec<Measured>,
    /// Everything else worth printing and keeping (extended metrics).
    pub extra: Vec<Measured>,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

impl Outcome {
    /// Record a contract metric.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name: name.into(),
            value,
            samples,
        });
    }

    /// Record an extended metric, if it could be computed.
    pub fn extra(&mut self, name: &str, value: Option<f64>, samples: usize) {
        if let Some(value) = value {
            self.extra.push(Measured {
                name: name.into(),
                value,
                samples,
            });
        }
    }

    /// The human-readable lines: `workload metric value unit`.
    pub fn lines(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload} sent {} count\n{workload} succeeded {} count\n{workload} failed {} count\n",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for m in self.metrics.iter().chain(&self.extra) {
            s.push_str(&format!(
                "{workload} {} {} {}",
                m.name,
                m.value,
                unit_of(&m.name)
            ));
            if m.samples > 0 {
                s.push_str(&format!(" n={}", m.samples));
            }
            s.push('\n');
        }
        for f in &self.failures {
            s.push_str(&format!("{workload} CHECK FAILED: {f}\n"));
        }
        s
    }

    fn metrics_value(list: &[Measured]) -> Value {
        Value::Obj(
            list.iter()
                .map(|m| {
                    let fields = vec![
                        ("value".to_string(), num(m.value)),
                        ("unit".to_string(), Value::Str(unit_of(&m.name).into())),
                    ];
                    (m.name.clone(), Value::Obj(fields))
                })
                .collect(),
        )
    }

    /// The contract's result object (the run's last line of output).
    pub fn result_json(&self) -> String {
        let v = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), Self::metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&v).expect("a value tree always serializes")
    }

    /// The fuller record kept in a result file.
    pub fn file_value(&self) -> Value {
        let all: Vec<Measured> = self.metrics.iter().chain(&self.extra).cloned().collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), Self::metrics_value(&all)),
        ])
    }
}

/// Per workload, per metric: the values of every run in a result set,
/// plus each workload's worst failed share.
type ResultSet = BTreeMap<String, (BTreeMap<String, Vec<f64>>, f64)>;

fn read_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // Only the untraced result files: traced runs have tracing on.
        if !name.ends_with(".json") || name.starts_with("trace_") || name.starts_with("layers_") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(Value::Str(workload)), Some(Value::Arr(runs))) =
            (v.get("workload"), v.get("runs"))
        else {
            return Err(format!("{}: not a bench_e2e result file", path.display()));
        };
        let slot = set.entry(workload.clone()).or_default();
        for run in runs {
            if let (Some(Value::Num(a)), Some(Value::Num(f))) =
                (run.get("attempted"), run.get("failed"))
            {
                slot.1 = slot.1.max(f / a.max(1.0));
            }
            let Some(Value::Obj(metrics)) = run.get("metrics") else {
                continue;
            };
            for (metric, body) in metrics {
                if let Some(Value::Num(x)) = body.get("value") {
                    slot.0.entry(metric.clone()).or_default().push(*x);
                }
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

/// Spread inside one set: quartile distance over the median with four
/// runs or more, the full range over the median with two or three.
fn spread(values: &[f64]) -> Option<f64> {
    iqr_share(values).or_else(|| {
        let med = median(values)?;
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        (values.len() >= 2 && med != 0.0).then(|| (hi - lo) / med.abs())
    })
}

/// `compare A B`: per workload × bounded metric, how much worse B's
/// median is than A's beside the bound. Returns the table and whether
/// B regressed (a metric worse by more than its bound, or a higher
/// failed share). The timings of the suite-only workloads are shown but
/// not judged: they differ by more than any bound between two runs of
/// one binary, which is why `BENCHMARK.json` leaves them out.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (sa, sb) = (read_set(a)?, read_set(b)?);
    let mut table = format!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut regressed = false;
    for (workload, (ma, fail_a)) in &sa {
        let Some((mb, fail_b)) = sb.get(workload) else {
            table.push_str(&format!("{workload:<14} missing from B\n"));
            regressed = true;
            continue;
        };
        if fail_b > fail_a {
            table.push_str(&format!(
                "{workload:<14} failed share rose {fail_a} -> {fail_b}: REGRESSED\n"
            ));
            regressed = true;
        }
        let judged = !SUITE_ONLY.contains(&workload.as_str());
        for def in END_TO_END.iter().chain(&EXTENDED) {
            let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let (Some(med_a), Some(med_b)) = (median(va), median(vb)) else {
                continue;
            };
            let worse = match def.better {
                Better::Lower => (med_b - med_a) / med_a.abs(),
                Better::Higher => (med_a - med_b) / med_a.abs(),
            };
            let noisy = [va, vb]
                .iter()
                .any(|v| spread(v).is_some_and(|s| s > def.bound));
            let verdict = if noisy {
                "unresolved"
            } else if worse <= def.bound {
                "ok"
            } else if judged {
                regressed = true;
                "REGRESSED"
            } else {
                "worse (suite only: not judged)"
            };
            table.push_str(&format!(
                "{workload:<14} {:<16} {med_a:>12.4} {med_b:>12.4} {:>+7.1}% {:>5.0}%  {verdict}\n",
                def.name,
                worse * 100.0,
                def.bound * 100.0
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_set(dir: &Path, latency: &[f64], failed: usize) {
        write_workload(dir, "chat_decode", latency, failed);
    }

    fn write_workload(dir: &Path, workload: &str, latency: &[f64], failed: usize) {
        std::fs::create_dir_all(dir).unwrap();
        let runs: Vec<Value> = latency
            .iter()
            .map(|l| {
                let mut o = Outcome {
                    attempted: 100,
                    failed,
                    ..Outcome::default()
                };
                o.metric("latency_p50_ms", *l, 100);
                o.extra("ttft_p50_ms", Some(1.0), 100);
                o.file_value()
            })
            .collect();
        let file = Value::Obj(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("runs".into(), Value::Arr(runs)),
        ]);
        std::fs::write(
            dir.join(format!("{workload}.json")),
            serde_json::to_string(&file).unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn compare_flags_regressions_and_noise() {
        let root = std::env::temp_dir().join(format!("bench_e2e_compare_{}", std::process::id()));
        let (a, b, c, d) = (
            root.join("a"),
            root.join("b"),
            root.join("c"),
            root.join("d"),
        );
        write_set(&a, &[10.0], 0);
        write_set(&b, &[10.5], 0);
        write_set(&c, &[13.0], 0);
        write_set(&d, &[9.0, 10.0, 11.0, 14.0, 10.0], 1);
        let (table, bad) = compare(&a, &b).unwrap();
        assert!(!bad, "{table}");
        let (table, bad) = compare(&a, &c).unwrap();
        assert!(bad && table.contains("REGRESSED"), "{table}");
        // A set whose own spread exceeds the bound cannot resolve the
        // metric, but its higher failed share still regresses.
        let (table, bad) = compare(&a, &d).unwrap();
        assert!(
            table.contains("unresolved") && table.contains("failed share rose") && bad,
            "{table}"
        );
        // A suite-only workload's timings are shown, not judged.
        write_workload(&a, "mixed_open", &[10.0], 0);
        write_workload(&b, "mixed_open", &[20.0], 0);
        let (table, bad) = compare(&a, &b).unwrap();
        assert!(!bad && table.contains("not judged"), "{table}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 7,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, 5);
        o.extra("ttft_p50_ms", Some(3.0), 7);
        let v = serde_json::parse_value(&o.result_json()).unwrap();
        let Value::Obj(pairs) = &v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit"),
            Some(&Value::Str("s".into()))
        );
        assert!(v.get("metrics").unwrap().get("ttft_p50_ms").is_none());
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics and workloads this crate reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Arr(items)) = v.get(key) else {
                panic!("{key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    let bound = match m.get("bound") {
                        Some(Value::Num(b)) => Some(*b),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.0.to_string(),
                    m.1.to_string(),
                    m.2.word().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let listed: Vec<&str> = crate::workloads::NAMES
            .into_iter()
            .filter(|n| !crate::workloads::SUITE_ONLY.contains(n))
            .collect();
        assert_eq!(workloads, listed);
    }
}
