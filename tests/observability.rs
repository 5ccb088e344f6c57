//! Telemetry round-trip tests: run an observed pipeline, export the
//! Chrome trace and metrics snapshot, and check the invariants the
//! exporters promise — the JSON parses, spans per stage are
//! monotonically ordered and non-overlapping, per-stage busy time fits
//! inside the run's wall-clock, and the snapshot reports percentiles.

use llm_pq::{ExecutionPlan, StagePlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::Bitwidth;
use llmpq_runtime::{FaultPlan, FoldReplanner, Pipeline, SupervisorConfig, Telemetry};
use serde_json::Value;

fn tiny_plan() -> ExecutionPlan {
    ExecutionPlan {
        model: "tiny".into(),
        cluster: "test".into(),
        stages: vec![
            StagePlan { device: 0, layer_start: 0, layer_end: 1, bits: vec![Bitwidth::Int8] },
            StagePlan { device: 1, layer_start: 1, layer_end: 2, bits: vec![Bitwidth::Fp16] },
        ],
        microbatch: llmpq_workload::MicrobatchPlan {
            prefill_size: 2,
            prefill_count: 2,
            decode_size: 3,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    }
}

fn run_observed(n_generate: usize) -> (Telemetry01, f64) {
    let m = RefModel::new(RefConfig::tiny());
    let prompts = vec![vec![1, 2, 3], vec![9, 8], vec![4, 5, 6]];
    let tel = Telemetry::new(2);
    let out = Pipeline::new(&m, &tiny_plan()).telemetry(tel.clone()).run(&prompts, n_generate)
        .expect("observed run");
    (tel, out.wall_s)
}

type Telemetry01 = std::sync::Arc<Telemetry>;

#[test]
fn observed_run_produces_identical_tokens() {
    let m = RefModel::new(RefConfig::tiny());
    let prompts = vec![vec![1, 2, 3], vec![9, 8], vec![4, 5, 6]];
    let plain = Pipeline::new(&m, &tiny_plan()).run(&prompts, 5)
        .expect("plain run");
    let tel = Telemetry::new(2);
    let observed = Pipeline::new(&m, &tiny_plan()).telemetry(tel.clone()).run(&prompts, 5)
        .expect("observed run");
    assert_eq!(plain.tokens, observed.tokens, "telemetry must not perturb generation");
    assert!(tel.tokens() > 0);
}

#[test]
fn chrome_trace_round_trips_through_json() {
    let (tel, _) = run_observed(4);
    let json = tel.to_chrome_trace();
    let v = serde_json::parse_value(&json).expect("trace must be valid JSON");
    let Value::Obj(pairs) = &v else { panic!("trace root must be an object") };
    assert!(pairs.iter().any(|(k, _)| k == "displayTimeUnit"));
    let Some(Value::Arr(events)) = v.get("traceEvents") else {
        panic!("traceEvents array expected")
    };
    assert!(!events.is_empty());
    // Every event is a metadata ("M") or complete ("X") event with the
    // required fields.
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("event without ph: {other:?}"),
        };
        assert!(ph == "M" || ph == "X", "unexpected phase {ph}");
        assert!(ev.get("tid").is_some() && ev.get("pid").is_some());
        if ph == "X" {
            assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
            let args = ev.get("args").expect("X event args");
            assert!(args.get("phase").is_some() && args.get("step").is_some());
        }
    }
}

#[test]
fn spans_per_stage_are_monotonic_and_non_overlapping() {
    let (tel, wall_s) = run_observed(5);
    let rows = tel.ordered_spans();
    assert!(rows.len() >= 3, "master + 2 stages traced, got {}", rows.len());
    for (tid, spans) in &rows {
        assert!(!spans.is_empty(), "tid {tid} has no spans");
        let mut prev_end = 0u64;
        for s in spans {
            assert!(
                s.ts_us >= prev_end,
                "tid {tid}: span [{}, {}) overlaps previous end {prev_end}",
                s.ts_us,
                s.ts_us + s.dur_us
            );
            prev_end = s.ts_us + s.dur_us;
        }
        // Total spanned time per trace thread fits in the wall clock
        // (with slack for the export-time epoch being started before
        // loading).
        let total_us: u64 = spans.iter().map(|s| s.dur_us).sum();
        assert!(
            (total_us as f64) / 1e6 <= wall_s + 0.5,
            "tid {tid}: spans sum {total_us}µs beyond wall {wall_s}s"
        );
    }
}

#[test]
fn parsed_trace_spans_are_ordered_per_tid() {
    // The same invariant, but checked on the *exported* JSON — what a
    // trace viewer actually loads.
    let (tel, _) = run_observed(4);
    let v = serde_json::parse_value(&tel.to_chrome_trace()).expect("valid JSON");
    let Some(Value::Arr(events)) = v.get("traceEvents") else { panic!("traceEvents") };
    let mut by_tid: std::collections::BTreeMap<i64, Vec<(f64, f64)>> = Default::default();
    for ev in events {
        if !matches!(ev.get("ph"), Some(Value::Str(s)) if s == "X") {
            continue;
        }
        let Some(Value::Num(tid)) = ev.get("tid") else { panic!("tid") };
        let Some(Value::Num(ts)) = ev.get("ts") else { panic!("ts") };
        let Some(Value::Num(dur)) = ev.get("dur") else { panic!("dur") };
        by_tid.entry(*tid as i64).or_default().push((*ts, *dur));
    }
    assert!(by_tid.len() >= 3, "master + 2 stages");
    for (tid, spans) in by_tid {
        let mut prev_end = f64::MIN;
        for (ts, dur) in spans {
            assert!(ts >= prev_end, "tid {tid}: span at {ts} overlaps previous end {prev_end}");
            prev_end = ts + dur;
        }
    }
}

#[test]
fn stage_busy_time_fits_wall_clock() {
    let (tel, wall_s) = run_observed(6);
    for i in 0..tel.n_stages() {
        let stage = tel.stage(i).expect("stage recorder");
        assert!(stage.items() > 0, "stage {i} processed items");
        assert!(
            stage.busy_s() <= wall_s + 0.5,
            "stage {i} busy {:.4}s exceeds wall {wall_s:.4}s",
            stage.busy_s()
        );
        // Phase routing: prefill and decode both ran.
        assert!(stage.prefill_latency.count() > 0, "stage {i} prefill samples");
        assert!(stage.decode_latency.count() > 0, "stage {i} decode samples");
    }
}

#[test]
fn metrics_snapshot_reports_percentiles_for_every_stage() {
    let (tel, _) = run_observed(4);
    let text = tel.metrics_text();
    for i in 0..2 {
        assert!(text.contains(&format!("stage {i}:")), "{text}");
    }
    assert!(text.contains("p50=") && text.contains("p95=") && text.contains("p99="));
    assert!(text.contains("tokens_per_s:"));
    assert!(text.contains("queue_peak="));
    assert!(text.contains("kv_entries="));
}

#[test]
fn supervised_observed_run_counts_restarts() {
    let m = RefModel::new(RefConfig::tiny());
    let prompts = vec![vec![1, 2, 3], vec![9, 8]];
    let tel = Telemetry::new(2);
    let cfg = SupervisorConfig {
        heartbeat_timeout_ms: 60,
        progress_timeout_ms: 150,
        tick_ms: 1,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..SupervisorConfig::default()
    };
    let faults = FaultPlan::crash_schedule(&[(1, 2)]);
    let out = Pipeline::new(&m, &tiny_plan())
        .supervised(cfg)
        .faults(&faults)
        .replanner(&FoldReplanner)
        .telemetry(tel.clone())
        .run(&prompts, 5)
        .expect("recovered");
    assert_eq!(out.restarts, 1);
    assert_eq!(tel.restarts(), 1, "telemetry mirrors the supervisor's restart count");
    let text = tel.metrics_text();
    assert!(text.contains("restarts: 1"), "{text}");
}
