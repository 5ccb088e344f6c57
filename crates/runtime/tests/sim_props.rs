//! Acceptance tests for the deterministic simulation harness
//! (`llmpq_runtime::simnet`):
//!
//! * fault-free runs are bit-identical to the sequential oracle;
//! * the same seed yields a byte-identical event trace and verdict
//!   across consecutive runs;
//! * a seed sweep over the master + 2-stage protocol is deterministic
//!   and violation-free;
//! * a deliberately injected admission-conservation bug is caught by
//!   the invariant checker and shrunk to a minimal (≤ 5 events,
//!   actually 1) replayable JSON counterexample.

use llmpq_runtime::{
    elastic_churn_plan, run_elastic, run_sim, seed_sweep, shrink_schedule, ElasticSimConfig,
    SimConfig, SimCrash, SimFaultKind, SimFaultPlan, SimLinkEvent, SimPartition,
};

fn cfg() -> SimConfig {
    SimConfig::default()
}

#[test]
fn fault_free_run_matches_oracle() {
    let report = run_sim(&cfg(), &SimFaultPlan::none());
    assert!(report.ok(), "violations: {:?}\ntrace:\n{}", report.violations, report.trace_text());
    assert!(report.tokens.is_some(), "fault-free run must produce tokens");
    assert_eq!(report.restarts, 0);
    assert_eq!(report.error, None);
    assert!(report.admission.conserves(report.pending));
    // Token correctness against the oracle is itself an invariant; a
    // passing verdict *is* the bit-identity assertion. Sanity-check the
    // shape anyway.
    let tokens = report.tokens.unwrap();
    assert_eq!(tokens.len(), report.admission.offered);
    assert!(tokens.iter().all(|t| t.len() == cfg().n_generate));
}

#[test]
fn same_seed_same_trace_byte_for_byte() {
    // A schedule with a crash-and-restart plus link noise: plenty of
    // nondeterminism surface if the scheduler had any.
    let plan = SimFaultPlan {
        link_events: vec![
            SimLinkEvent { link: 1, after_frames: 2, kind: SimFaultKind::Delay { us: 40_000 } },
            SimLinkEvent { link: 2, after_frames: 1, kind: SimFaultKind::Duplicate },
        ],
        partitions: vec![SimPartition { link: 0, at_us: 300, heal_at_us: Some(90_000) }],
        crashes: vec![SimCrash { stage: 1, at_us: 250, restart_after_us: Some(60_000) }],
        ..SimFaultPlan::none()
    };
    let a = run_sim(&cfg(), &plan);
    let b = run_sim(&cfg(), &plan);
    assert_eq!(a.trace_text(), b.trace_text(), "same seed must give a byte-identical trace");
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.tokens, b.tokens);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.final_virtual_us, b.final_virtual_us);
    assert!(a.ok(), "violations: {:?}\ntrace:\n{}", a.violations, a.trace_text());
}

/// Every seed's run repeats event for event, not only its summary: the
/// plain and the migration schedules of seeds 0..40 each run twice and
/// must give the same trace, verdict and tokens, and so must the
/// elastic-fleet run of each seed (compared as its JSON). The serving
/// mode is left out: it drives real threads under a wall-clock op
/// timeout, so its interleaving is not a function of the seed.
#[test]
fn every_seed_repeats_its_event_log() {
    let migration = SimConfig::migration_default();
    for seed in 0..40 {
        for (c, plan) in [
            (cfg(), SimFaultPlan::random(seed, cfg().n_stages)),
            (migration.clone(), SimFaultPlan::random_migration(seed, migration.n_stages)),
        ] {
            let (a, b) = (run_sim(&c, &plan), run_sim(&c, &plan));
            let what = format!("seed {seed}, migration {:?}", c.migration);
            assert_eq!(a.trace_text(), b.trace_text(), "{what}");
            assert_eq!(a.violations, b.violations, "{what}");
            assert_eq!(a.tokens, b.tokens, "{what}");
        }
    }
    let elastic = ElasticSimConfig::default();
    for seed in 0..40 {
        let churn = elastic_churn_plan(&elastic, seed);
        let json = || serde_json::to_string(&run_elastic(&elastic, seed, &churn)).unwrap();
        assert_eq!(json(), json(), "elastic seed {seed}");
    }
}

#[test]
fn seed_sweep_is_deterministic_and_violation_free() {
    let c = cfg();
    let a = seed_sweep(&c, 0, 40);
    let b = seed_sweep(&c, 0, 40);
    assert_eq!(a, b, "two consecutive sweeps must agree exactly");
    assert!(
        a.ok(),
        "sweep found violations: {:?}",
        a.failures.iter().map(|f| (f.seed, f.violations.clone())).collect::<Vec<_>>()
    );
    // The sweep must actually exercise faults, not vacuously pass.
    assert!(a.tally.runs_with_faults > 20, "only {} runs had faults", a.tally.runs_with_faults);
    assert!(a.tally.runs_with_restarts > 0, "no run recovered through a restart");
}

#[test]
fn injected_conservation_bug_is_caught_and_shrunk() {
    let mut c = cfg();
    c.inject_conservation_bug = true;
    // A crash forces one restart, which triggers the deliberate
    // accounting bug; the other events are noise the shrinker must shed.
    let plan = SimFaultPlan {
        link_events: vec![
            SimLinkEvent { link: 0, after_frames: 5, kind: SimFaultKind::Delay { us: 10_000 } },
            SimLinkEvent { link: 3, after_frames: 0, kind: SimFaultKind::Duplicate },
            SimLinkEvent { link: 2, after_frames: 4, kind: SimFaultKind::Delay { us: 5_000 } },
        ],
        partitions: vec![SimPartition { link: 4, at_us: 150, heal_at_us: Some(40_000) }],
        crashes: vec![SimCrash { stage: 0, at_us: 200, restart_after_us: Some(50_000) }],
        ..SimFaultPlan::none()
    };
    let report = run_sim(&c, &plan);
    assert!(
        report.violations.iter().any(|v| v.contains("conservation")),
        "checker missed the injected bug: {:?}\ntrace:\n{}",
        report.violations,
        report.trace_text()
    );

    let minimized = shrink_schedule(&c, 0, &plan);
    assert!(minimized.event_count() <= 5, "shrink left {} events", minimized.event_count());
    assert_eq!(
        minimized.event_count(),
        1,
        "the crash alone reproduces; shrink kept: {}",
        minimized.to_json()
    );

    // The JSON counterexample replays: parse it back and reproduce.
    let replayed = SimFaultPlan::from_json(&minimized.to_json()).expect("replayable JSON");
    assert_eq!(replayed, minimized);
    let rerun = run_sim(&c, &replayed);
    assert!(
        rerun.violations.iter().any(|v| v.contains("conservation")),
        "minimized schedule must still reproduce the violation"
    );

    // Without the dev hook the same schedule is clean: the checker
    // reacted to the bug, not to the faults.
    let clean = run_sim(&cfg(), &plan);
    assert!(clean.ok(), "violations without the hook: {:?}", clean.violations);
}


// --- live plan migration under simulated faults -------------------------

#[test]
fn fault_free_migration_commits_and_ships_kv() {
    let c = SimConfig::migration_default();
    let report = run_sim(&c, &SimFaultPlan::none());
    assert!(report.ok(), "violations: {:?}\ntrace:\n{}", report.violations, report.trace_text());
    assert_eq!(report.restarts, 0);
    assert_eq!(report.swaps.len(), 1, "exactly one swap scheduled");
    let swap = &report.swaps[0];
    assert!(swap.committed, "fault-free migration must commit: {:?}", swap.reason);
    assert_eq!(swap.at_token, 2);
    assert!(swap.kv_bytes > 0, "a repartition swap must ship KV slices");
    // Every admitted request finishes full-length: zero dropped requests.
    let tokens = report.tokens.expect("committed run produces tokens");
    assert_eq!(tokens.len(), report.admission.offered);
    assert!(tokens.iter().all(|t| t.len() == c.n_generate));
    // The committed target (all-Int4) is visible in token space.
    let mut plain = c.clone();
    plain.migration = None;
    let without = run_sim(&plain, &SimFaultPlan::none());
    assert_ne!(Some(&tokens), without.tokens.as_ref(), "commit must change the output");
}

#[test]
fn mid_swap_crash_recovers_without_dropping_requests() {
    let c = SimConfig::migration_default();
    // 350 virtual µs is inside the prepare/commit window (the swap
    // proposes ~200µs in and finishes the handshake by ~600µs).
    let plan = SimFaultPlan {
        crashes: vec![SimCrash { stage: 1, at_us: 350, restart_after_us: Some(20_000) }],
        ..SimFaultPlan::none()
    };
    let report = run_sim(&c, &plan);
    assert!(report.ok(), "violations: {:?}\ntrace:\n{}", report.violations, report.trace_text());
    assert!(report.restarts >= 1, "the crash must force a restart");
    assert!(report.error.is_none(), "the run must recover, not fail over");
    let tokens = report.tokens.expect("recovered run completes every request");
    assert!(tokens.iter().all(|t| t.len() == c.n_generate), "no request may lose tokens");
    assert!(
        report.swaps.iter().any(|s| s.committed),
        "recovery re-enters the swap path and still commits: {:?}",
        report.swaps
    );
}

#[test]
fn duplicated_kv_chunk_frames_do_not_corrupt_the_cache() {
    // Regression: a transport-duplicated KvChunk frame arriving after
    // its slice assembled used to re-open the slice, and the worker
    // appended the same KV rows twice — tokens then matched no legal
    // swap history. Found by the migration seed sweep (seed 262),
    // shrunk to this one-event schedule.
    let c = SimConfig::migration_default();
    let plan = SimFaultPlan {
        link_events: vec![SimLinkEvent {
            link: 0,
            after_frames: 4,
            kind: SimFaultKind::Duplicate,
        }],
        ..SimFaultPlan::none()
    };
    let report = run_sim(&c, &plan);
    assert!(report.ok(), "violations: {:?}\ntrace:\n{}", report.violations, report.trace_text());
}

#[test]
fn migration_seed_sweep_is_violation_free() {
    let c = SimConfig::migration_default();
    let a = seed_sweep(&c, 0, 100);
    let b = seed_sweep(&c, 0, 100);
    assert_eq!(a, b, "migration sweeps must be deterministic");
    assert!(
        a.ok(),
        "sweep violations: {:?}",
        a.failures.iter().map(|f| (f.seed, f.violations.clone())).collect::<Vec<_>>()
    );
    // The sweep must exercise the interesting outcomes, not vacuously pass.
    let t = &a.tally;
    assert_eq!(t.runs_with_faults, 100, "every migration schedule carries a fault");
    assert!(t.runs_with_restarts > 20, "only {} runs restarted", t.runs_with_restarts);
    assert!(t.runs_committed > 50, "only {} swaps committed", t.runs_committed);
    assert!(t.runs_committed + t.runs_aborted <= 100);
}
