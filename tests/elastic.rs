//! Integration: the elastic-fleet control loop driving the *real*
//! pipeline ring. A device join debounces into one replan whose target
//! is executed through the two-phase live-swap barrier
//! (`Pipeline::swaps`), token-identical to the hybrid oracle;
//! a device loss mid-migration aborts the barrier cleanly back to the
//! still-serving old plan with nothing dropped or duplicated.

use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, Bitwidth, Rounding};
use llmpq_runtime::{
    hybrid_oracle_tokens, ControllerCommand, ControllerState, DebouncedPolicy, ElasticPlanner,
    FleetController, FleetEvent, FleetEventKind, FleetView, Pipeline, PlanFailure,
    SupervisorConfig, SwapRequest, Telemetry,
};

const N_LAYERS: usize = 4;
const N_STAGES: usize = 3;

fn checkpoint() -> RefModel {
    RefModel::new(RefConfig::scaled_like(N_LAYERS, 42))
}

fn prompts(n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| (0..8).map(|j| (i * 31 + j * 7) % 256).collect()).collect()
}

fn plan_on(devices: [usize; N_STAGES], bits: &[Bitwidth; N_LAYERS]) -> ExecutionPlan {
    let stage_bits = vec![bits[..1].to_vec(), bits[1..3].to_vec(), bits[3..].to_vec()];
    let mb = MicrobatchPlan { prefill_size: 1, prefill_count: 2, decode_size: 2, decode_count: 1 };
    let mut plan = ExecutionPlan::contiguous("tiny-4l", "elastic-trio", stage_bits, mb);
    for (stage, device) in plan.stages.iter_mut().zip(devices) {
        stage.device = device;
    }
    plan
}

fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout_ms: 2_000,
        progress_timeout_ms: 5_000,
        tick_ms: 1,
        max_restarts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        max_queue: None,
    }
}

/// The test's elastic planner: the pipeline keeps its ring shape
/// (`N_STAGES` stages — live swaps require an unchanged stage count),
/// stages are re-homed onto the `N_STAGES` highest-id live devices, and
/// a fleet larger than the ring runs the whole model at Int8 (the
/// "spare capacity buys the quantization headroom back" move); exactly
/// ring-sized fleets stay at Fp16.
struct RehomePlanner;

impl ElasticPlanner for RehomePlanner {
    fn plan(&mut self, view: &FleetView<'_>) -> Result<ExecutionPlan, PlanFailure> {
        if view.live.is_empty() {
            return Err(PlanFailure::NoDevices);
        }
        if view.live.len() < N_STAGES {
            return Err(PlanFailure::Infeasible {
                devices: view.live.len(),
                reason: format!("{N_STAGES}-stage ring needs {N_STAGES} devices"),
            });
        }
        let chosen: Vec<usize> = view.live.iter().rev().take(N_STAGES).rev().copied().collect();
        let devices: [usize; N_STAGES] = chosen.try_into().expect("exactly N_STAGES chosen");
        let bits = if view.live.len() > N_STAGES {
            [Bitwidth::Int8; N_LAYERS]
        } else {
            [Bitwidth::Fp16; N_LAYERS]
        };
        Ok(plan_on(devices, &bits))
    }
}

fn controller(base: &ExecutionPlan) -> FleetController {
    FleetController::new(
        Box::new(RehomePlanner),
        DebouncedPolicy::new(10_000, 50_000, 200_000, 3),
        [0, 1, 2],
        base.clone(),
    )
}

fn join(device: usize, at_us: u64) -> FleetEvent {
    FleetEvent { device, kind: FleetEventKind::Join, at_us }
}

fn leave(device: usize, at_us: u64) -> FleetEvent {
    FleetEvent { device, kind: FleetEventKind::Leave, at_us }
}

/// Join → debounced replan → live swap on the real ring: the committed
/// target re-homes a stage onto the joined device and drops the fleet
/// to Int8, and the served tokens are bit-identical to the hybrid
/// oracle (old model up to the boundary, new model after). Exact token
/// counts per sequence mean no request was dropped or double-served.
#[test]
fn scale_out_join_replans_and_live_swaps_on_the_ring() {
    let ck = checkpoint();
    let base = plan_on([0, 1, 2], &[Bitwidth::Fp16; N_LAYERS]);
    let mut ctl = controller(&base);

    // t=1ms: device 3 joins. Debounce holds the replan for 10ms.
    assert_eq!(ctl.on_event(join(3, 1_000)), None);
    assert_eq!(ctl.state(), ControllerState::Debouncing);
    assert_eq!(ctl.tick(2_000), None, "still inside the debounce window");

    let cmd = ctl.tick(12_000).expect("debounce expired: replan");
    let ControllerCommand::BeginMigration { target } = cmd else {
        panic!("expected BeginMigration, got {cmd:?}");
    };
    assert_eq!(ctl.state(), ControllerState::Migrating);
    assert!(
        target.stages.iter().all(|s| ctl.live().contains(&s.device)),
        "target must reference only live devices"
    );
    assert!(
        target.stages.iter().any(|s| s.device == 3),
        "scale-out must re-home a stage onto the joined device"
    );
    assert_eq!(target.stages.len(), base.stages.len(), "live swaps keep the stage count");

    // Execute the migration on the real ring: one mid-decode swap.
    let prompts = prompts(3);
    let n_gen = 8;
    let swap_at = 3;
    let telemetry = Telemetry::new(N_STAGES);
    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .telemetry(telemetry.clone())
        .swaps(&[SwapRequest { at_token: swap_at, plan: target.clone() }])
        .run(&prompts, n_gen)
        .expect("elastic swap run ok");

    assert_eq!(out.restarts, 0);
    assert_eq!(out.swaps.len(), 1);
    assert!(out.swaps[0].committed, "clean scale-out must commit: {:?}", out.swaps[0].reason);
    assert_eq!(out.final_plan, target);

    // Report the commit back to the controller.
    ctl.migration_resolved(true, 13_000);
    assert_eq!(ctl.state(), ControllerState::Cooldown);
    assert_eq!(ctl.commits(), 1);
    assert_eq!(ctl.plan(), &target);
    assert!(ctl.plan_is_live(), "committed plan must reference only live devices");
    assert_eq!(ctl.alarms().aborted_migrations, 0);

    // No request lost or double-served: every sequence has exactly
    // n_gen tokens, bit-identical to the hybrid oracle.
    let qo = quantize_model(&ck, &base.bit_assignment(), Rounding::Deterministic, 0);
    let qn = quantize_model(&ck, &target.bit_assignment(), Rounding::Deterministic, 0);
    assert_eq!(out.tokens.len(), prompts.len());
    for (i, p) in prompts.iter().enumerate() {
        let want = hybrid_oracle_tokens(&[(0, &qo), (swap_at, &qn)], p, n_gen, None);
        assert_eq!(out.tokens[i].len(), n_gen, "sequence {i} dropped tokens");
        assert_eq!(out.tokens[i], want, "sequence {i} diverged from the oracle");
    }

    // Cooldown drains back to Idle with nothing pending.
    assert_eq!(ctl.tick(13_000 + 50_000), None);
    assert_eq!(ctl.state(), ControllerState::Idle);
}

/// The joined device dies while its migration is in the barrier: the
/// controller aborts back to the old plan, the old plan — which never
/// referenced the loser — keeps serving bit-identically to a plain run,
/// and a later stable re-join migrates successfully.
#[test]
fn device_loss_mid_migration_aborts_cleanly_to_the_old_plan() {
    let ck = checkpoint();
    let base = plan_on([0, 1, 2], &[Bitwidth::Fp16; N_LAYERS]);
    let mut ctl = controller(&base);

    ctl.on_event(join(3, 1_000));
    let cmd = ctl.tick(12_000).expect("replan after debounce");
    assert!(matches!(cmd, ControllerCommand::BeginMigration { .. }));

    // The join target dies inside the barrier window.
    let abort = ctl.on_event(leave(3, 12_500));
    assert_eq!(abort, Some(ControllerCommand::AbortMigration { device: 3 }));
    ctl.migration_resolved(false, 12_600);
    assert_eq!(ctl.alarms().aborted_migrations, 1);
    assert_eq!(ctl.plan(), &base, "abort must leave the old plan in force");
    assert_eq!(ctl.commits(), 0);
    assert!(ctl.plan_is_live(), "the old plan never referenced the lost device");

    // The data plane never received a commit, so serving continues on
    // the old plan exactly as if the migration had never been proposed:
    // run the real ring with the (aborted → empty) swap schedule and
    // check bit-identity against the plain old-plan oracle.
    let prompts = prompts(2);
    let n_gen = 8;
    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .swaps(&[])
        .run(&prompts, n_gen)
        .expect("old plan keeps serving after the abort");

    assert_eq!(out.restarts, 0);
    assert!(out.swaps.is_empty());
    assert_eq!(out.final_plan, base);
    let q = quantize_model(&ck, &base.bit_assignment(), Rounding::Deterministic, 0);
    for (i, p) in prompts.iter().enumerate() {
        let want = hybrid_oracle_tokens(&[(0, &q)], p, n_gen, None);
        assert_eq!(out.tokens[i].len(), n_gen, "sequence {i} dropped tokens");
        assert_eq!(out.tokens[i], want, "sequence {i} diverged on the held plan");
    }

    // The abort must not wedge the loop: a stable re-join replans and
    // commits.
    ctl.on_event(join(3, 400_000));
    let cmd = ctl.tick(420_000).expect("re-join replans after the abort");
    let ControllerCommand::BeginMigration { target } = cmd else {
        panic!("expected BeginMigration, got {cmd:?}");
    };
    assert!(target.stages.iter().any(|s| s.device == 3));
    ctl.migration_resolved(true, 421_000);
    assert_eq!(ctl.commits(), 1);
    assert!(ctl.plan_is_live());
}

/// Losing a device the *old plan* serves on, mid-migration, aborts the
/// barrier too — and when the survivors can't hold the model the
/// controller holds the (now degraded) old plan and raises the
/// fleet-infeasible alarm instead of committing a dead plan.
#[test]
fn survivor_shortfall_after_abort_raises_the_infeasible_alarm() {
    let base = plan_on([0, 1, 2], &[Bitwidth::Fp16; N_LAYERS]);
    let mut ctl = controller(&base);

    ctl.on_event(join(3, 1_000));
    assert!(ctl.tick(12_000).is_some(), "join must start a migration");

    // A *serving* device dies mid-barrier: abort.
    let abort = ctl.on_event(leave(1, 12_500));
    assert_eq!(abort, Some(ControllerCommand::AbortMigration { device: 1 }));
    ctl.migration_resolved(false, 12_600);

    // Two more losses leave a 2-device fleet under a 3-stage ring:
    // typed infeasible, alarm raised, old plan held.
    ctl.on_event(leave(3, 13_000));
    ctl.on_event(leave(2, 13_100));
    assert_eq!(ctl.tick(24_000), None, "infeasible fleet must not emit a migration");
    assert_eq!(ctl.alarms().infeasible_fleet, 1);
    assert_eq!(ctl.plan(), &base, "the old plan is held even when degraded");
    assert_eq!(ctl.state(), ControllerState::Idle);
    assert!(
        ctl.log().iter().any(|l| l.contains("infeasible")),
        "the decision log must record the typed failure: {:?}",
        ctl.log()
    );
}
