//! # llmpq-runtime
//!
//! The distributed-style inference runtime (paper §3 and §5), realized
//! with OS threads standing in for GPU-hosted worker processes:
//!
//! * a **master engine** that owns pre-/post-processing — embedding
//!   lookup, logits projection, token sampling — and the micro-batch
//!   manager with per-phase micro-batch sizes;
//! * one **stage worker** per pipeline stage, each owning only its shard
//!   of (quantized) decoder layers plus the pre-allocated KV caches for
//!   every in-flight sequence, connected by asynchronous crossbeam
//!   channels;
//! * an **on-the-fly quantizer** that loads checkpoints module by
//!   module, quantizing each linear operator as it streams in, so the
//!   staging (CPU-RAM) footprint stays bounded by one module instead of
//!   the whole model (§5, "On-The-Fly Quantizer");
//! * one **offline master**, [`Pipeline`]: a builder whose options
//!   (supervision, replanner, swap schedule, and the in-process ring's
//!   quantizer, fault plan and telemetry) are properties of one run,
//!   always supervised, driving a closed batch over any ring —
//!   in-process channels ([`Pipeline::run`]), the TCP stage fleet
//!   ([`Pipeline::run_on`] over a [`TcpServingRing`]) or the simulated
//!   network of [`simnet`];
//! * one **ring layer** under every master ([`engine`], [`serve_dist`]):
//!   a [`ServingRing`] dials each attempt's ring and owns what only its
//!   medium knows (the plan its stages boot on, its clock, its end-of-run
//!   collection), one master endpoint sends, receives and live-swaps on
//!   it, and one restart loop recovers in-process, multi-process and
//!   simulated runs alike;
//! * **supervision** ([`supervisor`]) that detects crashed or hung
//!   stages via heartbeats and restarts or replans the pipeline, with
//!   deterministic fault injection ([`fault`]) for resilience tests,
//!   and **live plan migration** ([`migrate`]) that swaps precision
//!   and partition mid-run;
//! * a **telemetry hub** ([`telemetry`]) of lock-free per-stage metric
//!   recorders (latency histograms, queue depths, KV occupancy, restart
//!   counters) and span-style micro-batch lifecycle traces, exportable
//!   as a Chrome `trace_event` JSON or a plain-text metrics snapshot;
//! * one **serving loop** ([`serve`]): iteration-level continuous
//!   batching over a paged KV pool ([`kvpool`]) that preempts and
//!   requeues rather than overrunning memory, driving any
//!   [`StepEngine`] — analytic, local model, or the distributed stage
//!   ring ([`serve_dist`]) — behind the HTTP front door ([`http`]);
//! * the **overload controllers** it consults ([`overload`]): an
//!   admission controller (reject / deadline-shed / queue-timeout) and
//!   a graceful-degradation controller that walks a precomputed
//!   quantization ladder under sustained pressure;
//! * the **offline plan under online traffic** ([`online`]): a sampled
//!   arrival trace served in static, offline-style batches.
//!
//! The runtime executes the *real* reference transformer: its tokens are
//! bit-identical to single-threaded execution of the same quantized
//! model, which the tests assert.

#![forbid(unsafe_code)]

pub mod clock;
pub mod elastic;
pub mod engine;
pub mod fault;
pub mod http;
pub mod kvpool;
pub mod loader;
pub mod migrate;
pub mod net;
pub mod online;
pub mod overload;
pub mod serve;
pub mod serve_dist;
pub mod simnet;
pub mod supervisor;
pub mod telemetry;
pub mod worker;

pub use clock::{real_clock, Clock, RealClock};
pub use elastic::{
    ControllerCommand, ControllerState, DebouncedPolicy, ElasticPlanner, FleetAlarms,
    FleetController, FleetEvent, FleetEventKind, FleetPlanner, FleetView,
};
pub use engine::{Pipeline, RuntimeError, RuntimeOutput};
pub use fault::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, Heartbeats};
pub use http::{
    parse_completion, read_request, run_http_server, CompletionRequest, HttpLimits, HttpParseError,
    HttpRequest, HttpServer, HttpServerConfig, HttpServerStats, ServeHandle, ServeStatus,
    StreamEvent, SubmitOutcome,
};
pub use kvpool::{KvPool, KvPoolConfig, KvPoolError, KvPoolStats, PagedBlocks, PagedKvStore, PagedSeq};
pub use loader::{load_stage_weights, LoaderStats, OnTheFlyQuantizer};
pub use migrate::{
    hybrid_oracle_tokens, kv_to_chunks, CommitDecision, KvAssembler,
    KvChunkMsg, MigrationCoordinator, MigrationHost, SwapReport, SwapRequest, WorkerSwap,
};
pub use net::dist::{run_stage, DistMasterConfig, DistStageConfig, StageSummary, TcpServingRing};
pub use net::fault::{WireDir, WireFaultEvent, WireFaultKind, WireFaultPlan};
pub use net::transport::{ChannelTransport, TcpTransport, Transport};
pub use net::wire::plan_fingerprint;
pub use online::serve_trace_static;
pub use overload::{
    arrival_requests, poisson_requests, AdmissionConfig, AdmissionController, AdmissionPolicy,
    AdmissionStats, DegradationConfig, DegradationController, Request, RungTransition,
};
pub use serve::{
    serve_continuous, serve_static, sim_oracle_tokens, ContinuousConfig, ContinuousReport,
    ContinuousScheduler, FinishedRequest, IterCost, LatencySummary, ModelStepEngine, PhasePolicy,
    SimStepEngine, StepEngine, StepError,
};
pub use serve::{RungSwap, StepOutcome};
pub use serve_dist::{ChannelRing, DistServeConfig, DistStepEngine, ServingRing};
pub use simnet::{
    elastic_arrivals, elastic_churn_plan, run_elastic, run_serving_chaos, run_sim, seed_sweep,
    serving_fault_plan, serving_swap, shrink_schedule, wire_exchange, ChurnEvent,
    ElasticChurnPlan, ElasticRun, ElasticSimConfig, ElasticTally, ServingChaosConfig,
    ServingChaosRun, ServingTally, SimConfig, SimCrash, SimDeviceJoin, SimFaultKind, SimFaultPlan,
    SimLinkEvent, SimPartition, SimReport, SimScenario, SimSchedule, SimTally, SweepFailure,
    SweepReport, VirtualClock, WireExchange, WireExchangeConfig,
};
pub use supervisor::{FoldReplanner, RecoveryAction, RecoveryEvent, Replanner, SupervisorConfig};
pub use telemetry::{
    HistogramSnapshot, LatencyHistogram, Span, StageMetrics, StageRecorder, Telemetry,
};
pub use worker::{disconnect_board, DisconnectBoard, WorkItem, WorkerCtx, WorkerMsg};

/// SplitMix64: advance `state` and return the next output. The one
/// seeded generator of the runtime — fault and chaos schedules, Poisson
/// arrivals, redial jitter, the simulated engine's token oracle — tiny,
/// fully deterministic and dependency-free.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
