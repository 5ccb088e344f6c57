//! # Wire transport: the multi-process pipeline
//!
//! Everything needed to run the pipeline as one OS process per stage
//! plus a master, over plain TCP (`std::net` only — loopback-friendly,
//! no external dependencies):
//!
//! * [`frame`] — length-prefixed, CRC-32-checksummed framing: every
//!   wire message travels as `magic | len | crc | payload`;
//! * [`wire`] — the versioned binary message codec (hellos, topology,
//!   work items, heartbeats, reports), little-endian and bit-exact for
//!   `f32` activations so distributed tokens match in-process tokens;
//! * [`transport`] — the [`transport::Transport`] trait the engine and
//!   workers are generic over, with an in-process channel
//!   implementation and a TCP implementation (reader pump + framed
//!   writer, optional control-plane heartbeats);
//! * [`fault`] — deterministic transport-level fault injection (delay,
//!   drop, duplicate, corrupt, disconnect) keyed to per-link frame
//!   ordinals;
//! * [`dist`] — the master's view of the stage fleet
//!   ([`dist::TcpServingRing`], which [`Pipeline::run_on`](crate::Pipeline::run_on)
//!   drives like any other ring) and the stage server
//!   ([`dist::run_stage`]): handshake, topology exchange, data ring per
//!   attempt, supervisor-driven restarts on connection loss, and
//!   end-of-run metric/link-stat reporting.
//!
//! The control plane is a persistent TCP connection per stage to the
//! master's single listener; the data plane is a ring of short-lived
//! connections rebuilt for each attempt, torn down by EOF cascade.

pub mod dist;
pub mod fault;
pub mod frame;
pub mod transport;
pub mod wire;
