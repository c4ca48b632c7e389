//! Structured event tracing for the WSN stack.
//!
//! The simulator and protocol layers emit [`TraceEvent`]s through a
//! [`TraceSink`]; the sink decides what happens to them:
//!
//! * [`NullSink`] — discards everything. A simulator without a sink
//!   installed pays a single branch per potential event, so production
//!   runs are unaffected by the existence of tracing.
//! * [`MemorySink`] — per-node ring buffers, for in-process analysis
//!   (timeline reconstruction, attack harvesting, determinism checks).
//! * [`JsonlSink`] — buffered JSON-lines export for offline tooling.
//!
//! Every record carries a global sequence number assigned by the
//! emitting simulator, so a trace is totally ordered even where virtual
//! timestamps tie. Traces are deterministic: for a fixed master seed the
//! byte-for-byte identical stream is produced regardless of how many
//! worker threads run the trials.
//!
//! Post-hoc analysis lives in [`timeline`] (election order, per-phase
//! message counts, convergence histograms) and [`provenance`] (run
//! manifests attached to benchmark figure outputs).
//!
//! This crate sits *below* the simulator in the dependency graph, so it
//! defines its own primitive aliases ([`NodeId`], [`SimTime`]) which
//! `wsn-sim` re-uses.

#![warn(missing_docs)]

pub mod event;
pub mod frame;
pub mod provenance;
pub mod sink;
pub mod timeline;

pub use event::{FaultKind, QueueKind, TraceEvent, TraceRecord};
pub use frame::FrameKind;
pub use provenance::RunManifest;
pub use sink::{merge_region_traces, BufferSink, JsonlSink, MemorySink, NullSink, TraceSink};
pub use timeline::Timeline;

/// Node identifier, mirroring `wsn_sim::NodeId`.
pub type NodeId = u32;

/// Virtual time in microseconds, mirroring `wsn_sim::event::SimTime`.
pub type SimTime = u64;
