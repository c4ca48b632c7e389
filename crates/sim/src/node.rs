//! The application interface: what a node's software sees.
//!
//! Protocol implementations (the paper's node state machine, the baselines,
//! the adversaries) implement [`App`]; the simulator calls the hooks and
//! applies the actions queued on the [`Ctx`].

use crate::event::SimTime;
use bytes::Bytes;
use rand::rngs::StdRng;
use wsn_trace::{TraceEvent, TraceRecord, TraceSink};

/// Node identifier (also the index into the topology).
pub type NodeId = u32;

/// Application-chosen timer identity; a node can keep several distinct
/// timers keyed by this value.
pub type TimerKey = u64;

/// Actions a node can queue during a hook invocation.
#[derive(Debug)]
pub(crate) enum Action {
    Broadcast(Bytes),
    Send(NodeId, Bytes),
    SetTimer(TimerKey, SimTime),
    CancelTimer(TimerKey),
}

/// Per-invocation context handed to [`App`] hooks.
///
/// Gives the node its identity, the virtual clock, a deterministic RNG and
/// the radio/timer actions. Actions take effect when the hook returns.
pub struct Ctx<'a> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) sink: Option<&'a mut (dyn TraceSink + 'static)>,
    pub(crate) trace_seq: &'a mut u64,
}

impl<'a> Ctx<'a> {
    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time, microseconds.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's RNG stream (deterministic, seeded from the simulation
    /// seed and the node id).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Broadcasts `payload` to every node within radio range. Counts as
    /// **one** transmission regardless of how many neighbors receive it —
    /// the physical property the paper's design exploits.
    pub fn broadcast(&mut self, payload: impl Into<Bytes>) {
        self.actions.push(Action::Broadcast(payload.into()));
    }

    /// Sends `payload` addressed to neighbor `to`. Delivered only if `to`
    /// is in range; still costs one transmission (radio is a broadcast
    /// medium — addressing is a frame header, not a physical narrowing).
    pub fn send(&mut self, to: NodeId, payload: impl Into<Bytes>) {
        self.actions.push(Action::Send(to, payload.into()));
    }

    /// Arms (or re-arms) timer `key` to fire `delay` microseconds from now.
    /// Re-arming supersedes the previous pending instance of the same key.
    pub fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        self.actions.push(Action::SetTimer(key, delay));
    }

    /// Cancels any pending instance of timer `key`.
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.actions.push(Action::CancelTimer(key));
    }

    /// Whether a trace sink is installed. Lets callers skip building
    /// expensive events entirely when tracing is off; [`Ctx::trace`]
    /// already does this for its own argument via laziness at the
    /// simulator layer, so plain call sites don't need to check.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a protocol-layer trace event at this node and the current
    /// virtual time. No-op (one branch) when tracing is off.
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let rec = TraceRecord {
                seq: *self.trace_seq,
                at: self.now,
                node: self.id,
                event,
            };
            *self.trace_seq += 1;
            sink.record(rec);
        }
    }
}

/// A node application. All hooks have empty defaults so implementations
/// only write what they use.
pub trait App {
    /// Called once at simulation start (time 0).
    fn on_start(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// Called when a frame from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, payload: &[u8]) {
        let _ = (ctx, from, payload);
    }

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
        let _ = (ctx, key);
    }
}
