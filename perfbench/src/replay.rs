//! Replays of captured inputs through single layers, timed from outside
//! through each layer's public functions. Every input and output passes
//! through `black_box`, so the optimizer cannot drop the work.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use wsn_core::base_station::BaseStation;
use wsn_core::persist::StateMutation;
use wsn_core::transport::Transport;
use wsn_net::wal::StateStore;
use wsn_sim::event::SimTime;
use wsn_sim::node::{NodeId, TimerKey};

use crate::stats;

/// Mean nanoseconds per call of `f` over `inputs`: the median over
/// `passes` full passes, each timed as a whole.
pub fn ns_per_op<I, R>(inputs: &[I], passes: usize, mut f: impl FnMut(&I) -> R) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut laps = Vec::with_capacity(passes);
    for _ in 0..passes.max(1) {
        let t0 = Instant::now();
        for input in inputs {
            black_box(f(black_box(input)));
        }
        laps.push(t0.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    stats::median(&laps)
}

/// The smallest time an RC5-CTR seal of one reading can plausibly take.
/// A replay reading below it was optimized away, not measured.
pub const SEAL_FLOOR_NS: f64 = 5.0;

/// The [`Transport`] replayed base-station dispatches run against: a
/// settable clock, a seeded RNG, and an outbox.
pub struct BenchTransport {
    /// Clock the next dispatch sees, µs.
    pub now: SimTime,
    rng: StdRng,
    /// Frames the station sent during the last dispatch.
    pub out: Vec<Bytes>,
}

impl BenchTransport {
    /// A transport with a seeded RNG.
    pub fn new(seed: u64) -> Self {
        BenchTransport {
            now: 0,
            rng: StdRng::seed_from_u64(seed),
            out: Vec::new(),
        }
    }
}

impl Transport for BenchTransport {
    fn id(&self) -> NodeId {
        0
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn broadcast(&mut self, payload: Bytes) {
        self.out.push(payload);
    }

    fn send(&mut self, _to: NodeId, payload: Bytes) {
        self.out.push(payload);
    }

    fn set_timer(&mut self, _key: TimerKey, _delay: SimTime) {}

    fn cancel_timer(&mut self, _key: TimerKey) {}
}

/// What replaying frames through a fresh base station produced.
#[derive(Debug, Default)]
pub struct BsReplay {
    /// Nanoseconds of each `dispatch_message` call.
    pub dispatch_ns: Vec<f64>,
    /// Readings accepted.
    pub accepted: u64,
    /// Nanoseconds of each WAL append (journaling replays only).
    pub append_ns: Vec<f64>,
    /// Bytes appended.
    pub wal_bytes: u64,
    /// Milliseconds of each compacting snapshot cut.
    pub snapshot_ms: Vec<f64>,
}

/// Replays `(clock, frame)` pairs through `bs` in order, timing every
/// dispatch. With a `store`, each dispatch's journal is appended to it
/// and a snapshot cut when due — the worker's WAL-before-ACK sequence —
/// with the appends and snapshots timed separately.
pub fn replay_bs(
    bs: &mut BaseStation,
    frames: &[(SimTime, Bytes)],
    mut store: Option<&mut StateStore>,
) -> BsReplay {
    let mut r = BsReplay::default();
    let mut ctx = BenchTransport::new(0x5EED);
    if store.is_some() {
        bs.enable_journal();
    }
    for (at, frame) in frames {
        ctx.now = *at;
        let t0 = Instant::now();
        bs.dispatch_message(&mut ctx, black_box(frame));
        r.dispatch_ns.push(t0.elapsed().as_nanos() as f64);
        r.accepted += bs.received.len() as u64;
        // Counted; drop the log and the replies as the UDP worker does,
        // so memory stays flat over a long replay.
        bs.received.clear();
        ctx.out.clear();
        if let Some(store) = store.as_deref_mut() {
            let batch: Vec<StateMutation> = bs.drain_journal();
            if batch.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let bytes = store.append(&batch).expect("WAL append in the replay dir");
            r.append_ns.push(t0.elapsed().as_nanos() as f64);
            r.wal_bytes += bytes;
            let t0 = Instant::now();
            let cut = store
                .maybe_snapshot(|| bs.snapshot())
                .expect("snapshot in the replay dir");
            if cut.is_some() {
                r.snapshot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    r
}
