//! A benchmark-owned [`TraceSink`]: counts the frames the simulator
//! reports received and sent, by kind, and keeps a bounded sample of
//! received frames for the replays. Installed only in traced runs.

use bytes::Bytes;
use std::sync::{Arc, Mutex};
use wsn_sim::event::SimTime;
use wsn_trace::{FrameKind, TraceEvent, TraceRecord, TraceSink};

/// One received frame as the simulator delivered it.
#[derive(Clone, Debug)]
pub struct RxFrame {
    /// Receiving node.
    pub node: u32,
    /// Transmitting node.
    pub from: u32,
    /// Virtual delivery time, µs.
    pub at: SimTime,
    /// The frame.
    pub frame: Bytes,
}

/// Per-kind frame counts plus the retained frames.
#[derive(Debug, Default)]
pub struct Captured {
    /// Frames received, by kind (`FrameKind` order: hello, link,
    /// wrapped, other).
    pub rx: [u64; 4],
    /// Frames broadcast or unicast, by kind.
    pub tx: [u64; 4],
    /// Bytes received.
    pub rx_bytes: u64,
    /// A bounded sample of received frames, in delivery order.
    pub sample: Vec<RxFrame>,
    /// Every frame the base station (node 0) received, in order, when
    /// requested.
    pub bs_frames: Vec<RxFrame>,
}

/// Index into [`Captured::rx`] / [`Captured::tx`].
pub fn kind_index(frame: &[u8]) -> usize {
    match FrameKind::classify(frame) {
        FrameKind::Hello => 0,
        FrameKind::LinkAdvert => 1,
        FrameKind::Wrapped => 2,
        _ => 3,
    }
}

/// Kind indices.
pub const HELLO: usize = 0;
/// Link advertisement.
pub const LINK: usize = 1;
/// Hop-by-hop wrapped data.
pub const WRAPPED: usize = 2;

/// The sink the simulator owns; the benchmark keeps the other handle.
pub struct CaptureSink {
    shared: Arc<Mutex<Captured>>,
    sample_cap: usize,
    keep_bs: bool,
}

impl CaptureSink {
    /// A sink keeping at most `sample_cap` sampled frames, plus every
    /// base-station frame if `keep_bs`. Returns the sink and the handle
    /// the results are read through.
    pub fn new(sample_cap: usize, keep_bs: bool) -> (CaptureSink, Arc<Mutex<Captured>>) {
        let shared = Arc::new(Mutex::new(Captured::default()));
        let sink = CaptureSink {
            shared: Arc::clone(&shared),
            sample_cap,
            keep_bs,
        };
        (sink, shared)
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, rec: TraceRecord) {
        let mut c = self.shared.lock().expect("capture state poisoned");
        match rec.event {
            TraceEvent::Rx { from, payload } => {
                c.rx[kind_index(&payload)] += 1;
                c.rx_bytes += payload.len() as u64;
                let keep_sample = c.sample.len() < self.sample_cap;
                let keep_bs = self.keep_bs && rec.node == 0;
                if keep_sample || keep_bs {
                    let f = RxFrame {
                        node: rec.node,
                        from,
                        at: rec.at,
                        frame: payload,
                    };
                    if keep_bs {
                        c.bs_frames.push(f.clone());
                    }
                    if keep_sample {
                        c.sample.push(f);
                    }
                }
            }
            TraceEvent::TxBroadcast { payload, .. } | TraceEvent::TxUnicast { payload, .. } => {
                c.tx[kind_index(&payload)] += 1;
            }
            _ => {}
        }
    }
}

/// Takes the captured state out of its shared handle.
pub fn take(shared: &Arc<Mutex<Captured>>) -> Captured {
    std::mem::take(&mut *shared.lock().expect("capture state poisoned"))
}
