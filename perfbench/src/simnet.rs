//! Simulator plumbing shared by the two simulator workloads: build a
//! keyed network, check it, and drive closed-loop readings through it.

use std::time::Instant;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{Backend, NetworkHandle, Scenario, SetupParams};
use wsn_core::stats::SetupReport;
use wsn_sim::shard::Shards;

use crate::inputs::Sources;
use crate::report::Outcome;
use crate::sys::{self, Span};

/// A keyed network with a gradient, and what building it cost.
pub struct Built {
    /// The live network.
    pub handle: NetworkHandle,
    /// The setup report.
    pub report: SetupReport,
    /// Deploy + key setup (`Scenario::run`).
    pub keyed: Span,
    /// Gradient flood (`establish_gradient`).
    pub gradient: Span,
    /// Which nodes the radio graph connects to the base station.
    pub connected: Vec<bool>,
    /// Engine events processed by key setup.
    pub setup_events: u64,
}

impl Built {
    /// Seconds until the network could carry readings.
    pub fn setup_s(&self) -> f64 {
        self.keyed.wall_s + self.gradient.wall_s
    }
}

/// The scenario every simulator workload deploys.
pub fn scenario(n: usize, density: f64, seed: u64, shards: Shards) -> Scenario<'static> {
    Scenario::new(SetupParams {
        n,
        density,
        seed,
        cfg: ProtocolConfig::default(),
    })
    .backend(Backend::Sim { shards })
}

/// Deploys, keys and raises the gradient of one network.
pub fn build(scenario: Scenario<'static>) -> Built {
    let (outcome, keyed) = sys::measure(|| scenario.run());
    let setup_events = outcome.handle.sim().events_processed();
    let mut handle = outcome.handle;
    let ((), gradient) = sys::measure(|| handle.establish_gradient());
    let connected = connected_to_base(&handle);
    Built {
        handle,
        connected,
        report: outcome.report,
        keyed,
        gradient,
        setup_events,
    }
}

/// Marks the nodes of the base station's connected component of the
/// radio graph. A reading from any other node cannot arrive under any
/// protocol.
pub fn connected_to_base(h: &NetworkHandle) -> Vec<bool> {
    let topo = h.sim().topology();
    let mut seen = vec![false; topo.n()];
    let mut stack = vec![0u32];
    seen[0] = true;
    while let Some(id) = stack.pop() {
        for &nb in topo.neighbors(id) {
            if !seen[nb as usize] {
                seen[nb as usize] = true;
                stack.push(nb);
            }
        }
    }
    seen
}

/// The keying gate: every sensor holds a cluster and its key, and the
/// base station's registry covers every sensor. Returns the sensors
/// left unkeyed (the keying failures).
pub fn check_keyed(h: &NetworkHandle, out: &mut Outcome) -> u64 {
    let sensors = h.sensor_ids();
    let unkeyed = sensors
        .iter()
        .filter(|&&id| {
            let node = h.sensor(id);
            node.cid().is_none() || node.keys_held() == 0
        })
        .count() as u64;
    let mut registered = h.bs().registered_nodes();
    registered.sort_unstable();
    let missing = sensors
        .iter()
        .filter(|id| registered.binary_search(id).is_err())
        .count();
    out.gate(unkeyed == 0, || {
        format!("{unkeyed} of {} sensors hold no cluster key", sensors.len())
    });
    out.gate(missing == 0, || {
        format!("base-station registry lacks {missing} sensors")
    });
    unkeyed
}

/// Engine totals at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCount {
    /// Events processed.
    pub events: u64,
    /// Frames received.
    pub rx: u64,
    /// Frames transmitted.
    pub tx: u64,
}

impl EngineCount {
    /// Reads the simulator's counters.
    pub fn of(h: &NetworkHandle) -> EngineCount {
        let c = h.sim().counters();
        EngineCount {
            events: h.sim().events_processed(),
            rx: c.rx_msgs.iter().sum(),
            tx: c.tx_msgs.iter().sum(),
        }
    }

    /// `self - earlier`.
    pub fn since(self, earlier: EngineCount) -> EngineCount {
        EngineCount {
            events: self.events - earlier.events,
            rx: self.rx - earlier.rx,
            tx: self.tx - earlier.tx,
        }
    }
}

/// One closed-loop block of readings.
#[derive(Debug, Default)]
pub struct Block {
    /// Wall milliseconds of each `send_reading`.
    pub latency_ms: Vec<f64>,
    /// Readings sent.
    pub sent: u64,
    /// Readings sent from sensors the radio graph does not connect to
    /// the base station (never delivered; not counted as sent).
    pub disconnected: u64,
    /// Readings the base station accepted.
    pub delivered: u64,
    /// When each delivered reading completed, seconds into the block.
    pub done_s: Vec<f64>,
    /// Wall and CPU time of the whole block.
    pub span: Span,
    /// Engine work done by the block.
    pub engine: EngineCount,
}

/// Sends readings one at a time, each run to quiescence, until `count`
/// readings were sent or `seconds` elapsed, whichever comes first. Each
/// delivered reading must be the one just sent, opened to the payload
/// that was sealed. A reading from a sensor `connected` to the base
/// station that never arrives is a failure; one from a disconnected
/// sensor must not arrive, and is counted apart.
pub fn readings(
    h: &mut NetworkHandle,
    connected: &[bool],
    sources: &mut Sources,
    count: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Block {
    let mut block = Block::default();
    let engine0 = EngineCount::of(h);
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut accepted = h.total_received();
    while block.sent + block.disconnected < count && start.elapsed().as_secs_f64() < seconds {
        let (src, payload) = sources.next_reading();
        let t0 = Instant::now();
        let now_accepted = h.send_reading(src, payload.clone(), true);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        if !connected[src as usize] {
            block.disconnected += 1;
            out.gate(now_accepted == accepted, || {
                format!("reading from disconnected sensor {src} was accepted")
            });
            continue;
        }
        block.latency_ms.push(elapsed_ms);
        block.sent += 1;
        match now_accepted - accepted {
            0 => eprintln!("reading from sensor {src} not delivered"),
            1 => {
                block.delivered += 1;
                block.done_s.push(start.elapsed().as_secs_f64());
                let got = h.bs().received.last().expect("an accepted reading");
                out.gate(got.src == src && got.data == payload, || {
                    format!("reading from {src} delivered as {got:?}")
                });
            }
            k => out.gate(false, || {
                format!("one reading from {src} accepted {k} times")
            }),
        }
        accepted = now_accepted;
    }
    block.span = Span {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
    };
    block.engine = EngineCount::of(h).since(engine0);
    out.attempted += block.sent;
    out.failed += block.sent - block.delivered;
    block
}
