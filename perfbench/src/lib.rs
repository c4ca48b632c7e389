//! The repository benchmark: three workloads that each stress a
//! different part of the stack, measured end to end, plus a traced mode
//! that splits the time by layer from outside, by timing the
//! benchmark's own calls into each layer's public functions.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod capture;
pub mod inputs;
pub mod keysetup;
pub mod net_durable;
pub mod replay;
pub mod report;
pub mod sim_steady;
pub mod simnet;
pub mod stats;
pub mod sys;

use report::{Metrics, Outcome};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["keysetup", "sim-steady", "net-durable"];

/// Runs `workload` at full size. `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let mut out = match workload {
        "keysetup" => keysetup::run(&keysetup::Size::full(), seed, seconds, trace),
        "sim-steady" => sim_steady::run(&sim_steady::Size::full(), seed, seconds, trace),
        "net-durable" => net_durable::run(&net_durable::Size::full(), seed, seconds, trace),
        _ => return None,
    };
    check_floor(&mut out);
    Some(out)
}

/// Fails the run if any replayed cipher timing reads below the
/// plausibility floor: such a number means the work was optimized away.
pub fn check_floor(out: &mut Outcome) {
    for name in [
        "crypto.unwrap_ns",
        "crypto.wrap_ns",
        "crypto.e2e_seal_ns",
        "crypto.e2e_open_ns",
        "crypto.hello_open_ns",
        "crypto.hello_seal_ns",
        "crypto.ack_seal_ns",
    ] {
        if let Some(v) = out.metrics.get(name) {
            out.gate(v == 0.0 || v >= replay::SEAL_FLOOR_NS, || {
                format!(
                    "{name} = {v} ns is below the {} ns floor",
                    replay::SEAL_FLOOR_NS
                )
            });
        }
    }
}

/// Sets to 0 every per-layer metric whose name starts with one of
/// `prefixes`: the layers a workload never reaches.
pub fn zero_layers(m: &mut Metrics, prefixes: &[&str]) {
    for (name, _) in report::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            m.set(name, 0.0);
        }
    }
}
