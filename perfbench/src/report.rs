//! Metric catalogue and the one-line JSON result every run prints.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, printed by a `--trace 0`
/// run of every workload. Kept in step with `BENCHMARK.json` by the
/// package's own tests.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("readings_per_s", "1/s"),
    ("reading_p50_ms", "ms"),
    ("peak_rss_bytes_per_node", "bytes"),
];

/// `(name, unit)` of every per-layer metric, printed by a `--trace 1`
/// run of every workload. A layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // wsn-sim engine
    ("sim.events_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.rx_per_reading", "count"),
    ("sim.tx_per_reading", "count"),
    ("sim.timers_per_reading", "count"),
    ("sim.virtual_setup_ms", "ms"),
    ("sim.setup_events_per_s", "1/s"),
    ("sim.disconnected_share", "ratio"),
    // wsn-sim::shard
    ("shard.one_region_setup_s", "s"),
    ("shard.speedup", "ratio"),
    // wsn-core protocol canaries
    ("core.msgs_per_node", "count"),
    ("core.head_fraction", "ratio"),
    ("core.keys_per_node", "count"),
    // wsn-crypto
    ("crypto.unwrap_ns", "ns"),
    ("crypto.wrap_ns", "ns"),
    ("crypto.e2e_seal_ns", "ns"),
    ("crypto.e2e_open_ns", "ns"),
    ("crypto.hello_open_ns", "ns"),
    ("crypto.hello_seal_ns", "ns"),
    ("crypto.prf_derive_ns", "ns"),
    ("crypto.sealer_build_ns", "ns"),
    ("crypto.ack_seal_ns", "ns"),
    ("crypto.ops_per_op", "count"),
    ("crypto.share", "ratio"),
    // wsn-core::msg codec
    ("codec.peek_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.frame_bytes_mean", "bytes"),
    ("codec.share", "ratio"),
    // wsn-core::base_station
    ("bs.dispatch_ns_p50", "ns"),
    ("bs.dispatch_ns_p99", "ns"),
    ("bs.duplicates", "count"),
    ("bs.counter_rejects", "count"),
    ("bs.share", "ratio"),
    // wsn-net::wal
    ("wal.append_ns_p50", "ns"),
    ("wal.append_ns_p99", "ns"),
    ("wal.appends_per_reading", "count"),
    ("wal.bytes_per_reading", "bytes"),
    ("wal.snapshots", "count"),
    ("wal.snapshot_ms_max", "ms"),
    ("wal.restore_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("wal.share", "ratio"),
    // wsn-net::udp
    ("udp.datagrams_rx", "count"),
    ("udp.rx_loss_share", "ratio"),
    ("udp.queue_full_drops", "count"),
    ("udp.tx_per_reading", "count"),
    ("udp.client_send_ns", "ns"),
    ("udp.share", "ratio"),
    // wsn-net::load client
    ("client.seal_ns", "ns"),
    ("client.generator_late_p99_ms", "ms"),
    ("client.retransmits", "count"),
    // wsn-trace and the whole run
    ("trace.overhead_share", "ratio"),
    ("unattributed_share", "ratio"),
    ("failed_share", "ratio"),
    ("reading_p99_ms", "ms"),
    ("latency_samples", "count"),
];

/// Named values collected by a workload. Only names from the catalogue
/// are printed, in catalogue order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (which must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The unit a catalogued metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (readings sent, sensors keyed).
    pub attempted: u64,
    /// Operations that did not complete (reading lost, sensor unkeyed).
    pub failed: u64,
    /// Correctness-gate violations, one line each. Empty = correct.
    pub violations: Vec<String>,
    /// What the run reports without failing, one line each: a self-check
    /// it could not make, a resource the host granted short.
    pub warnings: Vec<String>,
    /// Everything measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a gate violation unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Records something the run reports without failing.
    pub fn warn(&mut self, what: String) {
        self.warnings.push(what);
    }

    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line: the end-to-end catalogue (`trace == false`) or
    /// the per-layer one (`trace == true`). A catalogued metric the
    /// workload did not record is a bug in the benchmark, so it panics.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("writing to a String");
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not record {name}"));
            assert!(value.is_finite(), "{name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Formats a finite float with every digit Rust's shortest round-trip
/// representation gives it (always with a decimal point or exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
