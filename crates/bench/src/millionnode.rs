//! The million-node experiment: one full key-setup phase at
//! `n >= 1_000_000` on a multi-region simulator, reporting both
//! the deterministic protocol outcomes (the figure CSV) and the
//! machine-dependent throughput numbers (the `million_node` section of
//! `BENCH_perf.json`).
//!
//! Determinism contract: every column of the CSV is
//! region-count-independent — the engine produces byte-identical
//! networks for any `WSN_SHARDS`, and the row carries only
//! protocol-visible quantities (event counts, virtual time, election
//! statistics). Wall-clock and events/sec never enter the CSV; they go
//! to stdout and to `BENCH_perf.json`, which the figure pipeline treats
//! as a perf artifact, not a reproducible one.
//!
//! `WSN_MILLION_N` overrides the node count so CI can drive the same
//! code path at a few thousand nodes; the perf section is only written
//! at the real scale (`n >= 1_000_000`).

use crate::MASTER_SEED;
use std::time::Instant;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{Backend, Scenario, SetupParams};
use wsn_metrics::Table;
use wsn_sim::rng::derive_seed;
use wsn_sim::shard::Shards;

/// Full-scale node count; the experiment's claim is "a million motes,
/// one machine, deterministic".
pub const FULL_N: usize = 1_000_000;

/// Density of the million-node deployment. Mid-range of the paper's
/// sweep: dense enough for multi-node clusters, sparse enough that the
/// event count stays ~20 deliveries per node.
pub const DENSITY: f64 = 10.0;

/// The node count to run at: `WSN_MILLION_N` if set (CI smoke), else
/// [`FULL_N`].
pub fn million_n() -> usize {
    std::env::var("WSN_MILLION_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FULL_N)
}

/// One million-node run's outcome.
#[derive(Clone, Debug)]
pub struct MillionNodeRow {
    /// Nodes deployed (including the base station).
    pub n: usize,
    /// Events the engine processed during setup (shard-count-invariant).
    pub events: u64,
    /// Virtual time at quiescence, in simulated milliseconds.
    pub virtual_ms: f64,
    /// Fraction of sensors elected cluster head.
    pub head_fraction: f64,
    /// Mean cluster keys held per node.
    pub keys_per_node: f64,
    /// Key-setup transmissions per node.
    pub msgs_per_node: f64,
    /// Wall-clock seconds for `Scenario::run` (machine-dependent —
    /// excluded from the CSV).
    pub wall_s: f64,
    /// Events per wall-clock second (machine-dependent — excluded from
    /// the CSV).
    pub events_per_sec: f64,
}

/// Runs the setup phase at `n` nodes on `Shards::Auto` regions (so
/// `WSN_SHARDS` selects the region count without a rebuild) and
/// measures it.
pub fn millionnode_run(n: usize) -> MillionNodeRow {
    let start = Instant::now();
    let outcome = Scenario::new(SetupParams {
        n,
        density: DENSITY,
        seed: derive_seed(MASTER_SEED, 1_000_000),
        cfg: ProtocolConfig::default(),
    })
    .backend(Backend::Sim {
        shards: Shards::Auto,
    })
    .run();
    let wall_s = start.elapsed().as_secs_f64();
    let events = outcome.handle.sim().events_processed();
    MillionNodeRow {
        n,
        events,
        virtual_ms: outcome.handle.sim().now() as f64 / 1_000.0,
        head_fraction: outcome.report.head_fraction,
        keys_per_node: outcome.report.mean_keys_per_node,
        msgs_per_node: outcome.report.msgs_per_node,
        wall_s,
        events_per_sec: events as f64 / wall_s,
    }
}

/// The deterministic figure table: one row, every column byte-identical
/// across `WSN_SHARDS` (and across machines).
pub fn millionnode_table(row: &MillionNodeRow) -> Table {
    let mut t = Table::new(&[
        "n",
        "setup events",
        "virtual time (ms)",
        "head fraction",
        "keys/node",
        "setup msgs/node",
    ]);
    t.row(&[
        row.n.to_string(),
        row.events.to_string(),
        format!("{:.3}", row.virtual_ms),
        format!("{:.4}", row.head_fraction),
        format!("{:.3}", row.keys_per_node),
        format!("{:.4}", row.msgs_per_node),
    ]);
    t
}

/// Renders the `million_node` perf section.
pub fn million_node_json(row: &MillionNodeRow, shards: usize) -> String {
    format!(
        "{{\n    \"n\": {},\n    \"shards\": {},\n    \"setup_events\": {},\n    \
         \"wall_clock_s\": {:.1},\n    \"events_per_sec\": {:.1}\n  }}",
        row.n, shards, row.events, row.wall_s, row.events_per_sec
    )
}

/// Textually merges the `million_node` section into `BENCH_perf.json`,
/// replacing an existing section in place or appending one before the
/// closing brace. The rest of the file is untouched byte-for-byte, so
/// the perf harness's own sections survive.
pub fn merge_million_node(path: &str, section: &str) -> std::io::Result<()> {
    let prior = std::fs::read_to_string(path)?;
    let key = "\"million_node\":";
    let merged = if let Some(at) = prior.find(key) {
        // Replace the balanced object that follows the key. No string
        // in this format contains braces, so a depth counter suffices.
        let rest = &prior[at + key.len()..];
        let open = rest.find('{').expect("million_node section is an object");
        let mut depth = 0usize;
        let mut close = None;
        for (i, c) in rest[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(open + i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close.expect("unbalanced million_node section");
        format!("{}{} {}{}", &prior[..at], key, section, &rest[close..])
    } else {
        let last_brace = prior.rfind('}').expect("valid json object");
        format!(
            "{},\n  \"million_node\": {}\n{}",
            prior[..last_brace].trim_end(),
            section,
            &prior[last_brace..]
        )
    };
    std::fs::write(path, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> MillionNodeRow {
        MillionNodeRow {
            n: 1_000_000,
            events: 42,
            virtual_ms: 1.5,
            head_fraction: 0.2,
            keys_per_node: 2.5,
            msgs_per_node: 2.0,
            wall_s: 10.0,
            events_per_sec: 4.2,
        }
    }

    #[test]
    fn merge_appends_then_replaces() {
        let dir = std::env::temp_dir().join(format!("wsn_million_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\n  \"schema\": \"wsn-perf/1\",\n  \"mode\": \"full\"\n}\n",
        )
        .unwrap();

        merge_million_node(path, &million_node_json(&row(), 4)).unwrap();
        let first = std::fs::read_to_string(path).unwrap();
        assert!(first.contains("\"million_node\":"), "{first}");
        assert!(first.contains("\"schema\": \"wsn-perf/1\""), "{first}");
        assert!(first.contains("\"events_per_sec\": 4.2"), "{first}");

        let mut faster = row();
        faster.events_per_sec = 9.9;
        merge_million_node(path, &million_node_json(&faster, 4)).unwrap();
        let second = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            second.matches("\"million_node\":").count(),
            1,
            "section duplicated: {second}"
        );
        assert!(second.contains("\"events_per_sec\": 9.9"), "{second}");
        assert!(!second.contains("4.2"), "stale section survived: {second}");
    }

    #[test]
    fn small_run_row_is_sane() {
        std::env::remove_var("WSN_SHARDS");
        let r = millionnode_run(400);
        assert_eq!(r.n, 400);
        assert!(r.events > 0 && r.head_fraction > 0.0 && r.keys_per_node >= 1.0);
        assert!(r.virtual_ms > 0.0 && r.wall_s > 0.0);
    }
}
