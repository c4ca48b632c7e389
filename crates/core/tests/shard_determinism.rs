//! Decomposition-independence at the *protocol* level: a scenario must
//! produce byte-identical protocol-visible outcomes for every region
//! count — roles, cluster membership, key tables, `Km` erasure,
//! gradients, the base station's accepted-reading log and the full
//! trace — across default, lossy, recovery, multi-sink, contended-radio
//! and attack-hook configurations.
//!
//! `Shards::Single` is one region of the same engine, so it is the same
//! deterministic universe as `Shards::Fixed(1)` and `Fixed(k)`. The
//! engine-level tests (`wsn_sim::net`) pin raw event streams equal;
//! these tests pin the thing users observe: the network that comes out
//! of `Scenario::run` and everything done with it afterwards.

use proptest::prelude::*;
use wsn_core::config::{RecoveryConfig, SinkConfig};
use wsn_core::forward::seal_setup;
use wsn_core::msg::Message;
use wsn_core::node::{ProtocolApp, Role};
use wsn_core::prelude::*;
use wsn_core::setup::Backend;
use wsn_crypto::Key128;
use wsn_sim::net::Simulator;
use wsn_sim::radio::RadioConfig;
use wsn_sim::shard::Shards;
use wsn_trace::{MemorySink, TraceRecord};

const N: usize = 60;
const DENSITY: f64 = 10.0;

/// Everything protocol-visible after setup + gradient + one reading
/// per cluster head.
type Snapshot = (
    Vec<(Role, Option<u32>, usize, Vec<u32>, bool, u32)>, // per-sensor state
    Vec<u32>,                                             // gradient depths
    Vec<(u32, Vec<u8>, Option<u64>)>,                     // BS reading log
    u64,                                                  // total radio tx
    f64,                                                  // report: keys/node
    Vec<TraceRecord>,                                     // full trace
);

fn scenario(
    seed: u64,
    cfg: ProtocolConfig,
    radio: RadioConfig,
    shards: Shards,
) -> Scenario<'static> {
    Scenario::new(SetupParams {
        n: N,
        density: DENSITY,
        seed,
        cfg,
    })
    .radio(radio)
    .backend(Backend::Sim { shards })
    .trace(MemorySink::new())
}

fn snapshot(seed: u64, cfg: ProtocolConfig, radio: RadioConfig, k: usize) -> Snapshot {
    run_snapshot(scenario(seed, cfg, radio, Shards::Fixed(k)))
}

/// Runs `scenario`, raises the gradient, sends one reading per cluster
/// head, and snapshots everything protocol-visible.
fn run_snapshot(scenario: Scenario) -> Snapshot {
    let outcome = scenario.run();
    let report_keys = outcome.report.mean_keys_per_node;
    let mut handle = outcome.handle;

    let sensors: Vec<_> = handle
        .sensor_ids()
        .into_iter()
        .map(|id| {
            let s = handle.sensor(id);
            (
                s.role(),
                s.cid(),
                s.keys_held(),
                s.neighbor_cids(),
                s.holds_km(),
                s.epoch(),
            )
        })
        .collect();

    handle.establish_gradient();
    let gradients: Vec<u32> = handle
        .sensor_ids()
        .into_iter()
        .map(|id| handle.sensor(id).hops_to_bs())
        .collect();

    let heads: Vec<u32> = handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| handle.sensor(id).role() == Role::Head)
        .collect();
    for (i, &src) in heads.iter().enumerate() {
        let data = format!("reading-{i}-from-{src}").into_bytes();
        handle.send_reading(src, data, true);
    }

    let received = handle
        .bs()
        .received
        .iter()
        .map(|r| (r.src, r.data.clone(), r.ctr))
        .collect();
    let tx = handle.sim().counters().total_tx_msgs();
    let trace = handle
        .sim_mut()
        .take_trace()
        .expect("scenario installs a trace")
        .drain();
    (sensors, gradients, received, tx, report_keys, trace)
}

/// Snapshots of one scenario, built by `build`, on `Single`, `Fixed(1)`
/// and every decomposition in `more`; asserts them all equal and
/// returns one.
fn same_for_every_decomposition(
    more: &[Shards],
    build: impl Fn(Shards) -> Scenario<'static>,
) -> Snapshot {
    let single = run_snapshot(build(Shards::Single));
    for &shards in [Shards::Fixed(1)].iter().chain(more) {
        assert_eq!(
            run_snapshot(build(shards)),
            single,
            "{shards:?} diverged from Single"
        );
    }
    single
}

/// The adversary identity `wsn_attacks::hello_flood` claims.
const ATTACKER_ID: u32 = 0x00AD_BEEF;

/// The setup-phase HELLO flood of `wsn_attacks::hello_flood`: forged
/// HELLOs sealed under the attacker's own key, injected from three node
/// positions across the election window.
fn hello_flood(sim: &mut Simulator<ProtocolApp>) {
    let key = Key128::from_bytes([0xAD; 16]);
    for site in [5, 25, 45] {
        for k in 0..20u64 {
            let (nonce, sealed) = seal_setup(&key, ATTACKER_ID, k, ATTACKER_ID, &key);
            let frame = Message::Hello { nonce, sealed }.encode();
            sim.inject_broadcast_at(site, ATTACKER_ID, 10 + k * 1000, frame);
        }
    }
}

#[test]
fn attack_hook_identical_across_decompositions() {
    let snap = same_for_every_decomposition(&[Shards::Fixed(4)], |shards| {
        scenario(
            77,
            ProtocolConfig::default(),
            RadioConfig::default(),
            shards,
        )
        .attack(hello_flood)
    });
    // The flood was delivered and rejected, not silently dropped.
    assert!(snap.0.iter().all(|s| s.1 != Some(ATTACKER_ID)));
    let injected = snap
        .5
        .iter()
        .filter(|r| r.event.kind() == "injected")
        .count();
    assert_eq!(injected, 60);
}

#[test]
fn contended_queued_radio_identical_across_decompositions() {
    // The radio of the overload, multisink and sinkfailover figures.
    let radio = || RadioConfig::default().with_tx_queue(16).with_contention();
    for cfg in [
        ProtocolConfig::default().with_recovery(RecoveryConfig::default()),
        ProtocolConfig::default().with_sinks(2),
    ] {
        same_for_every_decomposition(&[Shards::Fixed(4)], |shards| {
            scenario(31, cfg.clone(), radio(), shards)
        });
    }
}

#[test]
fn default_config_identical_across_shard_counts() {
    for seed in [1, 2005] {
        let snap = same_for_every_decomposition(&[Shards::Fixed(2), Shards::Fixed(4)], |shards| {
            scenario(
                seed,
                ProtocolConfig::default(),
                RadioConfig::default(),
                shards,
            )
        });
        assert!(!snap.2.is_empty(), "readings reached the base station");
        assert!(!snap.5.is_empty(), "the trace covers the run");
    }
}

#[test]
fn lossy_radio_identical_across_shard_counts() {
    let radio = RadioConfig {
        loss: 0.15,
        ..RadioConfig::default()
    };
    let cfg = || ProtocolConfig::default().with_recovery(RecoveryConfig::default());
    let base = snapshot(11, cfg(), radio.clone(), 1);
    let other = snapshot(11, cfg(), radio, 4);
    assert_eq!(base, other, "lossy run diverged between k = 1 and k = 4");
}

#[test]
fn multi_sink_identical_across_shard_counts() {
    for k_sinks in [2u32, 3] {
        let cfg = || ProtocolConfig::default().with_sinks(k_sinks);
        let seed = 2005 + k_sinks as u64;
        let base = snapshot(seed, cfg(), RadioConfig::default(), 1);
        let other = snapshot(seed, cfg(), RadioConfig::default(), 4);
        assert_eq!(base, other, "multi-sink K = {k_sinks} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeds, recovery on, shard counts 1 vs 4: byte-identical
    /// roles, key tables, gradients, and accepted readings.
    #[test]
    fn sharded_setup_is_decomposition_independent(seed in 0u64..1000) {
        let cfg = || ProtocolConfig::default().with_recovery(RecoveryConfig::default());
        let base = snapshot(seed, cfg(), RadioConfig::default(), 1);
        let other = snapshot(seed, cfg(), RadioConfig::default(), 4);
        prop_assert_eq!(base, other, "seed {} diverged between k = 1 and k = 4", seed);
    }
}

/// `with_sinks` smoke-check used above exists on ProtocolConfig; keep
/// the SinkConfig import honest for the multi-sink variant.
#[test]
fn sink_config_roundtrips_through_builder() {
    let cfg = ProtocolConfig::default().with_sinks(3);
    assert_eq!(
        (cfg.sinks.enabled, cfg.sinks.count),
        (true, 3),
        "{:?}",
        SinkConfig::default()
    );
}
