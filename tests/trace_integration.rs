//! End-to-end checks for the tracing subsystem: determinism across
//! thread counts, zero observable effect on protocol outcomes, and
//! exact agreement between the reconstructed timeline and the
//! simulator's own counters.

use proptest::prelude::*;
use wsn_core::msg::MAX_FRAME_BYTES;
use wsn_core::prelude::*;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_trace::{FrameKind, MemorySink, NullSink, Timeline, TraceEvent};

fn params(n: usize, density: f64, seed: u64) -> SetupParams {
    SetupParams {
        n,
        density,
        seed,
        cfg: ProtocolConfig::default(),
    }
}

/// Runs one traced setup and renders its full trace as JSONL.
fn traced_jsonl(n: usize, density: f64, seed: u64) -> String {
    let mut o = Scenario::new(params(n, density, seed))
        .trace(MemorySink::new())
        .run();
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance gate for determinism: for a fixed master seed, the
    /// traces of every trial are byte-identical no matter how many
    /// worker threads `run_trials` spreads the trials over.
    #[test]
    fn trace_is_identical_across_thread_counts(master_seed in 0u64..1_000) {
        let trials = 4;
        let run = |threads: usize| -> Vec<String> {
            run_trials(master_seed, trials, Jobs::Fixed(threads), |_, seed| {
                traced_jsonl(60, 8.0, seed)
            })
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
        for jsonl in &one {
            prop_assert!(!jsonl.is_empty(), "a setup run must emit events");
        }
    }

    /// Tracing must be invisible to the protocol: a run with a NullSink
    /// installed — and a run with no sink at all — reach exactly the
    /// same outcome as a fully traced run.
    #[test]
    fn tracing_does_not_perturb_setup(seed in 0u64..1_000) {
        let p = params(80, 10.0, seed);
        let plain = run_setup(&p).report;
        let null = Scenario::new(p.clone()).trace(NullSink).run().report;
        let traced = Scenario::new(p.clone()).trace(MemorySink::new()).run().report;
        for (name, r) in [("null", &null), ("traced", &traced)] {
            prop_assert_eq!(r.cluster_of.clone(), plain.cluster_of.clone(), "{} sink changed clustering", name);
            prop_assert_eq!(r.n_heads, plain.n_heads, "{} sink changed heads", name);
            prop_assert_eq!(r.keys_per_node.clone(), plain.keys_per_node.clone(), "{} sink changed keys", name);
            prop_assert_eq!(r.msgs_per_node, plain.msgs_per_node, "{} sink changed traffic", name);
            prop_assert_eq!(r.setup_time, plain.setup_time, "{} sink changed timing", name);
        }
    }
}

/// The acceptance gate for timeline fidelity: per-node transmit and
/// receive counts reconstructed from the trace equal the simulator's
/// `Counters` exactly.
#[test]
fn timeline_activity_equals_counters_exactly() {
    let mut o = Scenario::new(params(200, 10.0, 42))
        .trace(MemorySink::new())
        .run();
    let counters = o.handle.sim().counters().clone();
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let tl = Timeline::reconstruct(&records);

    for id in 0..counters.tx_msgs.len() as u32 {
        let (tx, rx) = tl
            .activity
            .get(&id)
            .map(|a| (a.tx_total(), a.rx))
            .unwrap_or((0, 0));
        assert_eq!(
            tx, counters.tx_msgs[id as usize],
            "node {id}: trace tx != counter tx"
        );
        assert_eq!(
            rx, counters.rx_msgs[id as usize],
            "node {id}: trace rx != counter rx"
        );
    }
}

#[test]
fn timeline_reconstructs_the_election() {
    let mut o = Scenario::new(params(200, 10.0, 7))
        .trace(MemorySink::new())
        .run();
    let report = o.handle.report();
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let tl = Timeline::reconstruct(&records);

    // Every head the report sees was elected, in strictly ordered time.
    assert_eq!(
        tl.n_heads(),
        report.n_heads,
        "election order covers all heads"
    );
    assert!(
        tl.election_order.windows(2).all(|w| w[0].0 <= w[1].0),
        "election order is chronological"
    );
    // Membership from the trace matches the report's clustering for every
    // sensor (node 0 is the BS and never clusters).
    for (id, cid) in report.cluster_of.iter().enumerate().skip(1) {
        assert_eq!(
            tl.membership.get(&(id as u32)).copied(),
            *cid,
            "node {id} membership mismatch"
        );
    }
    // The phases actually appear in the frame mix.
    assert!(tl.frames(FrameKind::Hello) > 0);
    assert!(tl.frames(FrameKind::LinkAdvert) > 0);
    // Every sensor eventually erased Km.
    assert_eq!(tl.km_erasures, report.n_sensors as u64);
    // Convergence: every clustered sensor converged by the end, and the
    // histogram buckets account for each of them once.
    assert!(tl.time_to_convergence().is_some());
    assert_eq!(
        tl.convergence_histogram().total(),
        tl.converged_at.len() as u64
    );
}

/// Trials with per-trial sinks must also agree with the untraced trials
/// the rest of the workspace runs (same seeds, same outcomes).
#[test]
fn traced_and_untraced_trials_agree() {
    let heads = |traced: bool| -> Vec<usize> {
        run_trials(99, 3, Jobs::Fixed(2), move |_, seed| {
            let p = params(60, 8.0, seed);
            if traced {
                Scenario::new(p)
                    .trace(MemorySink::new())
                    .run()
                    .report
                    .n_heads
            } else {
                run_setup(&p).report.n_heads
            }
        })
    };
    assert_eq!(heads(false), heads(true));
}

/// A revocation shows up in the trace as `ClusterRevoked` events at the
/// nodes that actually dropped key material.
#[test]
fn eviction_is_visible_in_the_trace() {
    let mut o = Scenario::new(params(150, 12.0, 3))
        .trace(MemorySink::new())
        .run();
    o.handle.establish_gradient();
    let victim = o.handle.sensor_ids()[10];
    o.handle.evict_nodes(&[victim]);
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let revoked = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ClusterRevoked { .. }))
        .count();
    assert!(revoked > 0, "eviction must leave ClusterRevoked events");
}

/// Every frame the simulator transmits fits the socket path: the UDP
/// reactor drops datagrams above `MAX_FRAME_BYTES`, so a larger
/// simulator frame would be a reading the real deployment loses.
#[test]
fn no_oversize_frames_in_normal_operation() {
    let cfg = ProtocolConfig::default().with_recovery(RecoveryConfig::default());
    let mut o = Scenario::new(SetupParams {
        cfg,
        ..params(60, 10.0, 3)
    })
    .trace(MemorySink::new())
    .run();
    o.handle.establish_gradient();
    for src in o.handle.sensor_ids() {
        if o.handle.sensor(src).role() == Role::Head {
            o.handle.send_reading(src, vec![0xAB; 64], true);
        }
    }
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let mut frames = 0;
    for r in &records {
        if let TraceEvent::TxBroadcast { payload, .. } | TraceEvent::TxUnicast { payload, .. } =
            &r.event
        {
            frames += 1;
            assert!(
                payload.len() <= MAX_FRAME_BYTES,
                "node {} sent a {}-byte frame",
                r.node,
                payload.len()
            );
        }
    }
    assert!(frames > 0, "no frames traced");
}
