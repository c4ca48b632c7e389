//! The benchmark's own checks: seeded inputs repeat, the metric
//! catalogue is well formed and matches `BENCHMARK.json`, and a tiny run
//! of every workload passes its correctness gates, replays included.

use perfbench::inputs::{due_ns, mote_order, provisioning_seed, Sources};
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{keysetup, net_durable, sim_steady};
use wsn_core::keys::Provisioner;
use wsn_sim::rng::derive_seed;

#[test]
fn same_seed_same_inputs() {
    let sensors: Vec<u32> = (1..500).collect();
    let draw = |seed| {
        let mut s = Sources::new(seed, 3, sensors.clone());
        (0..200).map(|_| s.next_reading()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));

    assert_eq!(mote_order(7, 1000), mote_order(7, 1000));
    assert_ne!(mote_order(7, 1000), mote_order(8, 1000));
    let mut sorted = mote_order(7, 1000);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());

    let army = |seed| {
        let p = Provisioner::new(derive_seed(provisioning_seed(seed), 1));
        (1..=50u32)
            .map(|id| (p.node_key(id), p.cluster_key_of(id)))
            .collect::<Vec<_>>()
    };
    assert_eq!(army(7), army(7));
    assert_ne!(army(7), army(8));

    let schedule: Vec<u64> = (0..5).map(|i| due_ns(i, 20_000)).collect();
    assert_eq!(schedule, vec![0, 50_000, 100_000, 150_000, 200_000]);
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "bad unit {unit} of {name}"
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with a
/// scan that is enough for the file's flat layout.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let own = |c: &[(&str, &str)]| {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

/// Checks a traced tiny run: every gate held and both result lines
/// render (so every catalogued metric was recorded).
fn assert_clean(name: &str, out: &mut Outcome) {
    perfbench::check_floor(out);
    assert!(out.correct(), "{name}: {:?}", out.violations);
    // A self-check that could not run (replay counts not compared, say)
    // is a warning; a tiny run must make every one.
    assert!(out.warnings.is_empty(), "{name}: {:?}", out.warnings);
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(out.failed, 0, "{name}: operations failed");
    let line = out.to_json(true);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
}

#[test]
fn tiny_keysetup_passes_its_gates() {
    let size = keysetup::Size {
        n: 400,
        reps: 2,
        max_readings: 20,
        sample: 2_000,
    };
    let mut out = keysetup::run(&size, 5, 30.0, true);
    assert_clean("keysetup", &mut out);
    let m = &out.metrics;
    assert!(m.get("crypto.hello_open_ns").unwrap() > 0.0);
    assert!(m.get("shard.one_region_setup_s").unwrap() > 0.0);
}

#[test]
fn tiny_sim_steady_replays_agree_with_live() {
    let size = sim_steady::Size {
        n: 150,
        nets: 2,
        warmup: 5,
        max_readings: 40,
        sample: 2_000,
    };
    let mut out = sim_steady::run(&size, 5, 30.0, true);
    assert_clean("sim-steady", &mut out);
    // The base-station replay ran and its counts matched the live ones
    // (a mismatch is a gate violation, checked above).
    assert!(out.metrics.get("bs.dispatch_ns_p50").unwrap() > 0.0);
    assert!(out.metrics.get("bs.duplicates").unwrap() > 0.0);
}

#[test]
fn tiny_net_durable_replays_agree_with_live() {
    let size = net_durable::Size {
        motes: 200,
        rate: 2_000,
        window: 16,
        reps: 1,
        sample: 2_000,
    };
    let mut out = net_durable::run(&size, 5, 1.0, true);
    assert_clean("net-durable", &mut out);
    let m = &out.metrics;
    assert!(m.get("wal.append_ns_p50").unwrap() > 0.0);
    assert_eq!(m.get("wal.appends_per_reading").unwrap(), 1.0);
    assert!(m.get("udp.datagrams_rx").unwrap() > 0.0);
}
