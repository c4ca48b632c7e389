//! `keysetup`: localized cluster-key setup of large deployments on the
//! sharded engine (HELLO flood, elections, joins, link adverts), each
//! followed by a short closed loop of readings across the keyed network.

use wsn_core::forward::{open_setup_with, seal_setup_with, sealer};
use wsn_core::keys::Provisioner;
use wsn_core::msg::Message;
use wsn_core::stats::SetupReport;
use wsn_crypto::prf::PrfKey;
use wsn_crypto::Key128;
use wsn_sim::rng::derive_seed;
use wsn_sim::shard::Shards;

use crate::capture::{self, CaptureSink, HELLO, LINK};
use crate::inputs::{deployment_seed, Sources};
use crate::replay::ns_per_op;
use crate::report::Outcome;
use crate::simnet::{self, Block};
use crate::stats::{chunk_rates, mean, median, quantile, ratio};

/// Readings per chunk of the closed loop (about 150 ms at full size);
/// `readings_per_s` is the median chunk rate, so a slow stretch of the
/// host does not move it.
const CHUNK: usize = 20;

/// Target mean degree.
const DENSITY: f64 = 10.0;

/// Regions of the sharded engine.
const REGIONS: usize = 2;
use crate::sys;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Size {
    /// Nodes including the base station.
    pub n: usize,
    /// Networks set up per run (`setup_s` is their median); the
    /// measured time is split evenly between them.
    pub reps: u64,
    /// Upper bound on readings per network.
    pub max_readings: u64,
    /// Frames the traced run keeps for the crypto and codec replays.
    pub sample: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            n: 100_000,
            reps: 3,
            max_readings: u64::MAX,
            sample: 20_000,
        }
    }
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let rss0 = sys::rss_bytes();
    let sensors = (size.n - 1) as u64;

    // Set up `reps` networks; each carries an equal share of the
    // readings, so the run averages over as many base-station positions.
    let per_net = seconds / size.reps as f64;
    let mut setups = Vec::new();
    let mut keyed = Vec::new();
    let mut setup_events = 0u64;
    let mut reports = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut peak_per_node = 0.0;
    for rep in 0..size.reps {
        let scenario = simnet::scenario(
            size.n,
            DENSITY,
            deployment_seed(seed, rep),
            Shards::Fixed(REGIONS),
        );
        let mut built = simnet::build(scenario);
        if rep == 0 {
            peak_per_node = sys::peak_rss_bytes().saturating_sub(rss0) as f64 / size.n as f64;
        }
        out.attempted += sensors;
        out.failed += simnet::check_keyed(&built.handle, &mut out);
        setups.push(built.setup_s());
        keyed.push(built.keyed);
        setup_events += built.setup_events;
        let mut sources = Sources::new(seed, rep, built.handle.sensor_ids());
        blocks.push(simnet::readings(
            &mut built.handle,
            &built.connected,
            &mut sources,
            size.max_readings,
            per_net,
            &mut out,
        ));
        reports.push(built.report);
    }

    let rates: Vec<f64> = blocks
        .iter()
        .flat_map(|b| chunk_rates(&b.done_s, CHUNK))
        .collect();
    let latency: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.latency_ms.iter().copied())
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("readings_per_s", median(&rates));
    m.set("reading_p50_ms", quantile(&latency, 0.5));
    m.set("reading_p99_ms", quantile(&latency, 0.99));
    m.set("peak_rss_bytes_per_node", peak_per_node);
    if !trace {
        return out;
    }

    // ---- traced run: engine and protocol counters --------------------
    let total = |f: fn(&Block) -> u64| blocks.iter().map(f).sum::<u64>();
    let (sent, disconnected) = (total(|b| b.sent), total(|b| b.disconnected));
    let (events, rx, tx) = (
        total(|b| b.engine.events),
        total(|b| b.engine.rx),
        total(|b| b.engine.tx),
    );
    let block_wall: f64 = blocks.iter().map(|b| b.span.wall_s).sum();
    let per_reading = |x: u64| ratio(x as f64, sent as f64);
    let keyed_total: f64 = keyed.iter().map(|s| s.wall_s).sum();
    let canary = |f: fn(&SetupReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set(
        "sim.events_per_op",
        ratio(setup_events as f64, (size.n as u64 * size.reps) as f64),
    );
    m.set("sim.events_per_s", ratio(events as f64, block_wall));
    m.set(
        "sim.setup_events_per_s",
        ratio(setup_events as f64, keyed_total),
    );
    m.set("sim.rx_per_reading", per_reading(rx));
    m.set("sim.tx_per_reading", per_reading(tx));
    m.set("sim.timers_per_reading", per_reading(events - rx));
    m.set(
        "sim.virtual_setup_ms",
        canary(|r| r.setup_time as f64 / 1e3),
    );
    m.set(
        "sim.disconnected_share",
        ratio(disconnected as f64, (sent + disconnected) as f64),
    );
    m.set("core.msgs_per_node", canary(|r| r.msgs_per_node));
    m.set("core.head_fraction", canary(|r| r.head_fraction));
    m.set("core.keys_per_node", canary(|r| r.mean_keys_per_node));
    m.set("latency_samples", latency.len() as f64);
    m.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );

    // ---- deployment 0 again: untraced, on one region, then traced ------
    // The run's first set-up also pays for the process's cold heap, so
    // the one-region and traced set-ups are compared with a warm
    // untraced set-up of the same deployment.
    let seed0 = deployment_seed(seed, 0);
    let setup_on = |shards| {
        let scenario = simnet::scenario(size.n, DENSITY, seed0, shards);
        let (outcome, span) = sys::measure(|| scenario.run());
        drop(outcome);
        span
    };
    let base = setup_on(Shards::Fixed(REGIONS));
    let one_span = setup_on(Shards::Fixed(1));
    out.metrics.set("shard.one_region_setup_s", one_span.wall_s);
    out.metrics
        .set("shard.speedup", ratio(one_span.wall_s, base.wall_s));

    // ---- traced key setup, then replays of what it captured -------------
    let (sink, shared) = CaptureSink::new(size.sample, false);
    let traced = simnet::scenario(size.n, DENSITY, seed0, Shards::Fixed(REGIONS)).trace(sink);
    let (traced_outcome, traced_span) = sys::measure(|| traced.run());
    drop(traced_outcome);
    let cap = capture::take(&shared);
    out.metrics.set(
        "trace.overhead_share",
        ratio(traced_span.wall_s, base.wall_s) - 1.0,
    );

    let provisioner = Provisioner::new(derive_seed(seed0, 1));
    let km_sealer = sealer(&provisioner.km());
    // Every captured HELLO and link advert must open under Km.
    let mut setup_frames = Vec::new();
    for f in &cap.sample {
        match Message::decode(&f.frame) {
            Ok(Message::Hello { nonce, sealed }) | Ok(Message::LinkAdvert { nonce, sealed }) => {
                setup_frames.push((f.from, nonce, sealed))
            }
            _ => {}
        }
    }
    let mut opened: Vec<(u32, u32, Key128)> = Vec::new();
    let mut unopened = 0u64;
    for (from, nonce, sealed) in &setup_frames {
        match open_setup_with(&km_sealer, *nonce, sealed) {
            Ok((id, key)) => opened.push((*from, id, key)),
            Err(_) => unopened += 1,
        }
    }
    out.gate(unopened == 0 && !opened.is_empty(), || {
        format!(
            "replay: {unopened} of {} captured setup frames fail to open",
            setup_frames.len()
        )
    });
    let passes = 5;
    let open_ns = ns_per_op(&setup_frames, passes, |(_, nonce, sealed)| {
        open_setup_with(&km_sealer, *nonce, sealed)
    });
    let seal_ns = ns_per_op(&opened, passes, |(from, id, key)| {
        seal_setup_with(&km_sealer, *from, 1, *id, key)
    });
    let keys: Vec<Key128> = opened.iter().map(|(_, _, k)| *k).collect();
    let sealer_ns = ns_per_op(&keys, passes, sealer);
    let prfs: Vec<PrfKey> = keys.iter().map(PrfKey::new).collect();
    let prf_ns = ns_per_op(&prfs, passes, |p| p.derive(&[0]));
    let frames: Vec<&[u8]> = cap.sample.iter().map(|f| &f.frame[..]).collect();
    let peek_ns = ns_per_op(&frames, passes, |f| Message::peek_wrapped(f).is_some());
    let decode_ns = ns_per_op(&frames, passes, |f| Message::decode(f));

    // Attribution against the CPU time of the same deployment's untraced
    // set-up: every HELLO/link reception opens under the cached Km
    // sealer, every HELLO/link transmission seals under it, and each
    // node builds that sealer once.
    let opens = cap.rx[HELLO] + cap.rx[LINK];
    let seals = cap.tx[HELLO] + cap.tx[LINK];
    let rx_total: u64 = cap.rx.iter().sum();
    let crypto_ops = opens + seals + size.n as u64;
    let crypto_ns = opens as f64 * open_ns + seals as f64 * seal_ns + size.n as f64 * sealer_ns;
    let codec_ns = rx_total as f64 * peek_ns + opens as f64 * decode_ns;
    let cpu_ns = base.cpu_s * 1e9;
    let m = &mut out.metrics;
    m.set("crypto.hello_open_ns", open_ns);
    m.set("crypto.hello_seal_ns", seal_ns);
    m.set("crypto.sealer_build_ns", sealer_ns);
    m.set("crypto.prf_derive_ns", prf_ns);
    m.set("crypto.ops_per_op", ratio(crypto_ops as f64, size.n as f64));
    m.set("crypto.share", ratio(crypto_ns, cpu_ns));
    m.set("codec.peek_ns", peek_ns);
    m.set("codec.decode_ns", decode_ns);
    m.set(
        "codec.frame_bytes_mean",
        ratio(cap.rx_bytes as f64, rx_total as f64),
    );
    m.set("codec.share", ratio(codec_ns, cpu_ns));
    m.set(
        "unattributed_share",
        1.0 - ratio(crypto_ns, cpu_ns) - ratio(codec_ns, cpu_ns),
    );
    // Layers the key-setup phase never reaches.
    crate::zero_layers(
        m,
        &[
            "crypto.unwrap_ns",
            "crypto.wrap_ns",
            "crypto.e2e_",
            "crypto.ack_",
            "bs.",
            "wal.",
            "udp.",
            "client.",
        ],
    );
    out
}
