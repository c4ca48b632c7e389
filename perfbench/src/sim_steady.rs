//! `sim-steady`: steady-state secured forwarding in the single-heap
//! simulator. One client sends one sealed reading at a time from a
//! seeded uniform source and runs it to quiescence (a closed loop), on
//! several small deployments in turn, each small enough to stay in
//! cache.

use std::collections::HashMap;
use wsn_core::base_station::BaseStation;
use wsn_core::config::ProtocolConfig;
use wsn_core::forward::{e2e_open_with, e2e_seal_with, sealer, unwrap_in, wrap_frame};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{ClusterId, Message};
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::prf::PrfKey;
use wsn_crypto::Key128;
use wsn_sim::rng::derive_seed;
use wsn_sim::shard::Shards;

use crate::capture::{self, CaptureSink, WRAPPED};
use crate::inputs::{deployment_seed, Sources};
use crate::replay::{ns_per_op, replay_bs};
use crate::report::Outcome;
use crate::simnet::{self, Block};
use crate::stats::{chunk_rates, mean, median, quantile, ratio};

/// Readings per chunk of the closed loop (about 50 ms at full size);
/// `readings_per_s` is the median chunk rate over every deployment, so
/// a slow stretch of the host does not move it.
const CHUNK: usize = 100;

/// Target mean degree.
const DENSITY: f64 = 12.0;
use crate::sys;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Size {
    /// Nodes per deployment, base station included.
    pub n: usize,
    /// Deployments per run; the measured time is split evenly.
    pub nets: u64,
    /// Readings per deployment sent before timing starts (sealer
    /// caches and routes fill), still checked.
    pub warmup: u64,
    /// Upper bound on timed readings per deployment.
    pub max_readings: u64,
    /// Received frames the traced run keeps per deployment.
    pub sample: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            n: 1_000,
            nets: 8,
            warmup: 30,
            max_readings: u64::MAX,
            sample: 4_000,
        }
    }
}

/// Replay results of one deployment's traced block.
#[derive(Default)]
struct Replayed {
    unwrap_ns: f64,
    wrap_ns: f64,
    seal_ns: f64,
    open_ns: f64,
    prf_ns: f64,
    sealer_ns: f64,
    peek_ns: f64,
    decode_ns: f64,
    /// Share of sampled wrapped receptions whose receiver holds the key.
    held_share: f64,
    dispatch_ns: Vec<f64>,
    bs_frames: u64,
    bs_accepted: u64,
    duplicates: u64,
    counter_rejects: u64,
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let rss0 = sys::rss_bytes();
    let per_net = seconds / size.nets as f64;
    let mut setups = Vec::new();
    let mut keyed_wall = 0.0;
    let mut setup_events = 0u64;
    let mut virtual_ms = Vec::new();
    let mut reports = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut traced: Vec<Block> = Vec::new();
    let mut rx_wrapped = 0u64;
    let mut tx_wrapped = 0u64;
    let mut rx_total = 0u64;
    let mut rx_bytes = 0u64;
    let mut replays: Vec<Replayed> = Vec::new();
    let mut peak_per_node = 0.0;

    for rep in 0..size.nets {
        let dseed = deployment_seed(seed, rep);
        let mut built = simnet::build(simnet::scenario(size.n, DENSITY, dseed, Shards::Single));
        simnet::check_keyed(&built.handle, &mut out);
        if rep == 0 {
            peak_per_node = sys::peak_rss_bytes().saturating_sub(rss0) as f64 / size.n as f64;
        }
        setups.push(built.setup_s());
        keyed_wall += built.keyed.wall_s;
        setup_events += built.setup_events;
        virtual_ms.push(built.report.setup_time as f64 / 1e3);
        let h = &mut built.handle;
        let mut sources = Sources::new(seed, rep, h.sensor_ids());
        simnet::readings(
            h,
            &built.connected,
            &mut sources,
            size.warmup,
            f64::INFINITY,
            &mut out,
        );
        blocks.push(simnet::readings(
            h,
            &built.connected,
            &mut sources,
            size.max_readings,
            per_net,
            &mut out,
        ));
        if trace {
            let live_snap = h.bs().snapshot();
            let (dups0, rejects0) = (h.bs().duplicates, h.bs().counter_rejects);
            let received0 = h.bs().received.len();
            let (sink, shared) = CaptureSink::new(size.sample, true);
            h.sim_mut().install_trace(sink);
            let block = simnet::readings(
                h,
                &built.connected,
                &mut sources,
                size.max_readings,
                per_net,
                &mut out,
            );
            drop(h.sim_mut().take_trace());
            let cap = capture::take(&shared);
            rx_wrapped += cap.rx[WRAPPED];
            tx_wrapped += cap.tx[WRAPPED];
            rx_total += cap.rx.iter().sum::<u64>();
            rx_bytes += cap.rx_bytes;

            let r = replay_net(h, dseed, &cap, received0, live_snap, &mut out);
            let (dups, rejects) = (h.bs().duplicates - dups0, h.bs().counter_rejects - rejects0);
            out.gate(
                r.bs_accepted == block.delivered
                    && r.duplicates == dups
                    && r.counter_rejects == rejects,
                || {
                    format!(
                        "base-station replay accepted {} / dup {} / rejected {}, live {} / {} / {}",
                        r.bs_accepted,
                        r.duplicates,
                        r.counter_rejects,
                        block.delivered,
                        dups,
                        rejects
                    )
                },
            );
            replays.push(r);
            traced.push(block);
        }
        reports.push(built.report);
    }

    let sent: u64 = blocks.iter().map(|b| b.sent).sum();
    let rates: Vec<f64> = blocks
        .iter()
        .flat_map(|b| chunk_rates(&b.done_s, CHUNK))
        .collect();
    let wall: f64 = blocks.iter().map(|b| b.span.wall_s).sum();
    let cpu: f64 = blocks.iter().map(|b| b.span.cpu_s).sum();
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

    // ---- per-layer numbers -------------------------------------------
    let per_reading = |x: u64| ratio(x as f64, sent as f64);
    let events: u64 = blocks.iter().map(|b| b.engine.events).sum();
    let rx: u64 = blocks.iter().map(|b| b.engine.rx).sum();
    let tx: u64 = blocks.iter().map(|b| b.engine.tx).sum();
    m.set("sim.events_per_op", per_reading(events));
    m.set("sim.events_per_s", ratio(events as f64, wall));
    m.set("sim.rx_per_reading", per_reading(rx));
    m.set("sim.tx_per_reading", per_reading(tx));
    m.set("sim.timers_per_reading", per_reading(events - rx));
    m.set("sim.virtual_setup_ms", median(&virtual_ms));
    m.set(
        "sim.setup_events_per_s",
        ratio(setup_events as f64, keyed_wall),
    );
    let disconnected: u64 = blocks.iter().map(|b| b.disconnected).sum();
    m.set(
        "sim.disconnected_share",
        ratio(disconnected as f64, (sent + disconnected) as f64),
    );
    let canary = |f: fn(&wsn_core::stats::SetupReport) -> f64| {
        mean(&reports.iter().map(f).collect::<Vec<_>>())
    };
    m.set("core.msgs_per_node", canary(|r| r.msgs_per_node));
    m.set("core.head_fraction", canary(|r| r.head_fraction));
    m.set("core.keys_per_node", canary(|r| r.mean_keys_per_node));

    let med = |f: fn(&Replayed) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let (unwrap_ns, wrap_ns) = (med(|r| r.unwrap_ns), med(|r| r.wrap_ns));
    let (seal_ns, open_ns) = (med(|r| r.seal_ns), med(|r| r.open_ns));
    let (peek_ns, decode_ns) = (med(|r| r.peek_ns), med(|r| r.decode_ns));
    let t_sent: u64 = traced.iter().map(|b| b.sent).sum();
    let t_wall: f64 = traced.iter().map(|b| b.span.wall_s).sum();
    let per_traced = |x: f64| ratio(x, t_sent as f64);
    // Per reading: every wrapped reception whose receiver holds the
    // cluster key is one unwrap; every wrapped transmission one wrap;
    // the source seals once and the base station opens once.
    let unwraps = per_traced(rx_wrapped as f64 * med(|r| r.held_share));
    let wraps = per_traced(tx_wrapped as f64);
    let crypto_ns = unwraps * unwrap_ns + wraps * wrap_ns + seal_ns + open_ns;
    let codec_ns = per_traced(rx_total as f64) * peek_ns;
    let dispatch: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.dispatch_ns.iter().copied())
        .collect();
    let bs_frames: u64 = replays.iter().map(|r| r.bs_frames).sum();
    let bs_accepted: u64 = replays.iter().map(|r| r.bs_accepted).sum();
    // Base-station self time: its dispatches less the peek, unwrap and
    // end-to-end open already counted under codec and crypto.
    let bs_self = (dispatch.iter().sum::<f64>()
        - bs_frames as f64 * (peek_ns + unwrap_ns)
        - bs_accepted as f64 * open_ns)
        .max(0.0);
    let bs_ns = per_traced(bs_self);
    let cpu_ns = ratio(cpu * 1e9, sent as f64);
    m.set("crypto.unwrap_ns", unwrap_ns);
    m.set("crypto.wrap_ns", wrap_ns);
    m.set("crypto.e2e_seal_ns", seal_ns);
    m.set("crypto.e2e_open_ns", open_ns);
    m.set("crypto.prf_derive_ns", med(|r| r.prf_ns));
    m.set("crypto.sealer_build_ns", med(|r| r.sealer_ns));
    m.set("crypto.ops_per_op", unwraps + wraps + 2.0);
    m.set("crypto.share", ratio(crypto_ns, cpu_ns));
    m.set("codec.peek_ns", peek_ns);
    m.set("codec.decode_ns", decode_ns);
    m.set(
        "codec.frame_bytes_mean",
        ratio(rx_bytes as f64, rx_total as f64),
    );
    m.set("codec.share", ratio(codec_ns, cpu_ns));
    m.set("bs.dispatch_ns_p50", quantile(&dispatch, 0.5));
    m.set("bs.dispatch_ns_p99", quantile(&dispatch, 0.99));
    m.set(
        "bs.duplicates",
        replays.iter().map(|r| r.duplicates).sum::<u64>() as f64,
    );
    m.set(
        "bs.counter_rejects",
        replays.iter().map(|r| r.counter_rejects).sum::<u64>() as f64,
    );
    m.set("bs.share", ratio(bs_ns, cpu_ns));
    crate::zero_layers(
        m,
        &[
            "shard.",
            "crypto.hello_",
            "crypto.ack_",
            "wal.",
            "udp.",
            "client.",
        ],
    );
    m.set(
        "trace.overhead_share",
        ratio(ratio(t_wall, t_sent as f64), ratio(wall, sent as f64)) - 1.0,
    );
    m.set(
        "unattributed_share",
        1.0 - ratio(crypto_ns + codec_ns + bs_ns, cpu_ns),
    );
    m.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.set("latency_samples", latency.len() as f64);
    out
}

/// Replays one deployment's traced block through the crypto, codec and
/// base-station layers, checking that every captured frame still
/// verifies and every delivered reading still opens.
fn replay_net(
    h: &wsn_core::setup::NetworkHandle,
    dseed: u64,
    cap: &capture::Captured,
    received0: usize,
    live_snap: wsn_core::persist::BsSnapshot,
    out: &mut Outcome,
) -> Replayed {
    let cfg = ProtocolConfig::default();
    let provisioner = Provisioner::new(derive_seed(dseed, 1));
    let mut cluster_sealers: HashMap<ClusterId, AuthEnc> = HashMap::new();
    let mut wrapped = 0u64;
    let mut held = Vec::new();
    for f in &cap.sample {
        let Some((cid, nonce, sealed)) = Message::peek_wrapped(&f.frame) else {
            continue;
        };
        wrapped += 1;
        let holds = f.node == 0 || {
            let node = h.sensor(f.node);
            node.cid() == Some(cid) || node.neighbor_cids().contains(&cid)
        };
        if holds {
            cluster_sealers
                .entry(cid)
                .or_insert_with(|| sealer(&provisioner.cluster_key_of(cid)));
            held.push((cid, nonce, sealed, f.at, f.from));
        }
    }
    let mut scratch = Vec::new();
    let mut unwrapped = Vec::new();
    for &(cid, nonce, sealed, at, from) in &held {
        match unwrap_in(
            &cluster_sealers[&cid],
            cid,
            nonce,
            sealed,
            at,
            &cfg,
            &mut scratch,
        ) {
            Ok(u) => unwrapped.push((cid, from, u)),
            Err(e) => out.gate(false, || {
                format!("replay: captured frame fails to unwrap: {e:?}")
            }),
        }
    }
    let passes = 5;
    let unwrap_ns = ns_per_op(&held, passes, |&(cid, nonce, sealed, at, _)| {
        unwrap_in(
            &cluster_sealers[&cid],
            cid,
            nonce,
            sealed,
            at,
            &cfg,
            &mut scratch,
        )
        .is_ok()
    });
    let wrap_ns = ns_per_op(&unwrapped, passes, |(cid, from, u)| {
        wrap_frame(
            &cluster_sealers[cid],
            *cid,
            *from,
            1,
            u.tau,
            u.sender_hops,
            &u.inner,
        )
    });

    // Step 1 on the readings the base station accepted in this block.
    let delivered: Vec<_> = h.bs().received[received0..]
        .iter()
        .map(|r| {
            (
                r.src,
                r.ctr.expect("sealed readings carry a counter"),
                r.data.clone(),
            )
        })
        .collect();
    let ki: HashMap<u32, AuthEnc> = delivered
        .iter()
        .map(|&(src, _, _)| (src, sealer(&provisioner.node_key(src))))
        .collect();
    let sealed: Vec<_> = delivered
        .iter()
        .map(|(src, ctr, data)| (*src, *ctr, e2e_seal_with(&ki[src], *src, *ctr, data)))
        .collect();
    for ((src, ctr, c1), (_, _, data)) in sealed.iter().zip(&delivered) {
        let ok = e2e_open_with(&ki[src], *src, *ctr, c1).is_ok_and(|pt| &pt == data);
        out.gate(ok, || format!("replay: reading from {src} does not reopen"));
    }
    let seal_ns = ns_per_op(&delivered, passes, |(src, ctr, data)| {
        e2e_seal_with(&ki[src], *src, *ctr, data)
    });
    let open_ns = ns_per_op(&sealed, passes, |(src, ctr, c1)| {
        e2e_open_with(&ki[src], *src, *ctr, c1)
    });
    let keys: Vec<Key128> = delivered
        .iter()
        .map(|(src, _, _)| provisioner.node_key(*src))
        .collect();
    let sealer_ns = ns_per_op(&keys, passes, sealer);
    let prfs: Vec<PrfKey> = keys.iter().map(PrfKey::new).collect();
    let prf_ns = ns_per_op(&prfs, passes, |p| p.derive(&[0]));
    let frames: Vec<&[u8]> = cap.sample.iter().map(|f| &f.frame[..]).collect();
    let peek_ns = ns_per_op(&frames, passes, |f| Message::peek_wrapped(f).is_some());
    let decode_ns = ns_per_op(&frames, passes, |f| Message::decode(f));

    // The base station's receptions, replayed through a station restored
    // from the live one's state at the start of the block.
    let mut bs = BaseStation::from_snapshot(
        cfg,
        provisioner.km(),
        provisioner.revocation_chain(),
        live_snap,
    );
    let bs_frames: Vec<_> = cap
        .bs_frames
        .iter()
        .map(|f| (f.at, f.frame.clone()))
        .collect();
    let r = replay_bs(&mut bs, &bs_frames, None);
    Replayed {
        unwrap_ns,
        wrap_ns,
        seal_ns,
        open_ns,
        prf_ns,
        sealer_ns,
        peek_ns,
        decode_ns,
        held_share: ratio(held.len() as f64, wrapped as f64),
        dispatch_ns: r.dispatch_ns,
        bs_frames: bs_frames.len() as u64,
        bs_accepted: r.accepted,
        duplicates: bs.duplicates,
        counter_rejects: bs.counter_rejects,
    }
}
