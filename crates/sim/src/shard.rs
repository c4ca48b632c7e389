//! Spatial decomposition: how many regions an engine has, which nodes
//! each region owns, and how `k > 1` regions run in parallel.
//!
//! [`Simulator`](crate::net::Simulator) splits the deployment area into a
//! grid of regions, each with its own event heap and the state of the
//! nodes it owns. [`Simulator::run`](crate::net::Simulator::run) gives
//! every region a thread and advances them in **lookahead windows**: the
//! radio cannot deliver a frame in less than `airtime_us(1)` (propagation
//! plus one byte on air), so all regions can process
//! `[T, T + airtime_us(1))` in parallel, where `T` is the earliest pending
//! event anywhere. Any delivery created inside the window lands at or
//! after its end, on either side of a region border. Deliveries to
//! another region's nodes cross over as batches through bounded channels
//! once per window; timers are same-node and never cross.
//!
//! Region membership affects scheduling only — the
//! [engine docs](crate::net) say why outputs are identical for every `k`.

use crate::event::{Event, SimTime};
use crate::net::{Env, Region};
use crate::node::{App, NodeId};
use crate::topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Barrier;

/// Region-count selector for the simulation backend.
///
/// `WSN_SHARDS` is read in exactly one place: [`Shards::Auto`]
/// resolution. Like `WSN_JOBS`, the variable exists so two runs can be
/// pinned to different decompositions and their outputs diffed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Shards {
    /// One region, the same as `Fixed(1)`. The default.
    #[default]
    Single,
    /// `WSN_SHARDS` regions when that variable is set to a positive
    /// integer, otherwise the machine's available parallelism.
    Auto,
    /// An explicit region count.
    Fixed(usize),
}

impl Shards {
    /// The region count this selector resolves to.
    pub fn region_count(self) -> usize {
        match self {
            Shards::Single => 1,
            Shards::Fixed(k) => {
                assert!(k >= 1, "need at least one region");
                k
            }
            Shards::Auto => std::env::var("WSN_SHARDS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&k: &usize| k >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }),
        }
    }
}

fn grid_dims(k: usize) -> (usize, usize) {
    let mut gx = (k as f64).sqrt().floor() as usize;
    gx = gx.max(1);
    while gx > 1 && !k.is_multiple_of(gx) {
        gx -= 1;
    }
    (gx, k / gx)
}

/// Assigns each node to the grid cell containing its position: `k`
/// regions arranged as a `gx × gy` grid (`gx·gy = k`) over the square
/// deployment area.
pub(crate) fn assign_regions(topo: &Topology, k: usize) -> Vec<u32> {
    let (gx, gy) = grid_dims(k);
    let side = topo.config().side;
    (0..topo.n() as NodeId)
        .map(|i| {
            let p = topo.position(i);
            let cx = (((p.x / side) * gx as f64) as usize).min(gx - 1);
            let cy = (((p.y / side) * gy as f64) as usize).min(gy - 1);
            (cx * gy + cy) as u32
        })
        .collect()
}

/// Runs `regions` (more than one) on their own threads until no event
/// before `end` is left anywhere.
pub(crate) fn run_windows<A: App + Send>(regions: &mut [Region<A>], env: Env, end: SimTime) {
    let window = env.radio.airtime_us(1);
    assert!(window >= 1, "zero-airtime radio leaves no lookahead window");
    let k = regions.len();
    // One bounded channel per ordered region pair; each carries exactly
    // one boundary batch per window.
    let mut txs: Vec<Vec<Option<SyncSender<Vec<Event>>>>> =
        (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    let mut rxs: Vec<Vec<Option<Receiver<Vec<Event>>>>> =
        (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                let (tx, rx) = sync_channel(1);
                txs[i][j] = Some(tx);
                rxs[j][i] = Some(rx);
            }
        }
    }
    let mins: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(k);
    let (mins, barrier) = (&mins, &barrier);
    std::thread::scope(|scope| {
        for (me, ((region, tx_row), rx_row)) in regions.iter_mut().zip(txs).zip(rxs).enumerate() {
            let env = Env { me, ..env };
            scope
                .spawn(move || run_region(region, env, window, end, tx_row, rx_row, mins, barrier));
        }
    });
}

/// One region worker's windowed event loop.
///
/// Each iteration: publish the local minimum pending time, agree on the
/// global minimum `T` at a barrier, process everything in
/// `[T, min(T + window, end))`, then exchange boundary batches (send all,
/// then receive all — the channels hold one batch each, so sends never
/// block). Termination is the window where every region publishes an
/// empty heap (or nothing before `end`); batches are always drained before
/// publishing, so nothing can be in flight at that point.
#[allow(clippy::too_many_arguments)]
fn run_region<A: App>(
    region: &mut Region<A>,
    env: Env,
    window: SimTime,
    end: SimTime,
    txs: Vec<Option<SyncSender<Vec<Event>>>>,
    rxs: Vec<Option<Receiver<Vec<Event>>>>,
    mins: &[AtomicU64],
    barrier: &Barrier,
) {
    let mut out: Vec<Vec<Event>> = (0..mins.len()).map(|_| Vec::new()).collect();
    loop {
        let local_min = region.heap.peek().map_or(SimTime::MAX, |e| e.key.at);
        // Barrier waits synchronize memory; Relaxed suffices.
        mins[env.me].store(local_min, Ordering::Relaxed);
        barrier.wait();
        let t = mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .expect("at least one region");
        // Second barrier: everyone has read this window's minima before
        // anyone publishes the next window's.
        barrier.wait();
        if t >= end {
            return;
        }
        let window_end = t.saturating_add(window).min(end);
        region.process_until(window_end, &env, &mut out);
        for (j, tx) in txs.iter().enumerate() {
            if let Some(tx) = tx {
                tx.send(std::mem::take(&mut out[j]))
                    .expect("peer region hung up");
            }
        }
        for rx in rxs.iter().flatten() {
            for ev in rx.recv().expect("peer region hung up") {
                debug_assert!(ev.key.at >= window_end, "boundary event inside the window");
                region.heap.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Simulator;
    use crate::node::{Ctx, TimerKey};
    use crate::radio::RadioConfig;
    use crate::topology::TopologyConfig;
    use rand::Rng;
    use wsn_trace::{MemorySink, TraceRecord};

    /// A chatty flood: node 0 broadcasts at start, every node relays the
    /// first frame it hears, draws from its RNG on every reception, and
    /// runs a re-armed timer — exercising deliveries, timers, RNG
    /// streams, and cancellation across region borders.
    struct Flood {
        heard: u64,
        relayed: bool,
        draws: u64,
        /// Sum of timer fire times.
        fires: u64,
    }

    impl App for Flood {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                ctx.broadcast(vec![7u8; 8]);
            }
            ctx.set_timer(1, 900);
            ctx.set_timer(1, 500); // re-arm supersedes
            ctx.set_timer(2, 300);
            ctx.cancel_timer(2);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            self.heard += 1;
            self.draws = self.draws.wrapping_add(ctx.rng().gen::<u64>());
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(payload.to_vec());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _key: TimerKey) {
            self.fires += ctx.now();
        }
    }

    fn flood(_: NodeId) -> Flood {
        Flood {
            heard: 0,
            relayed: false,
            draws: 0,
            fires: 0,
        }
    }

    type FloodSnapshot = (
        Vec<(u64, u64, u64)>,
        u64,
        SimTime,
        Vec<u64>,
        Vec<TraceRecord>,
    );

    /// Runs the flood on `k` regions, merges, and returns app state,
    /// events, end time, per-node tx counts and the full trace.
    fn snapshot(k: usize, radio: RadioConfig, topo_seed: u64) -> FloodSnapshot {
        let topo = Topology::random(&TopologyConfig::with_density(300, 10.0), topo_seed);
        let mut sim = Simulator::with_regions(topo, radio, 42, k, flood);
        sim.install_trace(MemorySink::new());
        let end = sim.run();
        sim.merge_regions();
        let trace = sim.take_trace().expect("installed").drain();
        let apps = sim.apps().iter().map(|a| (a.heard, a.draws, a.fires));
        (
            apps.collect(),
            sim.events_processed(),
            end,
            sim.counters().tx_msgs.clone(),
            trace,
        )
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let base = snapshot(1, RadioConfig::default(), 3);
        for k in [2, 4, 5, 9] {
            assert_eq!(
                snapshot(k, RadioConfig::default(), 3),
                base,
                "k = {k} diverged"
            );
        }
        // Sanity: the flood actually spread, and only the re-armed timer
        // fired.
        assert!(base.0.iter().map(|s| s.0).sum::<u64>() > 300);
        assert!(base.0.iter().all(|s| s.2 == 500));
        // Global seqs are dense after the merge.
        assert!(base.4.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    }

    #[test]
    fn full_trace_identical_across_shard_counts() {
        let run = |k: usize| {
            let topo = Topology::random(&TopologyConfig::with_density(120, 10.0), 9);
            let mut sim = Simulator::with_regions(topo, RadioConfig::default(), 5, k, flood);
            sim.install_trace(MemorySink::new());
            sim.run();
            sim.take_trace().expect("installed").drain()
        };
        let one = run(1);
        assert!(!one.is_empty());
        assert_eq!(one, run(4));
        // Global seqs are dense after the merge.
        assert!(one.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    }

    #[test]
    fn lossy_radio_identical_across_shard_counts() {
        let lossy = || RadioConfig::default().with_loss(0.25);
        let base = snapshot(1, lossy(), 3);
        for k in [3, 4] {
            assert_eq!(snapshot(k, lossy(), 3), base, "lossy k = {k} diverged");
        }
        // Loss actually bit: fewer frames heard than at loss 0.
        let heard = |s: &FloodSnapshot| s.0.iter().map(|a| a.0).sum::<u64>();
        assert!(heard(&base) < heard(&snapshot(1, RadioConfig::default(), 3)));
    }

    #[test]
    fn contended_queued_radio_identical_across_region_counts() {
        let radio = || RadioConfig::default().with_tx_queue(2).with_contention();
        let base = snapshot(1, radio(), 9);
        assert_eq!(snapshot(4, radio(), 9), base);
    }

    #[test]
    fn fault_setters_identical_across_region_counts() {
        let run = |k: usize| {
            let topo = Topology::random(&TopologyConfig::with_density(200, 10.0), 5);
            let sides = (0..200u32).map(|i| u8::from(i % 7 == 0)).collect();
            let mut sim = Simulator::with_regions(topo, RadioConfig::default(), 1, k, flood);
            sim.install_trace(MemorySink::new());
            sim.set_partition(sides);
            sim.set_node_down(17);
            sim.set_clock_drift(3, 1.5);
            sim.schedule_timer(40, 9, 50);
            sim.schedule_start(41, 20);
            sim.run();
            sim.merge_regions();
            let apps: Vec<(u64, u64)> = sim.apps().iter().map(|a| (a.heard, a.fires)).collect();
            (apps, sim.take_trace().expect("installed").drain())
        };
        let base = run(1);
        assert_eq!(base.0[17], (0, 0), "a down node hears nothing");
        assert_eq!(base.0[3].1, 750, "drift stretches node 3's timer");
        assert_eq!(base.0[40].1, 550, "scheduled timer, then the re-armed one");
        assert_eq!(run(4), base);
    }

    #[test]
    fn grid_regions_pin_byte_identity() {
        // A perfect grid puts many nodes on region borders.
        let topo = || {
            let positions = (0..400)
                .map(|i| crate::geom::Point::new((i % 20) as f64 + 0.5, (i / 20) as f64 + 0.5))
                .collect();
            let cfg = TopologyConfig {
                n: 400,
                side: 20.0,
                radius: 1.5,
                wrap: false,
            };
            Topology::from_positions(cfg, positions)
        };
        let run = |k: usize| {
            let mut sim = Simulator::with_regions(topo(), RadioConfig::default(), 7, k, flood);
            let end = sim.run();
            sim.merge_regions();
            let heard: Vec<(u64, u64)> = sim.apps().iter().map(|a| (a.heard, a.draws)).collect();
            (end, heard, sim.counters().rx_msgs.clone())
        };
        let base = run(1);
        for k in [2, 4, 6] {
            assert_eq!(run(k), base, "grid k = {k} diverged");
        }
    }

    #[test]
    fn merged_engine_keeps_running() {
        let run = |k: usize| {
            let topo = Topology::random(&TopologyConfig::with_density(80, 10.0), 2);
            let mut sim = Simulator::with_regions(topo, RadioConfig::default(), 11, k, flood);
            sim.run();
            sim.merge_regions();
            // Steady state on the merged engine: a second wave.
            sim.app_mut(5).relayed = false;
            sim.inject_broadcast_at(5, 5, 1, vec![3u8; 4]);
            sim.run();
            let apps: Vec<(u64, u64)> = sim.apps().iter().map(|a| (a.heard, a.draws)).collect();
            (apps, sim.events_processed(), sim.now())
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn grid_covers_all_factorizations() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(7), (1, 7)); // prime: strip partition
        assert_eq!(grid_dims(16), (4, 4));
        let topo = Topology::random(&TopologyConfig::with_density(50, 8.0), 1);
        for k in 1..=8 {
            let regions = assign_regions(&topo, k);
            assert!(regions.iter().all(|&r| (r as usize) < k));
        }
    }

    #[test]
    fn shards_selector_resolves() {
        assert_eq!(Shards::Single.region_count(), 1);
        assert_eq!(Shards::Fixed(6).region_count(), 6);
        assert_eq!(Shards::default(), Shards::Single);
        // Auto honors WSN_SHARDS (restored afterwards; the only other
        // readers pick a region count, which never changes results).
        let prior = std::env::var("WSN_SHARDS").ok();
        std::env::set_var("WSN_SHARDS", "5");
        assert_eq!(Shards::Auto.region_count(), 5);
        std::env::set_var("WSN_SHARDS", "0");
        assert!(Shards::Auto.region_count() >= 1);
        match prior {
            Some(v) => std::env::set_var("WSN_SHARDS", v),
            None => std::env::remove_var("WSN_SHARDS"),
        }
    }
}
