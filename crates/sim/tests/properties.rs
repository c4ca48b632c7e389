//! Property-based tests over the simulator substrate.

use proptest::prelude::*;
use std::collections::BinaryHeap;
use wsn_sim::event::{Event, EventKey, EventKind};
use wsn_sim::geom::{Point, SpatialGrid};
use wsn_sim::rng::derive_seed;
use wsn_sim::topology::{Topology, TopologyConfig};

fn points_strategy(side: f64) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..side, 0.0..side), 2..120)
        .prop_map(|ps| ps.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_query_matches_brute_force(
        points in points_strategy(50.0),
        radius in 1.0f64..20.0,
        probe in any::<proptest::sample::Index>(),
        wrap in any::<bool>(),
    ) {
        let side = 50.0;
        let grid = SpatialGrid::build(&points, side, radius);
        let i = probe.index(points.len()) as u32;
        let p = points[i as usize];
        let mut got = Vec::new();
        grid.for_each_within(&points, &p, radius, Some(i), wrap, |j| got.push(j));
        got.sort_unstable();
        let mut expected: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(j, q)| {
                *j as u32 != i && {
                    let d2 = if wrap { p.dist2_torus(q, side) } else { p.dist2(q) };
                    d2 <= radius * radius
                }
            })
            .map(|(j, _)| j as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn topology_adjacency_invariants(
        points in points_strategy(100.0),
        radius in 2.0f64..30.0,
        wrap in any::<bool>(),
    ) {
        let cfg = TopologyConfig {
            n: points.len(),
            side: 100.0,
            radius,
            wrap,
        };
        let topo = Topology::from_positions(cfg, points);
        for u in 0..topo.n() as u32 {
            let nbrs = topo.neighbors(u);
            // Sorted, no self loops, symmetric.
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&u));
            for &v in nbrs {
                prop_assert!(topo.neighbors(v).binary_search(&u).is_ok());
            }
        }
    }

    #[test]
    fn hop_distances_are_lipschitz(
        n in 20usize..150,
        density in 6.0f64..15.0,
        seed in any::<u64>(),
    ) {
        let topo = Topology::random(&TopologyConfig::with_density(n, density), seed);
        let dist = topo.hop_distances(0);
        prop_assert_eq!(dist[0], 0);
        for u in 0..topo.n() as u32 {
            for &v in topo.neighbors(u) {
                let (du, dv) = (dist[u as usize], dist[v as usize]);
                if du != u32::MAX {
                    // A neighbor can be at most one hop farther.
                    prop_assert!(dv != u32::MAX && dv <= du + 1,
                        "u={u} d={du}, neighbor v={v} d={dv}");
                }
            }
        }
    }

    #[test]
    fn derive_seed_no_collisions_in_sample(master in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(master, a), derive_seed(master, b));
    }

    /// Events created the way the engine creates them — each origin
    /// stamps its next counter — pop from a region heap in ascending key
    /// order with no two keys equal, and events of one origin at one time
    /// pop in creation order.
    #[test]
    fn event_queue_pops_sorted_and_stable(
        events in proptest::collection::vec((0u64..50, 0u32..8, 0u32..8), 1..200),
    ) {
        let mut ctrs = [0u64; 8];
        let mut heap = BinaryHeap::new();
        for &(at, origin, target) in &events {
            let ctr = ctrs[origin as usize];
            ctrs[origin as usize] += 1;
            heap.push(Event {
                key: EventKey { at, origin, ctr, target },
                kind: EventKind::Start(target),
            });
        }
        let mut last: Option<EventKey> = None;
        let mut popped = 0;
        while let Some(ev) = heap.pop() {
            if let Some(prev) = last {
                prop_assert!(prev < ev.key, "{:?} popped before {:?}", prev, ev.key);
            }
            last = Some(ev.key);
            popped += 1;
        }
        prop_assert_eq!(popped, events.len());
    }

    #[test]
    fn measured_density_tracks_target(
        n in 300usize..800,
        density in 6.0f64..18.0,
        seed in any::<u64>(),
    ) {
        let topo = Topology::random(&TopologyConfig::with_density(n, density), seed);
        let measured = topo.mean_degree();
        prop_assert!(
            (measured - density).abs() / density < 0.25,
            "target {density}, measured {measured}"
        );
    }
}
