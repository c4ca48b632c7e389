//! Seeded input generation. Every input a workload feeds the program —
//! deployment seeds, reading sources, payloads, the offered schedule and
//! the mote order — derives from the `--seed` argument alone, so the
//! same seed replays the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsn_sim::rng::derive_seed;

/// Stream ids under the run seed, one per independent input.
mod stream {
    pub const DEPLOYMENT: u64 = 1;
    pub const SOURCES: u64 = 2;
    pub const MOTE_ORDER: u64 = 3;
    pub const PROVISIONING: u64 = 4;
}

/// The deployment seed of network `rep` (`Scenario` master seed).
pub fn deployment_seed(seed: u64, rep: u64) -> u64 {
    derive_seed(derive_seed(seed, stream::DEPLOYMENT), rep)
}

/// The master seed shared by the UDP server and its mote army.
pub fn provisioning_seed(seed: u64) -> u64 {
    derive_seed(seed, stream::PROVISIONING)
}

/// Uniform reading sources over a network's sensors, network `rep`.
pub struct Sources {
    rng: StdRng,
    sensors: Vec<u32>,
    next: u64,
}

impl Sources {
    /// The source sequence for network `rep` with the given sensors.
    pub fn new(seed: u64, rep: u64, sensors: Vec<u32>) -> Self {
        assert!(!sensors.is_empty(), "a network needs sensors");
        Sources {
            rng: StdRng::seed_from_u64(derive_seed(derive_seed(seed, stream::SOURCES), rep)),
            sensors,
            next: 0,
        }
    }

    /// The next `(source, payload)`. The payload is unique per reading:
    /// reading index, source id and a seed-derived tag.
    pub fn next_reading(&mut self) -> (u32, Vec<u8>) {
        let src = self.sensors[self.rng.gen_range(0..self.sensors.len())];
        let tag: u32 = self.rng.gen();
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.next.to_be_bytes());
        payload.extend_from_slice(&src.to_be_bytes());
        payload.extend_from_slice(&tag.to_be_bytes());
        self.next += 1;
        (src, payload)
    }
}

/// The order in which the open- and closed-loop clients visit the mote
/// army (`0..motes` positions): a seeded permutation, cycled.
pub fn mote_order(seed: u64, motes: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..motes as u32).collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream::MOTE_ORDER));
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Due time of the `i`-th offered reading at `rate` readings/s,
/// nanoseconds after the phase start.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (i as u128 * 1_000_000_000u128 / rate as u128) as u64
}
