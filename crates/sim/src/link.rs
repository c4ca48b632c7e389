//! Per-link channel processes: the pluggable loss model.
//!
//! The simulator consults exactly one [`LinkProcess`] for every frame
//! delivery; the process decides whether the channel eats the frame.
//! The default is [`IidLoss`] — the historical `RadioConfig::loss`
//! knob, an independent Bernoulli draw per receiver. Richer models
//! (correlated Gilbert–Elliott bursts, time-varying interference) plug
//! in through [`crate::net::Simulator::set_link_process`] without the
//! delivery path changing shape.
//!
//! Determinism contract: a process may either draw from the receiver's
//! RNG stream (passed to [`LinkProcess::should_drop`]) or keep its own
//! seeded streams. Either way the decision must be a pure function of
//! the seed material and the delivery sequence, never of wall-clock
//! time or thread scheduling.

use crate::event::SimTime;
use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// A channel loss model consulted once per frame delivery.
pub trait LinkProcess: Send {
    /// Returns `true` if the frame from `from` to `to` at virtual time
    /// `now` is lost in the channel. `rng` is the receiver's stream;
    /// implementations that keep private per-link streams should leave
    /// it untouched so swapping models does not perturb unrelated
    /// randomness.
    fn should_drop(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
        rng: &mut StdRng,
    ) -> bool;
}

/// Independent per-receiver Bernoulli loss — the trivial link process
/// the `RadioConfig::loss` knob always meant.
///
/// Draw discipline matters: the receiver's stream also feeds its protocol
/// timers, so this process consumes exactly one draw per delivery *and
/// only when `loss > 0`* — a lossless radio leaves every stream
/// untouched.
#[derive(Clone, Copy, Debug)]
pub struct IidLoss {
    /// Frame-loss probability in `[0, 1)`.
    pub loss: f64,
}

impl IidLoss {
    /// A process dropping each frame independently with probability
    /// `loss`.
    pub fn new(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        IidLoss { loss }
    }
}

impl LinkProcess for IidLoss {
    fn should_drop(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bytes: usize,
        _now: SimTime,
        rng: &mut StdRng,
    ) -> bool {
        self.loss > 0.0 && rng.gen::<f64>() < self.loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn zero_loss_never_drops_and_never_draws() {
        let mut p = IidLoss::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut witness = StdRng::seed_from_u64(1);
        for i in 0..100 {
            assert!(!p.should_drop(0, 1, 32, i, &mut rng));
        }
        // The RNG was not consumed at all.
        assert_eq!(rng.next_u64(), witness.next_u64());
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut p = IidLoss::new(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let dropped = (0..n)
            .filter(|&i| p.should_drop(0, 1, 32, i, &mut rng))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    #[test]
    #[should_panic]
    fn certain_loss_rejected() {
        let _ = IidLoss::new(1.0);
    }
}
