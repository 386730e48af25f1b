//! Trade-off 2: partitioning speed vs. overall quality (§4.3).
//!
//! The paper lays the theoretical foundation: compare
//!
//! 1. how much time the partitioner **wants** — a first version is the
//!    mean of the other penalties (β_l, β_c, β_m), which is then scaled
//!    by the *absolute importance* of those relative metrics (§4.2): the
//!    current grid size normalized by the largest grid *encountered so
//!    far* in the run (the true maximum is unknowable online);
//! 2. what time slot the application **offers** — derived from the
//!    repartitioner invocation intervals measured by coarse timing calls
//!    (a reviewer of Part I suggested those): the more infrequently the
//!    partitioner is invoked, the greater the time slots it can claim.
//!
//! The paper leaves the final comparison to "hands-on practical
//! experimenting"; this implementation normalizes the offer with a
//! saturating exponential and takes `d2 = request / (request + offer)` as
//! the dimension-2 coordinate (0 → any cheap partitioning will do, 1 → a
//! long, high-quality partitioning pass is warranted). The choice is
//! documented as a reconstruction and exercised by ablation ABL2
//! (`examples/ablations.rs`).

use serde::{Deserialize, Serialize};

/// Online state of the Trade-off 2 computation: the running grid-size
/// maximum (§4.2) and the invocation timer (§4.3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tradeoff2State {
    /// Largest `|H_t|` seen so far.
    pub max_points_so_far: u64,
    /// Simulation time of the previous partitioner invocation.
    pub last_invocation: Option<f64>,
    /// Time scale (same units as the invocation clock) at which an
    /// invocation interval counts as a "large" slot.
    pub interval_scale: f64,
}

/// The two quantities the trade-off compares plus the resulting
/// coordinate.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Tradeoff2 {
    /// Quantification (1): how much time the partitioner wants, in
    /// `[0, 1]`.
    pub request: f64,
    /// Quantification (2): the normalized time slot the application can
    /// offer, in `[0, 1)`.
    pub offer: f64,
    /// Normalized grid size used for the absolute-importance weighting.
    pub grid_size_norm: f64,
    /// Dimension-2 coordinate in `[0, 1]`.
    pub d2: f64,
}

impl Tradeoff2State {
    /// Start a fresh run.
    pub fn new(interval_scale: f64) -> Self {
        assert!(interval_scale > 0.0);
        Self {
            max_points_so_far: 0,
            last_invocation: None,
            interval_scale,
        }
    }

    /// Record a partitioner invocation at time `now` for a hierarchy of
    /// `points` grid points with the other penalties `betas`, and produce
    /// the Trade-off 2 quantities.
    ///
    /// `weight_by_grid_size = false` disables the §4.2 absolute-importance
    /// factor (ablation ABL2 in `examples/ablations.rs`).
    pub fn observe(
        &mut self,
        now: f64,
        points: u64,
        betas: &[f64],
        weight_by_grid_size: bool,
    ) -> Tradeoff2 {
        self.max_points_so_far = self.max_points_so_far.max(points);
        let grid_size_norm = if self.max_points_so_far == 0 {
            0.0
        } else {
            points as f64 / self.max_points_so_far as f64
        };
        let mean_beta = if betas.is_empty() {
            0.0
        } else {
            betas.iter().sum::<f64>() / betas.len() as f64
        };
        let request = if weight_by_grid_size {
            mean_beta * grid_size_norm
        } else {
            mean_beta
        };
        let interval = match self.last_invocation {
            Some(t) => (now - t).max(0.0),
            None => 0.0,
        };
        self.last_invocation = Some(now);
        let offer = 1.0 - (-interval / self.interval_scale).exp();
        let d2 = if request + offer <= 0.0 {
            0.0
        } else {
            request / (request + offer)
        };
        Tradeoff2 {
            request,
            offer,
            grid_size_norm,
            d2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_scales_with_penalties_and_size() {
        let mut s = Tradeoff2State::new(1.0);
        // First observation: grid is its own maximum (norm 1).
        let t = s.observe(0.0, 1000, &[0.2, 0.4, 0.6], true);
        assert!((t.request - 0.4).abs() < 1e-12);
        assert_eq!(t.grid_size_norm, 1.0);
        // Later, a smaller grid damps the request (absolute importance of
        // relative metrics, §4.2).
        let t = s.observe(1.0, 250, &[0.2, 0.4, 0.6], true);
        assert!((t.grid_size_norm - 0.25).abs() < 1e-12);
        assert!((t.request - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ablation_disables_size_weighting() {
        let mut s = Tradeoff2State::new(1.0);
        s.observe(0.0, 1000, &[0.5], true);
        let t = s.observe(1.0, 100, &[0.5], false);
        assert!((t.request - 0.5).abs() < 1e-12);
    }

    #[test]
    fn offer_grows_with_invocation_interval() {
        let mut s = Tradeoff2State::new(10.0);
        let first = s.observe(0.0, 100, &[0.5], true);
        assert_eq!(first.offer, 0.0); // no interval yet
        let quick = s.observe(0.1, 100, &[0.5], true);
        let mut s2 = Tradeoff2State::new(10.0);
        s2.observe(0.0, 100, &[0.5], true);
        let slow = s2.observe(50.0, 100, &[0.5], true);
        assert!(slow.offer > quick.offer);
        assert!(slow.offer < 1.0);
    }

    #[test]
    fn d2_high_when_requesting_more_than_offered() {
        let mut s = Tradeoff2State::new(10.0);
        s.observe(0.0, 100, &[], true);
        // Rapid re-invocations (tiny offer) with severe penalties.
        let t = s.observe(0.05, 100, &[0.9, 0.9, 0.9], true);
        assert!(t.d2 > 0.9, "{t:?}");
        // Long gaps with mild penalties.
        let mut s = Tradeoff2State::new(1.0);
        s.observe(0.0, 100, &[], true);
        let t = s.observe(100.0, 100, &[0.05, 0.05, 0.05], true);
        assert!(t.d2 < 0.1, "{t:?}");
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let mut s = Tradeoff2State::new(1.0);
        let t = s.observe(0.0, 0, &[], true);
        assert_eq!(t.request, 0.0);
        assert_eq!(t.d2, 0.0);
        assert!((0.0..=1.0).contains(&t.offer));
    }
}
