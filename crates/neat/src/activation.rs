//! Node activation functions.
//!
//! NEAT node genes carry an activation function that may itself mutate
//! during evolution. The set below mirrors the defaults of the
//! `neat-python` implementation profiled by the E3 paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An activation function applied by a node after aggregating its
/// weighted inputs and bias.
///
/// # Example
///
/// ```
/// use e3_neat::Activation;
///
/// assert_eq!(Activation::Identity.apply(0.25), 0.25);
/// assert!(Activation::Sigmoid.apply(0.0) - 0.5 < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Steepened logistic sigmoid `1 / (1 + e^(-4.9x))` as in the NEAT
    /// paper; output in `(0, 1)`.
    #[default]
    Sigmoid,
    /// Hyperbolic tangent; output in `(-1, 1)`.
    Tanh,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Identity pass-through.
    Identity,
    /// Gaussian bump `e^(-x²)` (range `(0, 1]`), useful for radial
    /// responses.
    Gauss,
    /// Sine response, useful for periodic tasks such as gait control.
    Sin,
    /// Absolute value.
    Abs,
    /// Identity clamped to `[-1, 1]`.
    Clamped,
}

impl Activation {
    /// All supported activation functions, in a stable order.
    pub const ALL: [Activation; 8] = [
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Relu,
        Activation::Identity,
        Activation::Gauss,
        Activation::Sin,
        Activation::Abs,
        Activation::Clamped,
    ];

    /// Applies the activation function to `x`.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-4.9 * x.clamp(-60.0, 60.0)).exp()),
            Activation::Tanh => x.clamp(-60.0, 60.0).tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
            Activation::Gauss => (-(x * x).min(60.0)).exp(),
            Activation::Sin => x.sin(),
            Activation::Abs => x.abs(),
            Activation::Clamped => x.clamp(-1.0, 1.0),
        }
    }

    /// Short lowercase name, matching `neat-python` conventions.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
            Activation::Identity => "identity",
            Activation::Gauss => "gauss",
            Activation::Sin => "sin",
            Activation::Abs => "abs",
            Activation::Clamped => "clamped",
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_centered_and_bounded() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(100.0) <= 1.0);
        assert!(Activation::Sigmoid.apply(-100.0) >= 0.0);
        assert!(Activation::Sigmoid.apply(1.0) > 0.9); // steepened slope
    }

    #[test]
    fn tanh_saturates_without_nan() {
        assert!(Activation::Tanh.apply(1e9).is_finite());
        assert!((Activation::Tanh.apply(1e9) - 1.0).abs() < 1e-9);
        assert!((Activation::Tanh.apply(-1e9) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn relu_clips_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn gauss_peaks_at_zero() {
        assert!((Activation::Gauss.apply(0.0) - 1.0).abs() < 1e-12);
        assert!(Activation::Gauss.apply(3.0) < 1e-3);
        assert!(Activation::Gauss.apply(1e9).is_finite());
    }

    #[test]
    fn clamped_limits_range() {
        assert_eq!(Activation::Clamped.apply(5.0), 1.0);
        assert_eq!(Activation::Clamped.apply(-5.0), -1.0);
        assert_eq!(Activation::Clamped.apply(0.3), 0.3);
    }

    #[test]
    fn all_lists_every_variant_once() {
        let mut names: Vec<_> = Activation::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Activation::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        for a in Activation::ALL {
            assert_eq!(a.to_string(), a.name());
        }
    }

    #[test]
    fn every_activation_is_finite_on_extreme_inputs() {
        for a in Activation::ALL {
            for x in [-1e12, -1.0, 0.0, 1.0, 1e12] {
                assert!(a.apply(x).is_finite(), "{a} not finite at {x}");
            }
        }
    }
}
