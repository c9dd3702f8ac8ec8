//! Which layers get compressed, and with what.

use crate::spec::CompressorSpec;
use serde::{Deserialize, Serialize};

/// A compression placement: apply `spec` to the activations of layers
/// `[start_layer, start_layer + num_layers)`.
///
/// The paper's default compresses the **last 12 of 24 layers** (§4.1);
/// §4.5 sweeps both the count and the location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompressionPlan {
    /// The algorithm/setting applied.
    pub spec: CompressorSpec,
    /// First (0-based) compressed layer.
    pub start_layer: usize,
    /// Number of consecutive compressed layers.
    pub num_layers: usize,
}

impl CompressionPlan {
    /// No compression anywhere.
    pub fn none() -> Self {
        CompressionPlan {
            spec: CompressorSpec::Baseline,
            start_layer: 0,
            num_layers: 0,
        }
    }

    /// Compress the last `n` of `total_layers` layers (the paper's default
    /// placement with `n = total_layers / 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n > total_layers`.
    pub fn last_layers(spec: CompressorSpec, total_layers: usize, n: usize) -> Self {
        assert!(
            n <= total_layers,
            "cannot compress {n} of {total_layers} layers"
        );
        CompressionPlan {
            spec,
            start_layer: total_layers - n,
            num_layers: n,
        }
    }

    /// Compress `n` layers starting at `start` (the §4.5 location sweep).
    pub fn window(spec: CompressorSpec, start: usize, n: usize) -> Self {
        CompressionPlan {
            spec,
            start_layer: start,
            num_layers: n,
        }
    }

    /// Whether `layer` is compressed under this plan.
    pub fn covers(&self, layer: usize) -> bool {
        self.spec != CompressorSpec::Baseline
            && layer >= self.start_layer
            && layer < self.start_layer + self.num_layers
    }

    /// Whether the plan compresses anything at all.
    pub fn is_active(&self) -> bool {
        self.spec != CompressorSpec::Baseline && self.num_layers > 0
    }

    /// One past the last compressed layer.
    pub fn end_layer(&self) -> usize {
        self.start_layer + self.num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_paper_placement() {
        let p = CompressionPlan::last_layers(CompressorSpec::A2, 24, 12);
        assert!(!p.covers(11));
        assert!(p.covers(12));
        assert!(p.covers(23));
        assert!(!p.covers(24));
        assert!(p.is_active());
    }

    #[test]
    fn none_covers_nothing() {
        let p = CompressionPlan::none();
        assert!(!p.is_active());
        assert!((0..24).all(|l| !p.covers(l)));
    }

    #[test]
    fn baseline_spec_never_covers() {
        let p = CompressionPlan::window(CompressorSpec::Baseline, 0, 24);
        assert!(!p.covers(0));
    }

    #[test]
    fn window_placement() {
        let p = CompressionPlan::window(CompressorSpec::Q2, 4, 8);
        assert!(!p.covers(3));
        assert!(p.covers(4));
        assert!(p.covers(11));
        assert!(!p.covers(12));
        assert_eq!(p.end_layer(), 12);
    }
}
