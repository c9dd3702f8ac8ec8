//! The paper's Figure 2: gradients are low-rank, activations are not.
//!
//! Trains the small reference model briefly, then compares the singular
//! spectra of (a) a weight gradient and (b) a mid-stack activation matrix.

use crate::config::AccuracyConfig;
use actcomp_data::glue::{class_labels, GlueTask};
use actcomp_nn::optim::{self, Adam};
use actcomp_nn::{loss, BertEncoder, ClassifierHead, Layer};
use actcomp_tensor::{linalg, Tensor, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One singular-spectrum curve of Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrumCurve {
    /// Curve label ("gradient" / "activation").
    pub label: String,
    /// Cumulative singular-value energy at each rank prefix (the paper's
    /// "sigma value percentage" axis).
    pub energy: Vec<f32>,
    /// Smallest rank capturing 90% of spectral mass.
    pub rank90: usize,
}

/// Result of the low-rank analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowRankAnalysis {
    /// Spectrum of a mid-stack feed-forward weight gradient.
    pub gradient: SpectrumCurve,
    /// Spectrum of the mid-stack activation matrix.
    pub activation: SpectrumCurve,
}

impl LowRankAnalysis {
    /// Whether the paper's finding reproduces: the gradient concentrates
    /// its spectrum in far fewer directions than the activation.
    pub fn gradient_is_lower_rank(&self) -> bool {
        self.gradient.rank90 * 2 <= self.activation.rank90
    }
}

/// Runs the Figure 2 analysis: trains briefly on MNLI, then takes SVDs of
/// a mid-layer FF weight gradient and the mid-layer activation.
pub fn analyze(cfg: &AccuracyConfig, train_steps: usize) -> LowRankAnalysis {
    let (gradient, activation) = harvest(cfg, train_steps);
    LowRankAnalysis {
        gradient: curve("gradient", &gradient),
        activation: curve("activation", &activation),
    }
}

/// Trains briefly and returns the raw `(gradient, activation)` matrices
/// Figure 2 inspects — also used by the low-rank compression ablation
/// (`ablation_lowrank`), which needs the matrices themselves.
pub fn harvest(cfg: &AccuracyConfig, train_steps: usize) -> (Tensor, Tensor) {
    cfg.validate();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x10aa);
    let mut model = BertEncoder::new(&mut rng, cfg.bert.clone());
    let task = GlueTask::Mnli;
    let (train, _) = task.generate(cfg.seed, cfg.bert.vocab, cfg.seq);
    let mut head = ClassifierHead::new(&mut rng, cfg.bert.hidden, task.num_classes(), 0.0, 7);
    let mut opt = Adam::new(cfg.lr);

    let batch_ids = |step: usize| -> (Vec<usize>, Vec<usize>) {
        let exs: Vec<_> = (0..cfg.batch)
            .map(|i| &train[(step * cfg.batch + i) % train.len()])
            .collect();
        let ids = exs.iter().flat_map(|e| e.tokens.iter().copied()).collect();
        let labels = class_labels(&exs.iter().map(|e| (*e).clone()).collect::<Vec<_>>());
        (ids, labels)
    };

    for step in 0..train_steps {
        let (ids, labels) = batch_ids(step);
        let hidden = model.forward(&ids, cfg.batch, cfg.seq);
        let logits = head.forward(&hidden, cfg.batch, cfg.seq);
        let (_, dlogits) = loss::softmax_cross_entropy(&logits, &labels);
        model.zero_grad();
        head.visit_params(&mut |p| p.zero_grad());
        let dhidden = head.backward(&dlogits);
        model.backward(&dhidden);
        opt.begin_step();
        optim::step(&mut opt, |f| {
            model.visit_params(f);
            head.visit_params(f);
        });
    }

    // One more pass to populate a fresh gradient and capture the
    // mid-stack activation.
    let (ids, labels) = batch_ids(train_steps);
    let mid = cfg.bert.layers / 2;
    let activation = forward_to_layer(&mut model, &ids, cfg.batch, cfg.seq, mid);
    let hidden = model.forward(&ids, cfg.batch, cfg.seq);
    let logits = head.forward(&hidden, cfg.batch, cfg.seq);
    let (_, dlogits) = loss::softmax_cross_entropy(&logits, &labels);
    model.zero_grad();
    head.visit_params(&mut |p| p.zero_grad());
    let dhidden = head.backward(&dlogits);
    model.backward(&dhidden);
    let gradient = model.layers[mid].ff.fc1.weight.grad.clone();

    (gradient, activation)
}

/// Runs the encoder up to (and including) layer `upto`, returning that
/// layer's output activation `[batch·seq, hidden]`.
fn forward_to_layer(
    model: &mut BertEncoder,
    ids: &[usize],
    batch: usize,
    seq: usize,
    upto: usize,
) -> Tensor {
    let tok = model.tok.forward(ids);
    let pos_ids: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
    let pos = model.pos.forward(&pos_ids);
    let mut x = model.emb_ln.forward(&tok.add(&pos), &mut Workspace::new());
    for layer in model.layers.iter_mut().take(upto + 1) {
        x = layer.forward(&x, batch, seq);
    }
    x
}

fn curve(label: &str, matrix: &Tensor) -> SpectrumCurve {
    let sv = linalg::singular_values(matrix);
    let energy = linalg::cumulative_energy(&sv);
    let rank90 = linalg::effective_rank(&sv, 0.9);
    SpectrumCurve {
        label: label.to_string(),
        energy,
        rank90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_reproduces() {
        // Needs the full-depth model: the gradient's low-rank structure
        // emerges from the converging deep stack (shallow stacks keep it
        // above the 2x-rank threshold).
        let cfg = AccuracyConfig::paper_default();
        let analysis = analyze(&cfg, 40);
        assert!(
            analysis.gradient_is_lower_rank(),
            "gradient rank90 {} vs activation rank90 {}",
            analysis.gradient.rank90,
            analysis.activation.rank90
        );
        // Energy curves are valid cumulative distributions.
        for c in [&analysis.gradient, &analysis.activation] {
            assert!((c.energy.last().copied().unwrap_or(0.0) - 1.0).abs() < 1e-3);
        }
    }
}
