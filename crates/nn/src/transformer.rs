//! BERT-style Transformer encoder built from the primitive layers.

use crate::graphs::{self, LnInput};
use crate::{
    Dropout, Embedding, Layer, LayerNorm, Linear, LnCache, MultiHeadAttention, Parameter, Tanh,
};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{workspace, Tensor, Workspace};
use rand::Rng;

/// An architecturally impossible [`BertConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BertConfigError {
    /// Some hyper-parameter is zero.
    ZeroField,
    /// Attention cannot split the hidden width evenly across heads.
    HiddenNotDivisibleByHeads {
        /// Hidden width.
        hidden: usize,
        /// Head count.
        heads: usize,
    },
}

impl std::fmt::Display for BertConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BertConfigError::ZeroField => {
                f.write_str("every architecture hyper-parameter must be positive")
            }
            BertConfigError::HiddenNotDivisibleByHeads { hidden, heads } => {
                write!(f, "hidden {hidden} not divisible by heads {heads}")
            }
        }
    }
}

impl std::error::Error for BertConfigError {}

/// Hyper-parameters of a BERT-style encoder.
///
/// The paper's throughput experiments use the BERT-Large configuration
/// ([`BertConfig::bert_large`]); the accuracy experiments in this
/// reproduction use a scaled-down configuration ([`BertConfig::tiny`])
/// that trains quickly on CPU while keeping the same architecture.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BertConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width `h`.
    pub hidden: usize,
    /// Number of encoder layers.
    pub layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Feed-forward inner width (typically `4·hidden`).
    pub ff_hidden: usize,
    /// Maximum sequence length (size of the position table).
    pub max_seq: usize,
}

impl BertConfig {
    /// The 345M-parameter BERT-Large configuration used by the paper's
    /// throughput experiments (24 layers, hidden 1024, 16 heads).
    pub fn bert_large() -> Self {
        BertConfig {
            vocab: 30_522,
            hidden: 1024,
            layers: 24,
            heads: 16,
            ff_hidden: 4096,
            max_seq: 512,
        }
    }

    /// A CPU-trainable configuration used by the accuracy experiments:
    /// 12 layers, hidden 64, 4 heads. Keeps BERT-Large's depth:width
    /// *structure* (layers ≫ heads, `ff = 4h`) at a scale where hundreds of
    /// fine-tuning runs finish in minutes.
    pub fn tiny() -> Self {
        BertConfig {
            vocab: 256,
            hidden: 64,
            layers: 12,
            heads: 4,
            ff_hidden: 256,
            max_seq: 64,
        }
    }

    /// Typed variant of [`BertConfig::validate`].
    pub fn try_validate(&self) -> Result<(), BertConfigError> {
        let fields = [
            self.vocab,
            self.hidden,
            self.layers,
            self.heads,
            self.ff_hidden,
            self.max_seq,
        ];
        if fields.contains(&0) {
            return Err(BertConfigError::ZeroField);
        }
        if !self.hidden.is_multiple_of(self.heads) {
            return Err(BertConfigError::HiddenNotDivisibleByHeads {
                hidden: self.hidden,
                heads: self.heads,
            });
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads` or any field is zero.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Approximate parameter count of the encoder (embeddings + layers).
    pub fn num_params(&self) -> usize {
        let per_layer = 4 * self.hidden * self.hidden           // qkvo
            + 4 * self.hidden                                    // qkvo biases
            + 2 * self.hidden * self.ff_hidden                   // mlp
            + self.ff_hidden + self.hidden                       // mlp biases
            + 4 * self.hidden; // two layer norms
        self.vocab * self.hidden
            + self.max_seq * self.hidden
            + 2 * self.hidden // embedding layer norm
            + self.layers * per_layer
    }
}

/// Position-wise feed-forward block: `Linear → GELU → Linear`.
///
/// Forward and backward each execute as **one** op-graph segment: the
/// up-projection fuses `bias + GELU` into its GEMM epilogue (stashing the
/// pre-activation for backward in the same pass), the down-projection
/// fuses its bias, and the backward `nt` GEMM fuses the GELU-derivative
/// multiply.
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// Expansion projection `[h, ff]`.
    pub fc1: Linear,
    /// Contraction projection `[ff, h]`.
    pub fc2: Linear,
    /// `(x, pre-activation h₁, activation a)` from the last forward.
    cache: Option<(Tensor, Tensor, Tensor)>,
}

impl FeedForward {
    /// Creates a feed-forward block `hidden → ff_hidden → hidden`.
    pub fn new(rng: &mut impl Rng, hidden: usize, ff_hidden: usize) -> Self {
        FeedForward {
            fc1: Linear::new(rng, hidden, ff_hidden),
            fc2: Linear::new(rng, ff_hidden, hidden),
            cache: None,
        }
    }

    /// Assembles a block from existing projections.
    ///
    /// # Panics
    ///
    /// Panics if the projections' widths don't chain.
    pub fn from_parts(fc1: Linear, fc2: Linear) -> Self {
        assert_eq!(
            fc1.fan_out(),
            fc2.fan_in(),
            "feed-forward widths don't chain"
        );
        FeedForward {
            fc1,
            fc2,
            cache: None,
        }
    }
}

impl Layer for FeedForward {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, h) = (x.dims()[0], x.dims()[1]);
        let ff = self.fc1.fan_out();
        let plan = graphs::ffn_forward(ws, m, h, ff);
        let mut res = [OutBind::Lease, OutBind::Lease, OutBind::Lease];
        plan.run(
            &[
                x.as_slice(),
                self.fc1.weight.value.as_slice(),
                self.fc1.bias.value.as_slice(),
                self.fc2.weight.value.as_slice(),
                self.fc2.bias.value.as_slice(),
            ],
            &mut res,
            ws,
        );
        let [out, h1, a] = res.map(OutBind::leased);
        let out = Tensor::from_vec(out, [m, h]);
        let h1 = Tensor::from_vec(h1, [m, ff]);
        let a = Tensor::from_vec(a, [m, ff]);
        self.cache = Some((x.clone(), h1, a));
        out
    }

    /// Parameter gradients accumulate in place; the GELU-derivative
    /// multiply fuses into the `dy·W₂ᵀ` GEMM's epilogue.
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let (x, h1, a) = self
            .cache
            .take()
            .expect("FeedForward::backward called without forward");
        let (m, h) = (dy.dims()[0], dy.dims()[1]);
        let ff = self.fc1.fan_out();
        let plan = graphs::ffn_backward(ws, m, h, ff);
        let mut res = [
            OutBind::Acc(self.fc2.weight.grad.as_mut_slice()),
            OutBind::Acc(self.fc2.bias.grad.as_mut_slice()),
            OutBind::Acc(self.fc1.weight.grad.as_mut_slice()),
            OutBind::Acc(self.fc1.bias.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        plan.run(
            &[
                dy.as_slice(),
                a.as_slice(),
                h1.as_slice(),
                x.as_slice(),
                self.fc2.weight.value.as_slice(),
                self.fc1.weight.value.as_slice(),
            ],
            &mut res,
            ws,
        );
        let [.., dx] = res;
        let dx = Tensor::from_vec(dx.leased(), [m, h]);
        for tmp in [x, h1, a] {
            ws.recycle_tensor(tmp);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

/// One post-LN Transformer encoder block:
/// `x → x + Attn(x) → LN → · + FF(·) → LN`.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    /// Self-attention sublayer.
    pub attn: MultiHeadAttention,
    /// Post-attention layer norm.
    pub ln1: LayerNorm,
    /// Feed-forward sublayer.
    pub ff: FeedForward,
    /// Post-FF layer norm.
    pub ln2: LayerNorm,
    /// `ln1`'s and `ln2`'s caches from the last forward.
    ln_caches: Option<(LnCache, LnCache)>,
}

impl EncoderLayer {
    /// Creates an encoder block for the given widths.
    pub fn new(rng: &mut impl Rng, hidden: usize, heads: usize, ff_hidden: usize) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(rng, hidden, heads),
            ln1: LayerNorm::new(hidden),
            ff: FeedForward::new(rng, hidden, ff_hidden),
            ln2: LayerNorm::new(hidden),
            ln_caches: None,
        }
    }

    /// Assembles a block from existing sublayers.
    pub fn from_parts(
        attn: MultiHeadAttention,
        ln1: LayerNorm,
        ff: FeedForward,
        ln2: LayerNorm,
    ) -> Self {
        EncoderLayer {
            attn,
            ln1,
            ff,
            ln2,
            ln_caches: None,
        }
    }

    /// Forward pass over `[batch·seq, hidden]`, on this thread's default
    /// workspace. Each residual + layer norm runs as one graph segment
    /// ([`LnInput::Residual`]), so the residual sums never persist as
    /// caller-held activations.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        workspace::with_thread_default(|ws| {
            let a = self.attn.forward(x, batch, seq, ws);
            let (h1, c1) = self.ln1.forward_cached(LnInput::Residual, &[x, &a], ws);
            let f = self.ff.forward(&h1, ws);
            let (y, c2) = self.ln2.forward_cached(LnInput::Residual, &[&h1, &f], ws);
            self.ln_caches = Some((c1, c2));
            y
        })
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`EncoderLayer::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (c1, c2) = self
            .ln_caches
            .take()
            .expect("EncoderLayer::backward called without forward");
        workspace::with_thread_default(|ws| {
            let d2 = self.ln2.backward_cached(dy, None, c2, None, ws);
            let df = self.ff.backward(&d2, ws);
            let dh1 = d2.add(&df);
            let d1 = self.ln1.backward_cached(&dh1, None, c1, None, ws);
            let dxa = self.attn.backward(&d1, ws);
            d1.add(&dxa)
        })
    }

    /// Visits all trainable parameters in the block.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff.visit_params(f);
        self.ln2.visit_params(f);
    }
}

/// Token + position embeddings followed by a stack of [`EncoderLayer`]s.
///
/// This is the serial (single-"GPU") reference model; `actcomp-mp` provides
/// the tensor/pipeline-parallel execution of the same architecture.
#[derive(Debug, Clone)]
pub struct BertEncoder {
    /// Token embedding table.
    pub tok: Embedding,
    /// Learned position embedding table.
    pub pos: Embedding,
    /// Embedding layer norm.
    pub emb_ln: LayerNorm,
    /// Encoder blocks.
    pub layers: Vec<EncoderLayer>,
    config: BertConfig,
}

impl BertEncoder {
    /// Builds an encoder from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`BertConfig::validate`]).
    pub fn new(rng: &mut impl Rng, config: BertConfig) -> Self {
        config.validate();
        let layers = (0..config.layers)
            .map(|_| EncoderLayer::new(rng, config.hidden, config.heads, config.ff_hidden))
            .collect();
        BertEncoder {
            tok: Embedding::new(rng, config.vocab, config.hidden),
            pos: Embedding::new(rng, config.max_seq, config.hidden),
            emb_ln: LayerNorm::new(config.hidden),
            layers,
            config,
        }
    }

    /// Assembles an encoder from existing components (used when
    /// reassembling a model-parallel checkpoint, §4.4's "remove the AE
    /// at fine-tuning time" workflow).
    ///
    /// # Panics
    ///
    /// Panics if the component count disagrees with the configuration.
    pub fn from_parts(
        tok: Embedding,
        pos: Embedding,
        emb_ln: LayerNorm,
        layers: Vec<EncoderLayer>,
        config: BertConfig,
    ) -> Self {
        config.validate();
        assert_eq!(layers.len(), config.layers, "layer count mismatch");
        assert_eq!(tok.vocab(), config.vocab, "vocab mismatch");
        BertEncoder {
            tok,
            pos,
            emb_ln,
            layers,
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &BertConfig {
        &self.config
    }

    /// Embeds `ids` (length `batch·seq`, row-major `[batch][seq]`) and runs
    /// all encoder layers, returning `[batch·seq, hidden]`.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != batch * seq` or `seq > max_seq`.
    pub fn forward(&mut self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(ids.len(), batch * seq, "ids length != batch*seq");
        assert!(
            seq <= self.config.max_seq,
            "seq {} > max_seq {}",
            seq,
            self.config.max_seq
        );
        let tok = self.tok.forward(ids);
        let pos_ids: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
        let pos = self.pos.forward(&pos_ids);
        let mut x = workspace::with_thread_default(|ws| self.emb_ln.forward(&tok.add(&pos), ws));
        for layer in &mut self.layers {
            x = layer.forward(&x, batch, seq);
        }
        x
    }

    /// Backpropagates through all layers and embeddings.
    pub fn backward(&mut self, dhidden: &Tensor) {
        let mut d = dhidden.clone();
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(&d);
        }
        let demb = workspace::with_thread_default(|ws| self.emb_ln.backward(&d, ws));
        self.tok.backward(&demb);
        self.pos.backward(&demb);
    }

    /// Visits all trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.emb_ln.visit_params(f);
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total trainable scalar count.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Classification head: `[CLS]` pooling → `Linear → tanh → Linear`.
///
/// Matches BERT's pooler + classifier. For regression tasks use
/// `classes = 1` and an MSE loss.
#[derive(Debug, Clone)]
pub struct ClassifierHead {
    /// Pooler projection `[h, h]`.
    pub pooler: Linear,
    act: Tanh,
    /// Final projection `[h, classes]`.
    pub classifier: Linear,
    /// Optional dropout between pooler and classifier.
    pub dropout: Dropout,
    cache_dims: Option<(usize, usize)>,
}

impl ClassifierHead {
    /// Creates a head producing `classes` logits per sequence.
    pub fn new(rng: &mut impl Rng, hidden: usize, classes: usize, dropout: f32, seed: u64) -> Self {
        ClassifierHead {
            pooler: Linear::new(rng, hidden, hidden),
            act: Tanh::new(),
            classifier: Linear::new(rng, hidden, classes),
            dropout: Dropout::new(dropout, seed),
            cache_dims: None,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classifier.fan_out()
    }

    /// Pools the first token of each sequence and produces logits
    /// `[batch, classes]` from hidden states `[batch·seq, hidden]`.
    pub fn forward(&mut self, hidden: &Tensor, batch: usize, seq: usize) -> Tensor {
        let h = hidden.dims()[1];
        let mut cls = Vec::with_capacity(batch * h);
        for t in 0..batch {
            let row = t * seq;
            cls.extend_from_slice(&hidden.as_slice()[row * h..(row + 1) * h]);
        }
        let cls = Tensor::from_vec(cls, [batch, h]);
        self.cache_dims = Some((batch, seq));
        workspace::with_thread_default(|ws| {
            let p = self.pooler.forward(&cls, ws);
            let a = self.act.forward(&p, ws);
            let a = self.dropout.forward(&a, ws);
            self.classifier.forward(&a, ws)
        })
    }

    /// Backward pass; returns the gradient scattered back into the
    /// `[batch·seq, hidden]` hidden-state layout.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        let (batch, seq) = self
            .cache_dims
            .take()
            .expect("ClassifierHead::backward called without forward");
        let dcls = workspace::with_thread_default(|ws| {
            let da = self.classifier.backward(dlogits, ws);
            let da = self.dropout.backward(&da, ws);
            let dp = self.act.backward(&da, ws);
            self.pooler.backward(&dp, ws)
        });
        let h = dcls.dims()[1];
        let mut dhidden = Tensor::zeros([batch * seq, h]);
        for t in 0..batch {
            let row = t * seq;
            dhidden.as_mut_slice()[row * h..(row + 1) * h]
                .copy_from_slice(&dcls.as_slice()[t * h..(t + 1) * h]);
        }
        dhidden
    }

    /// Visits the head's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.pooler.visit_params(f);
        self.classifier.visit_params(f);
    }

    /// Enables or disables dropout.
    pub fn set_training(&mut self, training: bool) {
        self.dropout.set_training(training);
    }
}

/// Masked-language-model head: a single projection to vocabulary logits at
/// every position.
#[derive(Debug, Clone)]
pub struct MlmHead {
    /// Projection `[h, vocab]`.
    pub proj: Linear,
}

impl MlmHead {
    /// Creates an MLM head.
    pub fn new(rng: &mut impl Rng, hidden: usize, vocab: usize) -> Self {
        MlmHead {
            proj: Linear::new(rng, hidden, vocab),
        }
    }

    /// Produces `[batch·seq, vocab]` logits.
    pub fn forward(&mut self, hidden: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.proj.forward(hidden, ws))
    }

    /// Backward pass; returns `dhidden`.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.proj.backward(dlogits, ws))
    }

    /// Visits the head's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny2() -> BertConfig {
        BertConfig {
            vocab: 16,
            hidden: 8,
            layers: 2,
            heads: 2,
            ff_hidden: 16,
            max_seq: 8,
        }
    }

    #[test]
    fn config_validation_and_params() {
        let c = BertConfig::bert_large();
        c.validate();
        // BERT-Large is ~345M params (paper §4.1); embeddings put ours close.
        let p = c.num_params();
        assert!(p > 300_000_000 && p < 400_000_000, "param count {p}");
    }

    #[test]
    fn encoder_forward_shape_and_determinism() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut enc = BertEncoder::new(&mut rng, tiny2());
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let y1 = enc.forward(&ids, 2, 4);
        let y2 = enc.forward(&ids, 2, 4);
        assert_eq!(y1.dims(), &[8, 8]);
        assert_eq!(y1, y2);
        assert!(y1.all_finite());
    }

    #[test]
    fn reported_params_match_actual() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = tiny2();
        let expected = cfg.num_params();
        let mut enc = BertEncoder::new(&mut rng, cfg);
        assert_eq!(enc.num_params(), expected);
    }

    #[test]
    fn encoder_layer_grad_flows() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut layer = EncoderLayer::new(&mut rng, 8, 2, 16);
        let x = init::randn(&mut rng, [4, 8], 1.0);
        let y = layer.forward(&x, 2, 2);
        let dx = layer.backward(&Tensor::full(1.0, y.shape().clone()));
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.norm() > 0.0);
        assert!(dx.all_finite());
    }

    #[test]
    fn classifier_head_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut head = ClassifierHead::new(&mut rng, 8, 3, 0.0, 0);
        let hidden = init::randn(&mut rng, [6, 8], 1.0); // batch 2, seq 3
        let logits = head.forward(&hidden, 2, 3);
        assert_eq!(logits.dims(), &[2, 3]);
        let dh = head.backward(&Tensor::ones([2, 3]));
        assert_eq!(dh.dims(), &[6, 8]);
        // Gradient only lands on CLS rows (0 and 3).
        assert!(dh.slice_rows(1, 3).norm() == 0.0);
        assert!(dh.slice_rows(0, 1).norm() > 0.0);
    }

    #[test]
    fn mlm_head_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut head = MlmHead::new(&mut rng, 8, 16);
        let hidden = init::randn(&mut rng, [6, 8], 1.0);
        let logits = head.forward(&hidden);
        assert_eq!(logits.dims(), &[6, 16]);
    }
}
