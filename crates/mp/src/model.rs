//! The full model-parallel BERT: sharded encoder layers, pipeline
//! boundaries, and per-layer compression placement — the numerically-real
//! counterpart of the system the paper builds on Megatron-LM.

use crate::error::MpConfigError;
use crate::pp::PipelineBoundary;
use crate::reduce::{CommBytes, InProcess};
use crate::tp::{Block, SumPoint};
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_compress::{Compressor, ErrorFeedback};
use actcomp_nn::{BertConfig, BertEncoder, Embedding, Layer, LayerNorm, Parameter};
use actcomp_tensor::{Tensor, Workspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a model-parallel training run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MpConfig {
    /// Architecture.
    pub bert: BertConfig,
    /// Tensor model-parallel degree.
    pub tp: usize,
    /// Pipeline model-parallel degree.
    pub pp: usize,
    /// Which layers are compressed, and how.
    pub plan: CompressionPlan,
    /// Expected tokens per forward pass (`batch · seq`), used to size
    /// sparsifier element counts exactly as the paper's Table 1 does.
    pub tokens: usize,
    /// Wrap every compressor in an [`actcomp_compress::ErrorFeedback`]
    /// accumulator (§3.3: "our implementation also allows the integration
    /// of error-feedback compression algorithms").
    pub error_feedback: bool,
}

impl MpConfig {
    /// Typed variant of [`MpConfig::validate`].
    pub fn try_validate(&self) -> Result<(), MpConfigError> {
        self.bert.try_validate()?;
        if self.tp == 0 || self.pp == 0 {
            return Err(MpConfigError::NonPositiveDegrees);
        }
        if !self.bert.heads.is_multiple_of(self.tp) {
            return Err(MpConfigError::HeadsNotDivisibleByTp {
                heads: self.bert.heads,
                tp: self.tp,
            });
        }
        if self.bert.layers < self.pp {
            return Err(MpConfigError::TooFewLayersForPp {
                layers: self.bert.layers,
                pp: self.pp,
            });
        }
        if self.plan.end_layer() > self.bert.layers {
            return Err(MpConfigError::PlanExceedsLayers);
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if degrees don't divide the architecture.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// A BERT encoder executed with (simulated but numerically real) tensor
/// and pipeline model parallelism, with activation compression installed
/// per the configured [`CompressionPlan`].
///
/// Built by sharding a serial [`BertEncoder`]; with the plan inactive, its
/// outputs match the serial model to floating-point tolerance.
#[derive(Debug)]
pub struct MpBert {
    /// Token embedding (replicated; first stage).
    pub tok: Embedding,
    /// Position embedding (replicated; first stage).
    pub pos: Embedding,
    /// Embedding layer norm.
    pub emb_ln: LayerNorm,
    /// Per layer, a block over every TP shard and the sums it runs.
    layers: Vec<(Block, InProcess)>,
    /// `pp − 1` boundaries; `boundaries[b]` sits before the first layer of
    /// stage `b + 1`.
    boundaries: Vec<PipelineBoundary>,
    stage_offsets: Vec<usize>,
    config: MpConfig,
    /// The layers' scratch and compiled plans, as a rank owns its own.
    ws: Workspace,
}

impl MpBert {
    /// Builds the model from a fresh serial initialization.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`MpBert::try_new`] is the
    /// non-panicking variant.
    pub fn new(rng: &mut ChaCha8Rng, config: MpConfig) -> Self {
        match Self::try_new(rng, config) {
            Ok(mp) => mp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Typed variant of [`MpBert::new`].
    pub fn try_new(rng: &mut ChaCha8Rng, config: MpConfig) -> Result<Self, MpConfigError> {
        config.try_validate()?;
        let serial = BertEncoder::new(rng, config.bert.clone());
        Self::try_from_serial(&serial, config, rng)
    }

    /// Shards an existing serial encoder (used to compare compressed runs
    /// against an identically-initialized baseline, and to "load a
    /// checkpoint" into a different parallel layout as §4.4 does).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`MpBert::try_from_serial`] is
    /// the non-panicking variant.
    pub fn from_serial(serial: &BertEncoder, config: MpConfig, rng: &mut ChaCha8Rng) -> Self {
        match Self::try_from_serial(serial, config, rng) {
            Ok(mp) => mp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Typed variant of [`MpBert::from_serial`].
    pub fn try_from_serial(
        serial: &BertEncoder,
        config: MpConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, MpConfigError> {
        config.try_validate()?;
        let n = config.tokens * config.bert.hidden;
        let recipe = CompressorRecipe::draw(&config, rng);
        let layers = (serial.layers.iter().enumerate())
            .map(|(l, layer)| {
                let block = Block::new(layer, config.tp, 0..config.tp).expect("validated config");
                let workers = (0..config.tp)
                    .map(|_| SumPoint::ALL.map(|at| recipe.reduce(&config, l, at, n)));
                (block, InProcess::with(workers.collect()))
            })
            .collect();
        let boundaries = (0..config.pp - 1)
            .map(|b| PipelineBoundary::new(recipe.boundary(&config, b, n)))
            .collect();

        Ok(MpBert {
            tok: serial.tok.clone(),
            pos: serial.pos.clone(),
            emb_ln: serial.emb_ln.clone(),
            layers,
            boundaries,
            stage_offsets: stage_offsets(config.bert.layers, config.pp),
            config,
            ws: Workspace::new(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &MpConfig {
        &self.config
    }

    /// How many layer plans this model has compiled: flat once every
    /// shape it runs has been seen.
    pub fn plan_compiles(&self) -> u64 {
        self.ws.plan_compiles()
    }

    /// Cumulative model-parallel traffic since construction.
    pub fn bytes(&self) -> CommBytes {
        let mut bytes = CommBytes::default();
        for (_, sums) in &self.layers {
            bytes.add(sums.bytes());
        }
        bytes
    }

    /// Forward pass: embeds `ids` and runs all stages/layers, applying
    /// pipeline-boundary compression between stages and tensor-parallel
    /// compression inside covered layers.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != batch * seq` or `seq` exceeds the model's
    /// maximum.
    pub fn forward(&mut self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(ids.len(), batch * seq, "ids length != batch*seq");
        assert!(seq <= self.config.bert.max_seq, "sequence too long");
        let tok = self.tok.forward(ids);
        let pos_ids: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
        let pos = self.pos.forward(&pos_ids);
        let mut x = self.emb_ln.forward(&tok.add(&pos));
        for l in 0..self.layers.len() {
            if let Some(b) = self.boundary_before(l) {
                x = self.boundaries[b].forward(&x);
            }
            let (block, sums) = &mut self.layers[l];
            // One micro-batch: a forward replaces the last one's cache,
            // so forward-only evaluation does not grow it.
            block.clear_caches(&mut self.ws);
            x = block.forward(&x, batch, seq, &mut sums.ring(), &mut self.ws);
        }
        x
    }

    /// Backward pass from the gradient of the final hidden states.
    pub fn backward(&mut self, dhidden: &Tensor) {
        let mut d = dhidden.clone();
        for l in (0..self.layers.len()).rev() {
            let (block, sums) = &mut self.layers[l];
            d = block.backward(&d, &mut sums.ring(), &mut self.ws);
            if let Some(b) = self.boundary_before(l) {
                d = self.boundaries[b].backward(&d);
            }
        }
        let demb = self.emb_ln.backward(&d);
        self.tok.backward(&demb);
        self.pos.backward(&demb);
        for (_, sums) in &mut self.layers {
            sums.sync_param_grads();
        }
    }

    /// Index of the boundary crossed *before* layer `l`, if any.
    fn boundary_before(&self, l: usize) -> Option<usize> {
        self.stage_offsets
            .iter()
            .position(|&o| o == l)
            .and_then(|stage| stage.checked_sub(1))
    }

    /// Visits model parameters (embeddings, norms, sharded layers).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.emb_ln.visit_params(f);
        for (block, _) in &mut self.layers {
            block.visit_params(f);
        }
    }

    /// Visits compressor parameters (auto-encoder matrices at TP reduces
    /// and pipeline boundaries).
    pub fn visit_compressor_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for (_, sums) in &mut self.layers {
            sums.visit_params(f);
        }
        for b in &mut self.boundaries {
            b.visit_params(f);
        }
    }

    /// Visits model and compressor parameters (everything the optimizer
    /// updates).
    pub fn visit_all_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.visit_params(f);
        self.visit_compressor_params(f);
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_all_params(&mut |p| p.zero_grad());
    }

    /// Total trainable scalars, including compressor parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_all_params(&mut |p| n += p.len());
        n
    }

    /// Reassembles a serial checkpoint from the sharded weights,
    /// *dropping* all compressor parameters — the paper's §4.4 workflow:
    /// "we can use the AE at the pre-training phase and remove it during
    /// the fine-tuning phase".
    pub fn to_serial(&self) -> BertEncoder {
        let layers = self
            .layers
            .iter()
            .map(|(block, _)| block.to_serial())
            .collect();
        BertEncoder::from_parts(
            self.tok.clone(),
            self.pos.clone(),
            self.emb_ln.clone(),
            layers,
            self.config.bert.clone(),
        )
    }
}

/// First (global) layer index of each of `pp` stages over `layers` layers.
///
/// Extra layers (when `pp` doesn't divide `layers`) are front-loaded onto
/// the earliest stages. Shared with the threaded runtime so both
/// executions agree on the stage → layer mapping.
pub fn stage_offsets(layers: usize, pp: usize) -> Vec<usize> {
    let base = layers / pp;
    let extra = layers % pp;
    let mut offsets = Vec::with_capacity(pp);
    let mut acc = 0;
    for s in 0..pp {
        offsets.push(acc);
        acc += base + usize::from(s < extra);
    }
    offsets
}

/// Every compressor seed of a run, and the rules that turn one into a
/// compressor: the one recipe the serial builder and every rank, thread
/// or process, build from, so all hold identical compressor stacks.
#[derive(Debug, Clone)]
pub struct CompressorRecipe {
    reduces: Vec<[u64; 2]>,
    boundaries: Vec<Option<u64>>,
}

impl CompressorRecipe {
    /// Draws the seeds from `rng`: one per forward sum (attention then
    /// MLP, in layer order), then one per compressed pipeline boundary.
    pub fn draw(config: &MpConfig, rng: &mut impl Rng) -> Self {
        let reduces = (0..config.bert.layers)
            .map(|_| [rng.gen(), rng.gen()])
            .collect();
        let offsets = stage_offsets(config.bert.layers, config.pp);
        let boundaries = (offsets.iter().skip(1))
            .map(|&first| config.plan.covers(first).then(|| rng.gen()))
            .collect();
        CompressorRecipe {
            reduces,
            boundaries,
        }
    }

    /// The compressor at forward sum `at` of layer `l`, sized for sums
    /// of `n` elements: the plan's spec when the plan covers the layer
    /// and `tp > 1` (`tp = 1` has no all-reduce), `None` — a dense sum —
    /// otherwise. Each worker's compressor at a sum comes from the sum's
    /// one seed, so auto-encoder weights are replicated.
    pub fn reduce(
        &self,
        config: &MpConfig,
        l: usize,
        at: SumPoint,
        n: usize,
    ) -> Option<Box<dyn Compressor>> {
        let covered = config.tp > 1 && config.plan.covers(l);
        covered.then(|| Self::build(config, config.plan.spec, self.reduces[l][at as usize], n))
    }

    /// The compressor at pipeline boundary `b`, sized for activations of
    /// `n` elements: the plan's spec when the plan covers the layer after
    /// it, the lossless baseline otherwise.
    pub fn boundary(&self, config: &MpConfig, b: usize, n: usize) -> Box<dyn Compressor> {
        let seed = self.boundaries[b];
        let spec = seed.map_or(CompressorSpec::Baseline, |_| config.plan.spec);
        Self::build(config, spec, seed.unwrap_or(0), n)
    }

    /// `spec` drawn from `seed`, wrapped in error feedback when the
    /// config asks for it and the spec is lossy.
    fn build(config: &MpConfig, spec: CompressorSpec, seed: u64, n: usize) -> Box<dyn Compressor> {
        let c = spec.build(&mut ChaCha8Rng::seed_from_u64(seed), n, config.bert.hidden);
        if config.error_feedback && spec != CompressorSpec::Baseline {
            Box::new(ErrorFeedback::new(c))
        } else {
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(tp: usize, pp: usize, plan: CompressionPlan) -> MpConfig {
        MpConfig {
            bert: BertConfig {
                vocab: 32,
                hidden: 16,
                layers: 4,
                heads: 4,
                ff_hidden: 32,
                max_seq: 8,
            },
            tp,
            pp,
            plan,
            tokens: 2 * 4,
            error_feedback: false,
        }
    }

    #[test]
    fn uncompressed_mp_matches_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg = tiny_config(2, 2, CompressionPlan::none());
        let mut serial = BertEncoder::new(&mut rng, cfg.bert.clone());
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let mut mp = MpBert::from_serial(&serial, cfg, &mut rng2);
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let want = serial.forward(&ids, 2, 4);
        let got = mp.forward(&ids, 2, 4);
        // Four layers, two sums of two parts each, every part's partial
        // sum rounded to bfloat16 (8 significant bits): at most 2⁻⁸ of
        // the output's scale per rounding.
        let (diff, bound) = (
            got.max_abs_diff(&want),
            16.0 * 2f32.powi(-8) * want.abs_max(),
        );
        assert!(diff <= bound, "diff {diff} > {bound}");
    }

    #[test]
    fn stage_offsets_balanced() {
        assert_eq!(stage_offsets(24, 4), vec![0, 6, 12, 18]);
        assert_eq!(stage_offsets(4, 2), vec![0, 2]);
        assert_eq!(stage_offsets(5, 2), vec![0, 3]);
    }

    #[test]
    fn boundary_placement_follows_plan() {
        // Compress last 2 of 4 layers, PP=2: boundary feeds stage 1 whose
        // first layer (2) is covered → boundary compressed → traffic ratio > 1.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plan = CompressionPlan::last_layers(CompressorSpec::Q2, 4, 2);
        let mut mp = MpBert::new(&mut rng, tiny_config(1, 2, plan));
        let ids = [1usize; 8];
        let _ = mp.forward(&ids, 2, 4);
        let boundary_bytes = mp.boundaries[0].bytes();
        assert!(
            boundary_bytes.ratio() > 2.0,
            "ratio {}",
            boundary_bytes.ratio()
        );
    }

    #[test]
    fn tp1_applies_no_tensor_compression() {
        // With TP=1 there is no all-reduce; compression must not perturb
        // the math inside layers (only at the PP boundary).
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cfg_plan = CompressionPlan::last_layers(CompressorSpec::A1, 4, 2);
        let serial_cfg = tiny_config(1, 1, CompressionPlan::none());
        let mut serial = BertEncoder::new(&mut rng, serial_cfg.bert.clone());
        let mut rng2 = ChaCha8Rng::seed_from_u64(3);
        let mut mp = MpBert::from_serial(&serial, tiny_config(1, 1, cfg_plan), &mut rng2);
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let want = serial.forward(&ids, 2, 4);
        let got = mp.forward(&ids, 2, 4);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn compression_perturbs_but_training_signal_flows() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let plan = CompressionPlan::last_layers(CompressorSpec::Q2, 4, 2);
        let cfg = tiny_config(2, 2, plan);
        let mut serial = BertEncoder::new(&mut rng, cfg.bert.clone());
        let mut rng2 = ChaCha8Rng::seed_from_u64(5);
        let mut mp = MpBert::from_serial(&serial, cfg, &mut rng2);
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let want = serial.forward(&ids, 2, 4);
        let got = mp.forward(&ids, 2, 4);
        let diff = got.max_abs_diff(&want);
        assert!(diff > 1e-6, "4-bit quantization should perturb the output");

        mp.zero_grad();
        mp.backward(&Tensor::ones([8, 16]));
        let mut grad_mass = 0.0;
        mp.visit_params(&mut |p| grad_mass += p.grad.sq_norm());
        assert!(grad_mass > 0.0, "gradients must flow through compression");
    }

    #[test]
    fn param_count_includes_ae_when_active() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let plan = CompressionPlan::last_layers(CompressorSpec::A2, 4, 2);
        let mut with_ae = MpBert::new(&mut rng, tiny_config(2, 2, plan));
        let mut rng2 = ChaCha8Rng::seed_from_u64(6);
        let mut without = MpBert::new(&mut rng2, tiny_config(2, 2, CompressionPlan::none()));
        assert!(with_ae.num_params() > without.num_params());
    }

    #[test]
    #[should_panic(expected = "not divisible by TP")]
    fn config_validation_rejects_bad_tp() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut cfg = tiny_config(1, 1, CompressionPlan::none());
        cfg.tp = 3;
        MpBert::new(&mut rng, cfg);
    }
}

#[cfg(test)]
mod serial_round_trip_tests {
    use super::*;

    #[test]
    fn to_serial_round_trips_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let cfg = MpConfig {
            bert: BertConfig {
                vocab: 32,
                hidden: 16,
                layers: 4,
                heads: 4,
                ff_hidden: 32,
                max_seq: 8,
            },
            tp: 2,
            pp: 2,
            plan: CompressionPlan::last_layers(CompressorSpec::A2, 4, 2),
            tokens: 8,
            error_feedback: false,
        };
        let mut serial = BertEncoder::new(&mut rng, cfg.bert.clone());
        let mut rng2 = ChaCha8Rng::seed_from_u64(12);
        let mp = MpBert::from_serial(&serial, cfg, &mut rng2);
        let mut rebuilt = mp.to_serial();

        // Identical forward outputs (compressors dropped, weights exact).
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let want = serial.forward(&ids, 2, 4);
        let got = rebuilt.forward(&ids, 2, 4);
        assert!(
            got.max_abs_diff(&want) < 1e-6,
            "round-trip diff {}",
            got.max_abs_diff(&want)
        );
        assert_eq!(rebuilt.num_params(), serial.num_params());
    }
}
