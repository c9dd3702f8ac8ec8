//! The experiment-configuration schema `actcomp check` validates.
//!
//! An [`ExperimentConfig`] is the static description of one model-parallel
//! training run: model geometry, `(TP, PP)` degrees, the cluster it is
//! placed on, batch geometry, the pipeline schedule, and the compression
//! plan. It deliberately mirrors `distsim::TrainSetup` but stays in the
//! "stringly" domain (spec labels, preset names) so that *resolution
//! failures are diagnostics, not panics* — the whole point of a static
//! validator.

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_distsim::hardware::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Transformer geometry (the shape algebra's input).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSection {
    /// Encoder layers.
    pub layers: usize,
    /// Hidden width `h`.
    pub hidden: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Feed-forward inner width.
    pub ff_hidden: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Position-table size.
    pub max_seq: usize,
}

/// `(TP, PP)` degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismSection {
    /// Tensor model-parallel degree.
    pub tp: usize,
    /// Pipeline model-parallel degree.
    pub pp: usize,
}

/// The cluster the job is placed on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSection {
    /// Hardware preset: `p3_8xlarge`, `local_no_nvlink`, or `p3_cluster`.
    pub preset: String,
    /// Node count (`p3_cluster` honours it; single-node presets require 1).
    pub nodes: usize,
}

/// Batch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSection {
    /// Sequences per micro-batch.
    pub micro_batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Micro-batches per iteration.
    pub num_micro_batches: usize,
}

/// One forward/backward op in a custom pipeline schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSpec {
    /// Micro-batch index.
    pub mb: usize,
    /// Pipeline stage the op runs on.
    pub stage: usize,
    /// Backward (true) or forward (false).
    pub backward: bool,
}

/// Pipeline schedule selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleSection {
    /// `gpipe`, `1f1b`, or `custom`.
    pub kind: String,
    /// For `custom`: each stage's op order. Stage `s` owns `orders[s]`.
    pub orders: Option<Vec<Vec<OpSpec>>>,
}

/// Compression placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSection {
    /// Table 1 spec label (`w/o`, `A1`, `T3`, `Q2`, …).
    pub spec: String,
    /// First compressed layer; both `start_layer` and `num_layers` omitted
    /// means the paper's default (last half of the layers).
    pub start_layer: Option<usize>,
    /// Number of compressed layers.
    pub num_layers: Option<usize>,
    /// Auto-encoder code-dimension override (the paper's Figure 5
    /// bandwidth sweep). Only meaningful for AE-family specs.
    pub code_dim: Option<usize>,
    /// The compression ratio the experiment claims (e.g. copied from
    /// Table 1); checked against the actual wire-byte arithmetic.
    pub claimed_ratio: Option<f64>,
    /// Wrap compressors in error feedback (§3.3 extension hook).
    pub error_feedback: bool,
}

/// Per-device memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySection {
    /// Device memory in GB (16.0 for the paper's V100s).
    pub device_gb: f64,
}

/// Execution-backend selection for `actcomp-runtime`.
///
/// Absent means "serial executor, whole-batch steps" — the historical
/// behaviour — so existing configs keep validating unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSection {
    /// Execution backend: `threads` (one OS thread per rank), `serial`,
    /// or `procs` (one OS process per rank over sockets).
    pub backend: String,
    /// Worker-thread count; when given it must equal `tp * pp` (the
    /// threaded engine spawns exactly one thread per rank).
    pub threads: Option<usize>,
    /// Micro-batches per engine step (omitted: 1); must divide
    /// `batch.micro_batch`.
    pub micro_batches: Option<usize>,
    /// Optional rank→thread placement; must be a bijection over
    /// `0..tp*pp`.
    pub rank_map: Option<Vec<usize>>,
    /// Compute-kernel pool size *per rank* (the GEMM worker count, not
    /// the rank-thread count). Omitted: the engine resolves it from the
    /// `ACTCOMP_THREADS` environment variable, then available
    /// parallelism. Must be at least 1 when given.
    pub kernel_threads: Option<usize>,
    /// Rows per chunk in ring collectives. Omitted: each collective is
    /// split into four chunks. Must be at least 1 when given.
    pub chunk_rows: Option<usize>,
    /// Maximum reduce chunks the ring pipeline keeps in flight ahead of
    /// the broadcasts it has consumed. Omitted: 4. Must be at least 1
    /// when given.
    pub pipeline_depth: Option<usize>,
    /// Data-plane wire for the `procs` backend: `uds` (default) or
    /// `tcp`; `mpsc` is the in-process trait backend and cannot cross
    /// processes. Meaningless for other backends.
    pub transport: Option<String>,
    /// Outgoing per-rank bandwidth cap in Mbit/s; requires the `tcp`
    /// transport (the token bucket models a NIC, and only TCP runs on
    /// one).
    pub link_mbps: Option<f64>,
    /// Worker-process count for the `procs` backend; when given it must
    /// equal `tp * pp` (one process per rank).
    pub world_size: Option<usize>,
    /// Explicit per-rank listen addresses (`host:port` for `tcp`,
    /// filesystem paths for `uds`). Omitted: every rank binds an
    /// ephemeral address. When given, one address per rank, no
    /// collisions.
    pub listen: Option<Vec<String>>,
    /// Record comm events for conformance auditing (`actcomp run
    /// --audit`). Only the in-process backends can trace; the `procs`
    /// backend rejects it.
    pub trace: Option<bool>,
    /// Per-step response deadline in seconds for the `procs` launcher
    /// (omitted: 600). Must be positive and finite.
    pub step_timeout_s: Option<f64>,
    /// Worker rendezvous deadline in seconds for the `procs` launcher
    /// (omitted: 120). Must be positive and finite.
    pub rendezvous_timeout_s: Option<f64>,
    /// Deterministic fault-injection spec (`actcomp run --fault`
    /// grammar, e.g. `kill:rank=1@step=3` or `corrupt:frame=2,seed=7`).
    /// Only the `procs` backend injects faults.
    pub fault: Option<String>,
    /// Take a distributed checkpoint every N steps (`procs` backend
    /// only). Must be at least 1 when given.
    pub checkpoint_every: Option<usize>,
    /// Directory for checkpoint shards and the recovery manifest.
    pub checkpoint_dir: Option<String>,
    /// Worker-generation restarts the supervisor may attempt before
    /// giving up (`procs` backend only).
    pub max_restarts: Option<usize>,
    /// `actcomp serve`: most requests coalesced into one engine batch
    /// (omitted: 8). Must be at least 1 when given; serving requires
    /// the `threads` or `procs` backend.
    pub max_batch: Option<usize>,
    /// `actcomp serve`: microseconds the dispatcher waits to fill a
    /// batch beyond the first queued request (omitted: 200).
    pub batch_window_us: Option<u64>,
}

impl RuntimeSection {
    /// The threaded-backend default: thread count inferred from the
    /// parallelism degrees, one micro-batch, identity placement.
    pub fn threads_default() -> Self {
        RuntimeSection {
            backend: "threads".to_string(),
            threads: None,
            micro_batches: None,
            rank_map: None,
            kernel_threads: None,
            chunk_rows: None,
            pipeline_depth: None,
            transport: None,
            link_mbps: None,
            world_size: None,
            listen: None,
            trace: None,
            step_timeout_s: None,
            rendezvous_timeout_s: None,
            fault: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            max_restarts: None,
            max_batch: None,
            batch_window_us: None,
        }
    }

    /// Micro-batches per engine step after defaulting (omitted means 1).
    pub fn micro_batches(&self) -> usize {
        self.micro_batches.unwrap_or(1)
    }
}

/// A complete, statically checkable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Transformer geometry.
    pub model: ModelSection,
    /// `(TP, PP)` degrees.
    pub parallelism: ParallelismSection,
    /// Target cluster.
    pub cluster: ClusterSection,
    /// Batch geometry.
    pub batch: BatchSection,
    /// Pipeline schedule.
    pub schedule: ScheduleSection,
    /// Compression placement.
    pub plan: PlanSection,
    /// Device memory budget.
    pub memory: MemorySection,
    /// Execution backend (absent: serial executor, whole-batch steps).
    pub runtime: Option<RuntimeSection>,
}

impl ExperimentConfig {
    /// The paper's fine-tuning default: BERT-Large, TP=2 / PP=2 on the
    /// PCIe machine, batch 32 / seq 512, A1 on the last 12 layers.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            model: ModelSection {
                layers: 24,
                hidden: 1024,
                heads: 16,
                ff_hidden: 4096,
                vocab: 30_522,
                max_seq: 512,
            },
            parallelism: ParallelismSection { tp: 2, pp: 2 },
            cluster: ClusterSection {
                preset: "local_no_nvlink".to_string(),
                nodes: 1,
            },
            batch: BatchSection {
                micro_batch: 32,
                seq: 512,
                num_micro_batches: 1,
            },
            schedule: ScheduleSection {
                kind: "gpipe".to_string(),
                orders: None,
            },
            plan: PlanSection {
                spec: "A1".to_string(),
                start_layer: None,
                num_layers: None,
                code_dim: None,
                claimed_ratio: None,
                error_feedback: false,
            },
            memory: MemorySection { device_gb: 16.0 },
            runtime: None,
        }
    }

    /// The paper's pre-training setup: TP=4 / PP=4 across 4 p3.8xlarge
    /// nodes, micro-batch 128 / seq 128 / 8 micro-batches, A2 on the last
    /// 12 layers.
    pub fn paper_pretrain() -> Self {
        let mut cfg = Self::paper_default();
        cfg.parallelism = ParallelismSection { tp: 4, pp: 4 };
        cfg.cluster = ClusterSection {
            preset: "p3_cluster".to_string(),
            nodes: 4,
        };
        cfg.batch = BatchSection {
            micro_batch: 128,
            seq: 128,
            num_micro_batches: 8,
        };
        cfg.plan.spec = "A2".to_string();
        cfg
    }

    /// Parses a config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serializes the config as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Resolves the compressor spec label, if it names a Table 1 entry.
    pub fn resolve_spec(&self) -> Option<CompressorSpec> {
        resolve_spec_label(&self.plan.spec)
    }

    /// Resolves the compression plan, when the spec label resolves. The
    /// placement may still be out of bounds — that is the checker's job to
    /// report, so no bounds are enforced here.
    pub fn resolve_plan(&self) -> Option<CompressionPlan> {
        let spec = self.resolve_spec()?;
        if spec == CompressorSpec::Baseline {
            return Some(CompressionPlan::none());
        }
        let (start, num) = self.resolved_window();
        Some(CompressionPlan::window(spec, start, num))
    }

    /// The `(start_layer, num_layers)` compression window after defaulting:
    /// both omitted means the paper's last-half placement; a lone
    /// `num_layers` starts at layer 0; a lone `start_layer` covers half
    /// the model.
    pub fn resolved_window(&self) -> (usize, usize) {
        match (self.plan.start_layer, self.plan.num_layers) {
            (None, None) => {
                let n = self.model.layers / 2;
                (self.model.layers.saturating_sub(n), n)
            }
            (start, num) => (start.unwrap_or(0), num.unwrap_or(self.model.layers / 2)),
        }
    }

    /// Resolves the cluster preset, if recognized.
    pub fn resolve_cluster(&self) -> Option<ClusterSpec> {
        match self.cluster.preset.as_str() {
            "p3_8xlarge" => Some(ClusterSpec::p3_8xlarge()),
            "local_no_nvlink" => Some(ClusterSpec::local_no_nvlink()),
            "p3_cluster" => Some(ClusterSpec::p3_cluster(self.cluster.nodes.max(1))),
            _ => None,
        }
    }

    /// Device memory budget in bytes.
    pub fn device_bytes(&self) -> f64 {
        self.memory.device_gb * 1e9
    }
}

/// Looks up a Table 1 spec by its paper label (case-insensitive).
pub fn resolve_spec_label(label: &str) -> Option<CompressorSpec> {
    CompressorSpec::all()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let cfg = ExperimentConfig::paper_default();
        let json = cfg.to_json();
        let back = ExperimentConfig::from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn optional_plan_fields_may_be_omitted() {
        // All Option-typed keys (start_layer, num_layers, code_dim,
        // claimed_ratio, orders) are absent from this document.
        let json = r#"{
            "model": {"layers": 24, "hidden": 1024, "heads": 16,
                      "ff_hidden": 4096, "vocab": 30522, "max_seq": 512},
            "parallelism": {"tp": 2, "pp": 2},
            "cluster": {"preset": "local_no_nvlink", "nodes": 1},
            "batch": {"micro_batch": 32, "seq": 512, "num_micro_batches": 1},
            "schedule": {"kind": "gpipe"},
            "plan": {"spec": "A1", "error_feedback": false},
            "memory": {"device_gb": 16.0}
        }"#;
        let cfg = ExperimentConfig::from_json(json).expect("omitted optionals parse");
        assert_eq!(cfg, ExperimentConfig::paper_default());
        assert_eq!(cfg.plan.start_layer, None);
        assert_eq!(cfg.plan.claimed_ratio, None);
    }

    #[test]
    fn runtime_section_defaults_and_round_trips() {
        // Absent section: old documents keep parsing, field stays None.
        let cfg = ExperimentConfig::paper_default();
        assert_eq!(cfg.runtime, None);

        let mut cfg = cfg;
        cfg.runtime = Some(RuntimeSection::threads_default());
        let back = ExperimentConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        // micro_batches defaults to 1 when omitted from the document.
        let json = r#"{"backend": "threads"}"#;
        let section: RuntimeSection = serde_json::from_str(json).unwrap();
        assert_eq!(section.micro_batches(), 1);
        assert_eq!(section.threads, None);
        assert_eq!(section.rank_map, None);
        assert_eq!(section.kernel_threads, None);
    }

    #[test]
    fn spec_labels_resolve_case_insensitively() {
        assert_eq!(resolve_spec_label("a1"), Some(CompressorSpec::A1));
        assert_eq!(resolve_spec_label("w/o"), Some(CompressorSpec::Baseline));
        assert_eq!(resolve_spec_label("Q2"), Some(CompressorSpec::Q2));
        assert_eq!(resolve_spec_label("Z9"), None);
    }

    #[test]
    fn default_plan_is_last_half() {
        let plan = ExperimentConfig::paper_default().resolve_plan().unwrap();
        assert_eq!(plan.start_layer, 12);
        assert_eq!(plan.num_layers, 12);
    }

    #[test]
    fn cluster_presets_resolve() {
        let mut cfg = ExperimentConfig::paper_default();
        assert!(cfg.resolve_cluster().is_some());
        cfg.cluster.preset = "dgx_h100".to_string();
        assert!(cfg.resolve_cluster().is_none());
        cfg.cluster.preset = "p3_cluster".to_string();
        cfg.cluster.nodes = 4;
        assert_eq!(cfg.resolve_cluster().unwrap().total_gpus(), 16);
    }
}
