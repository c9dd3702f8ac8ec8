//! The experiment-configuration schema `actcomp check` validates.
//!
//! An [`ExperimentConfig`] is the static description of one model-parallel
//! training run: model geometry, `(TP, PP)` degrees, the cluster it is
//! placed on, batch geometry, the pipeline schedule, and the compression
//! plan. It deliberately mirrors `distsim::TrainSetup` but stays in the
//! "stringly" domain (spec labels, preset names) so that *resolution
//! failures are diagnostics, not panics* — the whole point of a static
//! validator.

use crate::codes;
use crate::diagnostics::Diagnostic;
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_distsim::hardware::ClusterSpec;
use actcomp_net::{FaultPlan, TransportKind};
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

/// Where a run's ranks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per rank.
    #[default]
    Threads,
    /// The single-threaded `MpBert` executor.
    Serial,
    /// One OS process per rank over sockets.
    Procs,
}

impl Backend {
    const ALL: [Backend; 3] = [Backend::Threads, Backend::Serial, Backend::Procs];

    /// The label the CLI and the JSON form spell this backend with.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Serial => "serial",
            Backend::Procs => "procs",
        }
    }

    /// Parses a backend label.
    ///
    /// # Errors
    ///
    /// `AC0301` for a label that names no backend.
    pub fn parse(label: &str) -> Result<Backend, Diagnostic> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == label)
            .ok_or_else(|| {
                Diagnostic::error(
                    codes::UNKNOWN_BACKEND,
                    "runtime.backend",
                    format!("unknown execution backend `{label}`"),
                )
                .with_help("known backends: threads, serial, procs")
            })
    }
}

/// The data-plane wire a run's ranks talk over (the `procs` backend's
/// `runtime.transport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire(pub TransportKind);

impl Wire {
    /// Parses a transport label.
    ///
    /// # Errors
    ///
    /// `AC0701` for a label that names no transport.
    pub fn parse(label: &str) -> Result<Wire, Diagnostic> {
        TransportKind::parse(label).map(Wire).map_err(|_| {
            Diagnostic::error(
                codes::TRANSPORT_UNKNOWN,
                "runtime.transport",
                format!("unknown transport `{label}`"),
            )
            .with_help("known transports: mpsc, uds, tcp")
        })
    }
}

/// A deterministic fault-injection plan together with the spec it was
/// parsed from (`actcomp run --fault` grammar, e.g. `kill:rank=1@step=3`
/// or `corrupt:frame=2,seed=7`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    text: String,
    plan: FaultPlan,
}

impl FaultSpec {
    /// Parses a fault spec.
    ///
    /// # Errors
    ///
    /// `AC0801` for a spec that does not parse.
    pub fn parse(text: &str) -> Result<FaultSpec, Diagnostic> {
        match FaultPlan::parse(text) {
            Ok(plan) => Ok(FaultSpec {
                text: text.to_string(),
                plan,
            }),
            Err(e) => Err(Diagnostic::error(
                codes::FAULT_SPEC_INVALID,
                "runtime.fault",
                format!("fault spec `{text}` does not parse: {e}"),
            )
            .with_help(
                "grammar: kill:rank=R@step=K | drop|dup|corrupt|sever:frame=N[,rank=R] \
                 | delay:frame=N,ms=M | <kind>:p=P[,seed=S]",
            )),
        }
    }

    /// The parsed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// Serializes a label type as its label string; deserializes through
/// its `parse`, so a label that does not parse fails with the rendered
/// diagnostic, code included.
macro_rules! label_serde {
    ($ty:ty, |$x:ident| $label:expr) => {
        impl Serialize for $ty {
            fn to_value(&self) -> serde::Value {
                let $x = self;
                serde::Value::Str($label.to_string())
            }
        }
        impl Deserialize for $ty {
            fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
                <$ty>::parse(&String::from_value(v)?).map_err(|d| serde::Error::custom(d.render()))
            }
        }
    };
}
label_serde!(Backend, |b| b.name());
label_serde!(Wire, |w| w.0.name());
label_serde!(FaultSpec, |f| f.text);

/// The run spec: how an experiment executes. Parsed once — from the
/// command line by `actcomp run` / `serve`, or from the `runtime`
/// section of a config by `actcomp check` — validated by the same
/// checker passes either way, and shipped whole to every `procs`
/// worker. Labels are typed: a backend, transport or fault spec that
/// does not parse is refused when the spec is built, with its code.
///
/// Absent from a config means "serial executor, whole-batch steps" —
/// the historical behaviour — so existing configs keep validating
/// unchanged.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSpec {
    /// Execution backend.
    pub backend: Backend,
    /// Micro-batches per engine step (omitted: 1); must divide
    /// `batch.micro_batch`.
    pub micro_batches: Option<usize>,
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
    pub transport: Option<Wire>,
    /// Outgoing per-rank bandwidth cap in Mbit/s; requires the `tcp`
    /// transport (the token bucket models a NIC, and only TCP runs on
    /// one).
    pub link_mbps: Option<f64>,
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
    /// Deterministic fault injection. Only the `procs` backend injects
    /// faults.
    pub fault: Option<FaultSpec>,
    /// Take a distributed checkpoint every N steps (`procs` backend
    /// only). Must be at least 1 when given.
    pub checkpoint_every: Option<usize>,
    /// Directory for checkpoint shards and the recovery manifest
    /// (omitted: `CKPT_actcomp`).
    pub checkpoint_dir: Option<String>,
    /// Worker-generation restarts the supervisor may attempt before
    /// giving up (`procs` backend only; omitted: 2 when the run injects
    /// faults or checkpoints, else 0).
    pub max_restarts: Option<usize>,
    /// `actcomp serve`: most requests coalesced into one engine batch
    /// (omitted: 8). Must be at least 1 when given; serving requires
    /// the `threads` or `procs` backend.
    pub max_batch: Option<usize>,
    /// `actcomp serve`: microseconds the dispatcher waits to fill a
    /// batch beyond the first queued request (omitted: 200).
    pub batch_window_us: Option<u64>,
    /// `actcomp serve`: engine batches in flight at once (omitted: 2).
    /// Must be at least 1 when given.
    pub depth: Option<usize>,
}

impl RunSpec {
    /// Micro-batches per engine step after defaulting (omitted means 1).
    pub fn micro_batches(&self) -> usize {
        self.micro_batches.unwrap_or(1)
    }

    /// The `procs` data-plane wire after defaulting (omitted means UDS).
    pub fn transport(&self) -> TransportKind {
        self.transport.map_or(TransportKind::Uds, |w| w.0)
    }

    /// True when the run opts into the fault-tolerance machinery
    /// (injected faults or periodic checkpoints).
    pub fn fault_tolerant(&self) -> bool {
        self.fault.is_some() || self.checkpoint_every.is_some()
    }

    /// Restarts the supervisor may attempt: explicit, else on (2) as
    /// soon as the run is fault-tolerant, else fail-fast (0).
    pub fn max_restarts(&self) -> usize {
        self.max_restarts
            .unwrap_or(if self.fault_tolerant() { 2 } else { 0 })
    }

    /// The checkpoint directory after defaulting.
    pub fn checkpoint_dir(&self) -> &str {
        self.checkpoint_dir.as_deref().unwrap_or("CKPT_actcomp")
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
    /// How the experiment executes (absent: serial executor,
    /// whole-batch steps).
    pub runtime: Option<RunSpec>,
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

    /// The run spec, defaulted when the config has no `runtime` section.
    pub fn run_spec(&self) -> RunSpec {
        self.runtime.clone().unwrap_or_default()
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
        cfg.runtime = Some(RunSpec::default());
        let back = ExperimentConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        // Typed labels round-trip as their labels.
        let mut spec = RunSpec {
            backend: Backend::Procs,
            transport: Some(Wire(TransportKind::Tcp)),
            fault: Some(FaultSpec::parse("kill:rank=1@step=3").unwrap()),
            ..RunSpec::default()
        };
        spec.link_mbps = Some(200.0);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains(r#""backend":"procs""#), "{json}");
        assert!(json.contains(r#""fault":"kill:rank=1@step=3""#), "{json}");
        assert_eq!(serde_json::from_str::<RunSpec>(&json).unwrap(), spec);

        // micro_batches defaults to 1 when omitted from the document.
        let json = r#"{"backend": "threads"}"#;
        let section: RunSpec = serde_json::from_str(json).unwrap();
        assert_eq!(section, RunSpec::default());
        assert_eq!(section.micro_batches(), 1);
        assert_eq!(section.transport(), TransportKind::Uds);

        // A label that does not parse is refused with its code.
        for (json, code) in [
            (r#"{"backend": "mpi"}"#, codes::UNKNOWN_BACKEND),
            (
                r#"{"backend": "procs", "transport": "rdma"}"#,
                codes::TRANSPORT_UNKNOWN,
            ),
            (
                r#"{"backend": "procs", "fault": "explode"}"#,
                codes::FAULT_SPEC_INVALID,
            ),
        ] {
            let err = serde_json::from_str::<RunSpec>(json).unwrap_err();
            assert!(err.to_string().contains(code), "{json}: {err}");
        }
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
