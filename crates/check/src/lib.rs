//! `actcomp-check`: static validation for parallel execution configs.
//!
//! The paper's experiments weave together three things that can silently
//! disagree: the transformer's *shape algebra* (can the tensors be
//! TP-sharded at all?), the *compression plan* (does the spec resolve,
//! does its placement fit, does the wire math add up?), and the
//! *schedule/topology* (does the pipeline deadlock, do the degrees fit
//! the cluster, does everything fit in device memory?). This crate checks
//! all of it **before** any simulation or training runs, collecting every
//! violation — not just the first — into rustc-style diagnostics.
//!
//! ```
//! use actcomp_check::{check, ExperimentConfig};
//!
//! let mut cfg = ExperimentConfig::paper_default();
//! assert!(check(&cfg).is_empty());
//!
//! cfg.parallelism.tp = 3; // 16 heads and ff 4096 don't shard by 3
//! let diags = check(&cfg);
//! assert!(diags.iter().any(|d| d.code == "AC0002"));
//! ```

pub mod codes;
pub mod collectives;
pub mod comm_graph;
pub mod config;
pub mod diagnostics;
pub mod graph;
pub mod kernels;
pub mod plan;
pub mod runtime;
pub mod schedule;
pub mod shape;
pub mod steps;

pub use comm_graph::{
    analyze, audit_trace, build_comm_graph, check_comm_protocol, ChannelId, CommEvent, CommGraph,
    Dir, ExpectedCounters, MsgId, Phase, TraceEvent,
};
pub use config::{
    resolve_spec_label, Backend, BatchSection, ClusterSection, ExperimentConfig, FaultSpec,
    MemorySection, ModelSection, OpSpec, ParallelismSection, PlanSection, RunSpec, ScheduleSection,
    Wire,
};
pub use diagnostics::{render_report, Diagnostic, Diagnostics, Severity};
pub use shape::{shape_trace, ShapeStep};

/// A rejected configuration: the full diagnostic set plus its rendering.
#[derive(Debug, Clone)]
pub struct CheckError {
    /// Every finding, errors and warnings alike.
    pub diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&render_report(&self.diagnostics))
    }
}

impl std::error::Error for CheckError {}

/// Runs every check pass, returning all findings in pass order
/// (shape, plan, schedule, runtime, kernels, collectives, graph). An
/// empty vector means the config is clean.
pub fn check(cfg: &ExperimentConfig) -> Vec<Diagnostic> {
    let mut diags = Diagnostics::new();
    shape::check_shapes(cfg, &mut diags);
    plan::check_plan(cfg, &mut diags);
    schedule::check_schedule(cfg, &mut diags);
    runtime::check_runtime(cfg, &mut diags);
    kernels::check_kernels(cfg, &mut diags);
    collectives::check_collectives(cfg, &mut diags);
    graph::check_graph(cfg, &mut diags);
    diags.into_vec()
}

/// Validates a config: `Ok(warnings)` when runnable (warnings may remain),
/// `Err` carrying every diagnostic when any error was found.
pub fn validate(cfg: &ExperimentConfig) -> Result<Vec<Diagnostic>, Box<CheckError>> {
    let diags = check(cfg);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        Err(Box::new(CheckError { diagnostics: diags }))
    } else {
        Ok(diags)
    }
}

/// Validates or panics with the rendered report — the guard simulator and
/// benchmark entry points call this so a broken config dies with the full
/// diagnosis instead of a mid-run assertion.
///
/// # Panics
///
/// Panics when the config has any error-severity diagnostic.
pub fn assert_valid(cfg: &ExperimentConfig) {
    if let Err(e) = validate(cfg) {
        panic!("invalid experiment configuration\n{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_clean() {
        assert_eq!(check(&ExperimentConfig::paper_default()), vec![]);
        assert!(validate(&ExperimentConfig::paper_default()).is_ok());
    }

    #[test]
    fn paper_pretrain_has_no_errors() {
        // tp=4 pads the 30522-entry vocab: warning only.
        let warnings = validate(&ExperimentConfig::paper_pretrain()).unwrap();
        assert!(warnings.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn every_pass_contributes_to_one_report() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.parallelism.tp = 3; // shape: AC0002 + AC0003 (+ AC0007 warning)
        cfg.plan.spec = "Z9".to_string(); // plan: AC0102
        cfg.cluster.preset = "dgx".to_string(); // schedule: AC0207
        cfg.runtime = Some(RunSpec {
            micro_batches: Some(5),  // runtime: AC0303
            kernel_threads: Some(0), // kernels: AC0401
            chunk_rows: Some(0),     // collectives: AC0501
            pipeline_depth: Some(0), // collectives: AC0502
            ..RunSpec::default()
        });
        let diags = check(&cfg);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        for expected in [
            "AC0002", "AC0003", "AC0102", "AC0207", "AC0303", "AC0401", "AC0501", "AC0502",
        ] {
            assert!(codes.contains(&expected), "missing {expected} in {codes:?}");
        }
        let err = validate(&cfg).unwrap_err();
        let report = err.to_string();
        assert!(report.contains("configuration rejected"));
    }

    #[test]
    #[should_panic(expected = "invalid experiment configuration")]
    fn assert_valid_panics_with_report() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.parallelism.pp = 30;
        assert_valid(&cfg);
    }

    #[test]
    fn every_registered_code_is_used_consistently() {
        // The registry's warning-only flags must agree with what the
        // passes actually emit for representative violations.
        let warning_only: Vec<&str> = codes::registry()
            .iter()
            .filter(|r| r.warning_only)
            .map(|r| r.code)
            .collect();
        assert_eq!(warning_only, vec!["AC0007", "AC0105", "AC0206"]);
    }
}
