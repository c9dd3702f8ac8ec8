//! Kernel thread-pool checks (`AC0401`–`AC0402`).
//!
//! The blocked GEMM kernels in `actcomp-tensor` run on a per-call worker
//! pool whose size comes from (highest precedence first) an explicit
//! override, the `ACTCOMP_THREADS` environment variable, or the
//! machine's available parallelism. A pool of zero workers is
//! meaningless — the engine would deadlock before computing anything —
//! so both spellings of that mistake are rejected here: the
//! `runtime.kernel_threads` config field (`AC0401`) and the environment
//! variable itself (`AC0402`, sharing the exact predicate the runtime
//! uses via [`actcomp_tensor::pool::parse_thread_spec`], so the checker
//! and the engine can never disagree on what parses).

use crate::codes;
use crate::config::ExperimentConfig;
use crate::diagnostics::{Diagnostic, Diagnostics};
use actcomp_tensor::pool::{env_thread_spec, parse_thread_spec};

/// The kernel thread-pool pass: validates `runtime.kernel_threads` and
/// the `ACTCOMP_THREADS` environment variable.
pub fn check_kernels(cfg: &ExperimentConfig, diags: &mut Diagnostics) {
    if let Some(rt) = &cfg.runtime {
        check_kernel_threads_field(rt.kernel_threads, diags);
    }
    if let Some(v) = env_thread_spec() {
        check_env_spec(&v, diags);
    }
}

/// Validates the `runtime.kernel_threads` field (`AC0401`).
fn check_kernel_threads_field(kernel_threads: Option<usize>, diags: &mut Diagnostics) {
    if kernel_threads == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::KERNEL_THREADS_INVALID,
                "runtime.kernel_threads",
                "runtime.kernel_threads = 0: the GEMM worker pool needs at least one thread"
                    .to_string(),
            )
            .with_help(
                "use a positive count, or omit the field to resolve it from \
                 ACTCOMP_THREADS / available parallelism",
            ),
        );
    }
}

/// Validates an `ACTCOMP_THREADS` value (`AC0402`). Split from the
/// environment read so tests can exercise it without mutating the
/// process environment.
fn check_env_spec(value: &str, diags: &mut Diagnostics) {
    if let Err(e) = parse_thread_spec(value) {
        diags.push(
            Diagnostic::error(
                codes::ENV_THREADS_INVALID,
                "env.ACTCOMP_THREADS",
                format!("ACTCOMP_THREADS={value:?} is invalid: {e}"),
            )
            .with_help(
                "set a positive integer thread count, or unset the variable \
                 to use available parallelism",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunSpec;

    fn codes_of(diags: Diagnostics) -> Vec<&'static str> {
        diags.into_vec().iter().map(|d| d.code).collect()
    }

    #[test]
    fn absent_field_is_clean() {
        let mut diags = Diagnostics::new();
        check_kernel_threads_field(None, &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn positive_field_is_clean() {
        let mut diags = Diagnostics::new();
        check_kernel_threads_field(Some(8), &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn zero_field_is_rejected() {
        let mut diags = Diagnostics::new();
        check_kernel_threads_field(Some(0), &mut diags);
        assert_eq!(codes_of(diags), vec![codes::KERNEL_THREADS_INVALID]);
    }

    #[test]
    fn config_section_feeds_the_pass() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.runtime = Some(RunSpec {
            kernel_threads: Some(0),
            ..RunSpec::default()
        });
        let mut diags = Diagnostics::new();
        check_kernels(&cfg, &mut diags);
        assert!(codes_of(diags).contains(&codes::KERNEL_THREADS_INVALID));
    }

    #[test]
    fn env_specs_share_the_runtime_predicate() {
        for bad in ["0", "", "  ", "eight", "-2", "1.5"] {
            let mut diags = Diagnostics::new();
            check_env_spec(bad, &mut diags);
            assert_eq!(
                codes_of(diags),
                vec![codes::ENV_THREADS_INVALID],
                "expected {bad:?} to be rejected"
            );
        }
        for good in ["1", "8", " 4 "] {
            let mut diags = Diagnostics::new();
            check_env_spec(good, &mut diags);
            assert!(diags.into_vec().is_empty(), "expected {good:?} to pass");
        }
    }
}
