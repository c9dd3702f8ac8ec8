//! Execution-backend checks (`AC0303`), multi-process transport checks
//! (`AC0701`–`AC0705`), fault-injection / recovery checks
//! (`AC0802`–`AC0805`), and serving checks (`AC1001`–`AC1002`).
//!
//! A label that names nothing — a backend (`AC0301`), a transport
//! (`AC0701`) or a fault spec (`AC0801`) — is refused where the
//! [`RunSpec`] is built. These passes check what a well-typed spec can
//! still get wrong against the rest of the experiment: a micro-batch
//! count that does not divide the batch, an in-process-only wire for the
//! `procs` backend, a bandwidth throttle on a wire that has no NIC,
//! tracing across process boundaries, fault and serving options on a
//! backend that cannot honour them. All of these die as mid-run panics
//! (or connect/handshake errors) in the engine; the checker turns them
//! into diagnostics first.

use crate::codes;
use crate::config::{Backend, ExperimentConfig, RunSpec};
use crate::diagnostics::{Diagnostic, Diagnostics};
use actcomp_net::TransportKind;

/// True when the config selects the threaded rank engine — the only
/// backend the comm-protocol analyzer models.
pub fn uses_threads_backend(cfg: &ExperimentConfig) -> bool {
    cfg.runtime
        .as_ref()
        .is_some_and(|rt| rt.backend == Backend::Threads)
}

/// The execution-runtime pass. A config without a `runtime` section is
/// vacuously clean — it runs on the serial executor.
pub fn check_runtime(cfg: &ExperimentConfig, diags: &mut Diagnostics) {
    let Some(rt) = &cfg.runtime else {
        return;
    };
    check_transport(rt, diags);
    check_fault(cfg, rt, diags);
    check_serve(rt, diags);

    // --- micro-batch divisibility (AC0303) -----------------------------
    let m = rt.micro_batches();
    let batch = cfg.batch.micro_batch;
    if m == 0 {
        diags.push(
            Diagnostic::error(
                codes::MICROBATCH_NOT_DIVIDING_BATCH,
                "runtime.micro_batches",
                "runtime.micro_batches is zero; the engine cannot slice the batch".to_string(),
            )
            .with_help("use at least 1 micro-batch per engine step"),
        );
    } else if batch > 0 && !batch.is_multiple_of(m) {
        diags.push(
            Diagnostic::error(
                codes::MICROBATCH_NOT_DIVIDING_BATCH,
                "runtime.micro_batches",
                format!(
                    "runtime.micro_batches = {m} does not divide the batch of \
                     {batch} sequences; micro-batches would be ragged"
                ),
            )
            .with_help(format!(
                "pick a divisor of batch.micro_batch = {batch} (the engine \
                 slices the batch into equal row blocks)"
            )),
        );
    }
}

/// The multi-process transport pass (`AC0701`–`AC0705`).
fn check_transport(rt: &RunSpec, diags: &mut Diagnostics) {
    let procs = rt.backend == Backend::Procs;
    let transport = rt.transport();

    // --- in-process wire between processes (AC0701) --------------------
    if procs && transport == TransportKind::Mpsc {
        diags.push(
            Diagnostic::error(
                codes::TRANSPORT_UNKNOWN,
                "runtime.transport",
                "the mpsc transport is in-process and cannot connect separate worker processes"
                    .to_string(),
            )
            .with_help("use `uds` (same host) or `tcp` for the procs backend"),
        );
    }

    // --- transport on a transport-less backend (AC0702) ----------------
    if !procs && rt.transport.is_some() {
        diags.push(
            Diagnostic::error(
                codes::TRANSPORT_WRONG_BACKEND,
                "runtime.transport",
                format!(
                    "runtime.transport is set but backend `{}` opens no transport",
                    rt.backend.name()
                ),
            )
            .with_help("transport options belong to `backend = \"procs\"`"),
        );
    }

    // --- bandwidth throttle (AC0703) -----------------------------------
    if let Some(mbps) = rt.link_mbps {
        if !(mbps.is_finite() && mbps > 0.0) {
            diags.push(
                Diagnostic::error(
                    codes::THROTTLE_WITHOUT_TCP,
                    "runtime.link_mbps",
                    format!("link_mbps = {mbps} is not a positive finite bandwidth"),
                )
                .with_help("give the cap in Mbit/s, e.g. link_mbps = 1000.0"),
            );
        } else if !procs || transport != TransportKind::Tcp {
            diags.push(
                Diagnostic::error(
                    codes::THROTTLE_WITHOUT_TCP,
                    "runtime.link_mbps",
                    format!(
                        "link_mbps models a NIC, but backend `{}` with transport `{transport}` \
                         never sends on one",
                        rt.backend.name()
                    ),
                )
                .with_help("throttling requires `backend = \"procs\"` with `transport = \"tcp\"`"),
            );
        }
    }

    // --- tracing across processes (AC0705) -----------------------------
    if procs && rt.trace == Some(true) {
        diags.push(
            Diagnostic::error(
                codes::PROCS_TRACE_UNSUPPORTED,
                "runtime.trace",
                "comm tracing needs in-process event cells; trace events cannot cross \
                 process boundaries"
                    .to_string(),
            )
            .with_help("audit with `backend = \"threads\"`; the protocol is identical"),
        );
    }
}

/// The fault-injection / recovery pass (`AC0802`–`AC0805`). Every field
/// it checks configures the `procs` launcher's fault-tolerance
/// machinery: injection specs, checkpoint cadence, restart budget, and
/// the detection timeouts. The checker surfaces the mistakes before any
/// process spawns.
fn check_fault(cfg: &ExperimentConfig, rt: &RunSpec, diags: &mut Diagnostics) {
    let world = cfg.parallelism.tp * cfg.parallelism.pp;

    // --- fault/recovery options on in-process backends (AC0802) --------
    if rt.backend != Backend::Procs {
        for (field, set) in [
            ("runtime.fault", rt.fault.is_some()),
            ("runtime.checkpoint_every", rt.checkpoint_every.is_some()),
            ("runtime.checkpoint_dir", rt.checkpoint_dir.is_some()),
            ("runtime.max_restarts", rt.max_restarts.is_some()),
            ("runtime.step_timeout_s", rt.step_timeout_s.is_some()),
            (
                "runtime.rendezvous_timeout_s",
                rt.rendezvous_timeout_s.is_some(),
            ),
        ] {
            if set {
                diags.push(
                    Diagnostic::error(
                        codes::FAULT_WRONG_BACKEND,
                        field,
                        format!(
                            "{field} is set but backend `{}` has no worker processes to \
                             kill, time out, or respawn",
                            rt.backend.name()
                        ),
                    )
                    .with_help("fault injection and recovery belong to `backend = \"procs\"`"),
                );
            }
        }
    }

    // --- kill target (AC0804) ------------------------------------------
    if let Some(kill) = rt.fault.as_ref().and_then(|f| f.plan().kill()) {
        if world > 0 && kill.rank >= world {
            diags.push(
                Diagnostic::error(
                    codes::FAULT_RANK_OUT_OF_WORLD,
                    "runtime.fault",
                    format!(
                        "kill fault targets rank {} but the world holds ranks 0..{world}; \
                         it would never fire",
                        kill.rank
                    ),
                )
                .with_help("target a rank inside 0..tp*pp"),
            );
        }
    }

    // --- detection timeouts (AC0803) -----------------------------------
    for (field, val) in [
        ("runtime.step_timeout_s", rt.step_timeout_s),
        ("runtime.rendezvous_timeout_s", rt.rendezvous_timeout_s),
    ] {
        if let Some(secs) = val {
            if !(secs.is_finite() && secs > 0.0) {
                diags.push(
                    Diagnostic::error(
                        codes::TIMEOUT_INVALID,
                        field,
                        format!("{field} = {secs} is not a positive finite duration"),
                    )
                    .with_help("give the deadline in seconds, e.g. step_timeout_s = 60.0"),
                );
            }
        }
    }

    // --- checkpoint interval (AC0805) ----------------------------------
    if rt.checkpoint_every == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::CHECKPOINT_INTERVAL_INVALID,
                "runtime.checkpoint_every",
                "checkpoint_every is zero; checkpoints must be at least one step apart".to_string(),
            )
            .with_help("use checkpoint_every >= 1, or omit it to disable checkpointing"),
        );
    }
}

/// The serving pass (`AC1001`–`AC1002`). `actcomp serve` keeps rank
/// workers resident behind an admission queue; its knobs only make
/// sense on backends that *have* resident workers, and an empty batch
/// ceiling (or no batch in flight) would stall the dispatcher before
/// the first request.
fn check_serve(rt: &RunSpec, diags: &mut Diagnostics) {
    // --- batch ceiling and depth (AC1001) ------------------------------
    for (field, val) in [
        ("runtime.max_batch", rt.max_batch),
        ("runtime.depth", rt.depth),
    ] {
        if val == Some(0) {
            diags.push(
                Diagnostic::error(
                    codes::SERVE_BATCH_INVALID,
                    field,
                    format!("{field} is zero; the serving dispatcher cannot build engine batches"),
                )
                .with_help("use at least 1 (max_batch = 1 serves one request per batch)"),
            );
        }
    }

    // --- serving options on the serial backend (AC1002) ----------------
    if rt.backend == Backend::Serial {
        for (field, set) in [
            ("runtime.max_batch", rt.max_batch.is_some()),
            ("runtime.batch_window_us", rt.batch_window_us.is_some()),
            ("runtime.depth", rt.depth.is_some()),
        ] {
            if set {
                diags.push(
                    Diagnostic::error(
                        codes::SERVE_WRONG_BACKEND,
                        field,
                        format!(
                            "{field} is set but the serial backend keeps no resident rank \
                             workers to serve from"
                        ),
                    )
                    .with_help("serving belongs to `backend = \"threads\"` or `\"procs\"`"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultSpec, Wire};

    fn run(cfg: &ExperimentConfig) -> Vec<Diagnostic> {
        let mut diags = Diagnostics::new();
        check_runtime(cfg, &mut diags);
        diags.into_vec()
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn with_runtime(rt: RunSpec) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.runtime = Some(rt);
        cfg
    }

    fn procs_default() -> RunSpec {
        RunSpec {
            backend: Backend::Procs,
            ..RunSpec::default()
        }
    }

    fn wire(kind: TransportKind) -> Option<Wire> {
        Some(Wire(kind))
    }

    fn fault(spec: &str) -> Option<FaultSpec> {
        Some(FaultSpec::parse(spec).expect("test fault spec parses"))
    }

    #[test]
    fn absent_section_is_vacuously_clean() {
        assert!(run(&ExperimentConfig::paper_default()).is_empty());
    }

    #[test]
    fn threads_default_is_clean() {
        assert!(run(&with_runtime(RunSpec::default())).is_empty());
    }

    #[test]
    fn explicit_matching_config_is_clean() {
        // paper_default is tp=2 pp=2: 4 ranks, batch 32.
        let rt = RunSpec {
            micro_batches: Some(8),
            ..RunSpec::default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_unknown_backend() {
        // An unknown backend is not a spec: the config refuses to parse,
        // and the refusal carries the code.
        assert_eq!(
            Backend::parse("cuda_graphs").unwrap_err().code,
            codes::UNKNOWN_BACKEND
        );
        let json = ExperimentConfig::paper_default().to_json().replace(
            r#""runtime": null"#,
            r#""runtime": {"backend": "cuda_graphs"}"#,
        );
        let err = ExperimentConfig::from_json(&json).unwrap_err();
        assert!(err.to_string().contains(codes::UNKNOWN_BACKEND), "{err}");
    }

    #[test]
    fn rejects_non_dividing_micro_batches() {
        let rt = RunSpec {
            micro_batches: Some(5), // batch.micro_batch is 32
            ..RunSpec::default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::MICROBATCH_NOT_DIVIDING_BATCH]
        );

        let rt = RunSpec {
            micro_batches: Some(0),
            ..RunSpec::default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::MICROBATCH_NOT_DIVIDING_BATCH]
        );
    }

    #[test]
    fn multiple_violations_all_reported() {
        let rt = RunSpec {
            transport: wire(TransportKind::Uds),
            max_batch: Some(0),
            micro_batches: Some(3),
            ..RunSpec::default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(
            codes_of(&diags),
            vec![
                codes::TRANSPORT_WRONG_BACKEND,
                codes::SERVE_BATCH_INVALID,
                codes::MICROBATCH_NOT_DIVIDING_BATCH,
            ]
        );
    }

    #[test]
    fn clean_procs_configs_pass() {
        assert!(run(&with_runtime(procs_default())).is_empty());

        let rt = RunSpec {
            transport: wire(TransportKind::Tcp),
            link_mbps: Some(1000.0),
            ..procs_default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_unknown_and_inprocess_transports() {
        assert_eq!(
            Wire::parse("rdma").unwrap_err().code,
            codes::TRANSPORT_UNKNOWN
        );

        // mpsc is a real transport label, but it cannot cross processes.
        let rt = RunSpec {
            transport: wire(TransportKind::Mpsc),
            ..procs_default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::TRANSPORT_UNKNOWN]);
        assert!(diags[0].message.contains("in-process"));
    }

    #[test]
    fn rejects_transport_options_on_transportless_backends() {
        let rt = RunSpec {
            transport: wire(TransportKind::Uds),
            ..RunSpec::default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::TRANSPORT_WRONG_BACKEND]);
    }

    #[test]
    fn rejects_throttle_without_tcp() {
        // procs + uds: no NIC to throttle.
        let rt = RunSpec {
            link_mbps: Some(1000.0),
            ..procs_default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::THROTTLE_WITHOUT_TCP]
        );

        // threads backend: no transport at all.
        let rt = RunSpec {
            link_mbps: Some(1000.0),
            ..RunSpec::default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::THROTTLE_WITHOUT_TCP]
        );

        // Nonsense bandwidths are rejected even on tcp.
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let rt = RunSpec {
                transport: wire(TransportKind::Tcp),
                link_mbps: Some(bad),
                ..procs_default()
            };
            assert_eq!(
                codes_of(&run(&with_runtime(rt))),
                vec![codes::THROTTLE_WITHOUT_TCP],
                "link_mbps = {bad}"
            );
        }
    }

    #[test]
    fn rejects_tracing_across_processes() {
        let rt = RunSpec {
            trace: Some(true),
            ..procs_default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::PROCS_TRACE_UNSUPPORTED]
        );

        // Tracing on threads stays fine.
        let rt = RunSpec {
            trace: Some(true),
            ..RunSpec::default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn clean_fault_and_recovery_configs_pass() {
        let rt = RunSpec {
            fault: fault("kill:rank=1@step=3"),
            checkpoint_every: Some(2),
            checkpoint_dir: Some("/tmp/ckpt".to_string()),
            max_restarts: Some(2),
            step_timeout_s: Some(60.0),
            rendezvous_timeout_s: Some(30.0),
            ..procs_default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        let err = FaultSpec::parse("explode:rank=1").unwrap_err();
        assert_eq!(err.code, codes::FAULT_SPEC_INVALID);
        assert!(err.message.contains("does not parse"));
    }

    #[test]
    fn rejects_fault_options_on_in_process_backends() {
        let rt = RunSpec {
            fault: fault("kill:rank=1@step=3"),
            max_restarts: Some(1),
            ..RunSpec::default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(diags.len(), 2);
        assert!(codes_of(&diags)
            .iter()
            .all(|c| *c == codes::FAULT_WRONG_BACKEND));
    }

    #[test]
    fn rejects_nonsense_timeouts() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let rt = RunSpec {
                step_timeout_s: Some(bad),
                ..procs_default()
            };
            assert_eq!(
                codes_of(&run(&with_runtime(rt))),
                vec![codes::TIMEOUT_INVALID],
                "step_timeout_s = {bad}"
            );
        }
        let rt = RunSpec {
            rendezvous_timeout_s: Some(-1.0),
            ..procs_default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::TIMEOUT_INVALID]
        );
    }

    #[test]
    fn rejects_kill_rank_outside_world() {
        let rt = RunSpec {
            fault: fault("kill:rank=7@step=1"), // world is 4
            ..procs_default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::FAULT_RANK_OUT_OF_WORLD]);
        assert!(diags[0].message.contains("never fire"));

        // In-world kill targets are fine.
        let rt = RunSpec {
            fault: fault("kill:rank=3@step=1"),
            ..procs_default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_zero_checkpoint_interval() {
        let rt = RunSpec {
            checkpoint_every: Some(0),
            ..procs_default()
        };
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::CHECKPOINT_INTERVAL_INVALID]
        );
    }

    #[test]
    fn clean_serving_configs_pass() {
        let rt = RunSpec {
            max_batch: Some(8),
            batch_window_us: Some(200),
            depth: Some(1),
            ..RunSpec::default()
        };
        assert!(run(&with_runtime(rt)).is_empty());

        // max_batch = 1 is the one-request-at-a-time baseline, not an
        // error; procs serves too.
        let rt = RunSpec {
            max_batch: Some(1),
            ..procs_default()
        };
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_zero_max_batch() {
        for rt in [
            RunSpec {
                max_batch: Some(0),
                ..RunSpec::default()
            },
            RunSpec {
                depth: Some(0),
                ..RunSpec::default()
            },
        ] {
            assert_eq!(
                codes_of(&run(&with_runtime(rt))),
                vec![codes::SERVE_BATCH_INVALID]
            );
        }
    }

    #[test]
    fn rejects_serving_options_on_serial_backend() {
        let rt = RunSpec {
            backend: Backend::Serial,
            max_batch: Some(8),
            batch_window_us: Some(100),
            ..RunSpec::default()
        };
        let diags = run(&with_runtime(rt));
        assert_eq!(diags.len(), 2);
        assert!(codes_of(&diags)
            .iter()
            .all(|c| *c == codes::SERVE_WRONG_BACKEND));
    }
}
