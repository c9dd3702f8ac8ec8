//! Execution-backend checks (`AC0301`–`AC0304`), multi-process
//! transport checks (`AC0701`–`AC0706`), fault-injection / recovery
//! checks (`AC0801`–`AC0805`), and serving checks (`AC1001`–`AC1002`).
//!
//! The threaded engine (`actcomp-runtime`) has its own structural
//! invariants on top of the shape/plan/schedule algebra: the backend
//! label must resolve, the thread count must equal the model-parallel
//! world size `tp * pp` (one OS thread per rank), the engine's
//! micro-batch count must divide the batch it slices, and any explicit
//! rank placement must be a bijection so every rank runs exactly once.
//! The `procs` backend adds a transport layer with its own failure
//! modes: an unknown or in-process-only wire, a bandwidth throttle on a
//! wire that has no NIC, colliding listen addresses, tracing across
//! process boundaries, a world size that disagrees with the degrees.
//! All of these die as mid-run panics (or connect/handshake errors) in
//! the engine; the checker turns them into diagnostics first.

use crate::codes;
use crate::config::{ExperimentConfig, RuntimeSection};
use crate::diagnostics::{Diagnostic, Diagnostics};

/// Backend labels the `run` entry point accepts.
pub const KNOWN_BACKENDS: [&str; 3] = ["threads", "serial", "procs"];

/// Transport labels the net layer accepts.
pub const KNOWN_TRANSPORTS: [&str; 3] = ["mpsc", "uds", "tcp"];

/// True when the config selects the threaded rank engine — the only
/// backend the comm-protocol analyzer models.
pub fn uses_threads_backend(cfg: &ExperimentConfig) -> bool {
    cfg.runtime
        .as_ref()
        .is_some_and(|rt| rt.backend == "threads")
}

/// The execution-runtime pass. A config without a `runtime` section is
/// vacuously clean — it runs on the serial executor.
pub fn check_runtime(cfg: &ExperimentConfig, diags: &mut Diagnostics) {
    let Some(rt) = &cfg.runtime else {
        return;
    };
    let tp = cfg.parallelism.tp;
    let pp = cfg.parallelism.pp;
    let world = tp * pp;

    // --- backend label (AC0301) ----------------------------------------
    if !KNOWN_BACKENDS.contains(&rt.backend.as_str()) {
        diags.push(
            Diagnostic::error(
                codes::UNKNOWN_BACKEND,
                "runtime.backend",
                format!("unknown execution backend `{}`", rt.backend),
            )
            .with_help("known backends: threads, serial, procs"),
        );
    }

    check_transport(cfg, rt, diags);
    check_fault(cfg, rt, diags);
    check_serve(rt, diags);

    // --- thread count (AC0302) -----------------------------------------
    // The threaded engine spawns exactly one OS thread per rank, so an
    // explicit count must match the world size. The serial backend runs
    // everything on one thread; a mismatched count there is equally a
    // config error (the field means "rank threads", not a thread pool).
    if let Some(threads) = rt.threads {
        if world > 0 && threads != world {
            diags.push(
                Diagnostic::error(
                    codes::THREADS_NOT_WORLD,
                    "runtime.threads",
                    format!(
                        "runtime.threads = {threads} but tp={tp} x pp={pp} \
                         needs exactly {world} rank threads"
                    ),
                )
                .with_help("omit runtime.threads to infer it from the degrees"),
            );
        }
    }

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

    // --- rank map bijection (AC0304) -----------------------------------
    if let Some(map) = &rt.rank_map {
        if world == 0 {
            return; // zero degrees already carry AC0006 from the shape pass
        }
        if map.len() != world {
            diags.push(
                Diagnostic::error(
                    codes::RANK_MAP_NOT_BIJECTION,
                    "runtime.rank_map",
                    format!(
                        "rank_map has {} entries but the world holds {world} ranks",
                        map.len()
                    ),
                )
                .with_help("provide exactly one placement per rank in 0..tp*pp"),
            );
            return;
        }
        let mut seen = vec![false; world];
        for (rank, &slot) in map.iter().enumerate() {
            if slot >= world {
                diags.push(
                    Diagnostic::error(
                        codes::RANK_MAP_NOT_BIJECTION,
                        "runtime.rank_map",
                        format!("rank {rank} maps to slot {slot}, outside 0..{world}"),
                    )
                    .with_help("every slot must name a rank in 0..tp*pp"),
                );
            } else if seen[slot] {
                diags.push(
                    Diagnostic::error(
                        codes::RANK_MAP_NOT_BIJECTION,
                        "runtime.rank_map",
                        format!(
                            "slot {slot} is assigned twice (second time by rank {rank}); \
                             some rank would never run"
                        ),
                    )
                    .with_help("the map must be a permutation of 0..tp*pp"),
                );
            } else {
                seen[slot] = true;
            }
        }
    }
}

/// The multi-process transport pass (`AC0701`–`AC0706`).
fn check_transport(cfg: &ExperimentConfig, rt: &RuntimeSection, diags: &mut Diagnostics) {
    let procs = rt.backend == "procs";
    let world = cfg.parallelism.tp * cfg.parallelism.pp;
    // The procs default wire; explicit labels override it below.
    let transport = rt.transport.as_deref().unwrap_or("uds");

    // --- transport label (AC0701) --------------------------------------
    if let Some(label) = &rt.transport {
        if !KNOWN_TRANSPORTS.contains(&label.as_str()) {
            diags.push(
                Diagnostic::error(
                    codes::TRANSPORT_UNKNOWN,
                    "runtime.transport",
                    format!("unknown transport `{label}`"),
                )
                .with_help("known transports: mpsc, uds, tcp"),
            );
        } else if procs && label == "mpsc" {
            diags.push(
                Diagnostic::error(
                    codes::TRANSPORT_UNKNOWN,
                    "runtime.transport",
                    "the mpsc transport is in-process and cannot connect separate worker \
                     processes"
                        .to_string(),
                )
                .with_help("use `uds` (same host) or `tcp` for the procs backend"),
            );
        }
    }

    // --- transport options on transport-less backends (AC0702) ---------
    if !procs {
        for (field, set) in [
            ("runtime.transport", rt.transport.is_some()),
            ("runtime.world_size", rt.world_size.is_some()),
            ("runtime.listen", rt.listen.is_some()),
        ] {
            if set {
                diags.push(
                    Diagnostic::error(
                        codes::TRANSPORT_WRONG_BACKEND,
                        field,
                        format!(
                            "{field} is set but backend `{}` opens no transport",
                            rt.backend
                        ),
                    )
                    .with_help("transport options belong to `backend = \"procs\"`"),
                );
            }
        }
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
        } else if !procs || transport != "tcp" {
            diags.push(
                Diagnostic::error(
                    codes::THROTTLE_WITHOUT_TCP,
                    "runtime.link_mbps",
                    format!(
                        "link_mbps models a NIC, but backend `{}` with transport `{transport}` \
                         never sends on one",
                        rt.backend
                    ),
                )
                .with_help("throttling requires `backend = \"procs\"` with `transport = \"tcp\"`"),
            );
        }
    }

    // --- listen-address collisions (AC0704) ----------------------------
    if let Some(listen) = &rt.listen {
        if procs && world > 0 && listen.len() != world {
            diags.push(
                Diagnostic::error(
                    codes::LISTEN_ADDR_COLLISION,
                    "runtime.listen",
                    format!(
                        "{} listen addresses for a world of {world} ranks",
                        listen.len()
                    ),
                )
                .with_help("give exactly one address per rank, or omit for ephemeral binds"),
            );
        }
        // A collision is the same (normalized) endpoint twice: for TCP
        // the same host:port, for UDS the same filesystem path.
        let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (rank, addr) in listen.iter().enumerate() {
            let key = addr.trim();
            if let Some(&first) = seen.get(key) {
                diags.push(
                    Diagnostic::error(
                        codes::LISTEN_ADDR_COLLISION,
                        "runtime.listen",
                        format!(
                            "ranks {first} and {rank} both listen on `{key}`; the second bind \
                             fails at startup"
                        ),
                    )
                    .with_help(match transport {
                        "tcp" => "every rank needs its own port",
                        _ => "every rank needs its own socket path",
                    }),
                );
            } else {
                seen.insert(key, rank);
            }
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

    // --- world size (AC0706) -------------------------------------------
    if let Some(ws) = rt.world_size {
        if procs && world > 0 && ws != world {
            diags.push(
                Diagnostic::error(
                    codes::PROCS_WORLD_MISMATCH,
                    "runtime.world_size",
                    format!(
                        "runtime.world_size = {ws} but tp={} x pp={} needs exactly {world} \
                         worker processes",
                        cfg.parallelism.tp, cfg.parallelism.pp
                    ),
                )
                .with_help("omit runtime.world_size to infer it from the degrees"),
            );
        }
    }
}

/// The fault-injection / recovery pass (`AC0801`–`AC0805`). Every field
/// it checks configures the `procs` launcher's fault-tolerance
/// machinery: injection specs, checkpoint cadence, restart budget, and
/// the detection timeouts. The engine validates the same things at
/// launch (a bad spec or zero interval is a typed `ProcsError`); the
/// checker surfaces them before any process spawns.
fn check_fault(cfg: &ExperimentConfig, rt: &RuntimeSection, diags: &mut Diagnostics) {
    let procs = rt.backend == "procs";
    let world = cfg.parallelism.tp * cfg.parallelism.pp;

    // --- fault/recovery options on in-process backends (AC0802) --------
    if !procs {
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
                            rt.backend
                        ),
                    )
                    .with_help("fault injection and recovery belong to `backend = \"procs\"`"),
                );
            }
        }
    }

    // --- fault spec grammar (AC0801) + kill target (AC0804) ------------
    if let Some(spec) = &rt.fault {
        match actcomp_net::FaultPlan::parse(spec) {
            Err(e) => {
                diags.push(
                    Diagnostic::error(
                        codes::FAULT_SPEC_INVALID,
                        "runtime.fault",
                        format!("fault spec `{spec}` does not parse: {e}"),
                    )
                    .with_help(
                        "grammar: kill:rank=R@step=K | drop|dup|corrupt|sever:frame=N[,rank=R] \
                         | delay:frame=N,ms=M | <kind>:p=P[,seed=S]",
                    ),
                );
            }
            Ok(plan) => {
                if let Some(kill) = plan.kill() {
                    if world > 0 && kill.rank >= world {
                        diags.push(
                            Diagnostic::error(
                                codes::FAULT_RANK_OUT_OF_WORLD,
                                "runtime.fault",
                                format!(
                                    "kill fault targets rank {} but the world holds ranks \
                                     0..{world}; it would never fire",
                                    kill.rank
                                ),
                            )
                            .with_help("target a rank inside 0..tp*pp"),
                        );
                    }
                }
            }
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

/// The serving pass (`AC1001`–`AC1002`). `actcomp
/// serve` keeps rank workers resident behind an admission queue; its
/// knobs only make sense on backends that *have* resident workers, and
/// an empty batch ceiling would stall the dispatcher before the first
/// request.
fn check_serve(rt: &RuntimeSection, diags: &mut Diagnostics) {
    // --- batch ceiling (AC1001) ----------------------------------------
    if rt.max_batch == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::SERVE_BATCH_INVALID,
                "runtime.max_batch",
                "max_batch is zero; the serving dispatcher cannot build empty engine batches"
                    .to_string(),
            )
            .with_help("use max_batch >= 1 (1 disables coalescing, serving one request per batch)"),
        );
    }

    // --- serving options on the serial backend (AC1002) ----------------
    if rt.backend == "serial" {
        for (field, set) in [
            ("runtime.max_batch", rt.max_batch.is_some()),
            ("runtime.batch_window_us", rt.batch_window_us.is_some()),
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
    use crate::config::RuntimeSection;

    fn run(cfg: &ExperimentConfig) -> Vec<Diagnostic> {
        let mut diags = Diagnostics::new();
        check_runtime(cfg, &mut diags);
        diags.into_vec()
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn with_runtime(rt: RuntimeSection) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.runtime = Some(rt);
        cfg
    }

    #[test]
    fn absent_section_is_vacuously_clean() {
        assert!(run(&ExperimentConfig::paper_default()).is_empty());
    }

    #[test]
    fn threads_default_is_clean() {
        assert!(run(&with_runtime(RuntimeSection::threads_default())).is_empty());
    }

    #[test]
    fn explicit_matching_config_is_clean() {
        // paper_default is tp=2 pp=2: 4 ranks, batch 32.
        let mut rt = RuntimeSection::threads_default();
        rt.threads = Some(4);
        rt.micro_batches = Some(8);
        rt.rank_map = Some(vec![3, 2, 1, 0]);
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_unknown_backend() {
        let mut rt = RuntimeSection::threads_default();
        rt.backend = "cuda_graphs".to_string();
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::UNKNOWN_BACKEND]
        );
    }

    #[test]
    fn rejects_thread_count_mismatch() {
        let mut rt = RuntimeSection::threads_default();
        rt.threads = Some(3); // world is 4
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::THREADS_NOT_WORLD]);
        assert!(diags[0].message.contains("exactly 4 rank threads"));
    }

    #[test]
    fn rejects_non_dividing_micro_batches() {
        let mut rt = RuntimeSection::threads_default();
        rt.micro_batches = Some(5); // batch.micro_batch is 32
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::MICROBATCH_NOT_DIVIDING_BATCH]
        );

        let mut rt = RuntimeSection::threads_default();
        rt.micro_batches = Some(0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::MICROBATCH_NOT_DIVIDING_BATCH]
        );
    }

    #[test]
    fn rejects_broken_rank_maps() {
        // Wrong length.
        let mut rt = RuntimeSection::threads_default();
        rt.rank_map = Some(vec![0, 1, 2]);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::RANK_MAP_NOT_BIJECTION]
        );

        // Out-of-range slot.
        let mut rt = RuntimeSection::threads_default();
        rt.rank_map = Some(vec![0, 1, 2, 4]);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::RANK_MAP_NOT_BIJECTION]
        );

        // Duplicate slot: two findings (the dup and the orphan slot are
        // one violation; every duplicate is reported).
        let mut rt = RuntimeSection::threads_default();
        rt.rank_map = Some(vec![0, 1, 1, 0]);
        let diags = run(&with_runtime(rt));
        assert_eq!(diags.len(), 2);
        assert!(codes_of(&diags)
            .iter()
            .all(|c| *c == codes::RANK_MAP_NOT_BIJECTION));
    }

    #[test]
    fn multiple_violations_all_reported() {
        let mut rt = RuntimeSection::threads_default();
        rt.backend = "mpi".to_string();
        rt.threads = Some(16);
        rt.micro_batches = Some(3);
        let diags = run(&with_runtime(rt));
        assert_eq!(
            codes_of(&diags),
            vec![
                codes::UNKNOWN_BACKEND,
                codes::THREADS_NOT_WORLD,
                codes::MICROBATCH_NOT_DIVIDING_BATCH,
            ]
        );
    }

    fn procs_default() -> RuntimeSection {
        let mut rt = RuntimeSection::threads_default();
        rt.backend = "procs".to_string();
        rt
    }

    #[test]
    fn clean_procs_configs_pass() {
        assert!(run(&with_runtime(procs_default())).is_empty());

        let mut rt = procs_default();
        rt.transport = Some("tcp".to_string());
        rt.link_mbps = Some(1000.0);
        rt.world_size = Some(4);
        rt.listen = Some(vec![
            "127.0.0.1:9001".to_string(),
            "127.0.0.1:9002".to_string(),
            "127.0.0.1:9003".to_string(),
            "127.0.0.1:9004".to_string(),
        ]);
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_unknown_and_inprocess_transports() {
        let mut rt = procs_default();
        rt.transport = Some("rdma".to_string());
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::TRANSPORT_UNKNOWN]
        );

        // mpsc is a real transport label, but it cannot cross processes.
        let mut rt = procs_default();
        rt.transport = Some("mpsc".to_string());
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::TRANSPORT_UNKNOWN]);
        assert!(diags[0].message.contains("in-process"));
    }

    #[test]
    fn rejects_transport_options_on_transportless_backends() {
        let mut rt = RuntimeSection::threads_default();
        rt.transport = Some("uds".to_string());
        rt.world_size = Some(4);
        let diags = run(&with_runtime(rt));
        assert_eq!(
            codes_of(&diags),
            vec![
                codes::TRANSPORT_WRONG_BACKEND,
                codes::TRANSPORT_WRONG_BACKEND
            ]
        );
    }

    #[test]
    fn rejects_throttle_without_tcp() {
        // procs + uds: no NIC to throttle.
        let mut rt = procs_default();
        rt.link_mbps = Some(1000.0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::THROTTLE_WITHOUT_TCP]
        );

        // threads backend: no transport at all.
        let mut rt = RuntimeSection::threads_default();
        rt.link_mbps = Some(1000.0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::THROTTLE_WITHOUT_TCP]
        );

        // Nonsense bandwidths are rejected even on tcp.
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut rt = procs_default();
            rt.transport = Some("tcp".to_string());
            rt.link_mbps = Some(bad);
            assert_eq!(
                codes_of(&run(&with_runtime(rt))),
                vec![codes::THROTTLE_WITHOUT_TCP],
                "link_mbps = {bad}"
            );
        }
    }

    #[test]
    fn rejects_listen_collisions_and_bad_counts() {
        // Duplicate port.
        let mut rt = procs_default();
        rt.transport = Some("tcp".to_string());
        rt.listen = Some(vec![
            "127.0.0.1:9001".to_string(),
            "127.0.0.1:9002".to_string(),
            "127.0.0.1:9001".to_string(),
            "127.0.0.1:9004".to_string(),
        ]);
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::LISTEN_ADDR_COLLISION]);
        assert!(diags[0].message.contains("ranks 0 and 2"));

        // Duplicate socket path on uds.
        let mut rt = procs_default();
        rt.listen = Some(vec![
            "/tmp/a.sock".to_string(),
            "/tmp/a.sock".to_string(),
            "/tmp/c.sock".to_string(),
            "/tmp/d.sock".to_string(),
        ]);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::LISTEN_ADDR_COLLISION]
        );

        // Wrong count: world is 4.
        let mut rt = procs_default();
        rt.listen = Some(vec!["/tmp/a.sock".to_string()]);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::LISTEN_ADDR_COLLISION]
        );
    }

    #[test]
    fn rejects_tracing_across_processes() {
        let mut rt = procs_default();
        rt.trace = Some(true);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::PROCS_TRACE_UNSUPPORTED]
        );

        // Tracing on threads stays fine.
        let mut rt = RuntimeSection::threads_default();
        rt.trace = Some(true);
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_world_size_mismatch() {
        let mut rt = procs_default();
        rt.world_size = Some(3); // world is 4
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::PROCS_WORLD_MISMATCH]);
        assert!(diags[0].message.contains("exactly 4 worker processes"));
    }

    #[test]
    fn clean_fault_and_recovery_configs_pass() {
        let mut rt = procs_default();
        rt.fault = Some("kill:rank=1@step=3".to_string());
        rt.checkpoint_every = Some(2);
        rt.checkpoint_dir = Some("/tmp/ckpt".to_string());
        rt.max_restarts = Some(2);
        rt.step_timeout_s = Some(60.0);
        rt.rendezvous_timeout_s = Some(30.0);
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        let mut rt = procs_default();
        rt.fault = Some("explode:rank=1".to_string());
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::FAULT_SPEC_INVALID]);
        assert!(diags[0].message.contains("does not parse"));
    }

    #[test]
    fn rejects_fault_options_on_in_process_backends() {
        let mut rt = RuntimeSection::threads_default();
        rt.fault = Some("kill:rank=1@step=3".to_string());
        rt.max_restarts = Some(1);
        let diags = run(&with_runtime(rt));
        assert_eq!(diags.len(), 2);
        assert!(codes_of(&diags)
            .iter()
            .all(|c| *c == codes::FAULT_WRONG_BACKEND));
    }

    #[test]
    fn rejects_nonsense_timeouts() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let mut rt = procs_default();
            rt.step_timeout_s = Some(bad);
            assert_eq!(
                codes_of(&run(&with_runtime(rt))),
                vec![codes::TIMEOUT_INVALID],
                "step_timeout_s = {bad}"
            );
        }
        let mut rt = procs_default();
        rt.rendezvous_timeout_s = Some(-1.0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::TIMEOUT_INVALID]
        );
    }

    #[test]
    fn rejects_kill_rank_outside_world() {
        let mut rt = procs_default();
        rt.fault = Some("kill:rank=7@step=1".to_string()); // world is 4
        let diags = run(&with_runtime(rt));
        assert_eq!(codes_of(&diags), vec![codes::FAULT_RANK_OUT_OF_WORLD]);
        assert!(diags[0].message.contains("never fire"));

        // In-world kill targets are fine.
        let mut rt = procs_default();
        rt.fault = Some("kill:rank=3@step=1".to_string());
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_zero_checkpoint_interval() {
        let mut rt = procs_default();
        rt.checkpoint_every = Some(0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::CHECKPOINT_INTERVAL_INVALID]
        );
    }

    #[test]
    fn clean_serving_configs_pass() {
        let mut rt = RuntimeSection::threads_default();
        rt.max_batch = Some(8);
        rt.batch_window_us = Some(200);
        assert!(run(&with_runtime(rt)).is_empty());

        // max_batch = 1 is the one-request-at-a-time baseline, not an
        // error; procs serves too.
        let mut rt = procs_default();
        rt.max_batch = Some(1);
        assert!(run(&with_runtime(rt)).is_empty());
    }

    #[test]
    fn rejects_zero_max_batch() {
        let mut rt = RuntimeSection::threads_default();
        rt.max_batch = Some(0);
        assert_eq!(
            codes_of(&run(&with_runtime(rt))),
            vec![codes::SERVE_BATCH_INVALID]
        );
    }

    #[test]
    fn rejects_serving_options_on_serial_backend() {
        let mut rt = RuntimeSection::threads_default();
        rt.backend = "serial".to_string();
        rt.max_batch = Some(8);
        rt.batch_window_us = Some(100);
        let diags = run(&with_runtime(rt));
        assert_eq!(diags.len(), 2);
        assert!(codes_of(&diags)
            .iter()
            .all(|c| *c == codes::SERVE_WRONG_BACKEND));
    }
}
