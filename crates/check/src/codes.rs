//! The stable diagnostic-code registry.
//!
//! Codes are grouped by check pass: `AC00xx` shape algebra, `AC01xx`
//! compression-plan placement, `AC02xx` schedule/topology/memory,
//! `AC03xx` execution runtime, `AC04xx` kernel thread-pool
//! configuration, `AC05xx` ring-collective chunking, `AC06xx`
//! comm-protocol analysis (message-flow graph, deadlock-freedom,
//! trace conformance), `AC07xx` multi-process transport
//! configuration, `AC08xx` fault injection and recovery, `AC09xx`
//! op-graph plans (cycle / shape mismatch / illegal fusion), `AC10xx`
//! serving engine configuration. Codes are
//! append-only — once published in a diagnostic they keep their meaning
//! so scripts can match on them, and a retired code's number is never
//! handed out again (the registry tests hold the retired list).

/// Hidden width not divisible by the head count.
pub const HIDDEN_NOT_DIVISIBLE_BY_HEADS: &str = "AC0001";
/// Head count not divisible by the tensor-parallel degree.
pub const HEADS_NOT_DIVISIBLE_BY_TP: &str = "AC0002";
/// Feed-forward width not divisible by the tensor-parallel degree.
pub const FF_NOT_DIVISIBLE_BY_TP: &str = "AC0003";
/// Auto-encoder code dimension incompatible with the hidden width.
pub const BAD_CODE_DIM: &str = "AC0004";
/// Sequence length exceeds the model's position table.
pub const SEQ_EXCEEDS_MAX_SEQ: &str = "AC0005";
/// A structural dimension is zero.
pub const ZERO_DIMENSION: &str = "AC0006";
/// Vocabulary not divisible by the tensor-parallel degree (warning:
/// the embedding shard must be padded).
pub const VOCAB_NOT_DIVISIBLE_BY_TP: &str = "AC0007";

/// Compression window reaches past the last layer.
pub const PLAN_WINDOW_OUT_OF_BOUNDS: &str = "AC0101";
/// Compressor spec label does not name a Table 1 entry.
pub const UNRESOLVABLE_SPEC: &str = "AC0102";
/// Claimed compression ratio disagrees with the wire-byte arithmetic.
pub const RATIO_MISMATCH: &str = "AC0103";
/// Error feedback requested for an unbiased (or absent) compressor.
pub const ERROR_FEEDBACK_ON_UNBIASED: &str = "AC0104";
/// An active compressor spec covers zero layers (warning).
pub const PLAN_COVERS_NOTHING: &str = "AC0105";

/// The pipeline schedule deadlocks (cyclic send/recv dependencies).
pub const SCHEDULE_DEADLOCK: &str = "AC0201";
/// `tp · pp` exceeds the cluster's GPU count.
pub const TOO_FEW_GPUS: &str = "AC0202";
/// More pipeline stages than layers.
pub const PP_EXCEEDS_LAYERS: &str = "AC0203";
/// Weights + peak activations exceed the device memory budget.
pub const MEMORY_BUDGET_EXCEEDED: &str = "AC0204";
/// A custom schedule's per-stage orders are malformed.
pub const MALFORMED_CUSTOM_ORDER: &str = "AC0205";
/// Tensor-parallel group spans nodes (warning: catastrophic bandwidth).
pub const TP_SPANS_NODES: &str = "AC0206";
/// Unknown cluster preset or schedule kind.
pub const UNKNOWN_PRESET_OR_KIND: &str = "AC0207";

/// Unknown execution backend (not `threads`, `serial` or `procs`).
pub const UNKNOWN_BACKEND: &str = "AC0301";
// Indices 02 and 04 of this family are retired: they checked a rank
// thread count and a rank placement map that no engine ever read.
/// Runtime micro-batch count does not divide the batch.
pub const MICROBATCH_NOT_DIVIDING_BATCH: &str = "AC0303";

/// `runtime.kernel_threads` is not a positive thread count.
pub const KERNEL_THREADS_INVALID: &str = "AC0401";
/// The `ACTCOMP_THREADS` environment variable does not parse as a
/// positive thread count.
pub const ENV_THREADS_INVALID: &str = "AC0402";

/// `runtime.chunk_rows` is not a positive row count.
pub const CHUNK_ROWS_INVALID: &str = "AC0501";
/// `runtime.pipeline_depth` is not a positive chunk count.
pub const PIPELINE_DEPTH_INVALID: &str = "AC0502";
// Index 03 of this family is retired: it diagnosed an environment
// spelling of the chunk size that no longer exists. The next
// ring-collective code is 04.

/// A message is sent but no rank ever receives it.
pub const COMM_ORPHAN_SEND: &str = "AC0601";
/// A rank blocks receiving a message no rank ever sends.
pub const COMM_STARVED_RECV: &str = "AC0602";
/// The blocking-dependency graph of the comm protocol has a cycle.
pub const COMM_DEADLOCK_CYCLE: &str = "AC0603";
/// Event-sum wire bytes disagree with the closed-form `ring_bytes`
/// accounting the runtime counters implement.
pub const COMM_BYTE_MISMATCH: &str = "AC0604";
/// A recorded runtime trace does not conform to the static graph.
pub const COMM_TRACE_NONCONFORMANT: &str = "AC0605";
/// Two in-flight messages on one channel are indistinguishable to the
/// receiver's selective-receive stash (duplicate message identity).
pub const COMM_AMBIGUOUS_MESSAGE: &str = "AC0606";

/// `runtime.transport` does not name a known wire (`mpsc`, `uds`,
/// `tcp`), or names one the backend cannot use (`mpsc` with `procs`).
pub const TRANSPORT_UNKNOWN: &str = "AC0701";
/// A transport option is set for a backend that never opens a
/// transport.
pub const TRANSPORT_WRONG_BACKEND: &str = "AC0702";
/// `runtime.link_mbps` without the TCP transport, or not a positive
/// finite bandwidth.
pub const THROTTLE_WITHOUT_TCP: &str = "AC0703";
// Index 04 of this family is retired: it checked per-rank listen
// addresses that no launcher ever bound.
/// Comm tracing/auditing with the `procs` backend (trace events cannot
/// cross process boundaries).
pub const PROCS_TRACE_UNSUPPORTED: &str = "AC0705";
// Index 06 of this family is retired: it checked a worker count the
// launcher always derives from `tp * pp`.

/// `runtime.fault` does not parse under the fault-spec grammar.
pub const FAULT_SPEC_INVALID: &str = "AC0801";
/// Fault-injection or recovery options on a backend that is not
/// `procs` (in-process backends have no processes to kill or respawn).
pub const FAULT_WRONG_BACKEND: &str = "AC0802";
/// `runtime.step_timeout_s` or `runtime.rendezvous_timeout_s` is not a
/// positive finite duration.
pub const TIMEOUT_INVALID: &str = "AC0803";
/// A `kill` fault names a rank outside `0..tp*pp` (it would never
/// fire).
pub const FAULT_RANK_OUT_OF_WORLD: &str = "AC0804";
/// `runtime.checkpoint_every` is zero (checkpoints must be at least
/// one step apart).
pub const CHECKPOINT_INTERVAL_INVALID: &str = "AC0805";

/// An op-graph plan's dependency relation has a cycle — no
/// def-before-use execution order exists.
pub const GRAPH_CYCLE: &str = "AC0901";
/// An op-graph node's operand shapes disagree with its declared shape
/// (or an operand/output id does not exist).
pub const GRAPH_SHAPE_MISMATCH: &str = "AC0902";
/// A fusion the plan requires (`FusePolicy::Forced`) is not legal under
/// the epilogue-fusion rules.
pub const GRAPH_ILLEGAL_FUSION: &str = "AC0903";

/// `runtime.max_batch` or `runtime.depth` is zero (the serving
/// dispatcher cannot build empty engine batches, or keep none in
/// flight).
pub const SERVE_BATCH_INVALID: &str = "AC1001";
/// Serving options on the serial backend (serving needs resident rank
/// workers; `serial` has none).
pub const SERVE_WRONG_BACKEND: &str = "AC1002";

/// One registry row: code, summary, whether it can only warn.
pub struct CodeInfo {
    /// The `ACxxxx` code.
    pub code: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// True when the code is advisory (never fails validation).
    pub warning_only: bool,
}

/// Every registered code, in numeric order.
pub fn registry() -> Vec<CodeInfo> {
    let row = |code, summary, warning_only| CodeInfo {
        code,
        summary,
        warning_only,
    };
    vec![
        row(
            HIDDEN_NOT_DIVISIBLE_BY_HEADS,
            "hidden width not divisible by head count",
            false,
        ),
        row(
            HEADS_NOT_DIVISIBLE_BY_TP,
            "attention heads not divisible by tensor-parallel degree",
            false,
        ),
        row(
            FF_NOT_DIVISIBLE_BY_TP,
            "feed-forward width not divisible by tensor-parallel degree",
            false,
        ),
        row(
            BAD_CODE_DIM,
            "auto-encoder code dimension incompatible with hidden width",
            false,
        ),
        row(
            SEQ_EXCEEDS_MAX_SEQ,
            "sequence length exceeds the position table",
            false,
        ),
        row(ZERO_DIMENSION, "structural dimension is zero", false),
        row(
            VOCAB_NOT_DIVISIBLE_BY_TP,
            "vocabulary not divisible by tensor-parallel degree (shard padding)",
            true,
        ),
        row(
            PLAN_WINDOW_OUT_OF_BOUNDS,
            "compression window reaches past the last layer",
            false,
        ),
        row(
            UNRESOLVABLE_SPEC,
            "compressor spec label does not name a Table 1 entry",
            false,
        ),
        row(
            RATIO_MISMATCH,
            "claimed compression ratio disagrees with wire-byte arithmetic",
            false,
        ),
        row(
            ERROR_FEEDBACK_ON_UNBIASED,
            "error feedback on an unbiased or absent compressor",
            false,
        ),
        row(
            PLAN_COVERS_NOTHING,
            "active compressor spec covers zero layers",
            true,
        ),
        row(
            SCHEDULE_DEADLOCK,
            "pipeline schedule has cyclic send/recv dependencies",
            false,
        ),
        row(
            TOO_FEW_GPUS,
            "tp x pp exceeds the cluster's GPU count",
            false,
        ),
        row(PP_EXCEEDS_LAYERS, "more pipeline stages than layers", false),
        row(
            MEMORY_BUDGET_EXCEEDED,
            "weights + peak activations exceed the device budget",
            false,
        ),
        row(
            MALFORMED_CUSTOM_ORDER,
            "custom schedule orders are malformed",
            false,
        ),
        row(
            TP_SPANS_NODES,
            "tensor-parallel group spans nodes (severe slowdown)",
            true,
        ),
        row(
            UNKNOWN_PRESET_OR_KIND,
            "unknown cluster preset or schedule kind",
            false,
        ),
        row(
            UNKNOWN_BACKEND,
            "unknown execution backend (known: threads, serial, procs)",
            false,
        ),
        row(
            MICROBATCH_NOT_DIVIDING_BATCH,
            "runtime micro-batch count does not divide the batch",
            false,
        ),
        row(
            KERNEL_THREADS_INVALID,
            "runtime.kernel_threads is not a positive thread count",
            false,
        ),
        row(
            ENV_THREADS_INVALID,
            "ACTCOMP_THREADS does not parse as a positive thread count",
            false,
        ),
        row(
            CHUNK_ROWS_INVALID,
            "runtime.chunk_rows is not a positive row count",
            false,
        ),
        row(
            PIPELINE_DEPTH_INVALID,
            "runtime.pipeline_depth is not a positive chunk count",
            false,
        ),
        row(
            COMM_ORPHAN_SEND,
            "comm graph has a send no rank ever receives",
            false,
        ),
        row(
            COMM_STARVED_RECV,
            "comm graph has a recv no rank ever sends",
            false,
        ),
        row(
            COMM_DEADLOCK_CYCLE,
            "comm blocking-dependency graph has a cycle (deadlock)",
            false,
        ),
        row(
            COMM_BYTE_MISMATCH,
            "event-sum wire bytes disagree with ring_bytes accounting",
            false,
        ),
        row(
            COMM_TRACE_NONCONFORMANT,
            "recorded runtime trace deviates from the static comm graph",
            false,
        ),
        row(
            COMM_AMBIGUOUS_MESSAGE,
            "two concurrent messages share one selective-receive identity",
            false,
        ),
        row(
            TRANSPORT_UNKNOWN,
            "runtime.transport is not a usable wire for the backend",
            false,
        ),
        row(
            TRANSPORT_WRONG_BACKEND,
            "transport options set for a backend that opens no transport",
            false,
        ),
        row(
            THROTTLE_WITHOUT_TCP,
            "link_mbps throttle without the tcp transport, or not positive",
            false,
        ),
        row(
            PROCS_TRACE_UNSUPPORTED,
            "comm tracing cannot cross process boundaries (procs backend)",
            false,
        ),
        row(
            FAULT_SPEC_INVALID,
            "runtime.fault does not parse under the fault-spec grammar",
            false,
        ),
        row(
            FAULT_WRONG_BACKEND,
            "fault/recovery options on a backend without processes",
            false,
        ),
        row(
            TIMEOUT_INVALID,
            "step/rendezvous timeout is not a positive finite duration",
            false,
        ),
        row(
            FAULT_RANK_OUT_OF_WORLD,
            "kill fault names a rank outside the world (never fires)",
            false,
        ),
        row(
            CHECKPOINT_INTERVAL_INVALID,
            "checkpoint interval is zero",
            false,
        ),
        row(GRAPH_CYCLE, "op-graph plan has a dependency cycle", false),
        row(
            GRAPH_SHAPE_MISMATCH,
            "op-graph node shapes disagree with their operands",
            false,
        ),
        row(
            GRAPH_ILLEGAL_FUSION,
            "required GEMM-epilogue fusion is illegal",
            false,
        ),
        row(
            SERVE_BATCH_INVALID,
            "serving max_batch or depth is zero (dispatcher cannot batch)",
            false,
        ),
        row(
            SERVE_WRONG_BACKEND,
            "serving options on a backend without resident workers",
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let codes: Vec<&str> = registry().iter().map(|r| r.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be unique and in numeric order");
        assert!(codes.iter().all(|c| c.starts_with("AC") && c.len() == 6));
    }

    /// Retired codes as `(family, index)`: they keep their slot so the
    /// number is never reused. Spelled apart so the emitted-code scan
    /// below still rejects any use of the full literal.
    const RETIRED: &[(&str, u32)] = &[
        ("03", 2),
        ("03", 4),
        ("05", 3),
        ("07", 4),
        ("07", 6),
        ("10", 3),
    ];

    #[test]
    fn registry_families_are_contiguous() {
        // Within a family `ACffnn`, the two-digit indices (registered
        // plus retired) must run 1..=max with no holes.
        use std::collections::BTreeMap;
        let mut families: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (family, idx) in RETIRED {
            families.entry(family.to_string()).or_default().push(*idx);
        }
        for info in registry() {
            let family = info.code[2..4].to_string();
            let idx: u32 = info.code[4..6].parse().expect("numeric code suffix");
            families.entry(family).or_default().push(idx);
        }
        for (family, mut indices) in families {
            indices.sort_unstable();
            let want: Vec<u32> = (1..=indices.len() as u32).collect();
            assert_eq!(indices, want, "family AC{family}xx has holes");
        }
    }

    fn scan_dir(dir: &std::path::Path, found: &mut std::collections::BTreeSet<String>) {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "vendor" && !name.starts_with('.') {
                    scan_dir(&path, found);
                }
            } else if name.ends_with(".rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    scan_text(&text, found);
                }
            }
        }
    }

    fn scan_text(text: &str, found: &mut std::collections::BTreeSet<String>) {
        let bytes = text.as_bytes();
        let mut i = 0;
        while i + 6 <= bytes.len() {
            if bytes[i] == b'A'
                && bytes[i + 1] == b'C'
                && bytes[i + 2..i + 6].iter().all(u8::is_ascii_digit)
                && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
                && (i + 6 == bytes.len() || !bytes[i + 6].is_ascii_alphanumeric())
            {
                found.insert(text[i..i + 6].to_string());
                i += 6;
            } else {
                i += 1;
            }
        }
    }

    /// Scans every workspace `.rs` file for `ACnnnn` literals and
    /// asserts each one is registered — a code emitted by any pass can
    /// never drift away from the registry table the docs and CLI print.
    #[test]
    fn every_emitted_code_is_registered() {
        use std::collections::BTreeSet;
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let mut found: BTreeSet<String> = BTreeSet::new();
        scan_dir(&root.join("crates"), &mut found);
        let registered: BTreeSet<String> = registry().iter().map(|r| r.code.to_string()).collect();
        assert!(
            found.len() >= 20,
            "scanner should see most of the registry, found {found:?}"
        );
        for code in &found {
            assert!(
                registered.contains(code),
                "{code} appears in the workspace but is not in codes::registry()"
            );
        }
    }
}
