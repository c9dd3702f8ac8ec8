//! GEMM-epilogue fusion pass over the op graph.
//!
//! [`fuse`] walks a validated [`Graph`] and, for each GEMM node, follows
//! the chain of elementwise consumers hanging off its primary value,
//! folding as many as legally possible into the GEMM's register-tile
//! epilogue ([`crate::kernels::Epilogue`]). A folded chain disappears
//! from the schedule: the GEMM writes the chain's *final* value directly,
//! applying the ops per element while the accumulator tile is still in
//! registers.
//!
//! # Legality rules
//!
//! A chain link `gemm → e₁ → e₂ → …` extends through `eᵢ` only when:
//!
//! 1. **Single consumer** — the value entering `eᵢ` is read by `eᵢ`
//!    alone. A value with other readers must be materialized; if it is
//!    *only* additionally marked as a graph output (e.g. the
//!    pre-activation a backward pass needs), the epilogue's single
//!    **stash** slot can materialize it mid-chain and fusion continues —
//!    but the slot exists once, so a second such value ends the chain.
//! 2. **Operand availability** — `eᵢ`'s operand (bias vector, residual,
//!    mask, stashed `h`) must be defined *before the GEMM executes*:
//!    an input, or a node that precedes the GEMM in the execution order.
//!    An operand computed between the GEMM and `eᵢ` in program order
//!    would not exist yet when the fused GEMM runs.
//! 3. **Elementwise only** — the consumer is an [`NodeKind::Ew`] node
//!    whose chain input is the running value (an `Ew` that reads the
//!    value as its *operand* — e.g. the residual side of an add — is a
//!    second reader under rule 1, not a chain link).
//!
//! The pass is conservative: anything it cannot prove legal stays
//! unfused, and unfused execution of the same ops is bit-identical (the
//! epilogue applies the same scalar function per element in the same
//! order as the separate passes — see the kernel determinism contract).
//! [`crate::plan::FusePolicy::Forced`] turns "could not fuse" into a
//! [`GraphError::IllegalFusion`] for callers (the fused benches, the
//! `actcomp check` AC0903 diagnostic) that need fusion to be guaranteed
//! rather than best-effort.

use crate::graph::{EwOp, Graph, GraphError, NodeKind, ValueId};

/// One fused GEMM: the chain of epilogue ops it absorbed and where the
/// optional stash sits.
#[derive(Clone, Debug)]
pub struct FusedGemm {
    /// The GEMM node.
    pub gemm: ValueId,
    /// Folded elementwise ops, in application order.
    pub ops: Vec<EwOp>,
    /// Chain position after which the stash materializes (counted like
    /// [`crate::kernels::Epilogue::stash_after`]: `Some(0)` stashes the
    /// raw GEMM result).
    pub stash_after: Option<usize>,
    /// The value the stash materializes.
    pub stash_value: Option<ValueId>,
    /// The chain's final value — the buffer the fused GEMM writes.
    pub out_value: ValueId,
    /// Every chain-intermediate value that no longer exists as a buffer
    /// (the fused-away `Ew` node ids, minus the stash value).
    pub absorbed: Vec<ValueId>,
}

/// Result of the fusion pass: which GEMMs fused what.
#[derive(Clone, Debug, Default)]
pub struct Fusion {
    /// Fused GEMMs by GEMM node id.
    pub gemms: Vec<FusedGemm>,
}

impl Fusion {
    /// The fusion record for a GEMM node, if it fused anything.
    #[must_use]
    pub fn for_gemm(&self, gemm: ValueId) -> Option<&FusedGemm> {
        self.gemms.iter().find(|f| f.gemm == gemm)
    }
}

/// Why a chain stopped extending at some link — [`GraphError::IllegalFusion`]
/// detail text under `FusePolicy::Forced`.
fn stop_reason(g: &Graph, v: ValueId, consumers: &[usize], used_stash: bool) -> String {
    let readers = consumers[v];
    if readers == 0 {
        "chain value has no consumer".to_string()
    } else if readers > 1 {
        format!("chain value {v} has {readers} readers; only one may follow the chain")
    } else if used_stash && g.output_ids().contains(&v) {
        format!("chain value {v} needs the stash slot, but it is already taken")
    } else {
        format!("consumer of value {v} is not a fusible elementwise op")
    }
}

/// Runs the fusion pass. With `forced` non-empty, every listed GEMM must
/// absorb its *entire* consumer chain (every transitive elementwise
/// consumer until a non-elementwise reader), or the pass fails — the
/// guarantee the fused benches and the AC0903 diagnostic rely on.
///
/// # Errors
///
/// [`GraphError::IllegalFusion`] when a forced GEMM's chain stops early.
pub fn fuse(g: &Graph, forced: &[ValueId]) -> Result<Fusion, GraphError> {
    let consumers = g.consumer_counts();
    // Map value -> the single Ew node that uses it as chain input, if any.
    let mut chain_next: Vec<Option<ValueId>> = vec![None; g.len()];
    for v in 0..g.len() {
        if let NodeKind::Ew { x, .. } = node_kind(g, v) {
            if chain_next[x].is_none() {
                chain_next[x] = Some(v);
            }
        }
    }
    let mut fusion = Fusion::default();
    let mut absorbed_global = vec![false; g.len()];
    for gemm in 0..g.len() {
        if !matches!(node_kind(g, gemm), NodeKind::Gemm { .. }) {
            continue;
        }
        let mut ops = Vec::new();
        let mut absorbed = Vec::new();
        let mut stash_after = None;
        let mut stash_value = None;
        let mut cur = gemm;
        let is_forced = forced.contains(&gemm);
        loop {
            // Rule 1: the running value must have exactly one reader, and
            // that reader must be its chain-`Ew`. If it is additionally a
            // marked output, the stash slot can cover it.
            let is_output = g.output_ids().contains(&cur);
            let next = chain_next[cur].filter(|&e| {
                consumers[cur] == 1 && matches!(node_kind(g, e), NodeKind::Ew { x, .. } if x == cur)
            });
            let Some(ew) = next else {
                if is_forced && consumers[cur] > 0 {
                    return Err(GraphError::IllegalFusion {
                        gemm,
                        detail: stop_reason(g, cur, &consumers, stash_value.is_some()),
                    });
                }
                break;
            };
            // Rule 2: the op's operand must exist before the GEMM runs.
            let NodeKind::Ew { op, .. } = node_kind(g, ew) else {
                unreachable!("filtered above")
            };
            if let Some(operand) = op.operand() {
                let available = operand < gemm || matches!(node_kind(g, operand), NodeKind::Input);
                if !available {
                    if is_forced {
                        return Err(GraphError::IllegalFusion {
                            gemm,
                            detail: format!(
                                "operand {operand} of elementwise node {ew} is not \
                                 available before the gemm executes"
                            ),
                        });
                    }
                    break;
                }
            }
            // Only now (the link is definitely taken) may an output-marked
            // chain value claim the single stash slot — claiming it on a
            // link that then fails rule 2 would leave the stash pointing
            // at the chain's final value, which is materialized anyway.
            if is_output {
                if stash_value.is_some() {
                    if is_forced {
                        return Err(GraphError::IllegalFusion {
                            gemm,
                            detail: stop_reason(g, cur, &consumers, true),
                        });
                    }
                    break;
                }
                stash_after = Some(ops.len());
                stash_value = Some(cur);
            }
            ops.push(op);
            if cur != gemm {
                absorbed.push(cur);
                absorbed_global[cur] = true;
            }
            cur = ew;
        }
        if ops.is_empty() {
            continue;
        }
        // The chain's intermediate values (absorbed) vanish; the final
        // value `cur` is what the fused GEMM writes. A stash value is
        // materialized, so it must not be listed as absorbed.
        let absorbed: Vec<ValueId> = absorbed
            .into_iter()
            .filter(|v| Some(*v) != stash_value)
            .collect();
        fusion.gemms.push(FusedGemm {
            gemm,
            ops,
            stash_after,
            stash_value,
            out_value: cur,
            absorbed,
        });
    }
    Ok(fusion)
}

fn node_kind(g: &Graph, v: ValueId) -> NodeKind {
    g.node_kind(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn full_chain_fuses_with_stash_for_preactivation() {
        let mut g = Graph::new();
        let x = g.input(4, 8);
        let w = g.input(8, 6);
        let b = g.input_vec(6);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b); // pre-activation, wanted for backward
        let a = g.gelu(h);
        g.mark_output(h);
        g.mark_output(a);
        let f = fuse(&g, &[y]).expect("legal chain");
        let fg = f.for_gemm(y).expect("fused");
        assert_eq!(fg.ops.len(), 2);
        assert_eq!(fg.stash_after, Some(1), "stash after the bias add");
        assert_eq!(fg.stash_value, Some(h));
        assert_eq!(fg.out_value, a);
        assert!(fg.absorbed.is_empty(), "h is stashed, a is the output");
    }

    #[test]
    fn multi_reader_intermediate_stops_the_chain() {
        let mut g = Graph::new();
        let x = g.input(4, 8);
        let w = g.input(8, 6);
        let b = g.input_vec(6);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b);
        let a = g.gelu(h);
        let z = g.residual_add(a, h); // second reader of h
        g.mark_output(z);
        let f = fuse(&g, &[]).expect("pass never fails unforced");
        let fg = f.for_gemm(y).expect("bias still fuses");
        assert_eq!(fg.ops.len(), 1, "chain must stop at h");
        assert_eq!(fg.out_value, h);
        assert!(fuse(&g, &[y]).is_err(), "forced full fusion is illegal");
    }

    #[test]
    fn operand_defined_after_gemm_is_illegal() {
        let mut g = Graph::new();
        let x = g.input(4, 8);
        let w = g.input(8, 6);
        let w2 = g.input(8, 6);
        let y = g.matmul(x, w);
        let r = g.matmul(x, w2); // defined after y's gemm
        let z = g.residual_add(y, r);
        g.mark_output(z);
        let f = fuse(&g, &[]).expect("unforced");
        assert!(f.for_gemm(y).is_none(), "r is not available at y's exec");
        match fuse(&g, &[y]) {
            Err(GraphError::IllegalFusion { gemm, .. }) => assert_eq!(gemm, y),
            other => panic!("want IllegalFusion, got {other:?}"),
        }
    }

    #[test]
    fn input_operands_are_always_available() {
        let mut g = Graph::new();
        let x = g.input(4, 8);
        let w = g.input(8, 6);
        let y = g.matmul(x, w);
        let res = g.input(4, 6); // declared after? no — inputs first here
        let z = g.residual_add(y, res);
        g.mark_output(z);
        // `res` has a higher id than the gemm but is an Input, so it is
        // bound before execution starts.
        let f = fuse(&g, &[y]).expect("input operands are available");
        assert_eq!(f.for_gemm(y).expect("fused").out_value, z);
    }
}
