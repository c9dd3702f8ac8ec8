//! Graph compilation: schedule, buffer-lifetime planning, and execution.
//!
//! [`Graph::compile`] turns a validated graph into a [`CompiledPlan`]:
//!
//! 1. the fusion pass ([`crate::fuse`]) folds elementwise chains into
//!    GEMM epilogues (per [`FusePolicy`]);
//! 2. the remaining nodes become a linear schedule of steps in
//!    topological (= construction) order;
//! 3. **liveness** is derived per value: defined at its producing step,
//!    dead after its last reading step (outputs live to the end). At run
//!    time every intermediate is leased from the caller's
//!    [`Workspace`] freelist arena at its definition and recycled the
//!    moment it dies, so the arena's high-water mark is the *planned*
//!    peak — reported statically by
//!    [`CompiledPlan::peak_workspace_bytes`] — instead of whatever a
//!    hand-threaded `_ws` call sequence happened to hold.
//!
//! A plan borrows nothing: it is compiled once and executed many times
//! with different bindings ([`CompiledPlan::run`]). [`Graph::compile`] is
//! the uncached primitive — `actcomp check`, the benches and the tests
//! compile against it and own what it returns. The layers instead ask
//! their rank's arena, [`Workspace::plan`], which keeps the compiled
//! plans in a `PlanCache` keyed by a [`PlanKey`]: the name of the
//! builder that makes the graph (`actcomp-nn`'s `graphs` module) and its
//! arguments. The graph is built and compiled only on a miss, so a
//! layer's forward and backward compile once per distinct shape, and a
//! hit costs a key compare, not a graph. The cache holds at most
//! [`PLAN_CACHE_CAP`] plans and drops the least recently used beyond
//! that, so variable-shape serving cannot grow it.
//!
//! A warm [`CompiledPlan::run`] allocates nothing: the per-value table
//! and each fused epilogue live on the stack, every buffer is leased
//! from the [`Workspace`] (unzeroed, since every step writes each element
//! of what it produces), and outputs come back in the caller's bindings.
//!
//! # Bit-identity
//!
//! Execution is bit-identical across pool sizes (the kernel determinism
//! contract) **and** across [`FusePolicy::Auto`] vs [`FusePolicy::None`]:
//! a fused epilogue applies the same scalar ops per element, in the same
//! order, as the unfused per-op passes — `crates/tensor/tests` enforces
//! both properties with proptests.

use crate::fuse::{self, Fusion};
use crate::graph::{EwOp, GemmKind, Graph, GraphError, NodeKind, ValueId};
use crate::kernels::{self, EpOp, Epilogue};
use crate::ops;
use crate::pool;
use crate::workspace::Workspace;
use std::sync::Arc;

/// How much fusion [`Graph::compile`] performs.
#[derive(Clone, Debug, Default)]
pub enum FusePolicy {
    /// Fuse every chain the legality rules allow (the default).
    #[default]
    Auto,
    /// Fuse nothing — the reference executor for bit-identity tests.
    None,
    /// Like `Auto`, but compilation fails with
    /// [`GraphError::IllegalFusion`] unless each listed GEMM absorbs its
    /// entire elementwise consumer chain. The fused benches and the
    /// `actcomp check` AC0903 diagnostic use this to make fusion a
    /// guarantee instead of a best effort.
    Forced(Vec<ValueId>),
}

/// One schedule entry; the payload is the producing node's id.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A GEMM (possibly with a fused epilogue — looked up in the plan's
    /// [`Fusion`] record by node id).
    Gemm(ValueId),
    /// An unfused elementwise op.
    Ew(ValueId),
    /// Layer normalization forward (also produces its aux caches).
    LnForward(ValueId),
    /// Layer normalization backward (also produces `dγ`/`dβ`).
    LnBackward(ValueId),
    /// Column-sum reduction.
    SumAxis0(ValueId),
}

impl Step {
    fn node(self) -> ValueId {
        match self {
            Step::Gemm(v)
            | Step::Ew(v)
            | Step::LnForward(v)
            | Step::LnBackward(v)
            | Step::SumAxis0(v) => v,
        }
    }
}

/// How the caller binds one graph output at [`CompiledPlan::run`] time.
/// `run` hands every binding back: a [`OutBind::Lease`] comes back as
/// [`OutBind::Leased`], the others as they went in.
#[derive(Debug, Default)]
pub enum OutBind<'a> {
    /// Lease a buffer from the workspace for the value.
    #[default]
    Lease,
    /// The buffer a [`OutBind::Lease`] got, holding the value (the
    /// caller recycles it, typically via [`Workspace::recycle`]).
    Leased(Vec<f32>),
    /// Write the value into this caller-owned slice.
    Write(&'a mut [f32]),
    /// Accumulate the value into this caller-owned slice (`buf += v`) —
    /// parameter-gradient accumulation without a product temporary.
    /// Legal only for values produced by a GEMM's primary output, a
    /// [`SumAxis0`](crate::graph::NodeKind::SumAxis0) reduction, or a
    /// layernorm-backward `dγ`/`dβ` aux.
    Acc(&'a mut [f32]),
}

impl OutBind<'_> {
    /// The leased buffer of an output bound with [`OutBind::Lease`].
    ///
    /// # Panics
    ///
    /// Panics if the output was bound to a caller buffer.
    #[must_use]
    pub fn leased(self) -> Vec<f32> {
        match self {
            OutBind::Leased(buf) => buf,
            _ => panic!("output was not leased"),
        }
    }
}

/// A compiled, reusable execution plan for a [`Graph`].
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    graph: Graph,
    fusion: Fusion,
    steps: Vec<Step>,
    /// Per step: the values that die with it, in recycle order — its
    /// plan-produced operands read here for the last time, then whatever
    /// it produced that nothing reads. Outputs are the caller's.
    release: Vec<Vec<ValueId>>,
    /// Per value: the last step index reading it (None if never read).
    last_use: Vec<Option<usize>>,
    /// Per value: marked as a graph output.
    is_output: Vec<bool>,
    /// Per value: materialized as a fused GEMM's stash.
    is_stash: Vec<bool>,
    peak_bytes: usize,
    unfused_bytes: usize,
}

impl Graph {
    /// Compiles the graph: validate, fuse, plan lifetimes.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from validation, and
    /// [`GraphError::IllegalFusion`] under [`FusePolicy::Forced`].
    ///
    /// # Panics
    ///
    /// Panics if an input value was marked as an output.
    pub fn compile(&self, policy: FusePolicy) -> Result<CompiledPlan, GraphError> {
        self.validate()?;
        for &o in self.output_ids() {
            assert!(
                !matches!(self.node_kind(o), NodeKind::Input),
                "input {o} marked as output"
            );
        }
        let fusion = match &policy {
            FusePolicy::None => Fusion::default(),
            FusePolicy::Auto => fuse::fuse(self, &[])?,
            FusePolicy::Forced(gemms) => fuse::fuse(self, gemms)?,
        };
        Ok(CompiledPlan::build(self.clone(), fusion))
    }
}

impl CompiledPlan {
    fn build(graph: Graph, fusion: Fusion) -> CompiledPlan {
        let n = graph.len();
        // Values that vanish into an epilogue, and chain-final/stash
        // values produced by their GEMM's step instead of their own.
        let mut fused_out = vec![false; n];
        for f in &fusion.gemms {
            for &a in &f.absorbed {
                fused_out[a] = true;
            }
            fused_out[f.out_value] = true;
            if let Some(s) = f.stash_value {
                if s != f.gemm {
                    fused_out[s] = true;
                }
            }
        }
        let mut steps = Vec::new();
        for (v, &fused) in fused_out.iter().enumerate() {
            if fused {
                continue;
            }
            match graph.node_kind(v) {
                NodeKind::Input | NodeKind::Aux { .. } => {}
                NodeKind::Gemm { .. } => steps.push(Step::Gemm(v)),
                NodeKind::Ew { .. } => steps.push(Step::Ew(v)),
                NodeKind::LnForward { .. } => steps.push(Step::LnForward(v)),
                NodeKind::LnBackward { .. } => steps.push(Step::LnBackward(v)),
                NodeKind::SumAxis0 { .. } => steps.push(Step::SumAxis0(v)),
            }
        }
        let mut def_step = vec![None; n];
        let mut last_use = vec![None; n];
        let mut is_output = vec![false; n];
        let mut is_stash = vec![false; n];
        for &o in graph.output_ids() {
            is_output[o] = true;
        }
        for f in &fusion.gemms {
            if let Some(s) = f.stash_value {
                is_stash[s] = true;
            }
        }
        for (idx, step) in steps.iter().enumerate() {
            for v in produced_values(&graph, &fusion, *step) {
                def_step[v] = Some(idx);
            }
            for v in read_values(&graph, &fusion, *step) {
                last_use[v] = Some(idx);
            }
        }
        // Simulate the leases: peak live bytes over the schedule, with
        // every output pessimistically assumed leased (OutBind::Lease).
        let bytes = |v: ValueId| {
            let (r, c) = graph.shape(v);
            r * c * std::mem::size_of::<f32>()
        };
        let mut live = 0usize;
        let mut peak = 0usize;
        let mut release = Vec::with_capacity(steps.len());
        for (idx, step) in steps.iter().enumerate() {
            let produced = produced_values(&graph, &fusion, *step);
            live += produced.iter().map(|&v| bytes(v)).sum::<usize>();
            peak = peak.max(live);
            let mut dying: Vec<ValueId> = Vec::new();
            for v in read_values(&graph, &fusion, *step) {
                let dies = last_use[v] == Some(idx) && def_step[v].is_some() && !is_output[v];
                if dies && !dying.contains(&v) {
                    dying.push(v);
                }
            }
            dying.extend(
                produced
                    .into_iter()
                    .filter(|&v| last_use[v].is_none() && !is_output[v]),
            );
            live -= dying.iter().map(|&v| bytes(v)).sum::<usize>();
            release.push(dying);
        }
        // The hand-threaded `_ws` baseline: PR 4-style layer code
        // materialized every intermediate of the *unfused* graph as its
        // own full buffer (activations, pre-activations, LN caches, …).
        let unfused_bytes = (0..n)
            .filter(|&v| !matches!(graph.node_kind(v), NodeKind::Input))
            .map(bytes)
            .sum();
        CompiledPlan {
            graph,
            fusion,
            steps,
            release,
            last_use,
            is_output,
            is_stash,
            peak_bytes: peak,
            unfused_bytes,
        }
    }

    /// Statically-planned peak of live leased bytes during a run (all
    /// outputs assumed leased). Kernel-internal packing scratch (B
    /// panels, `tn` staging) is transient per-GEMM and not part of the
    /// plan, exactly as it was not part of hand-threaded buffers.
    #[must_use]
    pub fn peak_workspace_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The hand-threaded `_ws` baseline: total bytes of every non-input
    /// value of the unfused graph — what PR 4-style layer code
    /// materialized as separate full tensors.
    #[must_use]
    pub fn unfused_value_bytes(&self) -> usize {
        self.unfused_bytes
    }

    /// Number of GEMMs that fused at least one epilogue op.
    #[must_use]
    pub fn fused_gemm_count(&self) -> usize {
        self.fusion.gemms.len()
    }

    /// The graph this plan executes.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Executes the plan. `inputs` bind positionally to the graph's
    /// declared inputs, `outs` to its marked outputs; every
    /// [`OutBind::Lease`] comes back as [`OutBind::Leased`] with the
    /// value. Intermediates are leased from `ws` and recycled at their
    /// planned last use. A warm run allocates nothing: its per-value
    /// table and each GEMM's epilogue live on the stack (up to
    /// `INLINE_VALUES` values and `INLINE_EPILOGUE` fused ops; a larger
    /// plan takes one heap table per run), and every buffer comes from
    /// `ws`.
    ///
    /// # Panics
    ///
    /// Panics on binding-count or length mismatches, on
    /// [`OutBind::Leased`] as a binding, on [`OutBind::Acc`] for a value
    /// whose producer cannot accumulate (see [`OutBind`]), and if the plan
    /// reads a buffer outside its planned lifetime (a planner bug, not a
    /// caller error).
    pub fn run(&self, inputs: &[&[f32]], outs: &mut [OutBind<'_>], ws: &mut Workspace) {
        let g = &self.graph;
        let mut inline: [Slot<'_, '_>; INLINE_VALUES] = std::array::from_fn(|_| Slot::Empty);
        let mut heap = Vec::new();
        let slots = match inline.get_mut(..g.len()) {
            Some(slots) => slots,
            None => {
                heap.resize_with(g.len(), || Slot::Empty);
                &mut heap[..]
            }
        };
        assert_eq!(inputs.len(), g.input_ids().len(), "input binding count");
        assert_eq!(outs.len(), g.output_ids().len(), "output binding count");
        for (&id, &src) in g.input_ids().iter().zip(inputs) {
            let (r, c) = g.shape(id);
            assert_eq!(src.len(), r * c, "input {id} length");
            slots[id] = Slot::In(src);
        }
        for (&id, bind) in g.output_ids().iter().zip(outs.iter_mut()) {
            let (r, c) = g.shape(id);
            match std::mem::take(bind) {
                OutBind::Lease => {}
                OutBind::Leased(_) => panic!("output {id} bound as Leased: bind Lease"),
                OutBind::Write(buf) => {
                    assert_eq!(buf.len(), r * c, "output {id} length");
                    slots[id] = Slot::Ext { buf, acc: false };
                }
                OutBind::Acc(buf) => {
                    assert_eq!(buf.len(), r * c, "output {id} length");
                    assert!(
                        self.can_accumulate(id),
                        "OutBind::Acc on value {id}, whose producer cannot accumulate"
                    );
                    slots[id] = Slot::Ext { buf, acc: true };
                }
            }
        }
        for (idx, (&step, dying)) in self.steps.iter().zip(&self.release).enumerate() {
            self.exec_step(step, idx, slots, ws);
            for &v in dying {
                if let Slot::Owned(buf) = std::mem::replace(&mut slots[v], Slot::Empty) {
                    ws.recycle(buf);
                }
            }
        }
        for (&id, bind) in g.output_ids().iter().zip(outs) {
            *bind = match std::mem::replace(&mut slots[id], Slot::Empty) {
                Slot::Owned(buf) => OutBind::Leased(buf),
                Slot::Ext { buf, acc: false } => OutBind::Write(buf),
                Slot::Ext { buf, acc: true } => OutBind::Acc(buf),
                _ => panic!("output {id} was never produced"),
            };
        }
    }

    /// True when `OutBind::Acc` is legal for output `v`.
    fn can_accumulate(&self, v: ValueId) -> bool {
        if self.is_stash[v] {
            return false;
        }
        // The value may be produced by its own node's step, or be the
        // chain-final value of a fused GEMM.
        if let Some(f) = self.fusion.gemms.iter().find(|f| f.out_value == v) {
            return f.stash_value != Some(v)
                && matches!(self.graph.node_kind(f.gemm), NodeKind::Gemm { .. });
        }
        match self.graph.node_kind(v) {
            NodeKind::Gemm { .. } | NodeKind::SumAxis0 { .. } => true,
            NodeKind::Aux { node, .. } => {
                matches!(self.graph.node_kind(node), NodeKind::LnBackward { .. })
            }
            _ => false,
        }
    }

    fn exec_step(&self, step: Step, idx: usize, slots: &mut [Slot<'_, '_>], ws: &mut Workspace) {
        let g = &self.graph;
        let node = step.node();
        match step {
            Step::Gemm(_) => {
                let NodeKind::Gemm { kind, a, b } = g.node_kind(node) else {
                    unreachable!("gemm step on non-gemm node")
                };
                let fused = self.fusion.for_gemm(node);
                let out_id = fused.map_or(node, |f| f.out_value);
                let stash_id = fused.and_then(|f| f.stash_value);
                let (m, n) = g.shape(out_id);
                let k = match kind {
                    GemmKind::NN | GemmKind::NT => g.shape(a).1,
                    GemmKind::TN => g.shape(a).0,
                };
                let mut out = take_target(slots, out_id, m * n, ws);
                let mut stash = stash_id.map(|s| {
                    let (sr, sc) = g.shape(s);
                    take_target(slots, s, sr * sc, ws)
                });
                {
                    let asl = slot_slice(slots, a);
                    let bsl = slot_slice(slots, b);
                    let ops = fused.map_or(&[][..], |f| &f.ops[..]);
                    let (mut inline, mut heap) = ([EpOp::Relu; INLINE_EPILOGUE], Vec::new());
                    let ep_ops = match inline.get_mut(..ops.len()) {
                        Some(ep_ops) => ep_ops,
                        None => {
                            heap.resize(ops.len(), EpOp::Relu);
                            &mut heap[..]
                        }
                    };
                    for (d, op) in ep_ops.iter_mut().zip(ops) {
                        *d = lower_ep(*op, slots);
                    }
                    let ep = Epilogue {
                        ops: ep_ops,
                        stash_after: fused.and_then(|f| f.stash_after),
                    };
                    let accumulate = out.acc();
                    let threads = pool::configured_threads();
                    let osl = out.slice_mut();
                    let ssl = stash.as_mut().map(|s| s.slice_mut());
                    match kind {
                        GemmKind::NN => kernels::gemm_nn_ep(
                            osl, accumulate, asl, bsl, m, k, n, threads, ws, &ep, ssl,
                        ),
                        GemmKind::TN => kernels::gemm_tn_ep(
                            osl, accumulate, asl, bsl, k, m, n, threads, ws, &ep, ssl,
                        ),
                        GemmKind::NT => kernels::gemm_nt_ep(
                            osl, accumulate, asl, bsl, m, k, n, threads, ws, &ep, ssl,
                        ),
                    }
                }
                restore(slots, out_id, out);
                if let (Some(s), Some(t)) = (stash_id, stash) {
                    restore(slots, s, t);
                }
            }
            Step::Ew(_) => {
                let NodeKind::Ew { x, op } = g.node_kind(node) else {
                    unreachable!("ew step on non-ew node")
                };
                let (m, n) = g.shape(node);
                // Steal the input buffer when this op is its last reader:
                // the single biggest liveness win, and bit-identical since
                // the same scalar runs either way.
                let can_steal = !self.is_output[x]
                    && self.last_use[x] == Some(idx)
                    && matches!(slots[x], Slot::Owned(_))
                    && matches!(slots[node], Slot::Empty)
                    && op.operand() != Some(x);
                if can_steal {
                    let Slot::Owned(mut buf) = std::mem::replace(&mut slots[x], Slot::Empty) else {
                        unreachable!("checked above")
                    };
                    apply_ew_inplace(op, &mut buf, n, slots);
                    slots[node] = Slot::Owned(buf);
                } else {
                    let mut out = take_target(slots, node, m * n, ws);
                    {
                        let acc = out.acc();
                        let src = slot_slice(slots, x);
                        apply_ew(op, src, out.slice_mut(), acc, n, slots);
                    }
                    restore(slots, node, out);
                }
            }
            Step::LnForward(_) => {
                let NodeKind::LnForward {
                    x,
                    gamma,
                    beta,
                    eps,
                } = g.node_kind(node)
                else {
                    unreachable!("ln step on non-ln node")
                };
                let (m, n) = g.shape(node);
                let aux = g.aux_of(node);
                let mut y = take_target(slots, node, m * n, ws);
                let mut xhat = take_aux(slots, aux, 0, m * n, ws);
                let mut inv_std = take_aux(slots, aux, 1, m, ws);
                {
                    let xs = slot_slice(slots, x);
                    let gsl = slot_slice(slots, gamma);
                    let bsl = slot_slice(slots, beta);
                    ln_forward(
                        xs,
                        gsl,
                        bsl,
                        eps,
                        m,
                        n,
                        y.slice_mut(),
                        xhat.slice_mut(),
                        inv_std.slice_mut(),
                    );
                }
                restore(slots, node, y);
                restore_aux(slots, aux, 0, xhat, ws);
                restore_aux(slots, aux, 1, inv_std, ws);
            }
            Step::LnBackward(_) => {
                let NodeKind::LnBackward {
                    dy,
                    xhat,
                    inv_std,
                    gamma,
                } = g.node_kind(node)
                else {
                    unreachable!("ln backward step on wrong node")
                };
                let (m, n) = g.shape(node);
                let aux = g.aux_of(node);
                let mut dx = take_target(slots, node, m * n, ws);
                let mut dgamma = take_aux(slots, aux, 0, n, ws);
                let mut dbeta = take_aux(slots, aux, 1, n, ws);
                {
                    let dgamma_acc = dgamma.acc();
                    let dbeta_acc = dbeta.acc();
                    let dys = slot_slice(slots, dy);
                    let xhs = slot_slice(slots, xhat);
                    let iss = slot_slice(slots, inv_std);
                    let gsl = slot_slice(slots, gamma);
                    ln_backward(
                        dys,
                        xhs,
                        iss,
                        gsl,
                        m,
                        n,
                        dx.slice_mut(),
                        dgamma.slice_mut(),
                        dgamma_acc,
                        dbeta.slice_mut(),
                        dbeta_acc,
                    );
                }
                restore(slots, node, dx);
                restore_aux(slots, aux, 0, dgamma, ws);
                restore_aux(slots, aux, 1, dbeta, ws);
            }
            Step::SumAxis0(_) => {
                let NodeKind::SumAxis0 { x } = g.node_kind(node) else {
                    unreachable!("sum step on non-sum node")
                };
                let (m, n) = g.shape(x);
                let mut out = take_target(slots, node, n, ws);
                {
                    let xs = slot_slice(slots, x);
                    let acc = out.acc();
                    let osl = out.slice_mut();
                    if !acc {
                        osl.fill(0.0);
                    }
                    for i in 0..m {
                        let row = &xs[i * n..][..n];
                        for (o, &v) in osl.iter_mut().zip(row) {
                            *o += v;
                        }
                    }
                }
                restore(slots, node, out);
            }
        }
    }
}

/// Values a plan runs with its slot table on the stack; a larger plan
/// takes one heap table per run. The layer graphs have at most 18.
const INLINE_VALUES: usize = 32;

/// Fused ops a GEMM's epilogue is lowered into on the stack; a longer
/// chain takes one heap list per call. The layer graphs fuse at most 2.
const INLINE_EPILOGUE: usize = 8;

/// Value storage during a run: inputs borrowed for `'i`, caller output
/// buffers for `'o`.
enum Slot<'i, 'o> {
    /// Not yet produced, already recycled, or moved into a target.
    Empty,
    /// Leased from the workspace.
    Owned(Vec<f32>),
    /// Caller input.
    In(&'i [f32]),
    /// Caller output buffer (`acc`: accumulate instead of overwrite).
    Ext { buf: &'o mut [f32], acc: bool },
}

/// A buffer a step writes: leased or external.
enum Target<'o> {
    Owned(Vec<f32>),
    Ext {
        buf: &'o mut [f32],
        acc: bool,
    },
    /// Scratch for an aux value the graph never declared: computed, then
    /// recycled immediately.
    Temp(Vec<f32>),
}

impl Target<'_> {
    fn slice_mut(&mut self) -> &mut [f32] {
        match self {
            Target::Owned(b) | Target::Temp(b) => b,
            Target::Ext { buf, .. } => buf,
        }
    }

    fn acc(&self) -> bool {
        matches!(self, Target::Ext { acc: true, .. })
    }
}

/// The buffer step output `v` is written into. Every step writes each
/// element of its outputs before anything reads them (an accumulating
/// output is always bound externally), so a leased buffer skips the
/// zero fill.
fn take_target<'o>(
    slots: &mut [Slot<'_, 'o>],
    v: ValueId,
    len: usize,
    ws: &mut Workspace,
) -> Target<'o> {
    match std::mem::replace(&mut slots[v], Slot::Empty) {
        Slot::Empty => Target::Owned(ws.lease_scratch(len)),
        Slot::Ext { buf, acc } => Target::Ext { buf, acc },
        Slot::Owned(_) | Slot::In(_) => panic!("value {v} produced twice"),
    }
}

fn restore<'o>(slots: &mut [Slot<'_, 'o>], v: ValueId, t: Target<'o>) {
    match t {
        Target::Owned(b) => slots[v] = Slot::Owned(b),
        Target::Ext { buf, acc } => slots[v] = Slot::Ext { buf, acc },
        Target::Temp(_) => unreachable!("temps are not slot-backed"),
    }
}

fn take_aux<'o>(
    slots: &mut [Slot<'_, 'o>],
    aux: [Option<ValueId>; 2],
    slot: usize,
    len: usize,
    ws: &mut Workspace,
) -> Target<'o> {
    match aux[slot] {
        Some(v) => take_target(slots, v, len, ws),
        None => Target::Temp(ws.lease_scratch(len)),
    }
}

fn restore_aux<'o>(
    slots: &mut [Slot<'_, 'o>],
    aux: [Option<ValueId>; 2],
    slot: usize,
    t: Target<'o>,
    ws: &mut Workspace,
) {
    match (aux[slot], t) {
        (_, Target::Temp(b)) => ws.recycle(b),
        (Some(v), t) => restore(slots, v, t),
        (None, Target::Owned(b)) => ws.recycle(b),
        (None, Target::Ext { .. }) => unreachable!("ext target without an aux value"),
    }
}

fn slot_slice<'s>(slots: &'s [Slot<'_, '_>], v: ValueId) -> &'s [f32] {
    match &slots[v] {
        Slot::Owned(b) => b,
        Slot::In(s) => s,
        Slot::Ext { buf, .. } => buf,
        Slot::Empty => panic!("value {v} read outside its planned lifetime"),
    }
}

/// Lowers a graph elementwise op to a kernel epilogue op by resolving its
/// operand to a slice.
fn lower_ep<'s>(op: EwOp, slots: &'s [Slot<'_, '_>]) -> EpOp<'s> {
    match op {
        EwOp::BiasAdd(v) => EpOp::BiasAdd(slot_slice(slots, v)),
        EwOp::ResidualAdd(v) => EpOp::ResidualAdd(slot_slice(slots, v)),
        EwOp::MaskMul(v) => EpOp::MaskMul(slot_slice(slots, v)),
        EwOp::Scale(s) => EpOp::Scale(s),
        EwOp::Gelu => EpOp::Gelu,
        EwOp::Tanh => EpOp::Tanh,
        EwOp::Relu => EpOp::Relu,
        EwOp::GeluGradMul(v) => EpOp::GeluGradMul(slot_slice(slots, v)),
    }
}

/// The scalar for one elementwise op — the *same* function the fused
/// epilogue applies per element, which is what makes fused and unfused
/// execution bit-identical.
#[inline(always)]
/// Applies `op` from `src` into `dst`. Dispatches once per pass and
/// runs a tight per-arm loop (row-chunked for the per-column bias, so
/// no per-element index modulo) that the autovectorizer can widen; each
/// arm computes exactly the same scalar as the GEMM epilogue's
/// `EpOp::apply`, in the same element order, so unfused execution stays
/// bit-identical to fused.
fn apply_ew(
    op: EwOp,
    src: &[f32],
    dst: &mut [f32],
    acc: bool,
    cols: usize,
    slots: &[Slot<'_, '_>],
) {
    assert!(!acc, "OutBind::Acc is not legal for elementwise outputs");
    let operand = op.operand().map(|v| slot_slice(slots, v));
    match op {
        EwOp::BiasAdd(_) => {
            let b = operand.expect("bias operand");
            for (drow, srow) in dst.chunks_mut(cols).zip(src.chunks(cols)) {
                for ((d, &s), &bv) in drow.iter_mut().zip(srow).zip(b) {
                    *d = s + bv;
                }
            }
        }
        EwOp::ResidualAdd(_) => {
            let r = operand.expect("residual operand");
            for ((d, &s), &rv) in dst.iter_mut().zip(src).zip(r) {
                *d = s + rv;
            }
        }
        EwOp::MaskMul(_) => {
            let mk = operand.expect("mask operand");
            for ((d, &s), &mv) in dst.iter_mut().zip(src).zip(mk) {
                *d = s * mv;
            }
        }
        EwOp::Scale(sc) => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s * sc;
            }
        }
        EwOp::Gelu => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = ops::gelu(s);
            }
        }
        EwOp::Tanh => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = ops::fast_tanh(s);
            }
        }
        EwOp::Relu => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.max(0.0);
            }
        }
        EwOp::GeluGradMul(_) => {
            let h = operand.expect("gelu grad operand");
            for ((d, &s), &hv) in dst.iter_mut().zip(src).zip(h) {
                *d = s * ops::gelu_grad(hv);
            }
        }
    }
}

/// In-place variant of [`apply_ew`], same per-arm loops.
fn apply_ew_inplace(op: EwOp, buf: &mut [f32], cols: usize, slots: &[Slot<'_, '_>]) {
    let operand = op.operand().map(|v| slot_slice(slots, v));
    match op {
        EwOp::BiasAdd(_) => {
            let b = operand.expect("bias operand");
            for row in buf.chunks_mut(cols) {
                for (v, &bv) in row.iter_mut().zip(b) {
                    *v += bv;
                }
            }
        }
        EwOp::ResidualAdd(_) => {
            let r = operand.expect("residual operand");
            for (v, &rv) in buf.iter_mut().zip(r) {
                *v += rv;
            }
        }
        EwOp::MaskMul(_) => {
            let mk = operand.expect("mask operand");
            for (v, &mv) in buf.iter_mut().zip(mk) {
                *v *= mv;
            }
        }
        EwOp::Scale(sc) => {
            for v in buf.iter_mut() {
                *v *= sc;
            }
        }
        EwOp::Gelu => {
            for v in buf.iter_mut() {
                *v = ops::gelu(*v);
            }
        }
        EwOp::Tanh => {
            for v in buf.iter_mut() {
                *v = ops::fast_tanh(*v);
            }
        }
        EwOp::Relu => {
            for v in buf.iter_mut() {
                *v = v.max(0.0);
            }
        }
        EwOp::GeluGradMul(_) => {
            let h = operand.expect("gelu grad operand");
            for (v, &hv) in buf.iter_mut().zip(h) {
                *v *= ops::gelu_grad(hv);
            }
        }
    }
}

/// Layer normalization forward — the exact arithmetic of
/// `actcomp-nn`'s hand-written loop (two-pass population moments, then
/// one fused normalize/scale/shift pass), so graph execution is
/// bit-identical to what the layers computed before.
#[allow(clippy::too_many_arguments)]
fn ln_forward(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    m: usize,
    n: usize,
    y: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
) {
    for i in 0..m {
        let row = &x[i * n..][..n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let is = 1.0 / (var + eps).sqrt();
        inv_std[i] = is;
        for j in 0..n {
            let xh = (row[j] - mean) * is;
            xhat[i * n + j] = xh;
            y[i * n + j] = xh * gamma[j] + beta[j];
        }
    }
}

/// Layer normalization backward — same formulas (and accumulation order)
/// as the hand-written layer: `dx = 1/σ · (dŷ − (Σdŷ + x̂·Σ(dŷ⊙x̂))/n)`
/// with `dŷ = dy ⊙ γ`; `dγ = Σ_rows dy ⊙ x̂`; `dβ = Σ_rows dy`.
#[allow(clippy::too_many_arguments)]
fn ln_backward(
    dy: &[f32],
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    m: usize,
    n: usize,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dgamma_acc: bool,
    dbeta: &mut [f32],
    dbeta_acc: bool,
) {
    if !dgamma_acc {
        dgamma.fill(0.0);
    }
    if !dbeta_acc {
        dbeta.fill(0.0);
    }
    for i in 0..m {
        let row_dy = &dy[i * n..][..n];
        let row_xh = &xhat[i * n..][..n];
        for j in 0..n {
            dgamma[j] += row_dy[j] * row_xh[j];
            dbeta[j] += row_dy[j];
        }
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        for j in 0..n {
            let dyh = row_dy[j] * gamma[j];
            s1 += dyh;
            s2 += dyh * row_xh[j];
        }
        let is = inv_std[i];
        for j in 0..n {
            let dyh = row_dy[j] * gamma[j];
            dx[i * n + j] = is * (dyh - (s1 + row_xh[j] * s2) / n as f32);
        }
    }
}

/// The values a step defines (buffers it writes).
fn produced_values(g: &Graph, fusion: &Fusion, step: Step) -> Vec<ValueId> {
    let node = step.node();
    match step {
        Step::Gemm(_) => match fusion.for_gemm(node) {
            Some(f) => {
                let mut v = vec![f.out_value];
                if let Some(s) = f.stash_value {
                    v.push(s);
                }
                v
            }
            None => vec![node],
        },
        Step::Ew(_) | Step::SumAxis0(_) => vec![node],
        Step::LnForward(_) | Step::LnBackward(_) => {
            let mut v = vec![node];
            v.extend(g.aux_of(node).into_iter().flatten());
            v
        }
    }
}

/// The values a step reads.
fn read_values(g: &Graph, fusion: &Fusion, step: Step) -> Vec<ValueId> {
    let node = step.node();
    let mut reads = g.operands_of(node);
    if let Step::Gemm(_) = step {
        if let Some(f) = fusion.for_gemm(node) {
            for op in &f.ops {
                if let Some(o) = op.operand() {
                    reads.push(o);
                }
            }
        }
    }
    reads
}

/// Most plans a `PlanCache` keeps. A training rank runs 17 distinct
/// graphs and a serving stage 7 per sequence length (a request is its own
/// micro-batch), so steady state sits well inside it.
pub const PLAN_CACHE_CAP: usize = 128;

/// What [`Workspace::plan`] caches a plan under: the name of the builder
/// that makes its graph and the builder's arguments (unused words zero).
/// The builder owns the key's meaning: two equal keys must compile to the
/// same plan, so every argument its graph depends on — a dimension, a
/// constant's bit pattern, a variant — goes into `args`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanKey {
    /// The graph builder, e.g. `"mlp_up"`.
    pub builder: &'static str,
    /// The builder's arguments.
    pub args: [usize; 4],
}

/// One cached plan and the lookup tick it last served.
#[derive(Debug)]
struct CacheEntry {
    key: PlanKey,
    plan: Arc<CompiledPlan>,
    used: u64,
}

/// The compiled plans one [`Workspace`] owns — see the module doc. A hit
/// is a scan of at most [`PLAN_CACHE_CAP`] keys and an `Arc` clone: no
/// graph is built and nothing is allocated.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: Vec<CacheEntry>,
    tick: u64,
    compiles: u64,
}

impl PlanCache {
    pub(crate) fn get(
        &mut self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<CompiledPlan, GraphError>,
    ) -> Result<Arc<CompiledPlan>, GraphError> {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.used = self.tick;
            return Ok(Arc::clone(&e.plan));
        }
        let plan = Arc::new(compile()?);
        self.compiles += 1;
        if self.entries.len() == PLAN_CACHE_CAP {
            let oldest = (0..PLAN_CACHE_CAP)
                .min_by_key(|&i| self.entries[i].used)
                .expect("a full cache has entries");
            self.entries.swap_remove(oldest);
        }
        self.entries.push(CacheEntry {
            key,
            plan: Arc::clone(&plan),
            used: self.tick,
        });
        Ok(plan)
    }

    pub(crate) fn compiles(&self) -> u64 {
        self.compiles
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 7 + 3) % 23) as f32 - 11.0) * scale)
            .collect()
    }

    /// ffn-up style segment: gemm + bias + gelu, pre-activation stashed.
    fn ffn_up_graph(m: usize, k: usize, n: usize) -> (Graph, [usize; 2]) {
        let mut g = Graph::new();
        let x = g.input(m, k);
        let w = g.input(k, n);
        let b = g.input_vec(n);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b);
        let a = g.gelu(h);
        g.mark_output(a);
        g.mark_output(h);
        let _ = x;
        (g, [a, h])
    }

    #[test]
    fn fused_and_unfused_runs_are_bit_identical() {
        let (m, k, n) = (13, 9, 41);
        let (g, _) = ffn_up_graph(m, k, n);
        let x = seq(m * k, 0.25);
        let w = seq(k * n, 0.125);
        let b = seq(n, 0.5);
        let mut ws = Workspace::new();
        let fused = g.compile(FusePolicy::Auto).unwrap();
        assert_eq!(fused.fused_gemm_count(), 1);
        let unfused = g.compile(FusePolicy::None).unwrap();
        assert_eq!(unfused.fused_gemm_count(), 0);
        let mut rf = [OutBind::Lease, OutBind::Lease];
        let mut ru = [OutBind::Lease, OutBind::Lease];
        fused.run(&[&x, &w, &b], &mut rf, &mut ws);
        unfused.run(&[&x, &w, &b], &mut ru, &mut ws);
        for (a, b) in rf.into_iter().zip(ru) {
            assert_eq!(a.leased(), b.leased());
        }
    }

    #[test]
    fn planner_peak_is_at_most_the_unfused_baseline() {
        let (g, _) = ffn_up_graph(32, 16, 24);
        for policy in [FusePolicy::Auto, FusePolicy::None] {
            let p = g.compile(policy).unwrap();
            assert!(
                p.peak_workspace_bytes() <= p.unfused_value_bytes(),
                "peak {} > baseline {}",
                p.peak_workspace_bytes(),
                p.unfused_value_bytes()
            );
        }
    }

    #[test]
    fn acc_binding_accumulates_like_add_assign() {
        let (m, k, n) = (6, 5, 7);
        let mut g = Graph::new();
        let x = g.input(k, m); // [k, m] for tn
        let dy = g.input(k, n);
        let dw = g.matmul_tn(x, dy);
        g.mark_output(dw);
        let xs = seq(k * m, 0.5);
        let dys = seq(k * n, 0.25);
        let mut ws = Workspace::new();
        let plan = g.compile(FusePolicy::Auto).unwrap();
        let mut grad = seq(m * n, 1.0);
        let base = grad.clone();
        let mut r = [OutBind::Acc(&mut grad)];
        plan.run(&[&xs, &dys], &mut r, &mut ws);
        assert!(
            matches!(r[0], OutBind::Acc(_)),
            "a caller binding comes back"
        );
        let mut fresh = [OutBind::Lease];
        plan.run(&[&xs, &dys], &mut fresh, &mut ws);
        let [fresh] = fresh.map(OutBind::leased);
        for i in 0..m * n {
            assert_eq!(grad[i], base[i] + fresh[i], "accumulate semantics");
        }
    }

    #[test]
    fn layernorm_roundtrip_matches_hand_formula() {
        let (m, n) = (5, 8);
        let mut g = Graph::new();
        let x = g.input(m, n);
        let gamma = g.input_vec(n);
        let beta = g.input_vec(n);
        let (y, xhat, inv_std) = g.layernorm(x, gamma, beta, 1e-5);
        g.mark_output(y);
        g.mark_output(xhat);
        g.mark_output(inv_std);
        let xs = seq(m * n, 0.3);
        let gs = seq(n, 0.1).iter().map(|v| v + 1.0).collect::<Vec<_>>();
        let bs = seq(n, 0.05);
        let mut ws = Workspace::new();
        let plan = g.compile(FusePolicy::Auto).unwrap();
        let mut r = [OutBind::Lease, OutBind::Lease, OutBind::Lease];
        plan.run(&[&xs, &gs, &bs], &mut r, &mut ws);
        let [ys, _, inv] = r.map(OutBind::leased);
        // Row 0 by hand.
        let row = &xs[..n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let is = 1.0 / (var + 1e-5f32).sqrt();
        for j in 0..n {
            let want = (row[j] - mean) * is * gs[j] + bs[j];
            assert_eq!(ys[j], want, "j={j}");
        }
        assert_eq!(inv[0], is);
        let _ = (y, xhat, inv_std);
    }

    #[test]
    fn write_binding_lands_in_caller_buffer() {
        let (m, k, n) = (4, 3, 5);
        let mut g = Graph::new();
        let a = g.input(m, k);
        let b = g.input(k, n);
        let y = g.matmul(a, b);
        g.mark_output(y);
        let plan = g.compile(FusePolicy::Auto).unwrap();
        let av = seq(m * k, 0.5);
        let bv = seq(k * n, 0.5);
        let mut ws = Workspace::new();
        let mut ext = vec![9.0f32; m * n];
        let mut r = [OutBind::Write(&mut ext)];
        plan.run(&[&av, &bv], &mut r, &mut ws);
        assert!(
            matches!(r[0], OutBind::Write(_)),
            "a caller binding comes back"
        );
        let want = kernels::reference::matmul(&av, &bv, m, k, n);
        for i in 0..m * n {
            assert!((ext[i] - want[i]).abs() < 1e-4);
        }
    }
}
