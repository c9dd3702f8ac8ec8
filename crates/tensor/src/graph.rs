//! Op-graph IR over the blocked kernels.
//!
//! A [`Graph`] is a small static single-assignment expression graph: each
//! node produces one primary value (the node's index is its [`ValueId`]),
//! and a few node kinds additionally produce *auxiliary* values
//! ([`NodeKind::Aux`]) — layer normalization's cached `x̂` and `1/σ`, a
//! fused GEMM's stashed pre-activation. Layers build a graph segment per
//! forward/backward call with the [`Graph`] builder methods (acyclic by
//! construction: operands always reference already-built values), mark
//! which values the caller needs with [`Graph::mark_output`], and
//! [`Graph::compile`] it into a [`crate::plan::CompiledPlan`]:
//!
//! 1. **validate** — shape inference over the node set ([`Graph::validate`],
//!    also reachable from raw node lists via [`Graph::from_raw_nodes`] for
//!    `actcomp check`'s AC09xx diagnostics);
//! 2. **fuse** ([`crate::fuse`]) — elementwise chains hanging off a GEMM
//!    fold into the GEMM's register-tile epilogue;
//! 3. **plan** ([`crate::plan`]) — buffer lifetimes derived by liveness
//!    over the topological order, leased from the existing
//!    [`crate::Workspace`] freelist arena at definition and recycled at
//!    last use.
//!
//! The IR is deliberately sized to what the layers in `actcomp-nn`,
//! `actcomp-mp`, and `actcomp-runtime` execute: GEMM in the three
//! transpose variants, the fusible elementwise ops, layer normalization
//! (forward and backward, with their cached statistics), and the
//! column-sum reduction bias gradients need. It is not a general tensor
//! algebra — it is the seam that retired the hand-threaded `_ws`
//! plumbing (see DESIGN.md "Op graph & fusion").

/// Index of a value in a [`Graph`] — the node at the same index produces
/// it.
pub type ValueId = usize;

/// GEMM transpose variant, matching [`crate::kernels::gemm_nn_ep`] /
/// [`crate::kernels::gemm_tn_ep`] / [`crate::kernels::gemm_nt_ep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmKind {
    /// `a[m,k] @ b[k,n]`.
    NN,
    /// `aᵀ @ b` for `a[k,m]`, `b[k,n]` — the weight-gradient shape.
    TN,
    /// `a @ bᵀ` for `a[m,k]`, `b[n,k]` — the input-gradient shape.
    NT,
}

/// One elementwise op in the IR — the graph-level mirror of
/// [`crate::kernels::EpOp`], with operands as [`ValueId`]s instead of
/// slices.
/// Every variant is fusible into a GEMM epilogue; applied unfused it is
/// one whole-buffer pass of the identical scalar function, which is what
/// keeps fused and unfused execution bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EwOp {
    /// `v + bias[j]`; operand is a length-`cols` vector.
    BiasAdd(ValueId),
    /// `v + other[i,j]`; operand has the value's own shape.
    ResidualAdd(ValueId),
    /// `v · other[i,j]` — dropout-mask (or any elementwise) multiply.
    MaskMul(ValueId),
    /// `v · s`.
    Scale(f32),
    /// `gelu(v)` ([`crate::ops::gelu`]).
    Gelu,
    /// `tanh(v)` ([`crate::ops::fast_tanh`]).
    Tanh,
    /// `max(v, 0)`.
    Relu,
    /// `v · gelu'(h[i,j])` — the backward-GELU chain `da ⊙ gelu'(h)`
    /// applied to the incoming gradient `v = da`.
    GeluGradMul(ValueId),
}

impl EwOp {
    /// The operand value read by this op, if any.
    #[must_use]
    pub fn operand(&self) -> Option<ValueId> {
        match *self {
            EwOp::BiasAdd(v) | EwOp::ResidualAdd(v) | EwOp::MaskMul(v) | EwOp::GeluGradMul(v) => {
                Some(v)
            }
            _ => None,
        }
    }
}

/// What a node computes. The node's index in the graph's node list is
/// the id of its primary value.
#[derive(Clone, Copy, Debug)]
pub enum NodeKind {
    /// External value bound by the caller at run time (in declaration
    /// order).
    Input,
    /// Auxiliary output `slot` of node `node` (layernorm caches, GEMM
    /// stashes). Carries no computation of its own — it becomes live
    /// when its parent runs.
    Aux {
        /// The producing node.
        node: ValueId,
        /// Which auxiliary output of that node.
        slot: usize,
    },
    /// `a ⊗ b` in the given transpose variant.
    Gemm {
        /// Transpose variant.
        kind: GemmKind,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// One elementwise op applied to `x`.
    Ew {
        /// The value the op transforms.
        x: ValueId,
        /// The op.
        op: EwOp,
    },
    /// Layer normalization forward over rows of `x`; primary output `y`,
    /// aux slot 0 the normalized `x̂ [m,n]`, aux slot 1 the per-row
    /// `1/σ [m,1]` — the exact cache the backward pass needs.
    LnForward {
        /// Input `[m, n]`.
        x: ValueId,
        /// Scale `γ [n]`.
        gamma: ValueId,
        /// Shift `β [n]`.
        beta: ValueId,
        /// Variance floor.
        eps: f32,
    },
    /// Layer normalization backward; primary output `dx`, aux slot 0
    /// `dγ [n]`, aux slot 1 `dβ [n]`.
    LnBackward {
        /// Upstream gradient `[m, n]`.
        dy: ValueId,
        /// Cached normalized input from the forward pass.
        xhat: ValueId,
        /// Cached per-row `1/σ` from the forward pass.
        inv_std: ValueId,
        /// Scale `γ [n]`.
        gamma: ValueId,
    },
    /// Column sums: `[m, n] → [1, n]` (bias gradients).
    SumAxis0 {
        /// Input `[m, n]`.
        x: ValueId,
    },
}

/// `[rows, cols]` shape of a value; vectors are `[1, n]`.
pub type Shape2 = (usize, usize);

/// One node: its kind plus the inferred shape of its primary value.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// What the node computes.
    pub kind: NodeKind,
    /// Shape of the primary value.
    pub shape: Shape2,
}

/// Structural errors detected by graph validation — surfaced by
/// `actcomp check` as AC0901 (cycle), AC0902 (shape mismatch), and
/// AC0903 (illegal fusion).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The nodes cannot be ordered so every operand precedes its use —
    /// the dependency relation has a cycle.
    Cycle {
        /// A node on the unorderable remainder.
        node: ValueId,
    },
    /// Operand shapes disagree with what the node requires.
    ShapeMismatch {
        /// The offending node.
        node: ValueId,
        /// What disagreed.
        detail: String,
    },
    /// A fusion that [`crate::plan::FusePolicy::Forced`] demanded is not
    /// legal (see `crate::fuse` for the legality rules).
    IllegalFusion {
        /// The GEMM whose chain could not be fused.
        gemm: ValueId,
        /// Which rule failed.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle { node } => {
                write!(f, "graph has a dependency cycle through node {node}")
            }
            GraphError::ShapeMismatch { node, detail } => {
                write!(f, "shape mismatch at node {node}: {detail}")
            }
            GraphError::IllegalFusion { gemm, detail } => {
                write!(f, "illegal fusion at gemm node {gemm}: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A built op graph: nodes in a valid execution order, plus which values
/// the caller wants materialized.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Node list; index == primary [`ValueId`]. Always stored in a valid
    /// topological order (builder construction guarantees it;
    /// [`Graph::from_raw_nodes`] verifies it).
    pub(crate) nodes: Vec<Node>,
    /// Declared inputs, in binding order.
    pub(crate) inputs: Vec<ValueId>,
    /// Values the caller needs after the run, in binding order.
    pub(crate) outputs: Vec<ValueId>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: NodeKind, shape: Shape2) -> ValueId {
        let id = self.nodes.len();
        self.nodes.push(Node { kind, shape });
        id
    }

    /// Shape of a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn shape(&self, v: ValueId) -> Shape2 {
        self.nodes[v].shape
    }

    /// Number of nodes (== number of values).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Declares an external `[rows, cols]` input, bound positionally at
    /// run time.
    pub fn input(&mut self, rows: usize, cols: usize) -> ValueId {
        let id = self.push(NodeKind::Input, (rows, cols));
        self.inputs.push(id);
        id
    }

    /// Declares an external length-`n` vector input (`[1, n]`).
    pub fn input_vec(&mut self, n: usize) -> ValueId {
        self.input(1, n)
    }

    fn gemm(&mut self, kind: GemmKind, a: ValueId, b: ValueId) -> ValueId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        let (m, k, n) = match kind {
            GemmKind::NN => {
                assert_eq!(sa.1, sb.0, "gemm_nn inner dims {sa:?} @ {sb:?}");
                (sa.0, sa.1, sb.1)
            }
            GemmKind::TN => {
                assert_eq!(sa.0, sb.0, "gemm_tn inner dims {sa:?}ᵀ @ {sb:?}");
                (sa.1, sa.0, sb.1)
            }
            GemmKind::NT => {
                assert_eq!(sa.1, sb.1, "gemm_nt inner dims {sa:?} @ {sb:?}ᵀ");
                (sa.0, sa.1, sb.0)
            }
        };
        let _ = k;
        self.push(NodeKind::Gemm { kind, a, b }, (m, n))
    }

    /// `a[m,k] @ b[k,n]`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree (builder misuse; raw
    /// graphs get a [`GraphError`] instead).
    pub fn matmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.gemm(GemmKind::NN, a, b)
    }

    /// `aᵀ @ b` for `a[k,m]`, `b[k,n]` — weight gradients.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_tn(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.gemm(GemmKind::TN, a, b)
    }

    /// `a @ bᵀ` for `a[m,k]`, `b[n,k]` — input gradients and attention
    /// scores.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_nt(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.gemm(GemmKind::NT, a, b)
    }

    fn ew(&mut self, x: ValueId, op: EwOp) -> ValueId {
        let shape = self.shape(x);
        if let Some(o) = op.operand() {
            let os = self.shape(o);
            match op {
                EwOp::BiasAdd(_) => assert_eq!(
                    os.0 * os.1,
                    shape.1,
                    "bias operand {os:?} vs cols {}",
                    shape.1
                ),
                _ => assert_eq!(os, shape, "elementwise operand shape"),
            }
        }
        self.push(NodeKind::Ew { x, op }, shape)
    }

    /// `x + bias` broadcast over rows; `bias` is a `[1, n]` value.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths disagree.
    pub fn bias_add(&mut self, x: ValueId, bias: ValueId) -> ValueId {
        self.ew(x, EwOp::BiasAdd(bias))
    }

    /// `x + other` elementwise (residual connections).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn residual_add(&mut self, x: ValueId, other: ValueId) -> ValueId {
        self.ew(x, EwOp::ResidualAdd(other))
    }

    /// `x ⊙ mask` elementwise (dropout-mask apply).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn mask_mul(&mut self, x: ValueId, mask: ValueId) -> ValueId {
        self.ew(x, EwOp::MaskMul(mask))
    }

    /// `x · s`.
    pub fn scale(&mut self, x: ValueId, s: f32) -> ValueId {
        self.ew(x, EwOp::Scale(s))
    }

    /// `gelu(x)` elementwise.
    pub fn gelu(&mut self, x: ValueId) -> ValueId {
        self.ew(x, EwOp::Gelu)
    }

    /// `tanh(x)` elementwise.
    pub fn tanh(&mut self, x: ValueId) -> ValueId {
        self.ew(x, EwOp::Tanh)
    }

    /// `relu(x)` elementwise.
    pub fn relu(&mut self, x: ValueId) -> ValueId {
        self.ew(x, EwOp::Relu)
    }

    /// `x ⊙ gelu'(h)` — the backward-GELU chain applied to an incoming
    /// gradient `x = da` with stashed pre-activation `h`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn gelu_grad_mul(&mut self, x: ValueId, h: ValueId) -> ValueId {
        self.ew(x, EwOp::GeluGradMul(h))
    }

    /// Layer normalization forward; returns `(y, x̂, 1/σ)` — the latter
    /// two are the cache the backward pass consumes.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` lengths disagree with `x`'s columns.
    pub fn layernorm(
        &mut self,
        x: ValueId,
        gamma: ValueId,
        beta: ValueId,
        eps: f32,
    ) -> (ValueId, ValueId, ValueId) {
        let (m, n) = self.shape(x);
        let gs = self.shape(gamma);
        let bs = self.shape(beta);
        assert_eq!(gs.0 * gs.1, n, "layernorm gamma len");
        assert_eq!(bs.0 * bs.1, n, "layernorm beta len");
        let y = self.push(
            NodeKind::LnForward {
                x,
                gamma,
                beta,
                eps,
            },
            (m, n),
        );
        let xhat = self.push(NodeKind::Aux { node: y, slot: 0 }, (m, n));
        let inv_std = self.push(NodeKind::Aux { node: y, slot: 1 }, (m, 1));
        (y, xhat, inv_std)
    }

    /// Layer normalization backward; returns `(dx, dγ, dβ)`.
    ///
    /// # Panics
    ///
    /// Panics if the cache/operand shapes disagree with `dy`.
    pub fn layernorm_backward(
        &mut self,
        dy: ValueId,
        xhat: ValueId,
        inv_std: ValueId,
        gamma: ValueId,
    ) -> (ValueId, ValueId, ValueId) {
        let (m, n) = self.shape(dy);
        assert_eq!(self.shape(xhat), (m, n), "layernorm backward xhat shape");
        assert_eq!(
            self.shape(inv_std),
            (m, 1),
            "layernorm backward inv_std shape"
        );
        let gs = self.shape(gamma);
        assert_eq!(gs.0 * gs.1, n, "layernorm backward gamma len");
        let dx = self.push(
            NodeKind::LnBackward {
                dy,
                xhat,
                inv_std,
                gamma,
            },
            (m, n),
        );
        let dgamma = self.push(NodeKind::Aux { node: dx, slot: 0 }, (1, n));
        let dbeta = self.push(NodeKind::Aux { node: dx, slot: 1 }, (1, n));
        (dx, dgamma, dbeta)
    }

    /// Column sums `[m, n] → [1, n]` (bias gradients).
    pub fn sum_axis0(&mut self, x: ValueId) -> ValueId {
        let (_, n) = self.shape(x);
        self.push(NodeKind::SumAxis0 { x }, (1, n))
    }

    /// Marks `v` as an output the caller will bind at run time. Order of
    /// calls is the binding order. Marking the same value twice is a
    /// no-op.
    pub fn mark_output(&mut self, v: ValueId) {
        assert!(v < self.nodes.len(), "output id out of range");
        if !self.outputs.contains(&v) {
            self.outputs.push(v);
        }
    }

    /// Declared inputs in binding order.
    #[must_use]
    pub fn input_ids(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Declared outputs in binding order.
    #[must_use]
    pub fn output_ids(&self) -> &[ValueId] {
        &self.outputs
    }

    /// The kind of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn node_kind(&self, v: ValueId) -> NodeKind {
        self.nodes[v].kind
    }

    /// Dismantles the graph into its raw node list plus output markings
    /// — the inverse of [`Graph::from_raw_nodes`], used to serialize a
    /// built graph into the externally auditable form (`actcomp check`
    /// round-trips plans through this pair).
    #[must_use]
    pub fn into_raw_nodes(self) -> (Vec<Node>, Vec<ValueId>) {
        (self.nodes, self.outputs)
    }

    /// Every value id read by node `v` (operands, not aux parents).
    pub(crate) fn operands_of(&self, v: ValueId) -> Vec<ValueId> {
        match self.nodes[v].kind {
            NodeKind::Input => Vec::new(),
            // An aux value depends on its parent running, which the
            // schedule handles positionally; it reads no buffers itself.
            NodeKind::Aux { .. } => Vec::new(),
            NodeKind::Gemm { a, b, .. } => vec![a, b],
            NodeKind::Ew { x, op } => {
                let mut v = vec![x];
                if let Some(o) = op.operand() {
                    v.push(o);
                }
                v
            }
            NodeKind::LnForward { x, gamma, beta, .. } => vec![x, gamma, beta],
            NodeKind::LnBackward {
                dy,
                xhat,
                inv_std,
                gamma,
            } => vec![dy, xhat, inv_std, gamma],
            NodeKind::SumAxis0 { x } => vec![x],
        }
    }

    /// Rebuilds a graph from a raw node list plus output markings,
    /// verifying what the builder guarantees by construction: every
    /// operand (and aux parent) must be defined, the dependency relation
    /// must be acyclic, and every node's operand shapes must agree.
    /// Nodes may arrive in any order; they are re-sorted topologically
    /// (stably, by original id) and ids are preserved... ids are
    /// *not* renumbered — the order field of the plan handles execution
    /// order. This is the entry point `actcomp check` uses to audit
    /// graph plans (AC0901/AC0902).
    ///
    /// # Errors
    ///
    /// [`GraphError::Cycle`] when no topological order exists,
    /// [`GraphError::ShapeMismatch`] when a node's operands disagree with
    /// its declared shape.
    pub fn from_raw_nodes(nodes: Vec<Node>, outputs: Vec<ValueId>) -> Result<Graph, GraphError> {
        let n = nodes.len();
        let deps = |v: ValueId| -> Vec<ValueId> {
            let mut d = match nodes[v].kind {
                NodeKind::Input => Vec::new(),
                NodeKind::Aux { node, .. } => vec![node],
                NodeKind::Gemm { a, b, .. } => vec![a, b],
                NodeKind::Ew { x, op } => {
                    let mut d = vec![x];
                    if let Some(o) = op.operand() {
                        d.push(o);
                    }
                    d
                }
                NodeKind::LnForward { x, gamma, beta, .. } => vec![x, gamma, beta],
                NodeKind::LnBackward {
                    dy,
                    xhat,
                    inv_std,
                    gamma,
                } => vec![dy, xhat, inv_std, gamma],
                NodeKind::SumAxis0 { x } => vec![x],
            };
            d.retain(|&o| o < n);
            d
        };
        // Out-of-range operands are a malformed graph; report as a shape
        // mismatch on the offending node before anything else.
        for (v, node) in nodes.iter().enumerate() {
            let raw: Vec<ValueId> = match node.kind {
                NodeKind::Input => Vec::new(),
                NodeKind::Aux { node, .. } => vec![node],
                NodeKind::Gemm { a, b, .. } => vec![a, b],
                NodeKind::Ew { x, op } => {
                    let mut d = vec![x];
                    if let Some(o) = op.operand() {
                        d.push(o);
                    }
                    d
                }
                NodeKind::LnForward { x, gamma, beta, .. } => vec![x, gamma, beta],
                NodeKind::LnBackward {
                    dy,
                    xhat,
                    inv_std,
                    gamma,
                } => vec![dy, xhat, inv_std, gamma],
                NodeKind::SumAxis0 { x } => vec![x],
            };
            if let Some(&o) = raw.iter().find(|&&o| o >= n) {
                return Err(GraphError::ShapeMismatch {
                    node: v,
                    detail: format!("operand {o} does not exist ({n} nodes)"),
                });
            }
            if let Some(&o) = raw.iter().find(|&&o| o == v) {
                let _ = o;
                return Err(GraphError::Cycle { node: v });
            }
        }
        for &o in &outputs {
            if o >= n {
                return Err(GraphError::ShapeMismatch {
                    node: o.min(n.saturating_sub(1)),
                    detail: format!("output {o} does not exist ({n} nodes)"),
                });
            }
        }
        // Kahn's algorithm over the dependency relation: a graph whose
        // values cannot be ordered def-before-use is cyclic.
        let mut indeg = vec![0usize; n];
        let mut consumers: Vec<Vec<ValueId>> = vec![Vec::new(); n];
        for (v, slot) in indeg.iter_mut().enumerate() {
            for o in deps(v) {
                *slot += 1;
                consumers[o].push(v);
            }
        }
        let mut ready: Vec<ValueId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = ready.pop() {
            seen += 1;
            for &c in &consumers[v] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if seen != n {
            let node = (0..n).find(|&v| indeg[v] > 0).unwrap_or(0);
            return Err(GraphError::Cycle { node });
        }
        let inputs = (0..n)
            .filter(|&v| matches!(nodes[v].kind, NodeKind::Input))
            .collect();
        let g = Graph {
            nodes,
            inputs,
            outputs,
        };
        g.validate()?;
        Ok(g)
    }

    /// Checks every node's operand shapes against its declared primary
    /// shape — the shape-inference half of AC0902.
    ///
    /// # Errors
    ///
    /// [`GraphError::ShapeMismatch`] naming the first offending node.
    pub fn validate(&self) -> Result<(), GraphError> {
        let err = |node: ValueId, detail: String| GraphError::ShapeMismatch { node, detail };
        for (v, nd) in self.nodes.iter().enumerate() {
            let shape = nd.shape;
            match nd.kind {
                NodeKind::Input => {}
                NodeKind::Aux { node, slot } => {
                    let want = match (&self.nodes[node].kind, slot) {
                        (NodeKind::LnForward { .. }, 0) => self.nodes[node].shape,
                        (NodeKind::LnForward { .. }, 1) => (self.nodes[node].shape.0, 1),
                        (NodeKind::LnBackward { .. }, 0 | 1) => (1, self.nodes[node].shape.1),
                        _ => return Err(err(v, format!("node {node} has no aux slot {slot}"))),
                    };
                    if shape != want {
                        return Err(err(v, format!("aux shape {shape:?}, want {want:?}")));
                    }
                }
                NodeKind::Gemm { kind, a, b } => {
                    let (sa, sb) = (self.shape(a), self.shape(b));
                    let want = match kind {
                        GemmKind::NN if sa.1 == sb.0 => (sa.0, sb.1),
                        GemmKind::TN if sa.0 == sb.0 => (sa.1, sb.1),
                        GemmKind::NT if sa.1 == sb.1 => (sa.0, sb.0),
                        _ => return Err(err(v, format!("gemm {kind:?} operands {sa:?}, {sb:?}"))),
                    };
                    if shape != want {
                        return Err(err(v, format!("gemm output {shape:?}, want {want:?}")));
                    }
                }
                NodeKind::Ew { x, op } => {
                    let xs = self.shape(x);
                    if shape != xs {
                        return Err(err(v, format!("ew output {shape:?}, input {xs:?}")));
                    }
                    if let Some(o) = op.operand() {
                        let os = self.shape(o);
                        let ok = match op {
                            EwOp::BiasAdd(_) => os.0 * os.1 == xs.1,
                            _ => os == xs,
                        };
                        if !ok {
                            return Err(err(v, format!("ew operand {os:?} against input {xs:?}")));
                        }
                    }
                }
                NodeKind::LnForward { x, gamma, beta, .. } => {
                    let xs = self.shape(x);
                    let (gs, bs) = (self.shape(gamma), self.shape(beta));
                    if shape != xs || gs.0 * gs.1 != xs.1 || bs.0 * bs.1 != xs.1 {
                        return Err(err(
                            v,
                            format!("layernorm x {xs:?}, gamma {gs:?}, beta {bs:?}"),
                        ));
                    }
                }
                NodeKind::LnBackward {
                    dy,
                    xhat,
                    inv_std,
                    gamma,
                } => {
                    let ds = self.shape(dy);
                    if shape != ds
                        || self.shape(xhat) != ds
                        || self.shape(inv_std) != (ds.0, 1)
                        || self.shape(gamma).0 * self.shape(gamma).1 != ds.1
                    {
                        return Err(err(v, format!("layernorm backward around dy {ds:?}")));
                    }
                }
                NodeKind::SumAxis0 { x } => {
                    let xs = self.shape(x);
                    if shape != (1, xs.1) {
                        return Err(err(
                            v,
                            format!("sum_axis0 output {shape:?} for input {xs:?}"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of consumers of each value (reads by later nodes; output
    /// markings are not counted).
    pub(crate) fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for v in 0..self.nodes.len() {
            for o in self.operands_of(v) {
                counts[o] += 1;
            }
        }
        counts
    }

    /// Aux value ids of node `v` by slot (validation allows slots 0
    /// and 1 only).
    pub(crate) fn aux_of(&self, v: ValueId) -> [Option<ValueId>; 2] {
        let mut aux = [None; 2];
        for (id, nd) in self.nodes.iter().enumerate() {
            match nd.kind {
                NodeKind::Aux { node, slot } if node == v && slot < 2 => aux[slot] = Some(id),
                _ => {}
            }
        }
        aux
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_gemm_shapes() {
        let mut g = Graph::new();
        let x = g.input(8, 16);
        let w = g.input(16, 4);
        let y = g.matmul(x, w);
        assert_eq!(g.shape(y), (8, 4));
        let dy = g.input(8, 4);
        let dw = g.matmul_tn(x, dy); // xᵀ dy: [16, 4]
        assert_eq!(g.shape(dw), (16, 4));
        let dx = g.matmul_nt(dy, w); // dy wᵀ: [8, 16]
        assert_eq!(g.shape(dx), (8, 16));
    }

    #[test]
    fn validate_accepts_builder_graphs() {
        let mut g = Graph::new();
        let x = g.input(6, 10);
        let w = g.input(10, 12);
        let b = g.input_vec(12);
        let y = g.matmul(x, w);
        let y = g.bias_add(y, b);
        let h = g.gelu(y);
        g.mark_output(h);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn from_raw_rejects_cycles() {
        // Two elementwise nodes reading each other.
        let nodes = vec![
            Node {
                kind: NodeKind::Ew {
                    x: 1,
                    op: EwOp::Gelu,
                },
                shape: (2, 2),
            },
            Node {
                kind: NodeKind::Ew {
                    x: 0,
                    op: EwOp::Gelu,
                },
                shape: (2, 2),
            },
        ];
        match Graph::from_raw_nodes(nodes, vec![]) {
            Err(GraphError::Cycle { .. }) => {}
            other => panic!("want Cycle, got {other:?}"),
        }
    }

    #[test]
    fn from_raw_rejects_shape_mismatch() {
        let nodes = vec![
            Node {
                kind: NodeKind::Input,
                shape: (4, 8),
            },
            Node {
                kind: NodeKind::Input,
                shape: (9, 3), // inner dim should be 8
            },
            Node {
                kind: NodeKind::Gemm {
                    kind: GemmKind::NN,
                    a: 0,
                    b: 1,
                },
                shape: (4, 3),
            },
        ];
        match Graph::from_raw_nodes(nodes, vec![2]) {
            Err(GraphError::ShapeMismatch { node: 2, .. }) => {}
            other => panic!("want ShapeMismatch at 2, got {other:?}"),
        }
    }

    #[test]
    fn layernorm_declares_cache_aux_values() {
        let mut g = Graph::new();
        let x = g.input(5, 7);
        let gamma = g.input_vec(7);
        let beta = g.input_vec(7);
        let (y, xhat, inv_std) = g.layernorm(x, gamma, beta, 1e-5);
        assert_eq!(g.shape(y), (5, 7));
        assert_eq!(g.shape(xhat), (5, 7));
        assert_eq!(g.shape(inv_std), (5, 1));
        assert_eq!(g.aux_of(y), [Some(xhat), Some(inv_std)]);
        assert_eq!(g.validate(), Ok(()));
    }
}
