//! Reverse-mode automatic differentiation on a linear tape.
//!
//! A [`Tape`] records every operation eagerly (define-by-run); calling
//! [`Tape::backward`] walks the tape in reverse accumulating gradients.
//! The op set is exactly what RouteNet's message passing needs. The graph
//! enters through shared [`IndexPlan`]s built once per batch: a fused GRU
//! step reads link and path rows through them, [`Tape::overwrite_rows`]
//! writes the updated path rows back, and [`Tape::scatter_add_rows`]
//! aggregates per-hop messages into per-link inboxes ([`Tape::gather_rows`]
//! is the plain gather). Recording an op never copies an index vector.
//!
//! Every op's gradient is validated against central finite differences in
//! this crate's test suite.
//!
//! # Arena reuse
//!
//! A tape can be recycled across forward/backward passes with
//! [`Tape::reset`]: node value buffers (and the activations a fused op saves
//! for backward) are drained into an internal FIFO pool and handed back out
//! by the next pass's ops in allocation order. A pass that replays the
//! previous pass's op sequence at the same shapes gets every buffer back at
//! the capacity it needs and allocates no value buffer at all. A pass with
//! other shapes (a minibatch of other samples, a different serving batch)
//! still draws from the pool, but a drawn buffer that is too small has to
//! grow: [`Tape::reuse_grows`] counts those, next to [`Tape::reuse_hits`]
//! and [`Tape::reuse_misses`]. See DESIGN.md "Batched execution & memory
//! arenas".
//!
//! # Segment ops
//!
//! # Fused GRU step
//!
//! [`Tape::gru_project`] and [`Tape::gru_step`] record a GRU update as one
//! projection node and one step node whose backward is written by hand
//! (`crate::gru`); [`Tape::overwrite_rows`] replaces the rows a step updated.
//! Their values, gradients and poisoning are bitwise those of the same
//! update recorded as primitive ops, which the tests keep as the oracle
//! (`fused_gru_matches_primitive_composite_bitwise`).
//!
//! # Segment ops
//!
//! The `seg_*` and `segment_*` ops operate on tensors whose rows are the
//! concatenation of several samples' row blocks (described by a
//! [`SegmentPlan`]). Their forward values are bitwise identical to the plain
//! [`Tape::matmul`], [`Tape::add_row`] and [`Tape::mse`]; what differs is
//! the backward pass, which keeps per-segment gradient partials separate so
//! a batched backward associates floating-point sums exactly like running
//! the samples one at a time. The plain ops stay as the op-level oracle for
//! that property (`seg_ops_match_per_sample_ops_bitwise`).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::gru::{self, GruParams, Rows, Saved};
use crate::plan::{IndexPlan, SegmentPlan};
use crate::tensor::{matmul_rows, Tensor};

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Leaf: input or parameter. No gradient propagation (gradients are
    /// still *accumulated* into leaves so the optimizer can read them).
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    /// `a + broadcast(b)` where `b` is `1 x cols`.
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `alpha * a + beta` elementwise.
    Affine(Var, f64, f64),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    ConcatCols(Var, Var),
    /// `out[i, :] = a[idx[i], :]` over a shared index plan.
    GatherRows(Var, IndexPlan),
    /// `out[idx[i], :] += a[i, :]` over a shared index plan.
    ScatterAddRows(Var, IndexPlan),
    /// Elementwise product with a shared constant (no grad to the constant).
    MulConst(Var, Arc<Tensor>),
    /// Batched matmul against a shared rhs; backward keeps per-segment
    /// weight-gradient partials separate (forward == MatMul bitwise).
    SegMatMul(Var, Var, SegmentPlan),
    /// Batched bias add; backward keeps per-segment bias partials separate
    /// (forward == AddRow bitwise).
    SegAddRow(Var, Var, SegmentPlan),
    /// `out[s, :] = sum of a's rows in segment s` (ascending row order).
    SegmentSum(Var, SegmentPlan),
    /// `out[s, :] = mean of a's rows in segment s`.
    SegmentMean(Var, SegmentPlan),
    /// Per-segment mean squared error: `out[s, 0] = mse over segment s`.
    SegMse(Var, Tensor, SegmentPlan),
    SumAll(Var),
    MeanAll(Var),
    /// Mean squared error against a constant target.
    Mse(Var, Tensor),
    /// Mean absolute error against a constant target.
    Mae(Var, Tensor),
    /// GRU input projection `x · [Wz|Wr|Wh]` (see [`Tape::gru_project`]).
    /// No backward of its own: the [`Op::GruStep`]s that read it form the
    /// gradients for `x` and the weights from the rows they read.
    GruProject(Var, [Var; 3]),
    /// Fused GRU step (see [`Tape::gru_step`]), boxed to keep `Op` small.
    GruStep(Box<GruStep>),
    /// `out = a` with row `plan[i]` replaced by row `i` of `b`.
    OverwriteRows(Var, Var, IndexPlan),
}

/// Operands and saved activations of one fused GRU step.
#[derive(Debug)]
struct GruStep {
    /// The input whose projection the step read: backward forms the input
    /// weights' gradients from its rows and sends `∂x` to it.
    x: Var,
    x_rows: Option<IndexPlan>,
    h: Var,
    h_rows: Option<IndexPlan>,
    params: GruParams,
    seg: SegmentPlan,
    saved: Saved,
}

struct Node {
    op: Op,
    value: Tensor,
}

/// A linear autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    poisoned: bool,
    /// Recycled value buffers, FIFO. `reset` drains node values here in
    /// allocation order; `alloc_tensor` pops front, so a replayed op
    /// sequence gets each buffer back at exactly the right capacity.
    pool: VecDeque<Vec<f64>>,
    reuse_hits: u64,
    reuse_grows: u64,
    reuse_misses: u64,
    max_nodes: usize,
    max_scalars: usize,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear the tape for the next forward pass, recycling every node's
    /// value buffer into the arena pool. High-water stats and reuse
    /// counters survive the reset (they are cumulative telemetry).
    pub fn reset(&mut self) {
        self.max_nodes = self.max_nodes.max(self.nodes.len());
        self.max_scalars = self.max_scalars.max(self.value_scalars());
        for node in self.nodes.drain(..) {
            self.pool.push_back(node.value.into_data());
            if let Op::GruStep(step) = node.op {
                let Saved { z, r, rh, c } = step.saved;
                for t in [z, r, rh, c] {
                    self.pool.push_back(t.into_data());
                }
            }
        }
        self.poisoned = false;
    }

    /// Allocate (or recycle) a zeroed `rows x cols` value tensor.
    fn alloc_tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.pool.pop_front() {
            Some(buf) => {
                if buf.capacity() < rows * cols {
                    self.reuse_grows += 1;
                } else {
                    self.reuse_hits += 1;
                }
                Tensor::from_buffer(rows, cols, buf)
            }
            None => {
                self.reuse_misses += 1;
                Tensor::zeros(rows, cols)
            }
        }
    }

    /// Bound the arena pool to `max_scalars` scalars of buffer capacity,
    /// dropping the *largest* buffers first and keeping the rest in their
    /// FIFO order. A training loop replays one op sequence and wants the
    /// whole pool; a long-lived server replays variable-size batches, so
    /// after one large burst the pool would pin the high-water memory
    /// forever. Dropping the largest buffers releases the burst memory while
    /// keeping warm buffers for steady-state batches.
    pub fn trim_pool(&mut self, max_scalars: usize) {
        let mut total = self.pool_scalars();
        if total <= max_scalars {
            return;
        }
        let mut caps: Vec<usize> = self.pool.iter().map(Vec::capacity).collect();
        caps.sort_unstable_by(|a, b| b.cmp(a));
        // Drop every buffer larger than `cut`, and the first `ties` of
        // exactly `cut`, where `cut` is the smallest capacity that must go.
        let (mut cut, mut ties) = (0, 0);
        for cap in caps {
            if total <= max_scalars {
                break;
            }
            total -= cap;
            if cap == cut {
                ties += 1;
            } else {
                (cut, ties) = (cap, 1);
            }
        }
        self.pool.retain(|b| {
            let cap = b.capacity();
            let drop = cap > cut || (cap == cut && ties > 0);
            if cap == cut && drop {
                ties -= 1;
            }
            !drop
        });
    }

    /// Number of recycled value buffers currently held by the arena pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Total capacity, in scalars, of the buffers the arena pool holds.
    pub fn pool_scalars(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum()
    }

    /// Cumulative count of value buffers recycled from the arena pool at a
    /// capacity that already fit.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Cumulative count of value buffers drawn from the arena pool that were
    /// too small and had to grow — a heap allocation despite the pool.
    pub fn reuse_grows(&self) -> u64 {
        self.reuse_grows
    }

    /// Cumulative count of value buffers that had to be freshly allocated.
    pub fn reuse_misses(&self) -> u64 {
        self.reuse_misses
    }

    /// High-water node count across all resets (plus the live tape).
    pub fn max_nodes(&self) -> usize {
        self.max_nodes.max(self.nodes.len())
    }

    /// High-water value-scalar count across all resets (plus the live tape).
    pub fn max_scalars(&self) -> usize {
        self.max_scalars.max(self.value_scalars())
    }

    /// True if any recorded node produced a non-finite value. A poisoned
    /// tape still evaluates and differentiates (NaN/inf propagate), so the
    /// caller — e.g. the trainer's divergence-recovery loop — can observe
    /// the blow-up and roll back instead of crashing mid-run.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of scalars held in node values and in the activations
    /// fused ops save for backward — the working-set size of one recorded
    /// forward pass. Together with [`Tape::len`] this is the telemetry
    /// probe for per-sample autodiff cost: node count tracks op dispatch
    /// overhead, scalar count tracks memory traffic.
    pub fn value_scalars(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                let saved = match &n.op {
                    Op::GruStep(step) => {
                        let s = &step.saved;
                        s.z.len() + s.r.len() + s.rh.len() + s.c.len()
                    }
                    _ => 0,
                };
                n.value.len() + saved
            })
            .sum()
    }

    /// Value of a node.
    ///
    /// INVARIANT: every `Var` is minted by `push` on this tape and therefore
    /// indexes into `nodes`; tapes are not interchangeable across sessions.
    pub fn value(&self, v: Var) -> &Tensor {
        debug_assert!(v.0 < self.nodes.len(), "Var from a different tape");
        &self.nodes[v.0].value // lint: allow(panic, reason = "Var minted by this tape, see INVARIANT above")
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        // Non-finite values are a runtime condition (divergence), not a
        // programming error: record the poisoning instead of asserting so
        // recovery loops can roll back to a good state.
        if !value.all_finite() {
            self.poisoned = true;
        }
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Register a leaf (input or parameter).
    ///
    /// The caller-provided tensor enters the tape as-is; its buffer joins
    /// the arena pool at the next `reset`. Loops that reset the tape should
    /// prefer [`Tape::leaf_copied`], which *draws* the buffer from the pool
    /// and therefore keeps pool pushes and pops balanced.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// Register a leaf by copying `src` into an arena-recycled buffer.
    pub fn leaf_copied(&mut self, src: &Tensor) -> Var {
        let mut t = self.alloc_tensor(src.rows(), src.cols());
        t.copy_from(src);
        self.push(Op::Leaf, t)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ar = self.value(a).rows();
        let bc = self.value(b).cols();
        let mut v = self.alloc_tensor(ar, bc);
        self.value(a).matmul_into(self.value(b), &mut v);
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise sum of two same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (r, c), "add shape mismatch");
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        let bv = self.value(b);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *o = x + y;
        }
        self.push(Op::Add(a, b), v)
    }

    /// Add a `1 x cols` row vector to every row of `a` (bias add).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "add_row rhs must be a row vector");
        assert_eq!(ac, bc, "add_row width mismatch");
        let mut v = self.alloc_tensor(ar, ac);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            for c in 0..ac {
                v.set(r, c, av.get(r, c) + bv.get(0, c));
            }
        }
        self.push(Op::AddRow(a, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (r, c), "sub shape mismatch");
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        let bv = self.value(b);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *o = x - y;
        }
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (r, c), "mul shape mismatch");
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        let bv = self.value(b);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *o = x * y;
        }
        self.push(Op::Mul(a, b), v)
    }

    /// `alpha * a + beta` elementwise.
    pub fn affine(&mut self, a: Var, alpha: f64, beta: f64) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = alpha * x + beta;
        }
        self.push(Op::Affine(a, alpha, beta), v)
    }

    /// `1 - a` elementwise (GRU gate complement).
    pub fn one_minus(&mut self, a: Var) -> Var {
        self.affine(a, -1.0, 1.0)
    }

    /// Elementwise product with a constant shared behind an `Arc` (no
    /// gradient flows into `c`): pushing the op bumps a refcount instead of
    /// copying the tensor, so masks and loss weights applied every pass
    /// (position keep-masks, per-column loss weights) cost no copy.
    pub fn mul_const_shared(&mut self, a: Var, c: &Arc<Tensor>) -> Var {
        let (r, cc) = self.value(a).shape();
        assert_eq!(c.shape(), (r, cc), "mul_const_shared shape mismatch");
        let mut v = self.alloc_tensor(r, cc);
        let av = self.value(a);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(c.data()) {
            *o = x * y;
        }
        self.push(Op::MulConst(a, Arc::clone(c)), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = x.tanh();
        }
        self.push(Op::Tanh(a), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = x.max(0.0);
        }
        self.push(Op::Relu(a), v)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (r, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(r, br, "concat_cols row mismatch");
        let mut v = self.alloc_tensor(r, ac + bc);
        let av = self.value(a);
        let bv = self.value(b);
        for i in 0..r {
            for j in 0..ac {
                v.set(i, j, av.get(i, j));
            }
            for j in 0..bc {
                v.set(i, ac + j, bv.get(i, j));
            }
        }
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Row gather: `out[i, :] = a[plan[i], :]`. Indices may repeat. The
    /// plan is shared, so pushing the op bumps an `Arc` refcount instead of
    /// copying the index vector.
    pub fn gather_rows(&mut self, a: Var, plan: &IndexPlan) -> Var {
        let (rows, cols) = self.value(a).shape();
        for &i in plan.indices() {
            assert!(i < rows, "gather index {i} out of {rows} rows");
        }
        let mut v = self.alloc_tensor(plan.len(), cols);
        let av = self.value(a);
        for (r, &i) in plan.indices().iter().enumerate() {
            v.copy_row_from(r, av, i);
        }
        self.push(Op::GatherRows(a, plan.clone()), v)
    }

    /// Row scatter-add: `out[plan[i], :] += a[i, :]` into a fresh
    /// `out_rows x cols` zero tensor. The message-aggregation primitive.
    pub fn scatter_add_rows(&mut self, a: Var, plan: &IndexPlan, out_rows: usize) -> Var {
        let (in_rows, cols) = self.value(a).shape();
        assert_eq!(plan.len(), in_rows, "one index per input row required");
        for &i in plan.indices() {
            assert!(i < out_rows, "scatter index {i} out of {out_rows} rows");
        }
        let mut v = self.alloc_tensor(out_rows, cols);
        let av = self.value(a);
        for (r, &i) in plan.indices().iter().enumerate() {
            for c in 0..cols {
                v.set(i, c, v.get(i, c) + av.get(r, c));
            }
        }
        self.push(Op::ScatterAddRows(a, plan.clone()), v)
    }

    /// Replace rows: `out` is `a` except that row `rows[i]` is row `i` of
    /// `b`. Each row may be named at most once. This is the path-state
    /// update of a message-passing position. Kept rows are computed as
    /// `a * 1.0 + 0.0` and replaced rows as `a * 0.0 + (0.0 + b)`, exactly
    /// what a 0/1 keep-mask product, a scatter-add and an add give, signed
    /// zeros and NaNs included (`overwrite_rows_matches_mask_scatter_add_bitwise`).
    pub fn overwrite_rows(&mut self, a: Var, rows: &IndexPlan, b: Var) -> Var {
        let (ar, ac) = self.value(a).shape();
        assert_eq!(
            self.value(b).shape(),
            (rows.len(), ac),
            "overwrite_rows needs one source row per index"
        );
        for &i in rows.indices() {
            assert!(i < ar, "overwrite index {i} out of {ar} rows");
        }
        let mut v = self.alloc_tensor(ar, ac);
        let av = self.value(a);
        let bv = self.value(b);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = x * 1.0 + 0.0;
        }
        for (r, &i) in rows.indices().iter().enumerate() {
            for ((o, &x), &y) in v.row_mut(i).iter_mut().zip(av.row(i)).zip(bv.row(r)) {
                *o = x * 0.0 + (0.0 + y);
            }
        }
        self.push(Op::OverwriteRows(a, b, rows.clone()), v)
    }

    /// GRU input projection: `x · [Wz|Wr|Wh]` for every row of `x`, a
    /// `rows x 3·hid` value that [`Tape::gru_step`] reads (row by row, or
    /// through an index plan). A row's product does not depend on which
    /// other rows are present, so projecting all rows once and gathering
    /// the products gives bitwise the products of the gathered rows.
    ///
    /// The value is not checked for finiteness here: the steps that read it
    /// check the rows they use, which is exactly what the unfused
    /// per-position products would have checked.
    pub fn gru_project(&mut self, x: Var, p: &GruParams) -> Var {
        let (rows, in_dim) = self.value(x).shape();
        let [wz, ..] = p.w;
        let hid = self.value(wz).cols();
        for w in p.w {
            assert_eq!(
                self.value(w).shape(),
                (in_dim, hid),
                "gru_project weight shape"
            );
        }
        let mut v = self.alloc_tensor(rows, 3 * hid);
        let xv = self.value(x);
        for (gate, w) in p.w.iter().enumerate() {
            matmul_rows(
                xv.row_iter(),
                self.value(*w),
                v.data_mut(),
                3 * hid,
                gate * hid,
            );
        }
        self.nodes.push(Node {
            op: Op::GruProject(x, p.w),
            value: v,
        });
        Var(self.nodes.len() - 1)
    }

    /// One fused GRU step (Cho et al. 2014) over the rows of `seg`:
    ///
    /// ```text
    /// z = sigmoid(x Wz + h Uz + bz)    r = sigmoid(x Wr + h Ur + br)
    /// c = tanh(x Wh + (r ⊙ h) Uh + bh)     h' = (1 - z) ⊙ h + z ⊙ c
    /// ```
    ///
    /// `xw` is a [`Tape::gru_project`] of `x` with the same weights; the
    /// step reads its rows in order, or the rows `x_rows` selects. `h` rows
    /// are likewise all of `h`, or the rows `h_rows` selects. Returns the
    /// `seg.total() x hid` new state.
    ///
    /// The node keeps only `z`, `r`, `r ⊙ h` and `c` for backward. Forward
    /// values, the gradients to `x` and `h` (scattered back through the
    /// index plans the way [`Tape::gather_rows`] does) and the per-segment
    /// parameter gradients are bitwise those of the same formulas recorded
    /// as primitive ops, provided `x` and `h` (or their gathers) have no
    /// later consumers, as in RouteNet's message passing. The tape is
    /// poisoned whenever any intermediate of that composite would have been
    /// non-finite.
    pub fn gru_step(
        &mut self,
        xw: Var,
        x_rows: Option<&IndexPlan>,
        h: Var,
        h_rows: Option<&IndexPlan>,
        p: &GruParams,
        seg: &SegmentPlan,
    ) -> Var {
        let projected_from = match self.nodes.get(xw.0).map(|n| &n.op) {
            Some(Op::GruProject(x, w)) if *w == p.w => Some(*x),
            _ => None,
        };
        // lint: allow(panic, reason = "programming error: the step must read its own cell's projection")
        let x = projected_from.expect("gru_step input must be a gru_project with the same weights");
        let [uz, ..] = p.u;
        let hid = self.value(uz).rows();
        assert!(hid > 0, "gru_step needs a non-empty hidden state");
        let n = seg.total();
        let xw_rows = self.value(xw).rows();
        let h_shape = self.value(h).shape();
        assert_eq!(self.value(xw).cols(), 3 * hid, "gru_step projection width");
        assert_eq!(h_shape.1, hid, "gru_step hidden width");
        for (plan, src_rows) in [(x_rows, xw_rows), (h_rows, h_shape.0)] {
            match plan {
                Some(plan) => {
                    assert_eq!(plan.len(), n, "gru_step segment coverage mismatch");
                    for &i in plan.indices() {
                        assert!(i < src_rows, "gru_step index {i} out of {src_rows} rows");
                    }
                }
                None => assert_eq!(src_rows, n, "gru_step segment coverage mismatch"),
            }
        }
        for (u, b) in p.u.iter().zip(&p.b) {
            assert_eq!(self.value(*u).shape(), (hid, hid), "gru_step U shape");
            assert_eq!(self.value(*b).shape(), (1, hid), "gru_step bias shape");
        }
        let mut saved = Saved {
            z: self.alloc_tensor(n, hid),
            r: self.alloc_tensor(n, hid),
            rh: self.alloc_tensor(n, hid),
            c: self.alloc_tensor(n, hid),
        };
        let mut out = self.alloc_tensor(n, hid);
        let finite = gru::forward(
            Rows::new(self.value(xw), x_rows.map(IndexPlan::indices)),
            Rows::new(self.value(h), h_rows.map(IndexPlan::indices)),
            p.u.map(|v| self.value(v)),
            p.b.map(|v| self.value(v)),
            &mut saved,
            &mut out,
        );
        if !finite {
            self.poisoned = true;
        }
        let step = GruStep {
            x,
            x_rows: x_rows.cloned(),
            h,
            h_rows: h_rows.cloned(),
            params: *p,
            seg: seg.clone(),
            saved,
        };
        self.push(Op::GruStep(Box::new(step)), out)
    }

    /// Batched matrix product `a * b` where `a`'s rows are the concatenation
    /// of per-sample row blocks (per `seg`) and `b` is a weight shared by
    /// every sample. The forward value is bitwise identical to
    /// [`Tape::matmul`]; the backward pass accumulates `b`'s gradient into
    /// per-segment slots (see [`Gradients::seg_get`]) so each sample's
    /// weight gradient is exactly what a per-sample tape would produce.
    pub fn seg_matmul(&mut self, a: Var, b: Var, seg: &SegmentPlan) -> Var {
        let ar = self.value(a).rows();
        assert_eq!(seg.total(), ar, "seg_matmul segment coverage mismatch");
        let bc = self.value(b).cols();
        let mut v = self.alloc_tensor(ar, bc);
        self.value(a).matmul_into(self.value(b), &mut v);
        self.push(Op::SegMatMul(a, b, seg.clone()), v)
    }

    /// Batched bias add (`add_row` over concatenated row blocks). Forward is
    /// bitwise identical to [`Tape::add_row`]; backward keeps per-segment
    /// bias-gradient partials separate, like [`Tape::seg_matmul`].
    pub fn seg_add_row(&mut self, a: Var, b: Var, seg: &SegmentPlan) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "seg_add_row rhs must be a row vector");
        assert_eq!(ac, bc, "seg_add_row width mismatch");
        assert_eq!(seg.total(), ar, "seg_add_row segment coverage mismatch");
        let mut v = self.alloc_tensor(ar, ac);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            for c in 0..ac {
                v.set(r, c, av.get(r, c) + bv.get(0, c));
            }
        }
        self.push(Op::SegAddRow(a, b, seg.clone()), v)
    }

    /// Segment sum: `out[s, :]` is the column-wise sum of `a`'s rows in
    /// segment `s`, accumulated in ascending row order (the determinism
    /// contract — see DESIGN.md). Empty segments yield zero rows.
    pub fn segment_sum(&mut self, a: Var, seg: &SegmentPlan) -> Var {
        let (ar, cols) = self.value(a).shape();
        assert_eq!(seg.total(), ar, "segment_sum segment coverage mismatch");
        let n_seg = seg.n_segments();
        let mut v = self.alloc_tensor(n_seg, cols);
        let av = self.value(a);
        for s in 0..n_seg {
            let (lo, hi) = seg.range(s);
            for r in lo..hi {
                for c in 0..cols {
                    v.set(s, c, v.get(s, c) + av.get(r, c));
                }
            }
        }
        self.push(Op::SegmentSum(a, seg.clone()), v)
    }

    /// Segment mean: `out[s, :]` is the column-wise mean of `a`'s rows in
    /// segment `s`. Panics on empty segments (a mean over zero rows is
    /// undefined; pad or filter before calling).
    pub fn segment_mean(&mut self, a: Var, seg: &SegmentPlan) -> Var {
        let (ar, cols) = self.value(a).shape();
        assert_eq!(seg.total(), ar, "segment_mean segment coverage mismatch");
        let n_seg = seg.n_segments();
        let mut v = self.alloc_tensor(n_seg, cols);
        let av = self.value(a);
        for s in 0..n_seg {
            let (lo, hi) = seg.range(s);
            assert!(hi > lo, "segment_mean requires non-empty segments");
            let n = (hi - lo) as f64;
            debug_assert!(n > 0.0);
            for r in lo..hi {
                for c in 0..cols {
                    v.set(s, c, v.get(s, c) + av.get(r, c));
                }
            }
            for c in 0..cols {
                v.set(s, c, v.get(s, c) / n);
            }
        }
        self.push(Op::SegmentMean(a, seg.clone()), v)
    }

    /// Per-segment mean squared error: `out[s, 0]` is the MSE between
    /// `pred`'s and `target`'s rows in segment `s`, folded in flat
    /// row-major order — exactly the fold [`Tape::mse`] performs on one
    /// sample's rows, so batched per-sample losses are bitwise identical
    /// to per-sample `mse` calls. Panics on empty segments.
    pub fn seg_mse(&mut self, pred: Var, target: &Tensor, seg: &SegmentPlan) -> Var {
        let (pr, cols) = self.value(pred).shape();
        assert_eq!(target.shape(), (pr, cols), "seg_mse shape mismatch");
        assert_eq!(seg.total(), pr, "seg_mse segment coverage mismatch");
        let n_seg = seg.n_segments();
        let mut v = self.alloc_tensor(n_seg, 1);
        let p = self.value(pred);
        for s in 0..n_seg {
            let (lo, hi) = seg.range(s);
            assert!(hi > lo, "seg_mse requires non-empty segments");
            let n = ((hi - lo) * cols) as f64;
            debug_assert!(n > 0.0, "segments are non-empty and cols > 0");
            let loss = p.data()[lo * cols..hi * cols] // lint: allow(panic, reason = "segment offsets validated against pred rows above")
                .iter()
                .zip(&target.data()[lo * cols..hi * cols]) // lint: allow(panic, reason = "target shape equals pred shape, asserted above")
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                / n;
            v.set(s, 0, loss);
        }
        self.push(Op::SegMse(pred, target.clone(), seg.clone()), v)
    }

    /// Sum of all elements (`1 x 1`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let mut v = self.alloc_tensor(1, 1);
        v.set(0, 0, s);
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements (`1 x 1`).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let n = av.len() as f64;
        debug_assert!(n > 0.0, "mean_all on an empty tensor would be NaN");
        let m = av.sum() / n;
        let mut v = self.alloc_tensor(1, 1);
        v.set(0, 0, m);
        self.push(Op::MeanAll(a), v)
    }

    /// Mean squared error between `pred` and a constant `target` (`1 x 1`).
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mse shape mismatch"
        );
        let mut v = self.alloc_tensor(1, 1);
        let p = self.value(pred);
        let n = p.len() as f64;
        debug_assert!(n > 0.0, "mse on an empty tensor would be NaN");
        let loss = p
            .data()
            .iter()
            .zip(target.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        v.set(0, 0, loss);
        self.push(Op::Mse(pred, target.clone()), v)
    }

    /// Mean absolute error between `pred` and a constant `target` (`1 x 1`).
    pub fn mae(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mae shape mismatch"
        );
        let mut v = self.alloc_tensor(1, 1);
        let p = self.value(pred);
        let n = p.len() as f64;
        debug_assert!(n > 0.0, "mae on an empty tensor would be NaN");
        let loss = p
            .data()
            .iter()
            .zip(target.data())
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f64>()
            / n;
        v.set(0, 0, loss);
        self.push(Op::Mae(pred, target.clone()), v)
    }

    /// Reverse pass from `loss` (must be `1 x 1`). Returns one gradient slot
    /// per node; leaves hold the accumulated parameter gradients.
    /// INVARIANT: `grads` has exactly one slot per tape node, so every node
    /// id (and every `Var` recorded inside an op, which predates its node)
    /// indexes into it.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        debug_assert!(loss.0 < self.nodes.len(), "loss Var from a different tape");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        let mut seg: Vec<Option<Vec<Option<Tensor>>>> =
            (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0])); // lint: allow(panic, reason = "one grad slot per node, see INVARIANT above")
        for i in (0..=loss.0).rev() {
            // lint: allow(panic, reason = "i <= loss.0 < nodes.len() == grads.len()")
            let Some(g) = grads[i].take() else { continue };
            debug_assert!(
                self.poisoned || g.all_finite(),
                "non-finite gradient reached node {i} on a clean tape"
            );
            self.accumulate(i, &g, &mut grads, &mut seg);
            grads[i] = Some(g); // lint: allow(panic, reason = "same in-bounds index as the take above")
        }
        Gradients { grads, seg }
    }

    /// INVARIANT: callers pass `i < self.nodes.len()` and `grads`/`seg`
    /// slices with one slot per node; ops only reference `Var`s older than
    /// their own node, so `v.0 < i` for every operand.
    fn accumulate(
        &self,
        i: usize,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
        seg: &mut [Option<Vec<Option<Tensor>>>],
    ) {
        debug_assert!(i < self.nodes.len() && grads.len() == self.nodes.len());
        let poisoned = self.poisoned;
        let add_to = move |grads: &mut [Option<Tensor>], v: Var, delta: Tensor| {
            debug_assert!(
                poisoned || delta.all_finite(),
                "non-finite partial for node {} on a clean tape",
                v.0
            );
            // lint: allow(panic, reason = "operand Vars predate node i, see INVARIANT above")
            match &mut grads[v.0] {
                Some(existing) => existing.add_scaled(&delta, 1.0),
                slot @ None => *slot = Some(delta),
            }
        };
        // Per-segment counterpart of `add_to`: partials land in the seg slot
        // for (node, segment) with the same Some/None accumulate semantics,
        // so each segment's fold is exactly the per-sample fold.
        let add_seg = move |seg: &mut [Option<Vec<Option<Tensor>>>],
                            v: Var,
                            s: usize,
                            n_seg: usize,
                            delta: Tensor| {
            debug_assert!(
                poisoned || delta.all_finite(),
                "non-finite seg partial for node {} on a clean tape",
                v.0
            );
            // lint: allow(panic, reason = "operand Vars predate node i, see INVARIANT above")
            let slots = seg[v.0].get_or_insert_with(|| (0..n_seg).map(|_| None).collect());
            debug_assert_eq!(slots.len(), n_seg, "segment count mismatch across ops");
            // lint: allow(panic, reason = "s < n_seg == slots.len() by construction")
            match &mut slots[s] {
                Some(existing) => existing.add_scaled(&delta, 1.0),
                slot @ None => *slot = Some(delta),
            }
        };
        let node = &self.nodes[i]; // lint: allow(panic, reason = "i bounds-checked by the debug_assert above, see INVARIANT")
        match &node.op {
            Op::Leaf | Op::GruProject(..) => {}
            Op::MatMul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.matmul_t(bv));
                // matmul_t_rows over the full row range is bitwise identical
                // to `av.transpose().matmul(g)` minus the transpose copy.
                add_to(grads, *b, av.matmul_t_rows(g, 0, av.rows()));
            }
            Op::Add(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, g.clone());
            }
            Op::AddRow(a, b) => {
                add_to(grads, *a, g.clone());
                // column sums
                let mut gb = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        gb.set(0, c, gb.get(0, c) + g.get(r, c));
                    }
                }
                add_to(grads, *b, gb);
            }
            Op::Sub(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.zip(bv, |x, y| x * y));
                add_to(grads, *b, g.zip(av, |x, y| x * y));
            }
            Op::Affine(a, alpha, _beta) => {
                add_to(grads, *a, g.map(|x| alpha * x));
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                add_to(grads, *a, g.zip(y, |gx, yx| gx * yx * (1.0 - yx)));
            }
            Op::Tanh(a) => {
                let y = &node.value;
                add_to(grads, *a, g.zip(y, |gx, yx| gx * (1.0 - yx * yx)));
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                add_to(
                    grads,
                    *a,
                    g.zip(x, |gx, xv| if xv > 0.0 { gx } else { 0.0 }),
                );
            }
            Op::ConcatCols(a, b) => {
                let ac = self.value(*a).cols();
                let bc = self.value(*b).cols();
                let ga = Tensor::from_fn(g.rows(), ac, |r, c| g.get(r, c));
                let gb = Tensor::from_fn(g.rows(), bc, |r, c| g.get(r, ac + c));
                add_to(grads, *a, ga);
                add_to(grads, *b, gb);
            }
            Op::GatherRows(a, plan) => {
                let rows = self.value(*a).rows();
                add_to(grads, *a, scatter_rows(g, plan.indices(), rows));
            }
            Op::ScatterAddRows(a, plan) => {
                let mut ga = Tensor::zeros(plan.len(), g.cols());
                for (r, &i) in plan.indices().iter().enumerate() {
                    ga.copy_row_from(r, g, i);
                }
                add_to(grads, *a, ga);
            }
            Op::MulConst(a, c) => {
                add_to(grads, *a, g.zip(c, |x, y| x * y));
            }
            Op::SegMatMul(a, b, plan) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.matmul_t(bv));
                // Weight gradient per segment: the slice product
                // a[lo..hi]^T * g[lo..hi] is exactly the per-sample
                // `av.transpose().matmul(g)` for that sample's rows. Empty
                // segments contribute nothing — matching a per-sample tape
                // where the op simply would not exist.
                let n_seg = plan.n_segments();
                for s in 0..n_seg {
                    let (lo, hi) = plan.range(s);
                    if lo == hi {
                        continue;
                    }
                    let gb = av.matmul_t_rows(g, lo, hi);
                    add_seg(seg, *b, s, n_seg, gb);
                }
            }
            Op::SegAddRow(a, b, plan) => {
                add_to(grads, *a, g.clone());
                // Bias gradient per segment: ascending-row column sums over
                // that segment's rows — the per-sample AddRow fold.
                let n_seg = plan.n_segments();
                for s in 0..n_seg {
                    let (lo, hi) = plan.range(s);
                    if lo == hi {
                        continue;
                    }
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in lo..hi {
                        for c in 0..g.cols() {
                            gb.set(0, c, gb.get(0, c) + g.get(r, c));
                        }
                    }
                    add_seg(seg, *b, s, n_seg, gb);
                }
            }
            Op::SegmentSum(a, plan) => {
                let (rows, cols) = self.value(*a).shape();
                let mut ga = Tensor::zeros(rows, cols);
                for s in 0..plan.n_segments() {
                    let (lo, hi) = plan.range(s);
                    for r in lo..hi {
                        ga.copy_row_from(r, g, s);
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::SegmentMean(a, plan) => {
                let (rows, cols) = self.value(*a).shape();
                let mut ga = Tensor::zeros(rows, cols);
                for s in 0..plan.n_segments() {
                    let (lo, hi) = plan.range(s);
                    let n = (hi - lo) as f64;
                    debug_assert!(n > 0.0, "segments are non-empty");
                    for r in lo..hi {
                        for c in 0..cols {
                            ga.set(r, c, g.get(s, c) / n);
                        }
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::SegMse(p, target, plan) => {
                let pv = self.value(*p);
                let cols = pv.cols();
                let mut gp = Tensor::zeros(pv.rows(), cols);
                for s in 0..plan.n_segments() {
                    let (lo, hi) = plan.range(s);
                    let n = ((hi - lo) * cols) as f64;
                    let gs = g.get(s, 0);
                    for r in lo..hi {
                        for c in 0..cols {
                            // Same expression as the Mse arm below, with the
                            // per-segment upstream scalar and element count.
                            gp.set(r, c, 2.0 * (pv.get(r, c) - target.get(r, c)) * gs / n);
                        }
                    }
                }
                add_to(grads, *p, gp);
            }
            Op::SumAll(a) => {
                let s = g.get(0, 0);
                let (r, c) = self.value(*a).shape();
                add_to(grads, *a, Tensor::full(r, c, s));
            }
            Op::MeanAll(a) => {
                let av = self.value(*a);
                let n = av.len() as f64;
                debug_assert!(n > 0.0, "forward pass rejected the empty tensor");
                let s = g.get(0, 0) / n;
                let (r, c) = av.shape();
                add_to(grads, *a, Tensor::full(r, c, s));
            }
            Op::Mse(p, target) => {
                let pv = self.value(*p);
                let n = pv.len() as f64;
                debug_assert!(n > 0.0);
                let s = g.get(0, 0);
                let gp = pv.zip(target, |a, b| 2.0 * (a - b) * s / n);
                add_to(grads, *p, gp);
            }
            Op::Mae(p, target) => {
                let pv = self.value(*p);
                let n = pv.len() as f64;
                debug_assert!(n > 0.0);
                let s = g.get(0, 0);
                let gp = pv.zip(target, |a, b| (a - b).signum() * s / n);
                add_to(grads, *p, gp);
            }
            Op::GruStep(step) => {
                let x_idx = step.x_rows.as_ref().map(IndexPlan::indices);
                let h_idx = step.h_rows.as_ref().map(IndexPlan::indices);
                let p = &step.params;
                let n_seg = step.seg.n_segments();
                let d = gru::backward(
                    g,
                    Rows::new(self.value(step.x), x_idx),
                    Rows::new(self.value(step.h), h_idx),
                    gru::Weights {
                        params: p,
                        w: p.w.map(|v| self.value(v)),
                        u: p.u.map(|v| self.value(v)),
                    },
                    &step.saved,
                    &step.seg,
                    |s, v, delta| add_seg(seg, v, s, n_seg, delta),
                );
                // The composite gathered x before h, so its reverse pass
                // scattered h's gradient first.
                for (v, idx, delta) in [(step.h, h_idx, d.dh), (step.x, x_idx, d.dx)] {
                    let delta = match idx {
                        Some(idx) => scatter_rows(&delta, idx, self.value(v).rows()),
                        None => delta,
                    };
                    add_to(grads, v, delta);
                }
            }
            Op::OverwriteRows(a, b, plan) => {
                // The replaced rows' gradient goes to `b`, row for row (the
                // composite's scatter backward)...
                let mut gb = Tensor::zeros(plan.len(), g.cols());
                for (r, &i) in plan.indices().iter().enumerate() {
                    gb.copy_row_from(r, g, i);
                }
                add_to(grads, *b, gb);
                // ...and `a` gets `g` times the composite's 0/1 keep mask.
                let mut ga = g.map(|x| x * 1.0);
                for &i in plan.indices() {
                    for (o, &x) in ga.row_mut(i).iter_mut().zip(g.row(i)) {
                        *o = x * 0.0;
                    }
                }
                add_to(grads, *a, ga);
            }
        }
    }
}

/// `GatherRows` backward: a `rows x g.cols()` zero tensor with row `r` of
/// `g` added into row `idx[r]`, in ascending `r`.
fn scatter_rows(g: &Tensor, idx: &[usize], rows: usize) -> Tensor {
    let mut out = Tensor::zeros(rows, g.cols());
    for (r, &i) in idx.iter().enumerate() {
        for (o, &v) in out.row_mut(i).iter_mut().zip(g.row(r)) {
            *o += v;
        }
    }
    out
}

/// Result of a backward pass.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    /// Per-(node, segment) partials from segment-aware ops. Kept separate
    /// from `grads` so each segment's accumulation order is exactly the
    /// per-sample order — merging them into one slot would change the
    /// floating-point fold.
    seg: Vec<Option<Vec<Option<Tensor>>>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. node `v`, if it received any.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Per-segment gradient of the loss w.r.t. node `v` restricted to
    /// segment `s` (from `seg_matmul` / `seg_add_row`), if any.
    pub fn seg_get(&self, v: Var, s: usize) -> Option<&Tensor> {
        self.seg
            .get(v.0)
            .and_then(|o| o.as_ref())
            .and_then(|slots| slots.get(s))
            .and_then(|g| g.as_ref())
    }

    /// True if node `v` received any per-segment partials.
    pub fn has_seg(&self, v: Var) -> bool {
        self.seg.get(v.0).is_some_and(|o| o.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `d loss / d leaf` for every element
    /// of every listed leaf.
    fn grad_check(build: impl Fn(&mut Tape, &[Tensor]) -> Var, leaves: &[Tensor], tol: f64) {
        // Analytic gradients.
        let mut tape = Tape::new();
        let vars: Vec<Var> = leaves.iter().map(|t| tape.leaf(t.clone())).collect();
        let loss = build(&mut tape, leaves);
        let grads = tape.backward(loss);
        let eps = 1e-6;
        for (li, leaf) in leaves.iter().enumerate() {
            // Weights of segment ops carry their gradient in segment slots;
            // the checks below use single-segment plans.
            let analytic = grads
                .get(vars[li])
                .or_else(|| grads.seg_get(vars[li], 0))
                .unwrap_or_else(|| panic!("leaf {li} got no gradient"))
                .clone();
            for e in 0..leaf.len() {
                let mut plus = leaves.to_vec();
                plus[li].data_mut()[e] += eps;
                let mut t1 = Tape::new();
                for t in &plus {
                    t1.leaf(t.clone());
                }
                let l1 = build(&mut t1, &plus);
                let mut minus = leaves.to_vec();
                minus[li].data_mut()[e] -= eps;
                let mut t2 = Tape::new();
                for t in &minus {
                    t2.leaf(t.clone());
                }
                let l2 = build(&mut t2, &minus);
                let numeric = (t1.value(l1).get(0, 0) - t2.value(l2).get(0, 0)) / (2.0 * eps);
                let a = analytic.data()[e];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "leaf {li} elem {e}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn rand_t(r: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::xavier(r, c, &mut rng)
    }

    #[test]
    fn value_scalars_counts_all_node_values() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 3)); // 6 scalars
        let b = tape.leaf(Tensor::zeros(2, 3)); // 6 scalars
        let s = tape.add(a, b); // 6 scalars
        let _total = tape.sum_all(s); // 1 scalar
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.value_scalars(), 19);
    }

    #[test]
    fn grad_matmul_chain() {
        let a = rand_t(3, 4, 1);
        let b = rand_t(4, 2, 2);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let c = tape.matmul(va, vb);
                tape.sum_all(c)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_elementwise_ops() {
        let a = rand_t(2, 3, 3);
        let b = rand_t(2, 3, 4);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let s = tape.add(va, vb);
                let d = tape.sub(s, vb);
                let m = tape.mul(d, va);
                let f = tape.affine(m, 0.5, -0.1);
                tape.mean_all(f)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_activations() {
        let a = rand_t(2, 4, 5);
        for act in 0..3 {
            grad_check(
                |tape, _| {
                    let va = Var(0);
                    let y = match act {
                        0 => tape.sigmoid(va),
                        1 => tape.tanh(va),
                        _ => tape.relu(va),
                    };
                    tape.sum_all(y)
                },
                std::slice::from_ref(&a),
                1e-5,
            );
        }
    }

    #[test]
    fn grad_add_row_broadcast() {
        let a = rand_t(3, 4, 6);
        let b = rand_t(1, 4, 7);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let y = tape.add_row(va, vb);
                let z = tape.tanh(y);
                tape.mean_all(z)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_concat() {
        let a = rand_t(2, 3, 8);
        let b = rand_t(2, 2, 9);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let y = tape.concat_cols(va, vb);
                let z = tape.sigmoid(y);
                tape.sum_all(z)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let a = rand_t(4, 3, 10);
        grad_check(
            |tape, _| {
                let va = Var(0);
                let gathered = tape.gather_rows(va, &IndexPlan::new(vec![0, 2, 2, 3, 1]));
                let act = tape.tanh(gathered);
                let scattered = tape.scatter_add_rows(act, &IndexPlan::new(vec![1, 0, 1, 2, 2]), 3);
                tape.sum_all(scattered)
            },
            &[a],
            1e-6,
        );
    }

    #[test]
    fn grad_losses() {
        let p = rand_t(3, 2, 11);
        let target = rand_t(3, 2, 12);
        let t2 = target.clone();
        grad_check(
            move |tape, _| {
                let vp = Var(0);
                tape.mse(vp, &t2)
            },
            std::slice::from_ref(&p),
            1e-6,
        );
        let t3 = target.clone();
        grad_check(
            move |tape, _| {
                let vp = Var(0);
                tape.mae(vp, &t3)
            },
            &[p],
            1e-5,
        );
    }

    #[test]
    fn grad_mul_const_and_one_minus() {
        let a = rand_t(2, 3, 13);
        let mask = Arc::new(Tensor::from_fn(2, 3, |r, c| {
            if (r + c) % 2 == 0 {
                1.0
            } else {
                0.3
            }
        }));
        grad_check(
            move |tape, _| {
                let va = Var(0);
                let m = tape.mul_const_shared(va, &mask);
                let o = tape.one_minus(m);
                tape.mean_all(o)
            },
            &[a],
            1e-6,
        );
    }

    #[test]
    fn grad_gru_like_composite() {
        // A full GRU-style cell wired by hand: the most representative
        // composite for RouteNet.
        let x = rand_t(5, 3, 20);
        let h = rand_t(5, 4, 21);
        let wz = rand_t(3, 4, 22);
        let uz = rand_t(4, 4, 23);
        let bz = rand_t(1, 4, 24);
        let wh = rand_t(3, 4, 25);
        let uh = rand_t(4, 4, 26);
        grad_check(
            |tape, _| {
                let (x, h, wz, uz, bz, wh, uh) =
                    (Var(0), Var(1), Var(2), Var(3), Var(4), Var(5), Var(6));
                let xw = tape.matmul(x, wz);
                let hu = tape.matmul(h, uz);
                let s = tape.add(xw, hu);
                let s = tape.add_row(s, bz);
                let z = tape.sigmoid(s);
                let xwh = tape.matmul(x, wh);
                let rh = tape.mul(z, h); // stand-in for reset gate
                let rhu = tape.matmul(rh, uh);
                let cand_in = tape.add(xwh, rhu);
                let cand = tape.tanh(cand_in);
                let zi = tape.one_minus(z);
                let keep = tape.mul(zi, h);
                let take = tape.mul(z, cand);
                let hnew = tape.add(keep, take);
                tape.mean_all(hnew)
            },
            &[x, h, wz, uz, bz, wh, uh],
            1e-5,
        );
    }

    /// GRU weights as leaves `first..first + 9` of a tape, in the order
    /// `gru_leaf_tensors` lists them.
    fn gru_params(first: usize) -> GruParams {
        let v = |k: usize| Var(first + k);
        GruParams {
            w: [v(0), v(3), v(6)],
            u: [v(1), v(4), v(7)],
            b: [v(2), v(5), v(8)],
        }
    }

    /// Random `Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh` (the binding order of
    /// `GruCell::params`).
    fn gru_leaf_tensors(in_dim: usize, hid: usize, seed: u64) -> Vec<Tensor> {
        (0..9u64)
            .map(|k| match k % 3 {
                0 => rand_t(in_dim, hid, seed + k),
                1 => rand_t(hid, hid, seed + k),
                _ => rand_t(1, hid, seed + k),
            })
            .collect()
    }

    /// The primitive-op composite the fused GRU step replaced — the former
    /// `GruCell::step` body, kept as the fused op's bitwise oracle.
    fn composite_gru_step(t: &mut Tape, x: Var, h: Var, p: &GruParams, seg: &SegmentPlan) -> Var {
        let ([wz, wr, wh], [uz, ur, uh], [bz, br, bh]) = (p.w, p.u, p.b);
        let xwz = t.seg_matmul(x, wz, seg);
        let huz = t.seg_matmul(h, uz, seg);
        let zs = t.add(xwz, huz);
        let zs = t.seg_add_row(zs, bz, seg);
        let z = t.sigmoid(zs);

        let xwr = t.seg_matmul(x, wr, seg);
        let hur = t.seg_matmul(h, ur, seg);
        let rs = t.add(xwr, hur);
        let rs = t.seg_add_row(rs, br, seg);
        let r = t.sigmoid(rs);

        let rh = t.mul(r, h);
        let xwh = t.seg_matmul(x, wh, seg);
        let rhuh = t.seg_matmul(rh, uh, seg);
        let cs = t.add(xwh, rhuh);
        let cs = t.seg_add_row(cs, bh, seg);
        let c = t.tanh(cs);

        let zi = t.one_minus(z);
        let keep = t.mul(zi, h);
        let take = t.mul(z, c);
        t.add(keep, take)
    }

    /// The fused step over `x`/`h` sources, gathering through the plans
    /// when given.
    fn fused_gru_step(
        t: &mut Tape,
        x: Var,
        x_rows: Option<&IndexPlan>,
        h: Var,
        h_rows: Option<&IndexPlan>,
        p: &GruParams,
        seg: &SegmentPlan,
    ) -> Var {
        let xw = t.gru_project(x, p);
        t.gru_step(xw, x_rows, h, h_rows, p, seg)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// The fused GRU step against the primitive composite, on a four-sample
    /// plan with an empty segment, with the input and state rows read
    /// directly or gathered (input rows repeating, as several paths cross
    /// one link): forward values, input gradients and every per-segment
    /// parameter gradient agree bit for bit.
    #[test]
    fn fused_gru_matches_primitive_composite_bitwise() {
        let (in_dim, hid) = (3usize, 4usize);
        let lens = [3usize, 0, 2, 4];
        let seg = SegmentPlan::from_lens(&lens);
        let n = seg.total();
        let params = gru_leaf_tensors(in_dim, hid, 60);
        // Exact zeros in the inputs and in the upstream gradient exercise
        // the kernels' zero skip.
        let mut x_src = rand_t(6, in_dim, 70);
        x_src.set(1, 0, 0.0);
        x_src.set(4, 2, 0.0);
        let h_src = rand_t(11, hid, 71);
        let up = Arc::new(Tensor::from_fn(n, hid, |r, c| {
            if c == 1 || r == 4 {
                0.0
            } else {
                ((r * 7 + c * 3) % 5) as f64 * 0.4 - 0.9
            }
        }));
        let x_plan = IndexPlan::new(vec![0, 1, 4, 1, 5, 2, 2, 3, 1]);
        let h_plan = IndexPlan::new(vec![10, 0, 7, 3, 1, 9, 2, 5, 6]);
        let mut x_direct = rand_t(n, in_dim, 72);
        x_direct.set(2, 1, 0.0);
        for gathered in [false, true] {
            let (xs, hs) = if gathered {
                (x_src.clone(), h_src.clone())
            } else {
                (x_direct.clone(), h_src.rows_copy(0, n))
            };
            let record = |fused: bool| {
                let mut t = Tape::new();
                let vx = t.leaf(xs.clone());
                let vh = t.leaf(hs.clone());
                for p in &params {
                    t.leaf(p.clone());
                }
                let p = gru_params(2);
                let out = match (fused, gathered) {
                    (true, true) => {
                        fused_gru_step(&mut t, vx, Some(&x_plan), vh, Some(&h_plan), &p, &seg)
                    }
                    (true, false) => fused_gru_step(&mut t, vx, None, vh, None, &p, &seg),
                    (false, true) => {
                        let x = t.gather_rows(vx, &x_plan);
                        let h = t.gather_rows(vh, &h_plan);
                        composite_gru_step(&mut t, x, h, &p, &seg)
                    }
                    (false, false) => composite_gru_step(&mut t, vx, vh, &p, &seg),
                };
                let weighted = t.mul_const_shared(out, &up);
                let loss = t.sum_all(weighted);
                let grads = t.backward(loss);
                assert!(!t.poisoned());
                (t, out, grads, p, vx, vh)
            };
            let (ct, cout, cg, p, vx, vh) = record(false);
            let (ft, fout, fg, _, _, _) = record(true);
            let what = if gathered { "gathered" } else { "direct" };
            assert_bits_eq(ft.value(fout), ct.value(cout), &format!("{what} forward"));
            assert_bits_eq(
                fg.get(vx).unwrap(),
                cg.get(vx).unwrap(),
                &format!("{what} dx"),
            );
            assert_bits_eq(
                fg.get(vh).unwrap(),
                cg.get(vh).unwrap(),
                &format!("{what} dh"),
            );
            let all: Vec<Var> = p.w.into_iter().chain(p.u).chain(p.b).collect();
            for v in all {
                for (s, &len) in lens.iter().enumerate() {
                    match (fg.seg_get(v, s), cg.seg_get(v, s)) {
                        (Some(a), Some(b)) => {
                            assert_bits_eq(a, b, &format!("{what} param {v:?} segment {s}"))
                        }
                        (None, None) => assert_eq!(len, 0, "non-empty segment {s} got no grad"),
                        _ => panic!("{what} param {v:?} segment {s}: one side has no gradient"),
                    }
                }
                assert!(fg.get(v).is_none() && cg.get(v).is_none());
            }
        }
    }

    #[test]
    fn grad_fused_gru_step() {
        let (in_dim, hid, n) = (3usize, 4usize, 5usize);
        let seg = SegmentPlan::singleton(n);
        for gathered in [false, true] {
            let (x_plan, h_plan) = (
                IndexPlan::new(vec![2, 0, 2, 3, 1]),
                IndexPlan::new(vec![5, 1, 0, 4, 2]),
            );
            let mut leaves = if gathered {
                vec![rand_t(4, in_dim, 80), rand_t(6, hid, 81)]
            } else {
                vec![rand_t(n, in_dim, 80), rand_t(n, hid, 81)]
            };
            leaves.extend(gru_leaf_tensors(in_dim, hid, 82));
            let (s2, xp, hp) = (seg.clone(), x_plan.clone(), h_plan.clone());
            grad_check(
                move |tape, _| {
                    let p = gru_params(2);
                    let (xr, hr) = if gathered {
                        (Some(&xp), Some(&hp))
                    } else {
                        (None, None)
                    };
                    let h1 = fused_gru_step(tape, Var(0), xr, Var(1), hr, &p, &s2);
                    let act = tape.tanh(h1);
                    tape.sum_all(act)
                },
                &leaves,
                1e-5,
            );
        }
    }

    #[test]
    fn grad_overwrite_rows() {
        let a = rand_t(5, 3, 90);
        let b = rand_t(2, 3, 91);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let o = tape.overwrite_rows(va, &IndexPlan::new(vec![3, 1]), vb);
                let act = tape.tanh(o);
                tape.sum_all(act)
            },
            &[a, b],
            1e-6,
        );
    }

    /// The overwrite reproduces the keep-mask/scatter/add composite's
    /// arithmetic exactly, signed zeros and NaN included.
    #[test]
    fn overwrite_rows_matches_mask_scatter_add_bitwise() {
        let a = Tensor::from_vec(3, 2, vec![-0.0, 1.5, f64::NAN, -0.0, f64::INFINITY, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![-0.0, 3.0, -1.0, -0.0]);
        let rows = IndexPlan::new(vec![2, 0]);
        let mask = Arc::new(Tensor::from_vec(3, 2, vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]));
        let mut t = Tape::new();
        let (va, vb) = (t.leaf(a), t.leaf(b));
        let kept = t.mul_const_shared(va, &mask);
        let scattered = t.scatter_add_rows(vb, &rows, 3);
        let composite = t.add(kept, scattered);
        let fused = t.overwrite_rows(va, &rows, vb);
        assert_bits_eq(t.value(fused), t.value(composite), "overwrite");
    }

    /// A non-finite gate pre-activation poisons the tape even though the
    /// saturated sigmoid and tanh leave the step's output finite — as the
    /// composite's intermediate nodes did.
    #[test]
    fn saturated_nonfinite_preactivation_still_poisons() {
        let (in_dim, hid, n) = (2usize, 3usize, 2usize);
        let seg = SegmentPlan::singleton(n);
        let mut params = gru_leaf_tensors(in_dim, hid, 95);
        for k in [0, 3, 6] {
            params[k] = Tensor::full(in_dim, hid, 10.0);
        }
        let x = Tensor::full(n, in_dim, 1e308);
        let h = rand_t(n, hid, 96);
        for fused in [true, false] {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let vh = t.leaf(h.clone());
            for p in &params {
                t.leaf(p.clone());
            }
            assert!(!t.poisoned(), "leaves are finite");
            let p = gru_params(2);
            let out = if fused {
                let xw = t.gru_project(vx, &p);
                assert!(!t.poisoned(), "the projection alone does not poison");
                t.gru_step(xw, None, vh, None, &p, &seg)
            } else {
                composite_gru_step(&mut t, vx, vh, &p, &seg)
            };
            assert!(
                t.value(out).all_finite(),
                "saturated gates give a finite state"
            );
            assert!(
                t.poisoned(),
                "fused={fused}: infinite pre-activation must poison"
            );
        }
        // The same step on moderate inputs stays clean.
        let mut t = Tape::new();
        let vx = t.leaf(Tensor::full(n, in_dim, 0.5));
        let vh = t.leaf(h);
        for p in &params {
            t.leaf(p.clone());
        }
        let p = gru_params(2);
        fused_gru_step(&mut t, vx, None, vh, None, &p, &seg);
        assert!(!t.poisoned());
    }

    #[test]
    fn values_are_correct_for_simple_graph() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let s = tape.add(a, b);
        assert_eq!(tape.value(s).data(), &[4.0, 6.0]);
        let m = tape.mul(s, s);
        assert_eq!(tape.value(m).data(), &[16.0, 36.0]);
        let l = tape.sum_all(m);
        assert_eq!(tape.value(l).get(0, 0), 52.0);
        let grads = tape.backward(l);
        // dL/da = 2*s = [8, 12]
        assert_eq!(grads.get(a).unwrap().data(), &[8.0, 12.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[8.0, 12.0]);
    }

    #[test]
    fn diamond_graph_accumulates_gradients() {
        // loss = sum(a*a + a): grad = 2a + 1
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let sq = tape.mul(a, a);
        let s = tape.add(sq, a);
        let l = tape.sum_all(s);
        let grads = tape.backward(l);
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, -3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 2));
        tape.backward(a);
    }

    #[test]
    fn unused_nodes_get_no_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 1, vec![2.0]));
        let unused = tape.leaf(Tensor::from_vec(1, 1, vec![5.0]));
        let l = tape.sum_all(a);
        let grads = tape.backward(l);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(a).is_some());
    }

    #[test]
    fn grad_segment_sum_and_mean() {
        let a = rand_t(5, 3, 30);
        let seg = SegmentPlan::from_lens(&[2, 3]);
        let s2 = seg.clone();
        grad_check(
            move |tape, _| {
                let va = Var(0);
                let y = tape.segment_sum(va, &s2);
                let z = tape.tanh(y);
                tape.sum_all(z)
            },
            std::slice::from_ref(&a),
            1e-6,
        );
        let s3 = seg.clone();
        grad_check(
            move |tape, _| {
                let va = Var(0);
                let y = tape.segment_mean(va, &s3);
                tape.mean_all(y)
            },
            &[a],
            1e-6,
        );
    }

    /// The load-bearing batched-kernel guarantee at the op level: a
    /// seg_matmul/seg_add_row/seg_mse pipeline over concatenated samples
    /// produces, per segment, bitwise the values and gradients of running
    /// each sample through matmul/add_row/mse on its own tape.
    #[test]
    fn seg_ops_match_per_sample_ops_bitwise() {
        let lens = [3usize, 0, 2, 4];
        let total: usize = lens.iter().sum();
        let x = rand_t(total, 3, 40);
        let w = rand_t(3, 2, 41);
        let b = rand_t(1, 2, 42);
        let target = rand_t(total, 2, 43);
        let seg = SegmentPlan::from_lens(&lens);

        // Batched: one tape over all rows.
        let mut bt = Tape::new();
        let vx = bt.leaf(x.clone());
        let vw = bt.leaf(w.clone());
        let vb = bt.leaf(b.clone());
        let mm = bt.seg_matmul(vx, vw, &seg);
        let biased = bt.seg_add_row(mm, vb, &seg);
        // seg_mse requires non-empty segments: fold only the active ones.
        let active: Vec<usize> = lens.iter().copied().filter(|&l| l > 0).collect();
        let aseg = SegmentPlan::from_lens(&active);
        let losses = bt.seg_mse(biased, &target, &aseg);
        let l = bt.sum_all(losses);
        let bgrads = bt.backward(l);

        // Per-sample: one tape per non-empty segment.
        let mut ai = 0usize;
        for s in 0..seg.n_segments() {
            let (lo, hi) = seg.range(s);
            if lo == hi {
                assert!(bgrads.seg_get(vw, s).is_none());
                assert!(bgrads.seg_get(vb, s).is_none());
                continue;
            }
            let mut pt = Tape::new();
            let px = pt.leaf(x.rows_copy(lo, hi));
            let pw = pt.leaf(w.clone());
            let pb = pt.leaf(b.clone());
            let pmm = pt.matmul(px, pw);
            let pbiased = pt.add_row(pmm, pb);
            let ploss = pt.mse(pbiased, &target.rows_copy(lo, hi));
            let pgrads = pt.backward(ploss);

            // Forward values bit-identical.
            assert_eq!(
                &bt.value(biased).rows_copy(lo, hi),
                pt.value(pbiased),
                "segment {s} forward mismatch"
            );
            assert_eq!(
                bt.value(losses).get(ai, 0),
                pt.value(ploss).get(0, 0),
                "segment {s} loss mismatch"
            );
            // Per-segment weight/bias gradients bit-identical.
            assert_eq!(
                bgrads.seg_get(vw, s).unwrap(),
                pgrads.get(pw).unwrap(),
                "segment {s} weight grad mismatch"
            );
            assert_eq!(
                bgrads.seg_get(vb, s).unwrap(),
                pgrads.get(pb).unwrap(),
                "segment {s} bias grad mismatch"
            );
            // Data gradient rows bit-identical.
            assert_eq!(
                &bgrads.get(vx).unwrap().rows_copy(lo, hi),
                pgrads.get(px).unwrap(),
                "segment {s} input grad mismatch"
            );
            ai += 1;
        }
        assert!(bgrads.has_seg(vw) && bgrads.has_seg(vb));
        assert!(!bgrads.has_seg(vx));
    }

    /// Arena contract: after the first pass, replaying the same op sequence
    /// through `reset` allocates every value buffer from the pool.
    #[test]
    fn reset_recycles_all_value_buffers() {
        let x = rand_t(6, 4, 50);
        let w = rand_t(4, 3, 51);
        let run = |tape: &mut Tape| {
            let vx = tape.leaf_copied(&x);
            let vw = tape.leaf_copied(&w);
            let mm = tape.matmul(vx, vw);
            let act = tape.tanh(mm);
            let l = tape.mean_all(act);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        let nodes = tape.len();
        let misses_after_first = tape.reuse_misses();
        for _ in 0..5 {
            tape.reset();
            let again = run(&mut tape);
            assert_eq!(first.to_bits(), again.to_bits());
        }
        // Every node value in every replay came from the pool.
        assert_eq!(tape.reuse_misses(), misses_after_first);
        assert_eq!(tape.reuse_hits(), 5 * nodes as u64);
        assert_eq!(tape.max_nodes(), nodes);
        assert!(tape.max_scalars() > 0);
        // Poison state clears on reset.
        let mut t = Tape::new();
        t.leaf(Tensor::from_vec(1, 1, vec![f64::NAN]));
        assert!(t.poisoned());
        t.reset();
        assert!(!t.poisoned());
    }

    /// Server contract: `trim_pool` bounds the arena's capacity after a
    /// large burst, dropping the largest buffers first, and stays usable
    /// afterwards.
    #[test]
    fn trim_pool_bounds_arena_and_drops_largest() {
        let mut tape = Tape::new();
        // One big buffer and several small ones.
        tape.leaf(Tensor::zeros(100, 100));
        for _ in 0..4 {
            tape.leaf(Tensor::zeros(2, 2));
        }
        tape.reset();
        assert_eq!(tape.pool_len(), 5);
        assert_eq!(tape.pool_scalars(), 10_016);
        // Within budget: untouched.
        tape.trim_pool(10_016);
        assert_eq!(tape.pool_len(), 5);
        tape.trim_pool(12);
        assert_eq!(tape.pool_len(), 3);
        assert_eq!(tape.pool_scalars(), 12);
        // The 10_000-scalar burst buffer is gone; survivors are small.
        assert!(tape.pool.iter().all(|b| b.capacity() < 10_000));
        // Ties at the cut: drop only as many as the budget needs, and keep
        // the survivors in FIFO order.
        let mut fifo = Tape::new();
        for (rows, fill) in [(3, 1.0), (2, 2.0), (3, 3.0), (1, 4.0), (3, 5.0)] {
            fifo.leaf(Tensor::full(rows, 1, fill));
        }
        fifo.reset();
        fifo.trim_pool(9);
        let caps: Vec<usize> = fifo.pool.iter().map(Vec::capacity).collect();
        assert_eq!(caps, vec![2, 3, 1, 3]);
        assert_eq!(fifo.pool_scalars(), 9);
        let small = tape.alloc_tensor(2, 2);
        assert_eq!(small.data().len(), 4);
        // Trimming to a larger bound is a no-op.
        tape.trim_pool(100);
        assert_eq!(tape.pool_len(), 2);
    }

    /// Arena counters: a pooled buffer that must grow is a `reuse_grows`,
    /// not a hit; a same-shape replay is all hits.
    #[test]
    fn pooled_buffer_that_grows_is_counted_apart_from_hits() {
        let run = |tape: &mut Tape, rows: usize| {
            let a = tape.leaf_copied(&Tensor::full(rows, 3, 0.5));
            let b = tape.tanh(a);
            tape.sum_all(b);
        };
        let mut tape = Tape::new();
        run(&mut tape, 2);
        assert_eq!(
            (tape.reuse_hits(), tape.reuse_grows(), tape.reuse_misses()),
            (0, 0, 3)
        );
        tape.reset();
        run(&mut tape, 2);
        assert_eq!(
            (tape.reuse_hits(), tape.reuse_grows(), tape.reuse_misses()),
            (3, 0, 3)
        );
        // Wider rows: the leaf and tanh buffers (6 scalars) must grow to 30;
        // the 1x1 sum buffer fits.
        tape.reset();
        run(&mut tape, 10);
        assert_eq!(
            (tape.reuse_hits(), tape.reuse_grows(), tape.reuse_misses()),
            (4, 2, 3)
        );
        // Replaying the new shape draws grown buffers: no further growth.
        tape.reset();
        run(&mut tape, 10);
        assert_eq!(
            (tape.reuse_hits(), tape.reuse_grows(), tape.reuse_misses()),
            (7, 2, 3)
        );
    }
}
