//! Kernels of the fused GRU step ([`crate::tape::Tape::gru_step`]).
//!
//! One GRU update (see [`crate::layers::GruCell`]) is one tape node. Its
//! forward is two row passes around three matmuls and keeps only `z`, `r`,
//! `r ⊙ h` and the candidate `c` for backward. Values and gradients must be
//! bitwise those of the same cell written with twenty primitive tape ops
//! (seg_matmul, add, seg_add_row, sigmoid, mul, tanh, one_minus): that
//! composite is the oracle of the `fused_gru_matches_primitive_composite_bitwise`
//! test. So every expression below evaluates in the composite's order, and
//! the backward sums each input's partials in the composite's reverse node
//! order.

use crate::plan::SegmentPlan;
use crate::tape::Var;
use crate::tensor::{matmul_rows, matmul_t_rows_into, Tensor};

/// The nine weight leaves of a GRU cell, each array in `z, r, h` gate
/// order: input weights `w`, recurrent weights `u` and biases `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GruParams {
    /// Input weights `Wz, Wr, Wh` (`in_dim x hid_dim`).
    pub w: [Var; 3],
    /// Recurrent weights `Uz, Ur, Uh` (`hid_dim x hid_dim`).
    pub u: [Var; 3],
    /// Biases `bz, br, bh` (`1 x hid_dim`).
    pub b: [Var; 3],
}

/// Rows an operand of the fused step reads: the rows of `t` in order, or
/// the rows `idx` selects (the gather folded into the op), restricted to
/// positions `lo..hi`.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    t: &'a Tensor,
    idx: Option<&'a [usize]>,
    lo: usize,
    hi: usize,
}

impl<'a> Rows<'a> {
    /// Every row of `t`, or the rows `idx` selects (each must be in bounds).
    pub(crate) fn new(t: &'a Tensor, idx: Option<&'a [usize]>) -> Self {
        let hi = idx.map_or(t.rows(), <[usize]>::len);
        Rows { t, idx, lo: 0, hi }
    }

    /// Positions `lo..hi` of these rows.
    pub(crate) fn range(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && self.lo + hi <= self.hi,
            "row range out of bounds"
        );
        Rows {
            lo: self.lo + lo,
            hi: self.lo + hi,
            ..*self
        }
    }

    /// Width of each row.
    pub(crate) fn cols(&self) -> usize {
        self.t.cols()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a [f64]> + Clone + 'a {
        let (t, idx) = (self.t, self.idx);
        (self.lo..self.hi).map(move |i| {
            // lint: allow(panic, reason = "hi <= idx.len() by construction, so i indexes idx")
            t.row(idx.map_or(i, |ix| ix[i]))
        })
    }
}

/// What the fused step keeps for backward, each `rows x hid_dim`.
#[derive(Debug)]
pub(crate) struct Saved {
    pub z: Tensor,
    pub r: Tensor,
    pub rh: Tensor,
    pub c: Tensor,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Forward pass. `xw` rows are the input projection `x · [Wz|Wr|Wh]`
/// (`3 * hid` wide), `h` rows the previous state. Fills `s` and writes the
/// new state into `out`. Returns false if any gate pre-activation is
/// non-finite — the composite's nodes `xw·`, `h·U`, their sums and the
/// bias adds all feed those pre-activations, and non-finite values survive
/// every add, so this is exactly the set of composite intermediates that
/// could be non-finite while the step output stays finite (a saturated
/// sigmoid or tanh).
pub(crate) fn forward(
    xw: Rows,
    h: Rows,
    u: [&Tensor; 3],
    b: [&Tensor; 3],
    s: &mut Saved,
    out: &mut Tensor,
) -> bool {
    let hid = out.cols();
    let [uz, ur, uh] = u;
    let [bz, br, bh] = b;
    let (bz, br, bh) = (bz.data(), br.data(), bh.data());
    // h·Uz and h·Ur land in the z and r buffers; the first row pass turns
    // them into the gates in place.
    matmul_rows(h.iter(), uz, s.z.data_mut(), hid, 0);
    matmul_rows(h.iter(), ur, s.r.data_mut(), hid, 0);
    let mut finite = true;
    let rows =
        s.z.data_mut()
            .chunks_exact_mut(hid)
            .zip(s.r.data_mut().chunks_exact_mut(hid))
            .zip(s.rh.data_mut().chunks_exact_mut(hid))
            .zip(xw.iter().zip(h.iter()));
    for (((z_row, r_row), rh_row), (xw_row, h_row)) in rows {
        let (xz, rest) = xw_row.split_at(hid);
        let xr = rest.split_at(hid).0;
        let cols = z_row
            .iter_mut()
            .zip(r_row.iter_mut())
            .zip(rh_row.iter_mut())
            .zip(xz.iter().zip(xr))
            .zip(h_row.iter().zip(bz.iter().zip(br)));
        for ((((z, r), rh), (&xz, &xr)), (&hv, (&bz, &br))) in cols {
            let zs = (xz + *z) + bz;
            let rs = (xr + *r) + br;
            finite &= zs.is_finite() & rs.is_finite();
            *z = sigmoid(zs);
            *r = sigmoid(rs);
            *rh = *r * hv;
        }
    }
    // (r ⊙ h)·Uh lands in the output buffer; the second row pass turns it
    // into the candidate and the new state in place.
    matmul_rows(s.rh.row_iter(), uh, out.data_mut(), hid, 0);
    let rows = out
        .data_mut()
        .chunks_exact_mut(hid)
        .zip(s.c.data_mut().chunks_exact_mut(hid))
        .zip(s.z.data().chunks_exact(hid))
        .zip(xw.iter().zip(h.iter()));
    for (((o_row, c_row), z_row), (xw_row, h_row)) in rows {
        let xh = xw_row.split_at(2 * hid).1;
        let cols = o_row
            .iter_mut()
            .zip(c_row.iter_mut())
            .zip(z_row)
            .zip(xh.iter().zip(h_row.iter().zip(bh)));
        for (((o, c), &z), (&xh, (&hv, &bh))) in cols {
            let cs = (xh + *o) + bh;
            finite &= cs.is_finite();
            *c = cs.tanh();
            // `1 - z` as the composite's affine `-1·z + 1` computed it.
            let zi = 1.0 - z;
            *o = zi * hv + z * *c;
        }
    }
    finite
}

/// A step's weights: the leaves (where parameter gradients go) and the
/// values of `Wz, Wr, Wh` and `Uz, Ur, Uh`.
pub(crate) struct Weights<'a> {
    pub params: &'a GruParams,
    pub w: [&'a Tensor; 3],
    pub u: [&'a Tensor; 3],
}

/// Gradients of one fused step: with respect to the step's input rows
/// (`dx`, `rows x in_dim`) and previous-state rows (`dh`), in row order of
/// the op (the caller scatters them when the rows were gathered).
pub(crate) struct InputGrads {
    pub dx: Tensor,
    pub dh: Tensor,
}

/// Backward pass for upstream gradient `g` (`rows x hid`). Per-segment
/// parameter gradients go to `param_grad(segment, param, grad)` for each
/// of the nine leaves in `weights.params`; empty segments are skipped, as
/// a per-sample tape would have no op for them.
///
/// The composite's reverse pass summed each input's partials in node
/// order, newest first, so:
/// `dh = ((g⊙zi + ∂rh⊙r) + ∂r_s·Urᵀ) + ∂z_s·Uzᵀ` and
/// `dx = (∂c_s·Whᵀ + ∂r_s·Wrᵀ) + ∂z_s·Wzᵀ`.
pub(crate) fn backward(
    g: &Tensor,
    x: Rows,
    h: Rows,
    weights: Weights,
    s: &Saved,
    seg: &SegmentPlan,
    mut param_grad: impl FnMut(usize, Var, Tensor),
) -> InputGrads {
    let (rows, hid) = g.shape();
    let Weights { params: p, w, u } = weights;
    let [wz, wr, wh] = w;
    let [uz, ur, uh] = u;
    // ∂ at the z and c pre-activations. The z gate's partial is the `take`
    // product's `g⊙c` plus the `1 - z` affine's `-1·(g⊙h)`. (Multiplying by
    // ±1 and adding a negation are exact, so `a - b` is that sum's bits.)
    let mut gzs = Tensor::zeros(rows, hid);
    let mut gcs = Tensor::zeros(rows, hid);
    let cols = gzs
        .data_mut()
        .iter_mut()
        .zip(gcs.data_mut().iter_mut())
        .zip(g.data().iter().zip(h.iter().flatten()))
        .zip(s.z.data().iter().zip(s.c.data()));
    for (((gz_s, gc_s), (&gv, &hv)), (&z, &c)) in cols {
        let gz = gv * c - gv * hv;
        *gz_s = gz * z * (1.0 - z);
        *gc_s = gv * z * (1.0 - c * c);
    }
    // ∂(r ⊙ h), then ∂ at the r pre-activation and the first two terms of dh.
    let grh = gcs.matmul_t(uh);
    let mut grs = Tensor::zeros(rows, hid);
    let mut dh = Tensor::zeros(rows, hid);
    let cols = grs
        .data_mut()
        .iter_mut()
        .zip(dh.data_mut().iter_mut())
        .zip(g.data().iter().zip(h.iter().flatten()))
        .zip(grh.data().iter().zip(s.r.data().iter().zip(s.z.data())));
    for (((gr_s, dhv), (&gv, &hv)), (&grh, (&r, &z))) in cols {
        let gr = grh * hv;
        *gr_s = gr * r * (1.0 - r);
        let zi = 1.0 - z;
        *dhv = gv * zi + grh * r;
    }
    grs.matmul_t_into(ur, &mut dh, true);
    gzs.matmul_t_into(uz, &mut dh, true);
    let mut dx = gcs.matmul_t(wh);
    grs.matmul_t_into(wr, &mut dx, true);
    gzs.matmul_t_into(wz, &mut dx, true);

    for sidx in 0..seg.n_segments() {
        let (lo, hi) = seg.range(sidx);
        if lo == hi {
            continue;
        }
        let x_rows = x.range(lo, hi);
        let h_rows = h.range(lo, hi);
        let u_src = [h_rows, h_rows, Rows::new(&s.rh, None).range(lo, hi)];
        let gates = [&gzs, &grs, &gcs].into_iter().zip(u_src);
        let params = p.w.into_iter().zip(p.u).zip(p.b);
        for ((gate, u_rows), ((wv, uv), bv)) in gates.zip(params) {
            let g_rows = Rows::new(gate, None).range(lo, hi);
            let mut dw = Tensor::zeros(x.cols(), hid);
            matmul_t_rows_into(x_rows.iter(), g_rows.iter(), &mut dw);
            param_grad(sidx, wv, dw);
            let mut du = Tensor::zeros(hid, hid);
            matmul_t_rows_into(u_rows.iter(), g_rows.iter(), &mut du);
            param_grad(sidx, uv, du);
            // Bias: ascending-row column sums over the segment.
            let mut db = Tensor::zeros(1, hid);
            for g_row in g_rows.iter() {
                for (o, &v) in db.data_mut().iter_mut().zip(g_row) {
                    *o += v;
                }
            }
            param_grad(sidx, bv, db);
        }
    }
    InputGrads { dx, dh }
}
