//! Background (reference) data: how "feature absent" is realized.
//!
//! Shapley-style methods need a value function `v(S) = E[f(x_S, X_{\bar S})]`;
//! we estimate the expectation by substituting features outside the
//! coalition with values from a background dataset (the *interventional* /
//! marginal convention used by KernelSHAP and interventional TreeSHAP).

use crate::shapley::tree::TreeShapScratch;
use crate::XaiError;
use nfv_data::dataset::Dataset;
use nfv_data::stats;
use nfv_ml::model::Regressor;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A background sample set plus cached summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Background {
    rows: Vec<Vec<f64>>,
    /// Per-feature means of the background rows.
    pub means: Vec<f64>,
    /// Per-feature population standard deviations of the background rows
    /// (LIME's perturbation and distance scale).
    pub(crate) stds: Vec<f64>,
}

/// Reusable scratch for coalition evaluation and for
/// [`crate::explainer::Explainer::direct`].
///
/// Holds the membership scratch the caller's closure fills and the
/// [`FusedBlock`] a single request's composite rows are materialized into
/// and evaluated on, so a steady-state call allocates nothing. One
/// workspace per thread — it is cheap to create (`Default`) and its block
/// grows to the largest chunk it has seen
/// ([`Background::coalition_values_into`] caps a chunk at
/// `MAX_BLOCK_ROWS` rows).
#[derive(Debug, Default, Clone)]
pub struct CoalitionWorkspace {
    /// Membership scratch the caller's closure fills per coalition.
    members: Vec<bool>,
    /// Member feature indices of the coalition being materialized.
    member_idx: Vec<usize>,
    /// The block single-request evaluation runs on: each chunk of
    /// [`Background::coalition_values_into`] and the whole request of
    /// [`crate::explainer::Explainer::direct`].
    pub(crate) block: FusedBlock,
    /// TreeSHAP's per-feature path state. TreeSHAP evaluates no coalitions,
    /// but this is the scratch every [`crate::explainer::Explainer`] receives.
    pub(crate) tree: TreeShapScratch,
}

/// Cap on composite rows [`Background::coalition_values_into`] stacks per
/// chunk: bounds the workspace block at `MAX_BLOCK_ROWS × d` f64s
/// (~640 KiB at d = 20) — exact Shapley at d = 20 is `2^20 × n_bg` rows,
/// GiBs if stacked at once — while keeping chunks large enough for the
/// blocked model evaluators to win.
const MAX_BLOCK_ROWS: usize = 4096;

/// Collects the indices of `true` entries of `members` into `member_idx`.
fn collect_member_idx(members: &[bool], member_idx: &mut Vec<usize>) {
    member_idx.clear();
    for (j, &m) in members.iter().enumerate() {
        if m {
            member_idx.push(j);
        }
    }
}

/// Appends one coalition's composite rows (one per background row) to
/// `out`: the background row copied wholesale, then the coalition's member
/// features scattered over it.
fn append_composite_rows(
    bg_rows: &[Vec<f64>],
    x: &[f64],
    member_idx: &[usize],
    out: &mut Vec<f64>,
) {
    for b in bg_rows {
        let start = out.len();
        out.extend_from_slice(b);
        for &j in member_idx {
            out[start + j] = x[j];
        }
    }
}

/// A shared arena of composite rows that several [`CoalitionPlan`]s append
/// into, so one [`Regressor::predict_block`] call can evaluate the
/// coalition work of many explanation requests at once (cross-request
/// fusion). Rows from different plans are simply stacked; each plan
/// remembers its own row range and scatters its values back out with
/// [`CoalitionPlan::values_into`].
///
/// Lifecycle: `clear` → any number of [`Background::plan_coalitions`]
/// appends (all with the same feature count) → `evaluate` → per-plan
/// `values_into`. The buffers persist across cycles, so a steady-state
/// fusion loop allocates nothing.
///
/// `evaluate` collapses runs of **adjacent bit-identical rows** before
/// prediction and scatters the results back (on by default; see
/// [`FusedBlock::set_dedup`]). Composite-row streams repeat rows far more
/// often than arbitrary data would: a full coalition materializes `x`
/// once per background row, a permutation walk re-pushes an unchanged
/// composite whenever the revealed feature already matches the
/// background (`x[j] == b[j]`, common for quantized / categorical
/// telemetry), and degenerate backgrounds repeat whole walks. Because
/// `predict_block` is row-pure, evaluating one representative per run is
/// bit-identical to evaluating every copy.
#[derive(Debug, Clone)]
pub struct FusedBlock {
    /// Flat `n_rows × d` composite rows from every plan appended so far.
    rows: Vec<f64>,
    /// Model outputs parallel to `rows` (filled by [`FusedBlock::evaluate`]).
    preds: Vec<f64>,
    /// Feature count shared by all stacked rows (0 while empty).
    d: usize,
    /// Collapse adjacent duplicate rows in `evaluate` (default true).
    dedup: bool,
    /// Reusable dedup buffers (representatives, their preds, row map).
    scratch: DedupScratch,
    /// Rows the last `evaluate` skipped as adjacent duplicates.
    last_dedup_saved: usize,
    /// Total rows skipped across the block's lifetime (survives `clear`,
    /// so long-lived worker blocks report cumulative savings).
    dedup_saved_total: u64,
}

impl Default for FusedBlock {
    fn default() -> Self {
        FusedBlock {
            rows: Vec::new(),
            preds: Vec::new(),
            d: 0,
            dedup: true,
            scratch: DedupScratch::default(),
            last_dedup_saved: 0,
            dedup_saved_total: 0,
        }
    }
}

/// Process-wide count of composite rows skipped by adjacent-row dedup.
static DEDUP_ROWS_SAVED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total composite rows every dedup pass in this process has skipped.
/// Monotonic; useful for observability and for asserting that dedup
/// actually engaged on a workload.
pub fn dedup_rows_saved() -> u64 {
    DEDUP_ROWS_SAVED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Reusable buffers for one adjacent-dedup evaluation (see
/// [`dedup_predict_block`]).
#[derive(Debug, Default, Clone)]
struct DedupScratch {
    /// One representative row per adjacent run (flat, `× d`).
    uniq_rows: Vec<f64>,
    /// Predictions parallel to `uniq_rows`.
    uniq_preds: Vec<f64>,
    /// For every input row, the index of its run in `uniq_rows`.
    row_map: Vec<u32>,
}

/// Evaluates `rows` (flat, `preds.len() × d`) with one `predict_block`
/// call after collapsing runs of **adjacent bit-identical rows**,
/// scattering each run's prediction back to every copy. Returns the
/// number of rows skipped.
///
/// Bit-identical to a plain `predict_block` over all rows: models are
/// row-pure (each output depends only on its own row), and rows compare
/// by raw f64 bits — `-0.0 != 0.0`, NaN payloads respected — so a run is
/// collapsed only when its rows are indistinguishable to any model. The
/// detection pass is a straight-line bitwise compare over contiguous
/// memory (no unsafe in this crate; the compiler auto-vectorizes it),
/// costing `O(n × d)` against the `O(n × trees × depth)` evaluation it
/// can elide. When nothing repeats, the rows are evaluated in place and
/// no copy is made.
fn dedup_predict_block(
    model: &dyn Regressor,
    rows: &[f64],
    d: usize,
    preds: &mut [f64],
    scratch: &mut DedupScratch,
) -> usize {
    let n = preds.len();
    debug_assert_eq!(rows.len(), n * d);
    if n < 2 {
        if n == 1 {
            model.predict_block(rows, d, preds);
        }
        return 0;
    }
    // Pass 1: map every row to its run representative.
    scratch.row_map.clear();
    scratch.row_map.reserve(n);
    scratch.row_map.push(0);
    let mut uniq = 1u32;
    for r in 1..n {
        let (prev, cur) = (&rows[(r - 1) * d..r * d], &rows[r * d..(r + 1) * d]);
        let same = prev
            .iter()
            .zip(cur)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            uniq += 1;
        }
        scratch.row_map.push(uniq - 1);
    }
    let saved = n - uniq as usize;
    if saved == 0 {
        model.predict_block(rows, d, preds);
        return 0;
    }
    // Pass 2: compact one representative per run, evaluate, scatter.
    scratch.uniq_rows.clear();
    scratch.uniq_rows.reserve(uniq as usize * d);
    let mut next = 0u32;
    for (r, &m) in scratch.row_map.iter().enumerate() {
        if m == next {
            scratch
                .uniq_rows
                .extend_from_slice(&rows[r * d..(r + 1) * d]);
            next += 1;
        }
    }
    scratch.uniq_preds.clear();
    scratch.uniq_preds.resize(uniq as usize, 0.0);
    model.predict_block(&scratch.uniq_rows, d, &mut scratch.uniq_preds);
    for (p, &m) in preds.iter_mut().zip(&scratch.row_map) {
        *p = scratch.uniq_preds[m as usize];
    }
    DEDUP_ROWS_SAVED.fetch_add(saved as u64, std::sync::atomic::Ordering::Relaxed);
    saved
}

impl FusedBlock {
    /// Resets the arena for a new fusion group (buffers are kept).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.preds.clear();
        self.d = 0;
    }

    /// Composite rows stacked so far.
    pub fn n_rows(&self) -> usize {
        self.rows.len().checked_div(self.d).unwrap_or(0)
    }

    /// True when no plan has appended rows since the last `clear`.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature count of the stacked rows (0 while empty).
    pub fn d(&self) -> usize {
        self.d
    }

    /// The flat composite-row arena (`n_rows × d`).
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Appends one composite row directly, returning its row index. Used
    /// by planners whose rows are not coalition composites (e.g.
    /// permutation walks in sampling Shapley).
    ///
    /// # Panics
    /// If the block already holds rows of a different feature count.
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        if self.d == 0 {
            self.d = row.len();
        }
        assert_eq!(
            self.d,
            row.len(),
            "fused block holds {}-feature rows; cannot stack {}-feature rows",
            self.d,
            row.len()
        );
        let idx = self.n_rows();
        self.rows.extend_from_slice(row);
        idx
    }

    /// Enables or disables the adjacent-duplicate collapse in
    /// [`FusedBlock::evaluate`] (on by default). The off switch exists
    /// for A/B measurement and for proving bit-identity in tests; both
    /// settings produce the same bits.
    pub fn set_dedup(&mut self, on: bool) {
        self.dedup = on;
    }

    /// Rows the most recent `evaluate` skipped as adjacent duplicates.
    pub fn last_dedup_saved(&self) -> usize {
        self.last_dedup_saved
    }

    /// Total rows skipped across this block's lifetime (survives
    /// `clear`).
    pub fn dedup_saved_total(&self) -> u64 {
        self.dedup_saved_total
    }

    /// Evaluates every stacked row with **one** `predict_block` call,
    /// first collapsing runs of adjacent bit-identical rows (see the
    /// type docs; disable with [`FusedBlock::set_dedup`]).
    ///
    /// Determinism: `predict_block` is row-pure for every model (each
    /// output depends only on its own row, with the same arithmetic as
    /// scalar `predict`), so fusing rows from many requests into one call
    /// — or evaluating one representative per duplicate run and copying
    /// its bits to the others — changes *which call* evaluates a row,
    /// never its bits. Duplicate detection compares raw f64 bits, so
    /// `-0.0 != 0.0` and NaN payloads are respected; a run is collapsed
    /// only when the rows are indistinguishable to any row-pure model.
    pub fn evaluate(&mut self, model: &dyn Regressor) {
        let n = self.n_rows();
        self.last_dedup_saved = 0;
        self.preds.clear();
        self.preds.resize(n, 0.0);
        if n == 0 {
            return;
        }
        if !self.dedup {
            model.predict_block(&self.rows, self.d, &mut self.preds);
            return;
        }
        let saved = dedup_predict_block(
            model,
            &self.rows,
            self.d,
            &mut self.preds,
            &mut self.scratch,
        );
        self.last_dedup_saved = saved;
        self.dedup_saved_total += saved as u64;
    }

    /// Model outputs for the stacked rows (valid after `evaluate`).
    pub fn preds(&self) -> &[f64] {
        &self.preds
    }
}

/// The plan half of the coalition plan/execute split: composite rows for
/// one request's coalitions have been materialized into a [`FusedBlock`],
/// but not yet evaluated. Produced by [`Background::plan_coalitions`];
/// after [`FusedBlock::evaluate`], [`CoalitionPlan::values_into`] reduces
/// this plan's slice of the shared prediction buffer to per-coalition
/// values with the exact arithmetic of [`Background::coalition_values_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalitionPlan {
    /// First row of this plan within the shared block.
    first_row: usize,
    /// Coalitions planned.
    n_coalitions: usize,
    /// Background rows per coalition.
    n_bg: usize,
}

impl CoalitionPlan {
    /// First composite row of this plan within its block.
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// Coalitions covered by this plan.
    pub fn n_coalitions(&self) -> usize {
        self.n_coalitions
    }

    /// Composite rows this plan occupies in the block.
    pub fn n_rows(&self) -> usize {
        self.n_coalitions * self.n_bg
    }

    /// Scatters this plan's coalition values out of the evaluated block:
    /// per-coalition means over background rows, accumulated in
    /// background-row order (the order of the scalar
    /// [`Background::coalition_value`], so the two agree bit for bit).
    /// `out` is cleared, then filled in coalition order.
    ///
    /// # Panics
    /// If `block` has not been evaluated since this plan was appended.
    pub fn values_into(&self, block: &FusedBlock, out: &mut Vec<f64>) {
        out.clear();
        self.extend_values(block, out);
    }

    /// [`CoalitionPlan::values_into`] without the clear: the one place a
    /// coalition mean is computed.
    fn extend_values(&self, block: &FusedBlock, out: &mut Vec<f64>) {
        if self.n_coalitions == 0 {
            return;
        }
        let end = self.first_row + self.n_rows();
        assert!(
            end <= block.preds.len(),
            "fused block not evaluated: plan needs rows {}..{end} but only {} predictions exist",
            self.first_row,
            block.preds.len()
        );
        out.reserve(self.n_coalitions);
        for per_coalition in block.preds[self.first_row..end].chunks(self.n_bg) {
            let mut sum = 0.0;
            for &p in per_coalition {
                sum += p;
            }
            out.push(sum / self.n_bg as f64);
        }
    }
}

impl Background {
    /// Builds from explicit rows (all must share one length).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Background, XaiError> {
        let Some(first) = rows.first() else {
            return Err(XaiError::Input("background needs at least one row".into()));
        };
        let d = first.len();
        if d == 0 {
            return Err(XaiError::Input("background rows are empty".into()));
        }
        if rows.iter().any(|r| r.len() != d) {
            return Err(XaiError::Input("background rows have mixed lengths".into()));
        }
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            return Err(XaiError::Input(
                "background contains non-finite values".into(),
            ));
        }
        let mut means = vec![0.0; d];
        for r in &rows {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= rows.len() as f64;
        }
        let stds = (0..d)
            .map(|j| {
                let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
                stats::std_dev(&col)
            })
            .collect();
        Ok(Background { rows, means, stds })
    }

    /// Builds by sampling at most `max_rows` rows of `data` (deterministic
    /// subsample; KernelSHAP cost scales linearly in this).
    pub fn from_dataset(
        data: &Dataset,
        max_rows: usize,
        seed: u64,
    ) -> Result<Background, XaiError> {
        if max_rows == 0 {
            return Err(XaiError::Input("max_rows must be positive".into()));
        }
        let n = data.n_rows();
        let rows: Vec<Vec<f64>> = if n <= max_rows {
            data.rows().map(|r| r.to_vec()).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..max_rows)
                .map(|_| data.row(rng.gen_range(0..n)).to_vec())
                .collect()
        };
        Background::from_rows(rows)
    }

    /// Number of background rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature count.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Borrow of row `i` (wraps around — callers can index with any seed).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i % self.rows.len()]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// `E[f(X)]` over the background — the base value of every attribution.
    /// Routed through `predict_batch` (same accumulation order as the
    /// scalar loop, so the value is unchanged).
    pub fn expected_output(&self, model: &dyn Regressor) -> f64 {
        let refs: Vec<&[f64]> = self.rows.iter().map(Vec::as_slice).collect();
        model.predict_batch(&refs).iter().sum::<f64>() / self.rows.len() as f64
    }

    /// Estimates `v(S) = E[f(x_S, B_{\bar S})]`: for every background row,
    /// substitute the coalition features from `x` and average the model
    /// output. `in_coalition[j]` marks membership of feature `j`.
    ///
    /// This is the scalar reference path; hot loops should prefer
    /// [`Background::coalition_values`] /
    /// [`Background::coalition_values_into`], which are bit-identical but
    /// evaluate whole coalition blocks per model call.
    pub fn coalition_value(&self, model: &dyn Regressor, x: &[f64], in_coalition: &[bool]) -> f64 {
        let mut composite = vec![0.0; x.len()];
        let mut sum = 0.0;
        for b in &self.rows {
            for j in 0..x.len() {
                composite[j] = if in_coalition[j] { x[j] } else { b[j] };
            }
            sum += model.predict(&composite);
        }
        sum / self.rows.len() as f64
    }

    /// Bulk coalition evaluation: computes `v(S)` for `n_coalitions`
    /// coalitions by running plan → evaluate → values — the same three
    /// steps a fused group runs — over chunks of at most `MAX_BLOCK_ROWS`
    /// composite rows on the workspace's own block, so memory stays
    /// bounded however many coalitions a method enumerates. A chunk always
    /// holds whole coalitions, so every mean is computed within one chunk.
    ///
    /// `membership(i, members)` must fill the membership buffer for
    /// coalition `i`; it is invoked exactly once per coalition, in
    /// ascending order, against a buffer that starts all-`false` and
    /// persists between invocations — across chunks too — so incremental
    /// fills (flip one feature per call) are supported.
    ///
    /// Values are written to `out` in coalition order and are
    /// bit-identical to looping [`Background::coalition_value`]: the
    /// per-coalition mean accumulates over background rows in the same
    /// order, and every model's `predict_block` preserves scalar `predict`
    /// arithmetic.
    pub fn coalition_values_into(
        &self,
        model: &dyn Regressor,
        x: &[f64],
        n_coalitions: usize,
        mut membership: impl FnMut(usize, &mut [bool]),
        ws: &mut CoalitionWorkspace,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let per_chunk = (MAX_BLOCK_ROWS / self.rows.len()).max(1);
        let CoalitionWorkspace {
            members,
            member_idx,
            block,
            ..
        } = ws;
        members.clear();
        members.resize(x.len(), false);
        for start in (0..n_coalitions).step_by(per_chunk) {
            let chunk = start..(start + per_chunk).min(n_coalitions);
            block.clear();
            let plan = self.plan_range(x, chunk, &mut membership, members, member_idx, block);
            block.evaluate(model);
            plan.extend_values(block, out);
        }
    }

    /// The plan half of coalition evaluation: materializes the composite
    /// rows for `n_coalitions` coalitions into the shared `block`
    /// **without evaluating them**, and returns a [`CoalitionPlan`]
    /// remembering the row range. Several requests' plans can stack into
    /// one block; a single [`FusedBlock::evaluate`] then feeds every
    /// plan's [`CoalitionPlan::values_into`].
    ///
    /// The membership closure contract is that of
    /// [`Background::coalition_values_into`] (called once per coalition in
    /// ascending order against a persistent all-`false` buffer), which is
    /// a loop of this, `evaluate` and `values_into`.
    ///
    /// # Panics
    /// If `block` already holds rows of a different feature count.
    pub fn plan_coalitions(
        &self,
        x: &[f64],
        n_coalitions: usize,
        membership: impl FnMut(usize, &mut [bool]),
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> CoalitionPlan {
        ws.members.clear();
        ws.members.resize(x.len(), false);
        self.plan_range(
            x,
            0..n_coalitions,
            membership,
            &mut ws.members,
            &mut ws.member_idx,
            block,
        )
    }

    /// Appends the composite rows of coalitions `range` to `block`. The
    /// one materializer: `members` is *not* reset, so a caller planning a
    /// long enumeration chunk by chunk keeps the incremental-fill contract.
    fn plan_range(
        &self,
        x: &[f64],
        range: std::ops::Range<usize>,
        mut membership: impl FnMut(usize, &mut [bool]),
        members: &mut [bool],
        member_idx: &mut Vec<usize>,
        block: &mut FusedBlock,
    ) -> CoalitionPlan {
        let d = x.len();
        let n_bg = self.rows.len();
        if block.d == 0 {
            block.d = d;
        }
        assert_eq!(
            block.d, d,
            "fused block holds {}-feature rows; cannot stack {d}-feature rows",
            block.d
        );
        let first_row = block.n_rows();
        block.rows.reserve(range.len() * n_bg * d);
        for c in range.clone() {
            membership(c, members);
            collect_member_idx(members, member_idx);
            append_composite_rows(&self.rows, x, member_idx, &mut block.rows);
        }
        CoalitionPlan {
            first_row,
            n_coalitions: range.len(),
            n_bg,
        }
    }

    /// Convenience wrapper over [`Background::coalition_values_into`] for
    /// callers that already hold explicit membership vectors.
    pub fn coalition_values(
        &self,
        model: &dyn Regressor,
        x: &[f64],
        coalitions: &[Vec<bool>],
        ws: &mut CoalitionWorkspace,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(coalitions.len());
        self.coalition_values_into(
            model,
            x,
            coalitions.len(),
            |i, members| members.copy_from_slice(&coalitions[i]),
            ws,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::dataset::Task;
    use nfv_ml::model::FnModel;

    fn bg() -> Background {
        Background::from_rows(vec![vec![0.0, 10.0], vec![2.0, 20.0], vec![4.0, 30.0]]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Background::from_rows(vec![]).is_err());
        assert!(Background::from_rows(vec![vec![]]).is_err());
        assert!(Background::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Background::from_rows(vec![vec![f64::NAN]]).is_err());
    }

    #[test]
    fn means_are_columnwise() {
        let b = bg();
        assert_eq!(b.means, vec![2.0, 20.0]);
        assert_eq!(
            b.stds,
            vec![
                stats::std_dev(&[0.0, 2.0, 4.0]),
                stats::std_dev(&[10.0, 20.0, 30.0])
            ]
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.n_features(), 2);
        assert_eq!(b.row(4), &[2.0, 20.0], "wraps");
    }

    #[test]
    fn from_dataset_subsamples_deterministically() {
        let data = Dataset::new(
            vec!["a".into()],
            (0..100).map(|i| i as f64).collect(),
            vec![0.0; 100],
            Task::Regression,
        )
        .unwrap();
        let b1 = Background::from_dataset(&data, 10, 3).unwrap();
        let b2 = Background::from_dataset(&data, 10, 3).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(b1.len(), 10);
        let all = Background::from_dataset(&data, 500, 3).unwrap();
        assert_eq!(all.len(), 100);
        assert!(Background::from_dataset(&data, 0, 3).is_err());
    }

    #[test]
    fn bulk_coalition_values_match_scalar_bitwise() {
        let b = bg();
        let model = FnModel::new(2, |x: &[f64]| x[0].sin() * x[1] + x[0]);
        let x = [3.0, -2.0];
        let coalitions = vec![
            vec![false, false],
            vec![true, false],
            vec![false, true],
            vec![true, true],
        ];
        let mut ws = CoalitionWorkspace::default();
        let bulk = b.coalition_values(&model, &x, &coalitions, &mut ws);
        for (members, v) in coalitions.iter().zip(&bulk) {
            assert_eq!(*v, b.coalition_value(&model, &x, members), "bit-exact");
        }
        // Workspace reuse across calls is safe.
        let again = b.coalition_values(&model, &x, &coalitions, &mut ws);
        assert_eq!(bulk, again);
    }

    #[test]
    fn incremental_membership_fill_is_supported() {
        let b = bg();
        let model = FnModel::new(2, |x: &[f64]| x[0] + 2.0 * x[1]);
        let x = [5.0, 7.0];
        let mut ws = CoalitionWorkspace::default();
        let mut out = Vec::new();
        // Reveal features one at a time: {}, {0}, {0,1}.
        b.coalition_values_into(
            &model,
            &x,
            3,
            |i, members| {
                if i > 0 {
                    members[i - 1] = true;
                }
            },
            &mut ws,
            &mut out,
        );
        assert_eq!(out[0], b.coalition_value(&model, &x, &[false, false]));
        assert_eq!(out[1], b.coalition_value(&model, &x, &[true, false]));
        assert_eq!(out[2], b.coalition_value(&model, &x, &[true, true]));
        // Zero coalitions is a no-op that clears the output.
        b.coalition_values_into(&model, &x, 0, |_, _| {}, &mut ws, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn membership_persists_across_chunks() {
        // 1 500 background rows → two coalitions per chunk, so the six
        // coalitions of an incremental reveal span three chunks; the
        // membership buffer must survive each chunk boundary.
        let rows: Vec<Vec<f64>> = (0..1_500)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.713).sin()).collect())
            .collect();
        let b = Background::from_rows(rows).unwrap();
        assert_eq!(MAX_BLOCK_ROWS / b.len(), 2);
        let model = FnModel::new(5, |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(j, &v)| (v * (j as f64 + 0.5)).sin() * v)
                .sum::<f64>()
        });
        let x: Vec<f64> = (0..5).map(|j| j as f64 * 0.31 - 1.0).collect();
        let mut ws = CoalitionWorkspace::default();
        let mut out = Vec::new();
        b.coalition_values_into(
            &model,
            &x,
            6,
            |i, members| {
                if i > 0 {
                    members[i - 1] = true;
                }
            },
            &mut ws,
            &mut out,
        );
        assert_eq!(out.len(), 6);
        assert!(ws.block.n_rows() <= MAX_BLOCK_ROWS, "one chunk at a time");
        let mut members = vec![false; 5];
        for (i, v) in out.iter().enumerate() {
            if i > 0 {
                members[i - 1] = true;
            }
            assert_eq!(
                v.to_bits(),
                b.coalition_value(&model, &x, &members).to_bits(),
                "coalition {i}"
            );
        }
    }

    #[test]
    fn planned_execution_is_bit_identical_to_direct() {
        // Two "requests" with different inputs and coalition budgets stack
        // their plans into one FusedBlock; a single evaluate call must
        // reproduce the direct per-request path bit-for-bit.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.37).sin()).collect())
            .collect();
        let b = Background::from_rows(rows).unwrap();
        let model = FnModel::new(5, |x: &[f64]| {
            x.iter().map(|&v| (v * 1.3).cos() * v).sum::<f64>()
        });
        let x1: Vec<f64> = (0..5).map(|j| j as f64 * 0.21 - 0.4).collect();
        let x2: Vec<f64> = (0..5).map(|j| (j as f64 * 1.7).sin()).collect();
        let membership = |salt: u64| {
            move |i: usize, members: &mut [bool]| {
                let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                for m in members.iter_mut() {
                    h ^= h << 13;
                    h ^= h >> 7;
                    h ^= h << 17;
                    *m = h & 1 == 1;
                }
            }
        };
        let mut ws = CoalitionWorkspace::default();
        let mut direct1 = Vec::new();
        let mut direct2 = Vec::new();
        b.coalition_values_into(&model, &x1, 7, membership(3), &mut ws, &mut direct1);
        b.coalition_values_into(&model, &x2, 11, membership(99), &mut ws, &mut direct2);

        let mut block = FusedBlock::default();
        let p1 = b.plan_coalitions(&x1, 7, membership(3), &mut ws, &mut block);
        let p2 = b.plan_coalitions(&x2, 11, membership(99), &mut ws, &mut block);
        assert_eq!(p1.first_row(), 0);
        assert_eq!(p1.n_rows(), 7 * 12);
        assert_eq!(p2.first_row(), 7 * 12);
        assert_eq!(block.n_rows(), (7 + 11) * 12);
        block.evaluate(&model);
        let mut fused1 = Vec::new();
        let mut fused2 = Vec::new();
        p1.values_into(&block, &mut fused1);
        p2.values_into(&block, &mut fused2);
        assert_eq!(direct1.len(), fused1.len());
        for (a, f) in direct1.iter().zip(&fused1) {
            assert_eq!(a.to_bits(), f.to_bits(), "request 1 drifted");
        }
        for (a, f) in direct2.iter().zip(&fused2) {
            assert_eq!(a.to_bits(), f.to_bits(), "request 2 drifted");
        }
        // The arena is reusable: clear + replan yields the same bits.
        block.clear();
        assert!(block.is_empty());
        let p1b = b.plan_coalitions(&x1, 7, membership(3), &mut ws, &mut block);
        block.evaluate(&model);
        let mut again = Vec::new();
        p1b.values_into(&block, &mut again);
        assert_eq!(fused1, again);
    }

    #[test]
    fn adjacent_dedup_is_bit_identical_and_counts_savings() {
        // Hand-built block with known duplicate runs: a a a | b | a | c c.
        // (The lone `a` after `b` is NOT adjacent to the first run and
        // must be evaluated — or mapped — on its own.)
        let model = FnModel::new(3, |x: &[f64]| x[0] * 1.7 - (x[1] * x[2]).sin());
        let a = [1.5, -2.0, 0.25];
        let bb = [0.0, 4.0, -1.0];
        let c = [f64::NAN, 0.5, 9.0]; // NaN rows compare equal bitwise
        let mut on = FusedBlock::default();
        for r in [&a, &a, &a, &bb, &a, &c, &c] {
            on.push_row(&r[..]);
        }
        let mut off = on.clone();
        off.set_dedup(false);
        let before_global = dedup_rows_saved();
        on.evaluate(&model);
        off.evaluate(&model);
        assert_eq!(on.preds().len(), 7);
        for (i, (x, y)) in on.preds().iter().zip(off.preds()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i} drifted under dedup");
        }
        // Runs: aaa saves 2, cc saves 1 → 3 rows skipped.
        assert_eq!(on.last_dedup_saved(), 3);
        assert_eq!(off.last_dedup_saved(), 0);
        assert!(dedup_rows_saved() >= before_global + 3);
        // The cumulative counter survives clear(); the per-call one resets.
        on.clear();
        on.push_row(&a[..]);
        on.push_row(&bb[..]);
        on.evaluate(&model);
        assert_eq!(on.last_dedup_saved(), 0, "no adjacent duplicates left");
        assert_eq!(on.dedup_saved_total(), 3);
        // Bitwise comparison keeps -0.0 and 0.0 distinct: no collapse.
        let mut zeros = FusedBlock::default();
        zeros.push_row(&[0.0, 1.0]);
        zeros.push_row(&[-0.0, 1.0]);
        zeros.evaluate(&FnModel::new(2, |x: &[f64]| 1.0 / x[0]));
        assert_eq!(zeros.last_dedup_saved(), 0);
        assert_eq!(zeros.preds()[0], f64::INFINITY);
        assert_eq!(zeros.preds()[1], f64::NEG_INFINITY);
    }

    #[test]
    fn full_coalition_plans_dedup_their_repeated_x_rows() {
        // A full coalition materializes x once per background row: n_bg
        // adjacent bit-identical composites. Dedup must collapse them to
        // one evaluation, alone on the workspace block as in a shared one.
        let b = bg(); // 3 background rows (see bg())
        let n_bg = b.len();
        let model = FnModel::new(2, |x: &[f64]| (x[0] - x[1]).exp());
        let x = [0.75, -1.25];
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let full = |_: usize, members: &mut [bool]| members.fill(true);
        let plan = b.plan_coalitions(&x, 1, full, &mut ws, &mut block);
        block.evaluate(&model);
        assert_eq!(block.last_dedup_saved(), n_bg - 1);
        let mut fused = Vec::new();
        plan.values_into(&block, &mut fused);
        let mut direct = Vec::new();
        b.coalition_values_into(&model, &x, 1, full, &mut ws, &mut direct);
        assert_eq!(fused[0].to_bits(), direct[0].to_bits());
        // (Note: fused[0] is the *mean* of n_bg identical predictions,
        // which is within 1 ulp of — but not necessarily bit-equal to —
        // model.predict(&x); only fused-vs-direct identity is guaranteed.)
        assert!((fused[0] - model.predict(&x)).abs() <= 1e-12 * fused[0].abs());
    }

    #[test]
    fn direct_coalition_path_dedups_too() {
        // Background::coalition_values_into evaluates on a FusedBlock;
        // full coalitions must bump the process counter and stay
        // bit-identical to the scalar reference.
        let b = bg();
        let model = FnModel::new(2, |x: &[f64]| x[0] * x[0] - 3.0 * x[1]);
        let x = [2.0, -0.5];
        let mut ws = CoalitionWorkspace::default();
        let mut out = Vec::new();
        let before = dedup_rows_saved();
        b.coalition_values_into(
            &model,
            &x,
            1,
            |_, members| members.fill(true),
            &mut ws,
            &mut out,
        );
        assert!(dedup_rows_saved() > before, "full coalition must dedup");
        let members = vec![true; 2];
        assert_eq!(
            out[0].to_bits(),
            b.coalition_value(&model, &x, &members).to_bits()
        );
    }

    #[test]
    fn empty_plan_is_harmless() {
        let b = bg();
        let model = FnModel::new(2, |x: &[f64]| x[0] - x[1]);
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let p = b.plan_coalitions(&[1.0, 2.0], 0, |_, _| {}, &mut ws, &mut block);
        assert_eq!(p.n_rows(), 0);
        assert!(block.is_empty());
        block.evaluate(&model);
        let mut out = vec![5.0];
        p.values_into(&block, &mut out);
        assert!(out.is_empty(), "values_into clears the output");
    }

    #[test]
    #[should_panic(expected = "cannot stack")]
    fn mismatched_feature_width_panics() {
        let b = bg();
        let wide = Background::from_rows(vec![vec![1.0, 2.0, 3.0]]).unwrap();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        b.plan_coalitions(&[1.0, 2.0], 1, |_, _| {}, &mut ws, &mut block);
        wide.plan_coalitions(&[1.0, 2.0, 3.0], 1, |_, _| {}, &mut ws, &mut block);
    }

    #[test]
    fn expected_output_and_coalition_values() {
        let b = bg();
        let model = FnModel::new(2, |x: &[f64]| x[0] + x[1]);
        assert!((b.expected_output(&model) - 22.0).abs() < 1e-12);
        let x = [100.0, 1000.0];
        // Empty coalition = base value.
        let v0 = b.coalition_value(&model, &x, &[false, false]);
        assert!((v0 - 22.0).abs() < 1e-12);
        // Full coalition = f(x).
        let v_full = b.coalition_value(&model, &x, &[true, true]);
        assert!((v_full - 1100.0).abs() < 1e-12);
        // Feature 0 only: x0 + E[b1].
        let v0only = b.coalition_value(&model, &x, &[true, false]);
        assert!((v0only - 120.0).abs() < 1e-12);
    }
}
