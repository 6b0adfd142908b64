//! Small dense linear algebra: just enough for normal equations, weighted
//! least squares (shared with KernelSHAP/LIME in `nfv-xai`), and the MLP.

use crate::MlError;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix, MlError> {
        if data.len() != rows * cols {
            return Err(MlError::Shape(format!(
                "buffer of {} for {rows}×{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Identity.
    pub fn eye(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `A·B`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != other.rows {
            return Err(MlError::Shape(format!(
                "matmul {}×{} by {}×{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// `A·v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MlError> {
        if self.cols != v.len() {
            return Err(MlError::Shape(format!(
                "matvec {}×{} by len {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the symmetric positive-definite system `A·x = b` via Cholesky.
/// Fails if `A` is not SPD (up to a small jitter the caller should add).
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MlError> {
    let n = a.rows;
    if a.cols != n || b.len() != n {
        return Err(MlError::Shape(format!(
            "cholesky_solve on {}×{} with rhs {}",
            a.rows,
            a.cols,
            b.len()
        )));
    }
    // Factor A = L·Lᵀ.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(MlError::Numeric(format!(
                        "matrix not positive definite at pivot {i} ({sum})"
                    )));
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    // Forward solve L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // Back solve Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(x)
}

/// Weighted ridge regression: solves
/// `argmin_β Σ_i w_i (y_i − x_iᵀβ)² + λ‖β‖²`
/// via the normal equations `(XᵀWX + λI)β = XᵀWy`.
///
/// `x` is `n×d` row-major (include a bias column yourself if wanted);
/// weights must be non-negative. This is the numerical core of LIME and
/// KernelSHAP as well as the plain linear models.
pub fn weighted_ridge(x: &Matrix, y: &[f64], w: &[f64], lambda: f64) -> Result<Vec<f64>, MlError> {
    let (n, d) = (x.rows, x.cols);
    if y.len() != n || w.len() != n {
        return Err(MlError::Shape(format!(
            "weighted_ridge: x {}×{}, y {}, w {}",
            n,
            d,
            y.len(),
            w.len()
        )));
    }
    if w.iter().any(|&wi| wi < 0.0 || !wi.is_finite()) {
        return Err(MlError::Numeric("negative or non-finite weight".into()));
    }
    let lambda = lambda.max(0.0);
    // XᵀWX + λI and XᵀWy accumulated directly (d is small). Each entry
    // sums over rows in row order; the upper triangle of row p is one
    // slice, so the q loop runs without index arithmetic and vectorizes
    // across independent entries without reordering any sum. `max(1)`
    // only keeps a zero-column matrix, which has nothing to sum, from
    // panicking.
    let mut a = Matrix::zeros(d, d);
    let mut b = vec![0.0; d];
    for ((row, &wi), &yi) in x.data.chunks_exact(d.max(1)).zip(w).zip(y) {
        if wi == 0.0 {
            continue;
        }
        for (p, a_row) in a.data.chunks_exact_mut(d).enumerate() {
            let wxp = wi * row[p];
            b[p] += wxp * yi;
            for (a_pq, &x_q) in a_row[p..].iter_mut().zip(&row[p..]) {
                *a_pq += wxp * x_q;
            }
        }
    }
    for p in 0..d {
        for q in 0..p {
            a[(p, q)] = a[(q, p)];
        }
        a[(p, p)] += lambda + 1e-10; // jitter keeps Cholesky alive
    }
    cholesky_solve(&a, &b)
}

/// Dot product (lengths must match; debug-asserted).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(1, 1)], 154.0);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        let eye = Matrix::eye(3);
        assert_eq!(eye.transpose(), eye);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [6,5] → x = [1,1].
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let x = cholesky_solve(&a, &[6.0, 5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_err());
        let bad_shape = Matrix::zeros(2, 3);
        assert!(cholesky_solve(&bad_shape, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn weighted_ridge_recovers_line() {
        // y = 3x + 1 exactly; bias column included.
        let n = 50;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let xv = i as f64 / 10.0;
            data.extend_from_slice(&[1.0, xv]);
            y.push(1.0 + 3.0 * xv);
        }
        let x = Matrix::from_vec(n, 2, data).unwrap();
        let beta = weighted_ridge(&x, &y, &vec![1.0; n], 0.0).unwrap();
        assert!((beta[0] - 1.0).abs() < 1e-6, "{beta:?}");
        assert!((beta[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn weights_reweight_the_fit() {
        // Two clusters with different slopes; zero weight on one of them
        // must recover the other's slope exactly.
        let mut data = Vec::new();
        let mut y = Vec::new();
        let mut w = Vec::new();
        for i in 0..20 {
            let xv = i as f64;
            data.extend_from_slice(&[1.0, xv]);
            y.push(2.0 * xv);
            w.push(1.0);
        }
        for i in 0..20 {
            let xv = i as f64;
            data.extend_from_slice(&[1.0, xv]);
            y.push(5.0 * xv);
            w.push(0.0);
        }
        let x = Matrix::from_vec(40, 2, data).unwrap();
        let beta = weighted_ridge(&x, &y, &w, 0.0).unwrap();
        assert!((beta[1] - 2.0).abs() < 1e-6, "{beta:?}");
        assert!(weighted_ridge(&x, &y, &[1.0], 0.0).is_err());
        assert!(weighted_ridge(&x, &y, &vec![-1.0; 40], 0.0).is_err());
    }

    /// `weighted_ridge` as it was before its accumulation went over row
    /// slices, verbatim: the oracle the slice form must match bit for bit.
    fn reference_weighted_ridge(
        x: &Matrix,
        y: &[f64],
        w: &[f64],
        lambda: f64,
    ) -> Result<Vec<f64>, MlError> {
        let (n, d) = (x.rows, x.cols);
        if y.len() != n || w.len() != n {
            return Err(MlError::Shape(format!(
                "weighted_ridge: x {}×{}, y {}, w {}",
                n,
                d,
                y.len(),
                w.len()
            )));
        }
        if w.iter().any(|&wi| wi < 0.0 || !wi.is_finite()) {
            return Err(MlError::Numeric("negative or non-finite weight".into()));
        }
        let lambda = lambda.max(0.0);
        // XᵀWX + λI and XᵀWy accumulated directly (d is small).
        let mut a = Matrix::zeros(d, d);
        let mut b = vec![0.0; d];
        for i in 0..n {
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            let row = x.row(i);
            for p in 0..d {
                let wxp = wi * row[p];
                b[p] += wxp * y[i];
                for q in p..d {
                    a[(p, q)] += wxp * row[q];
                }
            }
        }
        for p in 0..d {
            for q in 0..p {
                a[(p, q)] = a[(q, p)];
            }
            a[(p, p)] += lambda + 1e-10; // jitter keeps Cholesky alive
        }
        cholesky_solve(&a, &b)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Same bits as the index-by-index accumulation, zero weights,
        /// `-0.0` entries and non-finite targets included.
        #[test]
        fn weighted_ridge_matches_the_reference_bit_for_bit(
            n in 1usize..300,
            d in 1usize..20,
            seed in 0u64..u64::MAX,
            lambda in 0.0f64..1.0,
        ) {
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
            let data: Vec<f64> = (0..n * d)
                .map(|_| match (unit() * 20.0) as u32 {
                    0 => -0.0,
                    1 => 1.0,
                    _ => unit() * 8.0 - 4.0,
                })
                .collect();
            let y: Vec<f64> = (0..n)
                .map(|_| match (unit() * 50.0) as u32 {
                    0 => f64::INFINITY,
                    _ => unit() * 100.0 - 50.0,
                })
                .collect();
            let w: Vec<f64> = (0..n)
                .map(|_| if unit() < 0.1 { 0.0 } else { unit() })
                .collect();
            let x = Matrix::from_vec(n, d, data).unwrap();
            let bits = |r: Result<Vec<f64>, MlError>| {
                r.map(|v| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>())
            };
            proptest::prop_assert_eq!(
                bits(weighted_ridge(&x, &y, &w, lambda)),
                bits(reference_weighted_ridge(&x, &y, &w, lambda))
            );
        }
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let n = 30;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let xv = i as f64 / 5.0;
            data.extend_from_slice(&[1.0, xv]);
            y.push(4.0 * xv);
        }
        let x = Matrix::from_vec(n, 2, data).unwrap();
        let free = weighted_ridge(&x, &y, &vec![1.0; n], 0.0).unwrap();
        let heavy = weighted_ridge(&x, &y, &vec![1.0; n], 1_000.0).unwrap();
        assert!(heavy[1].abs() < free[1].abs());
    }
}
