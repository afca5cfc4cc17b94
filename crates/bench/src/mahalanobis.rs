//! Mahalanobis-distance retrieval — the statistical baseline of §2.2.
//!
//! The paper: "A well known method comes from statistical decision theory
//! and determines the Mahalanobis distance by calculating the co-variance
//! matrix of the whole set of function attributes. This method is very
//! effective concerning the results but the computational efforts would be
//! too large so we decided to apply Manhattan distance metrics."
//!
//! This module implements that rejected alternative so the trade-off can be
//! measured instead of asserted: retrieval quality on correlated attribute
//! sets versus the operation count of building, inverting and applying the
//! covariance matrix (experiment E10).

use rqfa_core::{AttrId, CaseBase, CoreError, OpCounts, Request, Scored};

/// Ridge added to the covariance diagonal for numerical stability (and to
/// handle degenerate libraries where an attribute is constant).
const RIDGE: f64 = 1e-6;

/// Mahalanobis retrieval engine (float only — the paper never considered a
/// fixed-point version precisely because of its cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MahalanobisEngine {
    _private: (),
}

/// The result of a Mahalanobis retrieval, with effort accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct MahalanobisRetrieval {
    /// Scored variants in tree order; similarity is `1/(1+D_M)` with `D_M`
    /// the Mahalanobis distance, mapping `[0,∞)` onto `(0,1]`.
    pub scores: Vec<Scored<f64>>,
    /// The winner (first achieving the maximum).
    pub best: Option<Scored<f64>>,
    /// Floating-point operation counters — the "computational effort"
    /// the paper deems too large.
    pub ops: OpCounts,
}

impl MahalanobisEngine {
    /// Creates the engine.
    pub fn new() -> MahalanobisEngine {
        MahalanobisEngine::default()
    }

    /// Retrieves using the Mahalanobis distance over the request's
    /// attribute subspace.
    ///
    /// The covariance matrix is estimated from *all* implementation
    /// variants of the requested function type (the "whole set of function
    /// attributes"); missing attributes are imputed with the column mean.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownType`] if the type is absent.
    pub fn retrieve(
        &self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<MahalanobisRetrieval, CoreError> {
        let ty = case_base.require_type(request.type_id())?;
        let attrs: Vec<AttrId> = request.constraints().iter().map(|c| c.attr).collect();
        let k = attrs.len();
        let n = ty.variant_count();
        let mut ops = OpCounts::default();

        // Data matrix, n rows × k columns, mean-imputed.
        let mut data = vec![vec![0.0f64; k]; n];
        let mut means = vec![0.0f64; k];
        for (j, &attr) in attrs.iter().enumerate() {
            let mut sum = 0.0;
            let mut count = 0usize;
            for variant in ty.variants() {
                if let Some(v) = variant.attr(attr) {
                    sum += f64::from(v);
                    count += 1;
                    ops.additions += 1;
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let mean = if count > 0 { sum / count as f64 } else { 0.0 };
            means[j] = mean;
            for (i, variant) in ty.variants().iter().enumerate() {
                data[i][j] = variant.attr(attr).map_or(mean, f64::from);
            }
        }

        // Covariance matrix (k × k), ridge-regularized.
        let mut cov = vec![vec![0.0f64; k]; k];
        #[allow(clippy::cast_precision_loss)]
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        for a in 0..k {
            for b in a..k {
                let mut sum = 0.0;
                for row in &data {
                    sum += (row[a] - means[a]) * (row[b] - means[b]);
                    ops.multiplies += 1;
                    ops.additions += 3;
                }
                let value = sum / denom;
                cov[a][b] = value;
                cov[b][a] = value;
            }
            cov[a][a] += RIDGE;
        }

        let inv = invert(&cov, &mut ops).ok_or(CoreError::InvalidWeights)?;

        // Score every variant: D_M² = δᵀ Σ⁻¹ δ, S = 1/(1+√D_M²).
        let mut scores = Vec::with_capacity(n);
        for (i, variant) in ty.variants().iter().enumerate() {
            let delta: Vec<f64> = attrs
                .iter()
                .enumerate()
                .map(|(j, _)| {
                    ops.additions += 1;
                    f64::from(request.constraints()[j].value) - data[i][j]
                })
                .collect();
            let mut quad = 0.0;
            for a in 0..k {
                for b in 0..k {
                    quad += delta[a] * inv[a][b] * delta[b];
                    ops.multiplies += 2;
                    ops.additions += 1;
                }
            }
            let distance = quad.max(0.0).sqrt();
            ops.distances += 1;
            let similarity = 1.0 / (1.0 + distance);
            ops.comparisons += 1;
            scores.push(Scored {
                impl_id: variant.id(),
                target: variant.target(),
                similarity,
            });
        }

        let best = scores
            .iter()
            .copied()
            .fold(None, |best: Option<Scored<f64>>, s| match best {
                None => Some(s),
                Some(b) if s.similarity > b.similarity => Some(s),
                keep => keep,
            });
        Ok(MahalanobisRetrieval { scores, best, ops })
    }
}

/// Gauss-Jordan inversion with partial pivoting. Counts operations.
fn invert(matrix: &[Vec<f64>], ops: &mut OpCounts) -> Option<Vec<Vec<f64>>> {
    let k = matrix.len();
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    let mut inv: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..k).map(|j| f64::from(u8::from(i == j))).collect())
        .collect();
    for col in 0..k {
        // Partial pivot.
        let pivot_row = (col..k).max_by(|&r1, &r2| {
            a[r1][col]
                .abs()
                .partial_cmp(&a[r2][col].abs())
                .unwrap_or(core::cmp::Ordering::Equal)
        })?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let pivot = a[col][col];
        for j in 0..k {
            a[col][j] /= pivot;
            inv[col][j] /= pivot;
            ops.multiplies += 2;
        }
        for row in 0..k {
            if row == col {
                continue;
            }
            let factor = a[row][col];
            for j in 0..k {
                a[row][j] -= factor * a[col][j];
                inv[row][j] -= factor * inv[col][j];
                ops.multiplies += 2;
                ops.additions += 2;
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, FloatEngine, TypeId};

    #[test]
    fn ranks_table1_like_manhattan() {
        // On the (uncorrelated, well-spread) Table 1 library both metrics
        // must agree on the winner.
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let maha = MahalanobisEngine::new().retrieve(&cb, &request).unwrap();
        let manh = FloatEngine::new().retrieve(&cb, &request).unwrap();
        assert_eq!(
            maha.best.unwrap().impl_id,
            manh.best.unwrap().impl_id,
            "both should pick the DSP"
        );
    }

    #[test]
    fn similarity_is_one_at_exact_match() {
        let cb = paper::tie_case_base();
        let request = paper::table1_request().unwrap();
        let maha = MahalanobisEngine::new().retrieve(&cb, &request).unwrap();
        // Both variants equal the request exactly: distance 0, S = 1.
        for s in &maha.scores {
            assert!((s.similarity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn costs_dominate_manhattan() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let maha = MahalanobisEngine::new().retrieve(&cb, &request).unwrap();
        let (_, manh_ops) = FloatEngine::new().score_all(&cb, &request).unwrap();
        assert!(
            maha.ops.arithmetic() > 3 * manh_ops.arithmetic(),
            "mahalanobis {} ops vs manhattan {} ops",
            maha.ops.arithmetic(),
            manh_ops.arithmetic()
        );
    }

    #[test]
    fn inversion_of_identity_is_identity() {
        let mut ops = OpCounts::default();
        let eye = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let inv = invert(&eye, &mut ops).unwrap();
        assert!((inv[0][0] - 1.0).abs() < 1e-12);
        assert!((inv[0][1]).abs() < 1e-12);
        assert!((inv[1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inversion_roundtrip() {
        let mut ops = OpCounts::default();
        let m = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let inv = invert(&m, &mut ops).unwrap();
        // m · inv ≈ I
        #[allow(clippy::needless_range_loop)] // symmetric i/j matrix indexing
        for i in 0..2 {
            for j in 0..2 {
                let cell: f64 = (0..2).map(|t| m[i][t] * inv[t][j]).sum();
                let want = f64::from(u8::from(i == j));
                assert!((cell - want).abs() < 1e-9, "({i},{j}): {cell}");
            }
        }
    }

    #[test]
    fn unknown_type_errors() {
        let cb = paper::table1_case_base();
        let request = Request::builder(TypeId::new(77).unwrap())
            .constraint(paper::ATTR_BITWIDTH, 8)
            .build()
            .unwrap();
        assert!(MahalanobisEngine::new().retrieve(&cb, &request).is_err());
    }
}
