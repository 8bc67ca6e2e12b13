//! Element-wise reduction operators.

/// Reduction operator applied element-wise to `f64` vectors.
///
/// The paper's experiments use a global sum; the other operators exist so
/// that the collectives are usable as a general library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise addition.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Combine two scalars.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// The operator's identity element (the value that leaves the other
    /// operand unchanged).
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Reduce `other` into `acc` element-wise over the common prefix.
    ///
    /// Only `min(acc.len(), other.len())` elements are touched; this is what
    /// the threshold-based eventually consistent collectives rely on when a
    /// contribution carries only a fraction of the payload.
    pub fn accumulate(self, acc: &mut [f64], other: &[f64]) {
        self.accumulate_from(acc, other.iter().copied());
    }

    /// [`ReduceOp::accumulate`] over values produced on the fly — e.g. decoded
    /// straight out of a segment — so a landed contribution needs no staging
    /// buffer.  One loop per operator: the `match` sits outside it.
    pub fn accumulate_from(self, acc: &mut [f64], other: impl Iterator<Item = f64>) {
        fn fold(acc: &mut [f64], other: impl Iterator<Item = f64>, combine: impl Fn(f64, f64) -> f64) {
            for (a, b) in acc.iter_mut().zip(other) {
                *a = combine(*a, b);
            }
        }
        match self {
            ReduceOp::Sum => fold(acc, other, |a, b| ReduceOp::Sum.combine(a, b)),
            ReduceOp::Prod => fold(acc, other, |a, b| ReduceOp::Prod.combine(a, b)),
            ReduceOp::Min => fold(acc, other, |a, b| ReduceOp::Min.combine(a, b)),
            ReduceOp::Max => fold(acc, other, |a, b| ReduceOp::Max.combine(a, b)),
        }
    }

    /// Reduce a whole slice to a scalar (used in tests and examples).
    pub fn fold(self, values: &[f64]) -> f64 {
        values.iter().copied().fold(self.identity(), |a, b| self.combine(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn combine_matches_semantics() {
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.combine(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Min.combine(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.combine(2.0, 3.0), 3.0);
    }

    #[test]
    fn accumulate_touches_only_common_prefix() {
        let mut acc = vec![1.0, 1.0, 1.0, 1.0];
        ReduceOp::Sum.accumulate(&mut acc, &[10.0, 10.0]);
        assert_eq!(acc, vec![11.0, 11.0, 1.0, 1.0]);
    }

    #[test]
    fn fold_of_empty_slice_is_identity() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(op.fold(&[]), op.identity());
        }
    }

    proptest! {
        #[test]
        fn identity_is_neutral(op_idx in 0usize..4, v in -1e12f64..1e12) {
            let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
            prop_assert_eq!(op.combine(op.identity(), v), v);
            prop_assert_eq!(op.combine(v, op.identity()), v);
        }

        #[test]
        fn combine_is_commutative(op_idx in 0usize..4, a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
            prop_assert_eq!(op.combine(a, b), op.combine(b, a));
        }

        #[test]
        fn min_max_bound_inputs(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            prop_assert!(ReduceOp::Min.combine(a, b) <= a && ReduceOp::Min.combine(a, b) <= b);
            prop_assert!(ReduceOp::Max.combine(a, b) >= a && ReduceOp::Max.combine(a, b) >= b);
        }
    }
}
