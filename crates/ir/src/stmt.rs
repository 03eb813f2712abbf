use std::fmt;

use crate::expression::map_ref;
use crate::{AffineExpr, ArrayRef, Expr};

/// One statement of a kernel's innermost loop body: a (possibly
/// accumulating) store of an expression into an array element.
///
/// `accumulate == true` encodes `dst += value`, the read-modify-write
/// pattern the paper maps onto the recurrence stream engine when the live
/// set fits on chip (recurrent reuse, §IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Destination element.
    pub dst: ArrayRef,
    /// Value computed each iteration.
    pub value: Expr,
    /// Whether the statement accumulates into `dst` (`+=`) rather than
    /// overwriting it.
    pub accumulate: bool,
    /// Optional guard: the statement only executes when the guard loop
    /// variable predicate holds. Models the `if`-guarded bodies introduced
    /// when flattening imperfect nests; executed via PE predication on
    /// OverGen and via conditional pipeline stages on HLS.
    pub guarded: bool,
}

impl Stmt {
    /// Plain assignment `dst = value`.
    pub fn assign(dst: ArrayRef, value: Expr) -> Self {
        Stmt {
            dst,
            value,
            accumulate: false,
            guarded: false,
        }
    }

    /// Accumulation `dst += value`.
    pub fn accum(dst: ArrayRef, value: Expr) -> Self {
        Stmt {
            dst,
            value,
            accumulate: true,
            guarded: false,
        }
    }

    /// Mark the statement as guarded by a data-dependent predicate.
    pub fn with_guard(mut self) -> Self {
        self.guarded = true;
        self
    }

    /// All array reads of the statement, including the read side of an
    /// accumulation.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = self.value.loads();
        if self.accumulate {
            out.push(&self.dst);
        }
        out
    }

    /// The single array write of the statement.
    pub fn write(&self) -> &ArrayRef {
        &self.dst
    }

    /// Rewrite all indices (unrolling / strength reduction).
    pub fn map_indices(&self, f: &dyn Fn(&AffineExpr) -> AffineExpr) -> Stmt {
        Stmt {
            dst: map_ref(&self.dst, f),
            value: self.value.map_indices(f),
            accumulate: self.accumulate,
            guarded: self.guarded,
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.accumulate { "+=" } else { "=" };
        if self.guarded {
            write!(f, "if (guard) ")?;
        }
        write!(f, "{} {} {}", self.dst, op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;

    #[test]
    fn accumulate_reads_dst() {
        let s = Stmt::accum(
            ArrayRef::affine("c", expr::idx("i")),
            expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i")),
        );
        let reads = s.reads();
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[2].array, "c");
        assert_eq!(s.write().array, "c");
    }

    #[test]
    fn plain_assign_does_not_read_dst() {
        let s = Stmt::assign(
            ArrayRef::affine("c", expr::idx("i")),
            expr::load("a", expr::idx("i")),
        );
        assert_eq!(s.reads().len(), 1);
    }

    #[test]
    fn map_indices_applies_everywhere() {
        let s = Stmt::accum(
            ArrayRef::affine("c", expr::idx("i")),
            expr::load("a", expr::idx("i")),
        );
        let s2 = s.map_indices(&|e| e.shifted("i", 2));
        assert_eq!(s2.dst.index.affine().constant_term(), 2);
        assert_eq!(s2.reads()[0].index.affine().constant_term(), 2);
    }

    #[test]
    fn display() {
        let s = Stmt::accum(
            ArrayRef::affine("c", expr::idx("i")),
            expr::load("a", expr::idx("i")),
        )
        .with_guard();
        assert_eq!(s.to_string(), "if (guard) c[i] += a[i]");
    }
}
