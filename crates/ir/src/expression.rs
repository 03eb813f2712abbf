use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::{AffineExpr, Op};

/// How an array is indexed.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// Affine function of loop variables: the common case.
    Affine(AffineExpr),
    /// Indirect access `a[b[affine]]`: the index is itself loaded from
    /// another array. The paper's reuse analysis assumes the inner access is
    /// linear and the indirection is uniformly distributed over the target
    /// (§IV-B).
    Indirect {
        /// Array holding the indices.
        index_array: String,
        /// Affine index into `index_array`.
        index: AffineExpr,
    },
}

impl IndexExpr {
    /// Whether this is an indirect access.
    pub fn is_indirect(&self) -> bool {
        matches!(self, IndexExpr::Indirect { .. })
    }

    /// The affine part: the target index for affine accesses, or the index
    /// into the index array for indirect accesses.
    pub fn affine(&self) -> &AffineExpr {
        match self {
            IndexExpr::Affine(e) => e,
            IndexExpr::Indirect { index, .. } => index,
        }
    }
}

impl From<AffineExpr> for IndexExpr {
    fn from(e: AffineExpr) -> Self {
        IndexExpr::Affine(e)
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Affine(e) => write!(f, "{e}"),
            IndexExpr::Indirect { index_array, index } => write!(f, "{index_array}[{index}]"),
        }
    }
}

/// A reference to one element of a declared array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    /// Name of the referenced array.
    pub array: String,
    /// Index expression.
    pub index: IndexExpr,
}

impl ArrayRef {
    /// Convenience constructor for an affine reference.
    pub fn affine(array: impl Into<String>, index: AffineExpr) -> Self {
        ArrayRef {
            array: array.into(),
            index: IndexExpr::Affine(index),
        }
    }

    /// Convenience constructor for an indirect reference `array[idx_array[index]]`.
    pub fn indirect(
        array: impl Into<String>,
        index_array: impl Into<String>,
        index: AffineExpr,
    ) -> Self {
        ArrayRef {
            array: array.into(),
            index: IndexExpr::Indirect {
                index_array: index_array.into(),
                index,
            },
        }
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.array, self.index)
    }
}

/// A scalar expression tree over array loads and constants.
///
/// Build expressions with [`expr_ops`] helpers and the overloaded `+`, `-`,
/// `*` operators:
///
/// ```
/// use overgen_ir::expr;
/// let e = expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("j"));
/// assert_eq!(e.count_loads(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Load one element from an array.
    Load(ArrayRef),
    /// Integer/float literal (stored as f64; the datatype comes from the
    /// kernel).
    Const(f64),
    /// Binary operation.
    Binary {
        /// Operation.
        op: Op,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operation.
        op: Op,
        /// Operand.
        arg: Box<Expr>,
    },
}

impl Expr {
    /// Binary helper.
    pub fn binary(op: Op, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Unary helper.
    pub fn unary(op: Op, arg: Expr) -> Expr {
        Expr::Unary {
            op,
            arg: Box::new(arg),
        }
    }

    /// Visit every node of the tree.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Unary { arg, .. } => arg.visit(f),
            Expr::Load(_) | Expr::Const(_) => {}
        }
    }

    /// All array references loaded by this expression, in visit order.
    pub fn loads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Load(r) => out.push(r),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_loads(out);
                rhs.collect_loads(out);
            }
            Expr::Unary { arg, .. } => arg.collect_loads(out),
            Expr::Const(_) => {}
        }
    }

    /// Number of loads in the tree.
    pub fn count_loads(&self) -> usize {
        self.loads().len()
    }

    /// Number of arithmetic operations of a given op in the tree.
    pub fn count_op(&self, op: Op) -> usize {
        let mut n = 0;
        self.visit(&mut |e| match e {
            Expr::Binary { op: o, .. } | Expr::Unary { op: o, .. } if *o == op => n += 1,
            _ => {}
        });
        n
    }

    /// Total number of arithmetic operation nodes.
    pub fn count_ops(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, Expr::Binary { .. } | Expr::Unary { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Rewrite every affine index with the given function (used for loop
    /// unrolling / strength reduction).
    pub fn map_indices(&self, f: &dyn Fn(&AffineExpr) -> AffineExpr) -> Expr {
        match self {
            Expr::Load(r) => Expr::Load(map_ref(r, f)),
            Expr::Const(c) => Expr::Const(*c),
            Expr::Binary { op, lhs, rhs } => {
                Expr::binary(*op, lhs.map_indices(f), rhs.map_indices(f))
            }
            Expr::Unary { op, arg } => Expr::unary(*op, arg.map_indices(f)),
        }
    }
}

pub(crate) fn map_ref(r: &ArrayRef, f: &dyn Fn(&AffineExpr) -> AffineExpr) -> ArrayRef {
    let index = match &r.index {
        IndexExpr::Affine(e) => IndexExpr::Affine(f(e)),
        IndexExpr::Indirect { index_array, index } => IndexExpr::Indirect {
            index_array: index_array.clone(),
            index: f(index),
        },
    };
    ArrayRef {
        array: r.array.clone(),
        index,
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(Op::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(Op::Sub, self, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(Op::Mul, self, rhs)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Load(r) => write!(f, "{r}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Unary { op, arg } => write!(f, "{op}({arg})"),
        }
    }
}

/// Free-function helpers for building expressions tersely. Re-exported as
/// `overgen_ir::expr`.
pub mod expr_ops {
    use super::*;

    /// An affine index consisting of a single variable.
    pub fn idx(var: &str) -> AffineExpr {
        AffineExpr::var(var)
    }

    /// `k * var`.
    pub fn idx_scaled(var: &str, k: i64) -> AffineExpr {
        AffineExpr::var(var).scaled(k)
    }

    /// A constant index.
    pub fn idx_const(k: i64) -> AffineExpr {
        AffineExpr::constant(k)
    }

    /// Load `array[index]`.
    pub fn load(array: &str, index: AffineExpr) -> Expr {
        Expr::Load(ArrayRef::affine(array, index))
    }

    /// Indirect load `array[index_array[index]]`.
    pub fn load_indirect(array: &str, index_array: &str, index: AffineExpr) -> Expr {
        Expr::Load(ArrayRef::indirect(array, index_array, index))
    }

    /// Constant literal.
    pub fn lit(c: f64) -> Expr {
        Expr::Const(c)
    }

    /// `min(a, b)`.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::binary(Op::Min, a, b)
    }

    /// `max(a, b)`.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::binary(Op::Max, a, b)
    }

    /// `abs(a)`.
    pub fn abs(a: Expr) -> Expr {
        Expr::unary(Op::Abs, a)
    }

    /// `sqrt(a)`.
    pub fn sqrt(a: Expr) -> Expr {
        Expr::unary(Op::Sqrt, a)
    }

    /// `a / b`.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::binary(Op::Div, a, b)
    }

    /// `a >> k`.
    pub fn shr(a: Expr, k: i64) -> Expr {
        Expr::binary(Op::Shr, a, Expr::Const(k as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::expr_ops as expr;
    use super::*;

    #[test]
    fn build_and_count() {
        let e = expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("j"))
            + expr::load("c", expr::idx("i"));
        assert_eq!(e.count_loads(), 3);
        assert_eq!(e.count_op(Op::Mul), 1);
        assert_eq!(e.count_op(Op::Add), 1);
        assert_eq!(e.count_ops(), 2);
    }

    #[test]
    fn loads_in_order() {
        let e = expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i"));
        let ls = e.loads();
        assert_eq!(ls[0].array, "a");
        assert_eq!(ls[1].array, "b");
    }

    #[test]
    fn indirect_access() {
        let e = expr::load_indirect("val", "col", expr::idx("j"));
        let ls = e.loads();
        assert!(ls[0].index.is_indirect());
        assert_eq!(ls[0].index.affine().coeff("j"), 1);
    }

    #[test]
    fn map_indices_shifts() {
        let e = expr::load("a", expr::idx("i"));
        let shifted = e.map_indices(&|ix| ix.shifted("i", 3));
        match &shifted {
            Expr::Load(r) => assert_eq!(r.index.affine().constant_term(), 3),
            _ => panic!("expected load"),
        }
    }

    #[test]
    fn display() {
        let e = expr::load("a", expr::idx("i")) + expr::lit(1.0);
        assert_eq!(e.to_string(), "(a[i] add 1)");
    }
}
