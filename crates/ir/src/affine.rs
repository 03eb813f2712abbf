use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul};

/// An affine expression over loop induction variables:
/// `c0 + c1*v1 + c2*v2 + ...`.
///
/// Affine expressions index arrays (`a[io*32 + ii + j]` in the paper's
/// Figure 5) and drive the compiler's reuse analysis: which loop variables
/// participate in an index determines footprint, traffic, and stationary
/// reuse.
///
/// ```
/// use overgen_ir::AffineExpr;
/// let e = AffineExpr::var("io").scaled(32) + AffineExpr::var("ii") + AffineExpr::var("j");
/// assert_eq!(e.coeff("io"), 32);
/// assert!(e.involves("j"));
/// assert!(!e.involves("k"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        AffineExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        AffineExpr { terms, constant: 0 }
    }

    /// Multiply the whole expression by a constant.
    pub fn scaled(mut self, k: i64) -> Self {
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.terms.retain(|_, c| *c != 0);
        self.constant *= k;
        self
    }

    /// Add a constant offset.
    pub fn offset(mut self, k: i64) -> Self {
        self.constant += k;
        self
    }

    /// Coefficient of a variable (zero if absent).
    pub fn coeff(&self, var: &str) -> i64 {
        self.terms.get(var).copied().unwrap_or(0)
    }

    /// Constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Whether the variable appears with a non-zero coefficient.
    pub fn involves(&self, var: &str) -> bool {
        self.coeff(var) != 0
    }

    /// Iterator over `(variable, coefficient)` pairs, in name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(v, c)| (v.as_str(), *c))
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// Evaluate with a variable assignment. Unbound variables evaluate to 0.
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * env.get(v).copied().unwrap_or(0))
                .sum::<i64>()
    }

    /// Substitute `var := var + delta` (used when unrolling a loop: the k-th
    /// unrolled copy of the body sees `i + k`).
    pub fn shifted(&self, var: &str, delta: i64) -> Self {
        let mut out = self.clone();
        out.constant += out.coeff(var) * delta;
        out
    }

    /// Substitute `var := k * var` (used when unrolling rescales a loop's
    /// step, e.g. strength reduction in kernel tuning).
    pub fn rescaled_var(&self, var: &str, k: i64) -> Self {
        let mut out = self.clone();
        if let Some(c) = out.terms.get_mut(var) {
            *c *= k;
        }
        out
    }

    /// Inclusive range `[min, max]` of values this expression takes when
    /// each variable `v` ranges over `[0, extent(v) - 1]`. Variables without
    /// an extent are treated as fixed at zero.
    pub fn value_range(&self, extent: &dyn Fn(&str) -> Option<u64>) -> (i64, i64) {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (v, c) in &self.terms {
            let ext = extent(v).unwrap_or(1);
            let span = (*c) * (ext.saturating_sub(1) as i64);
            if span >= 0 {
                hi += span;
            } else {
                lo += span;
            }
        }
        (lo, hi)
    }

    /// The stride of the expression along the given variable: how far the
    /// flattened address moves when `var` increments by one.
    pub fn stride_of(&self, var: &str) -> i64 {
        self.coeff(var)
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;

    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (v, c) in rhs.terms {
            let e = self.terms.entry(v).or_insert(0);
            *e += c;
        }
        self.terms.retain(|_, c| *c != 0);
        self.constant += rhs.constant;
        self
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;

    fn mul(self, rhs: i64) -> AffineExpr {
        self.scaled(rhs)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            if *c == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{c}*{v}")?;
            }
            first = false;
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir_expr() -> AffineExpr {
        // a[io*32 + ii + j] from the paper's Figure 5.
        AffineExpr::var("io").scaled(32) + AffineExpr::var("ii") + AffineExpr::var("j")
    }

    #[test]
    fn construction_and_coeffs() {
        let e = fir_expr();
        assert_eq!(e.coeff("io"), 32);
        assert_eq!(e.coeff("ii"), 1);
        assert_eq!(e.coeff("j"), 1);
        assert_eq!(e.coeff("missing"), 0);
        assert_eq!(e.num_vars(), 3);
    }

    #[test]
    fn eval() {
        let e = fir_expr().offset(5);
        let mut env = BTreeMap::new();
        env.insert("io".to_string(), 2);
        env.insert("ii".to_string(), 3);
        env.insert("j".to_string(), 7);
        assert_eq!(e.eval(&env), 2 * 32 + 3 + 7 + 5);
    }

    #[test]
    fn value_range_matches_fir_footprint() {
        // Paper: footprint of a[io*32+ii+j] over io<4, ii<32, j<128 is 255
        // elements (0 ..= 254).
        let e = fir_expr();
        let extent = |v: &str| -> Option<u64> {
            match v {
                "io" => Some(4),
                "ii" => Some(32),
                "j" => Some(128),
                _ => None,
            }
        };
        let (lo, hi) = e.value_range(&extent);
        assert_eq!((lo, hi), (0, 254));
        assert_eq!(hi - lo + 1, 255);
    }

    #[test]
    fn shifted_for_unrolling() {
        let e = AffineExpr::var("i").scaled(2).offset(1);
        let e1 = e.shifted("i", 1);
        assert_eq!(e1.constant_term(), 3);
        assert_eq!(e1.coeff("i"), 2);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let e = AffineExpr::var("i") + AffineExpr::var("i").scaled(-1);
        assert_eq!(e.num_vars(), 0);
        assert_eq!(e, AffineExpr::zero());
    }

    #[test]
    fn negative_coefficient_range() {
        let e = AffineExpr::var("i").scaled(-2).offset(10);
        let (lo, hi) = e.value_range(&|v| if v == "i" { Some(4) } else { None });
        assert_eq!((lo, hi), (4, 10));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(fir_expr().to_string(), "ii + 32*io + j");
        assert_eq!(AffineExpr::zero().to_string(), "0");
    }
}
