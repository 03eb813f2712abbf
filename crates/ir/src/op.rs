use std::fmt;

use crate::DataType;

/// Primitive operation a processing element can execute.
///
/// The set mirrors the functional units OverGen generates (Table III lists
/// integer and float add/mul/div plus square root; the Vision kernels also
/// use min/max, shifts, and absolute difference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Addition (also used for subtraction hardware-wise).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root.
    Sqrt,
    /// Minimum of two operands.
    Min,
    /// Maximum of two operands.
    Max,
    /// Absolute value.
    Abs,
    /// Logical/arithmetic shift left.
    Shl,
    /// Logical/arithmetic shift right.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Predicated select (conditional move); the control lookup-table path.
    Select,
    /// Comparison producing a predicate.
    Cmp,
}

impl Op {
    /// Every operation, in a stable order.
    pub const ALL: [Op; 15] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Sqrt,
        Op::Min,
        Op::Max,
        Op::Abs,
        Op::Shl,
        Op::Shr,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Select,
        Op::Cmp,
    ];

    /// Coarse cost class of the operation, used by the resource model.
    pub fn class(self) -> OpClass {
        match self {
            Op::Add | Op::Sub | Op::Min | Op::Max | Op::Abs | Op::Cmp => OpClass::AddLike,
            Op::Mul => OpClass::MulLike,
            Op::Div | Op::Sqrt => OpClass::DivLike,
            Op::Shl | Op::Shr | Op::And | Op::Or | Op::Xor | Op::Select => OpClass::Logic,
        }
    }

    /// Pipeline latency in cycles of a dedicated functional unit for this
    /// operation, at the granularity the simulator models.
    pub fn latency(self, dtype: DataType) -> u32 {
        let base = match self.class() {
            OpClass::Logic => 1,
            OpClass::AddLike => 1,
            OpClass::MulLike => 2,
            OpClass::DivLike => 8,
        };
        if dtype.is_float() {
            base + 2
        } else {
            base
        }
    }

    /// Number of input operands.
    pub fn arity(self) -> usize {
        match self {
            Op::Abs | Op::Sqrt => 1,
            Op::Select => 3,
            _ => 2,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Sqrt => "sqrt",
            Op::Min => "min",
            Op::Max => "max",
            Op::Abs => "abs",
            Op::Shl => "shl",
            Op::Shr => "shr",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Select => "select",
            Op::Cmp => "cmp",
        };
        f.write_str(s)
    }
}

/// Cost class of an operation: determines functional-unit area and whether
/// the FPGA mapping uses DSP blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Adders, comparators, min/max: cheap LUT logic.
    AddLike,
    /// Multipliers: DSP blocks (integer wide or float).
    MulLike,
    /// Dividers and square root: large iterative units.
    DivLike,
    /// Shifts and bitwise logic: trivial.
    Logic,
}

/// A functional-unit capability: one operation at one datatype.
///
/// The set of [`FuCap`]s of a processing element defines what instructions
/// can be mapped to it; the DSE adds and prunes capabilities
/// (module-capability pruning, paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuCap {
    /// Operation implemented.
    pub op: Op,
    /// Datatype the unit operates on.
    pub dtype: DataType,
}

impl FuCap {
    /// Convenience constructor.
    pub fn new(op: Op, dtype: DataType) -> Self {
        FuCap { op, dtype }
    }
}

impl fmt::Display for FuCap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.op, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_ops() {
        for op in Op::ALL {
            // class() must not panic and latency must be positive.
            let _ = op.class();
            assert!(op.latency(DataType::I64) >= 1);
            assert!(
                op.latency(DataType::F64) > op.latency(DataType::I64)
                    || op.class() == OpClass::Logic && op.latency(DataType::F64) >= 1
            );
        }
    }

    #[test]
    fn float_ops_are_slower() {
        assert!(Op::Mul.latency(DataType::F32) > Op::Mul.latency(DataType::I32));
    }

    #[test]
    fn fucap_display() {
        assert_eq!(FuCap::new(Op::Mul, DataType::F64).to_string(), "mul.f64");
    }

    #[test]
    fn arity() {
        assert_eq!(Op::Sqrt.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Select.arity(), 3);
    }
}
