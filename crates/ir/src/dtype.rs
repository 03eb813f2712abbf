use std::fmt;

/// Element datatype of a kernel or functional unit.
///
/// OverGen supports integer datatypes from 8 to 64 bits plus single and
/// double precision floating point (paper §III-B). Processing elements are
/// 64-bit wide; narrower datatypes execute as subword SIMD, so the number of
/// SIMD lanes per 64-bit word is `64 / bits()`.
///
/// ```
/// use overgen_ir::DataType;
/// assert_eq!(DataType::I16.subword_lanes(), 4);
/// assert!(DataType::F64.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 single precision float.
    F32,
    /// IEEE-754 double precision float.
    F64,
}

impl DataType {
    /// All supported datatypes, narrowest first.
    pub const ALL: [DataType; 6] = [
        DataType::I8,
        DataType::I16,
        DataType::I32,
        DataType::I64,
        DataType::F32,
        DataType::F64,
    ];

    /// Bit width of one element.
    pub fn bits(self) -> u32 {
        match self {
            DataType::I8 => 8,
            DataType::I16 => 16,
            DataType::I32 => 32,
            DataType::I64 | DataType::F64 => 64,
            DataType::F32 => 32,
        }
    }

    /// Byte width of one element.
    pub fn bytes(self) -> u64 {
        u64::from(self.bits()) / 8
    }

    /// Whether this is a floating-point type (maps to DSP blocks on FPGA).
    pub fn is_float(self) -> bool {
        matches!(self, DataType::F32 | DataType::F64)
    }

    /// Number of subword SIMD lanes a 64-bit processing element provides for
    /// this datatype.
    pub fn subword_lanes(self) -> u32 {
        64 / self.bits()
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::I8 => "i8",
            DataType::I16 => "i16",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_consistent() {
        for dt in DataType::ALL {
            assert_eq!(dt.bytes() * 8, u64::from(dt.bits()));
            assert_eq!(dt.subword_lanes() * dt.bits(), 64);
        }
    }

    #[test]
    fn float_classification() {
        assert!(DataType::F32.is_float());
        assert!(DataType::F64.is_float());
        assert!(!DataType::I8.is_float());
        assert!(!DataType::I64.is_float());
    }

    #[test]
    fn display_matches_paper_table() {
        assert_eq!(DataType::I16.to_string(), "i16");
        assert_eq!(DataType::F64.to_string(), "f64");
    }
}
