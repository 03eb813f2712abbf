use std::fmt;

/// Trip count of a loop.
///
/// OverGen's ISA supports variable trip-count streams natively (inherited
/// from REVEL), while HLS pipelines suffer initiation-interval penalties on
/// them — the distinction drives Table IV and the kernel-tuning study (Q2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripCount {
    /// Compile-time constant trip count.
    Const(u64),
    /// Data-dependent trip count bounded by `max` with a typical value of
    /// `expected` iterations.
    Variable {
        /// Upper bound on iterations (the value HLS tuning pads to).
        max: u64,
        /// Expected iterations used for performance estimation.
        expected: f64,
    },
}

impl TripCount {
    /// The value used for performance estimation and simulation.
    pub fn expected(self) -> f64 {
        match self {
            TripCount::Const(n) => n as f64,
            TripCount::Variable { expected, .. } => expected,
        }
    }

    /// The maximum possible iterations.
    pub fn max(self) -> u64 {
        match self {
            TripCount::Const(n) => n,
            TripCount::Variable { max, .. } => max,
        }
    }

    /// Whether the trip count is data dependent.
    pub fn is_variable(self) -> bool {
        matches!(self, TripCount::Variable { .. })
    }
}

impl fmt::Display for TripCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripCount::Const(n) => write!(f, "{n}"),
            TripCount::Variable { max, expected } => write!(f, "var(max={max},exp={expected})"),
        }
    }
}

/// One loop of a nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Induction variable name, unique within the nest.
    pub var: String,
    /// Trip count.
    pub trip: TripCount,
}

impl Loop {
    /// Convenience constructor for a constant-trip loop.
    pub fn new(var: impl Into<String>, trip: u64) -> Self {
        Loop {
            var: var.into(),
            trip: TripCount::Const(trip),
        }
    }
}

/// A perfect loop nest, outermost loop first.
///
/// The decoupled-spatial transformation operates on the innermost loop body
/// (paper §II-B); imperfect nests are expressed by hoisting outer-loop work
/// into guarded statements, matching how the paper's kernels are written.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopNest {
    loops: Vec<Loop>,
}

impl LoopNest {
    /// Create a nest from loops listed outermost first.
    pub fn new(loops: Vec<Loop>) -> Self {
        LoopNest { loops }
    }

    /// Loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Number of loops.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The innermost loop, if any.
    pub fn innermost(&self) -> Option<&Loop> {
        self.loops.last()
    }

    /// Look up a loop by induction variable.
    pub fn find(&self, var: &str) -> Option<&Loop> {
        self.loops.iter().find(|l| l.var == var)
    }

    /// Extent (trip count max) of a variable; `None` when not a loop var.
    pub fn extent(&self, var: &str) -> Option<u64> {
        self.find(var).map(|l| l.trip.max())
    }

    /// Product of expected trip counts of all loops — the total number of
    /// innermost iterations (the paper's "data traffic" multiplier).
    pub fn total_iterations(&self) -> f64 {
        self.loops.iter().map(|l| l.trip.expected()).product()
    }

    /// Product of expected trip counts of the loops strictly inside
    /// (after) the loop with variable `var`.
    pub fn iterations_inside(&self, var: &str) -> f64 {
        let pos = match self.loops.iter().position(|l| l.var == var) {
            Some(p) => p,
            None => return 1.0,
        };
        self.loops[pos + 1..]
            .iter()
            .map(|l| l.trip.expected())
            .product()
    }

    /// Whether any loop has a data-dependent trip count.
    pub fn has_variable_trip(&self) -> bool {
        self.loops.iter().any(|l| l.trip.is_variable())
    }

    /// Push a new innermost loop.
    pub fn push(&mut self, l: Loop) {
        self.loops.push(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir_nest() -> LoopNest {
        LoopNest::new(vec![
            Loop::new("io", 4),
            Loop::new("j", 128),
            Loop::new("ii", 32),
        ])
    }

    #[test]
    fn totals() {
        let n = fir_nest();
        assert_eq!(n.total_iterations(), (4 * 128 * 32) as f64);
        assert_eq!(n.iterations_inside("io"), (128 * 32) as f64);
        assert_eq!(n.iterations_inside("ii"), 1.0);
        assert_eq!(n.iterations_inside("not_a_loop"), 1.0);
    }

    #[test]
    fn innermost_and_lookup() {
        let n = fir_nest();
        assert_eq!(n.innermost().unwrap().var, "ii");
        assert_eq!(n.extent("j"), Some(128));
        assert_eq!(n.extent("zz"), None);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn variable_trip() {
        let mut n = fir_nest();
        assert!(!n.has_variable_trip());
        n.push(Loop {
            var: "k".into(),
            trip: TripCount::Variable {
                max: 64,
                expected: 32.0,
            },
        });
        assert!(n.has_variable_trip());
        assert_eq!(n.extent("k"), Some(64));
        assert_eq!(n.find("k").unwrap().trip.expected(), 32.0);
    }
}
