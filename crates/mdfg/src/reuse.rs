/// Recurrent-reuse annotation: a read/write stream pair repeatedly updates
/// a window of data that can live in the datapath + port FIFOs instead of
/// memory (paper §IV-B, the `c[io*32+ii]` example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecurrenceInfo {
    /// Number of concurrent live instances (the paper's "32 concurrent
    /// instances" touched by `ii`).
    pub concurrent: u64,
    /// Number of times each instance recurs (the paper's "32 recurrences"
    /// along `j`).
    pub depth: u64,
}

/// Reuse annotations attached to a stream node (paper Figure 5).
///
/// The reuse factor feeds the DSE performance model: a stream's bandwidth
/// pressure on a memory level is its raw bandwidth divided by the reuse
/// captured *above* that level (§IV-B, §V-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseInfo {
    /// Total bytes the stream would move without any reuse capture: the
    /// product of all loop trip counts times element size ("Traf." in
    /// Figure 5).
    pub traffic_bytes: f64,
    /// Bytes of distinct data touched ("Foot.").
    pub footprint_bytes: f64,
    /// Stationary reuse: consecutive reads of the same value captured in
    /// the port FIFO ("Port Reuse: 32" for `b[j]`). 1.0 means none.
    pub stationary: f64,
    /// Recurrent reuse via the recurrence engine, if applicable.
    pub recurrent: Option<RecurrenceInfo>,
}

impl Default for ReuseInfo {
    fn default() -> Self {
        ReuseInfo {
            traffic_bytes: 0.0,
            footprint_bytes: 0.0,
            stationary: 1.0,
            recurrent: None,
        }
    }
}

impl ReuseInfo {
    /// General reuse: average times each element is re-read
    /// (`traffic / footprint`, the paper's `16384 / 255`).
    pub fn general_reuse(&self) -> f64 {
        if self.footprint_bytes <= 0.0 {
            1.0
        } else {
            (self.traffic_bytes / self.footprint_bytes).max(1.0)
        }
    }

    /// Reuse captured *before* the memory system is consulted at all —
    /// stationary (port FIFO) plus recurrent (recurrence engine) reuse.
    /// Dividing a stream's bandwidth by this factor gives its residual
    /// pressure on the scratchpad/L2 level.
    pub fn datapath_reuse(&self) -> f64 {
        let rec = self.recurrent.map_or(1.0, |r| r.depth.max(1) as f64);
        (self.stationary.max(1.0)) * rec
    }

    /// Reuse exploitable by a scratchpad: the part of the general reuse not
    /// already captured in the datapath. This is the quantity the scheduler
    /// compares when arrays compete for scratchpad space (§IV-B: arrays
    /// with stationary reuse at ports benefit less from scratchpads).
    pub fn scratchpad_benefit(&self) -> f64 {
        (self.general_reuse() / self.datapath_reuse()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three streams of the paper's Figure 5 FIR example.
    fn fig5_a() -> ReuseInfo {
        ReuseInfo {
            traffic_bytes: 16384.0 * 4.0,
            footprint_bytes: 255.0 * 4.0,
            ..ReuseInfo::default()
        }
    }

    fn fig5_b() -> ReuseInfo {
        ReuseInfo {
            traffic_bytes: 128.0 * 4.0,
            footprint_bytes: 128.0 * 4.0,
            stationary: 32.0,
            ..ReuseInfo::default()
        }
    }

    fn fig5_c() -> ReuseInfo {
        ReuseInfo {
            traffic_bytes: (128.0 + 128.0) * 2.0,
            footprint_bytes: 128.0,
            recurrent: Some(RecurrenceInfo {
                concurrent: 32,
                depth: 128,
            }),
            ..ReuseInfo::default()
        }
    }

    #[test]
    fn general_reuse_matches_paper() {
        // "each element is reused an average of 16384/255 times"
        let r = fig5_a().general_reuse();
        assert!((r - 16384.0 / 255.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_dominates_for_b() {
        let b = fig5_b();
        assert_eq!(b.datapath_reuse(), 32.0);
        // b's general reuse is fully captured at the port -> scratchpad
        // benefit is ~1 ("does not provide as much value to map to spad").
        assert!(b.scratchpad_benefit() <= 1.0 + 1e-9);
    }

    #[test]
    fn a_wants_scratchpad_more_than_b() {
        assert!(fig5_a().scratchpad_benefit() > fig5_b().scratchpad_benefit());
    }

    #[test]
    fn recurrence_captures_c() {
        let c = fig5_c();
        assert_eq!(c.datapath_reuse(), 128.0);
    }

    #[test]
    fn degenerate_footprint_is_safe() {
        let r = ReuseInfo::default();
        assert_eq!(r.general_reuse(), 1.0);
        assert_eq!(r.datapath_reuse(), 1.0);
        assert_eq!(r.scratchpad_benefit(), 1.0);
    }
}
