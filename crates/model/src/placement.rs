//! Spatial placement of an overlay onto a modeled clock-region/SLR grid.
//!
//! OverGen's overlays fail in practice on *placement and routing
//! congestion*, not scalar area: the paper's quad-tile design closes at
//! 92.87 MHz precisely because of multi-die congestion on the VCU118
//! (§VI-D). The four-channel [`Resources`] sums the rest of the model
//! works with cannot see that axis, so this module adds the coarsest
//! physical model that can: the device is a grid of *clock regions*
//! grouped into SLRs ([`ClockRegionGrid`]), a [`Placer`] maps the
//! system-level tiles and their NoC links onto grid cells, and the
//! resulting [`PlacementReport`] carries NoC wirelength, peak region
//! congestion, SLR-boundary crossings, and the achievable clock those
//! imply. The abstraction follows the RapidWright pre-implemented-overlay
//! work (arXiv:2001.11886): tiles are relocatable rectangular footprints
//! on a device grid, and quality is a function of where they land.
//!
//! Placers are trait objects so DSE configuration can carry a placer
//! *choice* (see [`PlacerKind`]) while the shipped implementation stays a
//! zero-state deterministic function: [`SimpleGridPlacer`] packs tile
//! footprints row-major and routes every NoC link to a central hub.
//! Everything here is a pure function of its inputs — no RNG, no ambient
//! state — which is what lets DSE traces stay byte-identical at any
//! thread count when placement is enabled.

use overgen_adg::SysAdg;

use crate::estimate::l2_resources;
use crate::resources::{fmax_curve, FpgaDevice, Resources, FMAX_FLOOR_MHZ, XCVU9P};

/// One clock-region cell on the device grid. Columns run left-to-right,
/// rows bottom-to-top (row 0 is the bottom of SLR 0), matching Xilinx
/// `CLOCKREGION_X#Y#` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GridCell {
    /// Clock-region column (`X` coordinate).
    pub col: u32,
    /// Clock-region row (`Y` coordinate), counted across SLRs.
    pub row: u32,
}

impl GridCell {
    /// Manhattan distance to `other` in clock-region hops — the wirelength
    /// unit of this model.
    pub fn manhattan(self, other: GridCell) -> u32 {
        self.col.abs_diff(other.col) + self.row.abs_diff(other.row)
    }
}

/// A device modeled as a grid of homogeneous clock regions grouped into
/// SLRs. Resources are assumed uniform per region (the real XCVU9P is
/// close: its columns differ, but tile-granularity placement does not
/// resolve below a region anyway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockRegionGrid {
    /// The device whose total resources the regions partition.
    pub device: FpgaDevice,
    /// Clock-region columns.
    pub cols: u32,
    /// Clock-region rows, counted across all SLRs.
    pub rows: u32,
    /// Rows per SLR; `rows / rows_per_slr` is the SLR count.
    pub rows_per_slr: u32,
}

impl ClockRegionGrid {
    /// The VCU118's XCVU9P: 3 SLRs of 5 clock-region rows each, 7 columns
    /// wide (`CLOCKREGION_X0Y0` through `X6Y14`).
    pub const fn vcu118() -> ClockRegionGrid {
        ClockRegionGrid {
            device: XCVU9P,
            cols: 7,
            rows: 15,
            rows_per_slr: 5,
        }
    }

    /// Total clock regions.
    pub fn regions(&self) -> u32 {
        self.cols * self.rows
    }

    /// Resources of one clock region (uniform partition of the device).
    pub fn region_capacity(&self) -> Resources {
        self.device.total * (1.0 / f64::from(self.regions().max(1)))
    }

    /// The cell of a row-major region index (wrapping, so packing more
    /// demand than the device has regions folds back onto the grid and
    /// shows up as congestion rather than an error).
    pub fn cell(&self, index: u32) -> GridCell {
        let i = index % self.regions().max(1);
        GridCell {
            col: i % self.cols,
            row: i / self.cols,
        }
    }

    /// Which SLR a cell lies in.
    pub fn slr_of(&self, cell: GridCell) -> u32 {
        cell.row / self.rows_per_slr.max(1)
    }

    /// Is `cell` on the grid?
    pub fn contains(&self, cell: GridCell) -> bool {
        cell.col < self.cols && cell.row < self.rows
    }

    /// SLR boundaries a straight NoC route between two cells crosses
    /// (super-long-line hops; each costs latency and clock margin).
    pub fn slr_crossings_between(&self, a: GridCell, b: GridCell) -> u32 {
        self.slr_of(a).abs_diff(self.slr_of(b))
    }
}

/// Per-tile clock penalty of one SLR crossing, in MHz. Calibrated so the
/// four-tile VCU118 point lands in the paper's 92.87 MHz regime (§VI-D)
/// once the congestion curve has taken its share.
const SLR_CROSSING_MHZ: f64 = 1.0;

/// Outcome of placing one overlay configuration: the tile anchors plus the
/// three quality axes the DSE can trade against IPC and area.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// Anchor cell of each tile, in tile-id order (tile `i` is
    /// `cells[i]`).
    pub cells: Vec<GridCell>,
    /// Cell of the shared L2/NoC hub every tile's link routes to.
    pub hub: GridCell,
    /// Clock regions in each tile's footprint (identical for homogeneous
    /// tiles).
    pub span: u32,
    /// Total NoC wirelength in clock-region hops: the tile→hub Manhattan
    /// links plus each tile's internal footprint extent.
    pub wirelength: f64,
    /// Peak limiting-channel utilization over all clock regions. Above
    /// 1.0 the grid is over-subscribed (footprints wrapped onto each
    /// other) and the clock model degrades steeply.
    pub congestion: f64,
    /// Total SLR boundaries crossed by NoC links and intra-tile
    /// footprints.
    pub slr_crossings: u64,
    /// Achievable clock implied by congestion and SLR crossings, via the
    /// shared [`fmax_curve`] with [`SLR_CROSSING_MHZ`] per crossing,
    /// floored at [`FMAX_FLOOR_MHZ`].
    pub fmax_mhz: f64,
}

impl PlacementReport {
    /// The `Copy` metric triple plus clock, as Pareto tracking keeps it.
    pub fn metrics(&self) -> PlacementMetrics {
        PlacementMetrics {
            wirelength: self.wirelength,
            congestion: self.congestion,
            slr_crossings: self.slr_crossings,
            fmax_mhz: self.fmax_mhz,
        }
    }
}

/// The placement quality axes, as a `Copy` value for Pareto points and
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementMetrics {
    /// Total NoC wirelength in clock-region hops.
    pub wirelength: f64,
    /// Peak clock-region limiting-channel utilization.
    pub congestion: f64,
    /// Total SLR boundary crossings.
    pub slr_crossings: u64,
    /// Achievable clock in MHz.
    pub fmax_mhz: f64,
}

/// A spatial placer: maps the system-level tiles (and their NoC links) of
/// an overlay onto a [`ClockRegionGrid`]. Implementations must be pure
/// deterministic functions of their arguments — reports feed cached,
/// byte-compared DSE evaluations.
pub trait Placer: Send + Sync {
    /// Stable identifier, folded into config hashes and checkpoints.
    fn name(&self) -> &'static str;

    /// Place `sys.sys.tiles` homogeneous tiles of `tile` resources each
    /// (plus the shared L2 at the hub) onto `grid`.
    fn place(&self, sys: &SysAdg, tile: &Resources, grid: &ClockRegionGrid) -> PlacementReport;
}

/// The shipped deterministic placer: tiles take contiguous row-major runs
/// of clock regions sized to their demand, the L2/NoC hub sits at the
/// grid's center region, and every tile's NoC link routes straight to it.
/// No search — placement cost must stay negligible against scheduling and
/// the system DSE, and a pure layout function is trivially deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleGridPlacer;

impl Placer for SimpleGridPlacer {
    fn name(&self) -> &'static str {
        "simple_grid"
    }

    fn place(&self, sys: &SysAdg, tile: &Resources, grid: &ClockRegionGrid) -> PlacementReport {
        let tiles = sys.sys.tiles.max(1);
        let regions = grid.regions().max(1);
        // Footprint: enough regions that no channel of the spread-out tile
        // exceeds one region's capacity (before over-subscription).
        let demand = grid.device.utilization(tile).limiting() * f64::from(regions);
        let span = (demand.ceil() as u32).clamp(1, regions);

        // Hub first: the shared L2 + NoC crossbar, spread over its own
        // footprint at the grid center — a multi-bank L2 no more fits in
        // one clock region than a tile does, and charging it to a single
        // region would pin congestion at the hub for every configuration.
        let l2 = l2_resources(&sys.sys);
        let hub_demand = grid.device.utilization(&l2).limiting() * f64::from(regions);
        let hub_span = (hub_demand.ceil() as u32).clamp(1, regions);
        let hub_start = (regions / 2).saturating_sub(hub_span / 2);
        let hub = grid.cell(regions / 2);
        let mut occupancy = vec![Resources::ZERO; regions as usize];
        let per_hub_region = l2 * (1.0 / f64::from(hub_span));
        for r in 0..hub_span {
            occupancy[((hub_start + r) % regions) as usize] += per_hub_region;
        }

        // Tiles pack row-major in contiguous runs of `span` regions over
        // the regions the hub left free, wrapping only when the grid
        // genuinely runs out (over-subscription → congestion, never
        // failure: the DSE's objective is what rejects).
        let free: Vec<u32> = if hub_span >= regions {
            (0..regions).collect()
        } else {
            (0..regions)
                .filter(|i| *i < hub_start || *i >= hub_start + hub_span)
                .collect()
        };
        let nfree = free.len() as u64;
        let per_region = *tile * (1.0 / f64::from(span));
        let mut cells = Vec::with_capacity(tiles as usize);
        let mut wirelength = 0.0f64;
        let mut slr_crossings = 0u64;
        for t in 0..tiles {
            let base = u64::from(t) * u64::from(span);
            let anchor = grid.cell(free[(base % nfree) as usize]);
            for r in 0..span {
                let idx = free[((base + u64::from(r)) % nfree) as usize] as usize;
                occupancy[idx] += per_region;
            }
            let last = grid.cell(free[((base + u64::from(span) - 1) % nfree) as usize]);
            // One NoC link per tile, anchor → hub, plus the footprint's
            // own extent (intra-tile routing).
            wirelength += f64::from(anchor.manhattan(hub)) + f64::from(span - 1);
            slr_crossings += u64::from(grid.slr_crossings_between(anchor, hub));
            slr_crossings += u64::from(grid.slr_crossings_between(anchor, last));
            cells.push(anchor);
        }

        let congestion = occupancy
            .iter()
            .map(|r| {
                grid.device
                    .utilization(&(*r * f64::from(regions)))
                    .limiting()
            })
            .fold(0.0f64, f64::max);
        let fmax_mhz =
            (fmax_curve(congestion) - SLR_CROSSING_MHZ * slr_crossings as f64).max(FMAX_FLOOR_MHZ);
        PlacementReport {
            cells,
            hub,
            span,
            wirelength,
            congestion,
            slr_crossings,
            fmax_mhz,
        }
    }
}

/// A serializable placer choice, resolvable to the trait object the
/// evaluation pipeline calls. This is what configs, hashes, and
/// checkpoints carry; [`Placer`] stays open for unregistered
/// implementations in library use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacerKind {
    /// [`SimpleGridPlacer`].
    SimpleGrid,
}

impl PlacerKind {
    /// Stable name (checkpoints, config hashes).
    pub fn name(self) -> &'static str {
        match self {
            PlacerKind::SimpleGrid => "simple_grid",
        }
    }

    /// Parse a stable name back to a kind.
    pub fn from_name(name: &str) -> Option<PlacerKind> {
        match name {
            "simple_grid" => Some(PlacerKind::SimpleGrid),
            _ => None,
        }
    }

    /// The placer this kind names.
    pub fn placer(self) -> &'static dyn Placer {
        match self {
            PlacerKind::SimpleGrid => &SimpleGridPlacer,
        }
    }
}

/// Total NoC wirelength of a set of tile anchors linked to one hub, in
/// clock-region hops. Exposed separately from [`Placer::place`] so the
/// relabeling-invariance property (wirelength is a function of the cell
/// *multiset*, never of tile ids) is testable directly.
pub fn noc_wirelength(cells: &[GridCell], hub: GridCell) -> f64 {
    cells.iter().map(|c| f64::from(c.manhattan(hub))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SystemParams};

    fn sys_with_tiles(tiles: u32) -> SysAdg {
        SysAdg::new(
            mesh(&MeshSpec::default()),
            SystemParams {
                tiles,
                ..SystemParams::default()
            },
        )
    }

    fn tile(lut: f64) -> Resources {
        Resources {
            lut,
            ff: lut * 1.1,
            bram: lut / 2_000.0,
            dsp: lut / 5_000.0,
        }
    }

    #[test]
    fn vcu118_grid_shape() {
        let g = ClockRegionGrid::vcu118();
        assert_eq!(g.regions(), 105);
        assert_eq!(g.slr_of(GridCell { col: 0, row: 0 }), 0);
        assert_eq!(g.slr_of(GridCell { col: 6, row: 4 }), 0);
        assert_eq!(g.slr_of(GridCell { col: 0, row: 5 }), 1);
        assert_eq!(g.slr_of(GridCell { col: 0, row: 14 }), 2);
        let cap = g.region_capacity();
        assert!((cap.lut * 105.0 - g.device.total.lut).abs() < 1e-6);
    }

    #[test]
    fn every_tile_gets_one_legal_cell() {
        let g = ClockRegionGrid::vcu118();
        for tiles in [1, 2, 4, 8, 16, 64] {
            let r = SimpleGridPlacer.place(&sys_with_tiles(tiles), &tile(60_000.0), &g);
            assert_eq!(r.cells.len(), tiles as usize);
            for c in &r.cells {
                assert!(g.contains(*c), "tile anchor {c:?} off the grid");
            }
            assert!(g.contains(r.hub));
        }
    }

    #[test]
    fn fitting_tiles_get_distinct_anchors_and_bounded_congestion() {
        let g = ClockRegionGrid::vcu118();
        let r = SimpleGridPlacer.place(&sys_with_tiles(4), &tile(60_000.0), &g);
        let mut anchors = r.cells.clone();
        anchors.sort();
        anchors.dedup();
        assert_eq!(anchors.len(), 4, "fitting tiles must not share anchors");
        assert!(r.congestion <= 1.0 + 1e-9, "congestion {}", r.congestion);
        assert!(r.fmax_mhz > 60.0 && r.fmax_mhz < 160.0);
    }

    #[test]
    fn oversubscription_degrades_to_the_clock_floor() {
        let g = ClockRegionGrid::vcu118();
        // 64 tiles of a third of the device each: hopeless over-packing.
        let r = SimpleGridPlacer.place(&sys_with_tiles(64), &tile(400_000.0), &g);
        assert!(r.congestion > 1.0);
        assert_eq!(r.fmax_mhz, FMAX_FLOOR_MHZ);
    }

    #[test]
    fn quad_tile_clock_lands_near_the_paper() {
        // The paper's quad-tile VCU118 design closes at 92.87 MHz (§VI-D);
        // a four-tile placement filling most of the device must land in
        // the same regime.
        let g = ClockRegionGrid::vcu118();
        let r = SimpleGridPlacer.place(&sys_with_tiles(4), &(XCVU9P.total * 0.22), &g);
        assert!(
            (80.0..=105.0).contains(&r.fmax_mhz),
            "quad-tile fmax {} MHz",
            r.fmax_mhz
        );
    }

    #[test]
    fn wirelength_is_invariant_under_tile_relabeling() {
        let g = ClockRegionGrid::vcu118();
        let r = SimpleGridPlacer.place(&sys_with_tiles(6), &tile(80_000.0), &g);
        let base = noc_wirelength(&r.cells, r.hub);
        // Any permutation of tile ids yields the same total wirelength.
        let mut relabeled = r.cells.clone();
        relabeled.reverse();
        assert_eq!(noc_wirelength(&relabeled, r.hub), base);
        relabeled.rotate_left(2);
        assert_eq!(noc_wirelength(&relabeled, r.hub), base);
    }

    #[test]
    fn placement_is_a_pure_function() {
        let g = ClockRegionGrid::vcu118();
        let a = SimpleGridPlacer.place(&sys_with_tiles(5), &tile(70_000.0), &g);
        let b = SimpleGridPlacer.place(&sys_with_tiles(5), &tile(70_000.0), &g);
        assert_eq!(a, b);
    }

    #[test]
    fn placer_kind_round_trips() {
        let k = PlacerKind::SimpleGrid;
        assert_eq!(PlacerKind::from_name(k.name()), Some(k));
        assert_eq!(PlacerKind::from_name("no_such_placer"), None);
        assert_eq!(k.placer().name(), "simple_grid");
    }
}
