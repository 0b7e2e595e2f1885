//! Automatic energy grids.
//!
//! Table II's caption: "the energy grid is not an input parameter, but
//! automatically generated by OMEN based on the minimum and maximum
//! allowed distance between two consecutive energy points". The grid here
//! follows that rule: a base mesh at the maximum spacing over the
//! transport window, refined towards the subband edges of the leads
//! (where the transmission staircases and the integrand changes fastest),
//! never finer than the minimum spacing.

use qtx_obc::LeadBlocks;

/// An energy grid with adaptive refinement metadata.
#[derive(Debug, Clone)]
pub struct EnergyGrid {
    /// Sorted energy points (eV).
    pub points: Vec<f64>,
    /// Subband edges detected in the window.
    pub edges: Vec<f64>,
}

impl EnergyGrid {
    /// Builds the automatic grid for a lead over `[e_lo, e_hi]`.
    ///
    /// `d_max` is the coarse spacing, `d_min` the refinement floor applied
    /// within `refine_width` of every subband edge.
    pub fn auto(lead: &LeadBlocks, e_lo: f64, e_hi: f64, d_min: f64, d_max: f64) -> EnergyGrid {
        assert!(e_hi > e_lo && d_min > 0.0 && d_max >= d_min);
        let edges = subband_edges(lead, e_lo, e_hi);
        let refine_width = 10.0 * d_min;
        let mut points = Vec::new();
        let mut e = e_lo;
        while e <= e_hi + 1e-12 {
            points.push(e);
            let near_edge = edges.iter().any(|&b| (e - b).abs() < refine_width);
            e += if near_edge { d_min } else { d_max };
        }
        // Window-edge handling with a d_min-scaled tolerance: when the
        // stepped run already ends within `tol` of `e_hi` (a subband edge
        // within d_min of the window edge forces exactly that), appending
        // `e_hi` would create a near-coincident pair far below the minimum
        // spacing. Snap the last point onto `e_hi` instead — unless that
        // would stretch the previous interval past `d_max`, in which case
        // the grid simply ends at the last stepped point (within `tol` of
        // the window edge).
        let tol = 0.5 * d_min;
        let last = *points.last().expect("non-empty grid");
        if e_hi - last > tol {
            points.push(e_hi);
        } else {
            let n = points.len();
            if n < 2 || e_hi - points[n - 2] <= d_max + 1e-12 {
                points[n - 1] = e_hi;
            }
        }
        // Defensive sweep for any remaining near-coincidence (coinciding
        // edges can conspire in ways the stepping loop does not foresee):
        // collapse runs within `tol`, keeping the earlier point.
        points.dedup_by(|b, a| (*b - *a).abs() < tol);
        EnergyGrid { points, edges }
    }

    /// Uniform grid (benchmarks with fixed point counts).
    ///
    /// `n == 1` yields the single window midpoint (a one-point grid has no
    /// spacing to define, and `(e_hi − e_lo)/0` would poison it with NaN);
    /// `n == 0` is an empty grid.
    pub fn uniform(e_lo: f64, e_hi: f64, n: usize) -> EnergyGrid {
        let points = match n {
            0 => Vec::new(),
            1 => vec![0.5 * (e_lo + e_hi)],
            _ => {
                let step = (e_hi - e_lo) / (n - 1) as f64;
                (0..n).map(|i| e_lo + i as f64 * step).collect()
            }
        };
        EnergyGrid { points, edges: Vec::new() }
    }

    /// Number of points (the Table II/III workload unit).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Detects subband edges: band extrema of the lead dispersion sampled on a
/// fine k-mesh (extrema of cosine-like bands sit at the sampled turning
/// points).
pub fn subband_edges(lead: &LeadBlocks, e_lo: f64, e_hi: f64) -> Vec<f64> {
    let nk = 32;
    let mut bands: Vec<Vec<f64>> = Vec::with_capacity(nk);
    for i in 0..nk {
        let k = std::f64::consts::PI * i as f64 / (nk - 1) as f64;
        bands.push(lead.bands_at(k));
    }
    let n_bands = bands[0].len();
    let mut edges = Vec::new();
    for b in 0..n_bands {
        let series: Vec<f64> = bands.iter().map(|row| row[b]).collect();
        // Extrema: end points plus interior sign changes of the slope.
        let mut candidates = vec![series[0], series[nk - 1]];
        for i in 1..nk - 1 {
            let d1 = series[i] - series[i - 1];
            let d2 = series[i + 1] - series[i];
            if d1 * d2 <= 0.0 {
                candidates.push(series[i]);
            }
        }
        for c in candidates {
            if c >= e_lo && c <= e_hi && !edges.iter().any(|&e: &f64| (e - c).abs() < 1e-6) {
                edges.push(c);
            }
        }
    }
    edges.sort_by(f64::total_cmp);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, ZMat};

    fn chain() -> LeadBlocks {
        LeadBlocks::chain_1d(0.0, -1.0)
    }

    #[test]
    fn chain_band_edges_detected() {
        let edges = subband_edges(&chain(), -3.0, 3.0);
        assert!(edges.iter().any(|&e| (e + 2.0).abs() < 1e-6), "bottom at −2: {edges:?}");
        assert!(edges.iter().any(|&e| (e - 2.0).abs() < 1e-6), "top at +2");
    }

    #[test]
    fn multi_band_edges_are_sorted_over_an_unbounded_window() {
        // Two gapped bands, window open at both ends: every band extremum
        // is an edge and the list comes back ascending (total order).
        let h00 = ZMat::from_diag(&[c64(1.5, 0.0), c64(-1.5, 0.0)]);
        let h01 = ZMat::from_diag(&[c64(-0.3, 0.0), c64(0.3, 0.0)]);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        let edges = subband_edges(&lead, f64::NEG_INFINITY, f64::INFINITY);
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "{edges:?}");
        for want in [-2.1, -0.9, 0.9, 2.1] {
            assert!(edges.iter().any(|&e| (e - want).abs() < 1e-9), "{want} missing: {edges:?}");
        }
    }

    #[test]
    fn grid_respects_spacing_bounds() {
        let g = EnergyGrid::auto(&chain(), -2.5, 2.5, 0.005, 0.1);
        for w in g.points.windows(2) {
            let d = w[1] - w[0];
            assert!(d > 0.0049 && d < 0.1001, "spacing {d}");
        }
        assert!(g.points.first().unwrap() <= &-2.49);
        assert!(g.points.last().unwrap() >= &2.49);
    }

    #[test]
    fn grid_is_denser_near_edges() {
        let g = EnergyGrid::auto(&chain(), -2.5, 2.5, 0.005, 0.1);
        let count_near = g.points.iter().filter(|&&e| (e + 2.0).abs() < 0.05).count();
        let count_far = g.points.iter().filter(|&&e| e.abs() < 0.05).count();
        assert!(
            count_near > 3 * count_far.max(1),
            "near-edge {count_near} vs mid-band {count_far}"
        );
    }

    #[test]
    fn point_count_is_parameter_dependent_not_fixed() {
        // The Table II phenomenon: the number of computed energy points
        // varies with the window, it is not an input.
        let g1 = EnergyGrid::auto(&chain(), -2.2, 2.2, 0.01, 0.1);
        let g2 = EnergyGrid::auto(&chain(), -2.5, 2.5, 0.01, 0.1);
        assert_ne!(g1.len(), g2.len());
    }

    #[test]
    fn uniform_grid_exact_count() {
        let g = EnergyGrid::uniform(0.0, 1.0, 11);
        assert_eq!(g.len(), 11);
        assert!((g.points[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_grid_degenerate_counts() {
        // n = 1: a finite midpoint, not `e_lo + 0·inf = NaN`.
        let g1 = EnergyGrid::uniform(0.0, 1.0, 1);
        assert_eq!(g1.len(), 1);
        assert!(g1.points[0].is_finite(), "single-point grid must be finite");
        assert!((g1.points[0] - 0.5).abs() < 1e-15);
        // n = 0: an empty grid, not a panic.
        let g0 = EnergyGrid::uniform(0.0, 1.0, 0);
        assert!(g0.is_empty());
        assert_eq!(g0.len(), 0);
    }

    #[test]
    fn auto_grid_never_emits_near_coincident_points() {
        // Window ending 0.004 eV above the d_min-stepped run around the
        // +2 eV subband edge: the pre-fix tail logic appended `e_hi` a
        // 0.004 eV sliver away from the previous point — less than half
        // the minimum spacing the grid promises.
        let d_min = 0.01;
        let g = EnergyGrid::auto(&chain(), 1.95, 2.104, d_min, 0.5);
        for w in g.points.windows(2) {
            let d = w[1] - w[0];
            assert!(d >= 0.5 * d_min, "near-coincident pair: spacing {d}");
        }
        assert_eq!(*g.points.last().unwrap(), 2.104, "window edge retained");
        assert_eq!(*g.points.first().unwrap(), 1.95);
    }
}
