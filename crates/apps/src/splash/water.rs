//! SPLASH-2 WATER-SPATIAL (simplified): molecular dynamics over a 3-D
//! cell grid, with a short-range pair potential and leapfrog updates.
//!
//! Cells are assigned to processors in contiguous slabs; each step
//! computes forces from molecules in the same and neighbouring cells, then
//! integrates positions. Two data layouts reproduce the paper's two
//! versions:
//!
//! - `WATER-SPATIAL`: molecule-major arrays (position/velocity/force of
//!   molecule `i` scattered across three arrays) — neighbouring cells'
//!   molecules interleave arbitrarily over pages;
//! - `WATER-SPAT-FL`: cell-major padded layout, each cell's molecule data
//!   contiguous and cacheline/page friendly.

use crate::m4::M4Ctx;
use crate::util::{block_range, det_f64, Arr, FLOP_NS};

/// WATER parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterParams {
    /// Cells per box edge (total cells = `cells³`).
    pub cells: usize,
    /// Molecules per cell (fixed occupancy keeps the kernel deterministic).
    pub mols_per_cell: usize,
    /// Time steps.
    pub steps: usize,
    /// Number of processors.
    pub nprocs: usize,
    /// Use the cell-major padded layout (the `-FL` variant).
    pub friendly_layout: bool,
}

impl WaterParams {
    /// A small test-size configuration.
    pub fn test(nprocs: usize) -> Self {
        WaterParams {
            cells: 3,
            mols_per_cell: 4,
            steps: 2,
            nprocs,
            friendly_layout: false,
        }
    }

    /// Total molecule count.
    pub fn molecules(&self) -> usize {
        self.cells * self.cells * self.cells * self.mols_per_cell
    }
}

/// WATER outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterResult {
    /// Total kinetic energy after the run (finite, deterministic).
    pub kinetic_energy: f64,
    /// Momentum drift `|p_final - p_initial|` (≈ 0: forces are pairwise
    /// equal and opposite, so total momentum is conserved).
    pub momentum_drift: f64,
}

/// Data layout: where molecule `m`'s component `c` of field `f`
/// (0=pos, 1=vel, 2=force) lives.
#[derive(Debug, Clone, Copy)]
struct Layout {
    mols: usize,
    friendly: bool,
    /// Padded per-molecule record size (words) in the friendly layout.
    pad: usize,
}

impl Layout {
    fn offset(&self, field: usize, m: usize, comp: usize) -> u64 {
        if self.friendly {
            // Cell-major: all nine components of a molecule are one padded
            // record; cells are contiguous runs of records.
            (m * self.pad + field * 3 + comp) as u64
        } else {
            // Field-major: pos[], vel[], force[] are separate arrays.
            (field * self.mols * 3 + m * 3 + comp) as u64
        }
    }

    fn words(&self) -> u64 {
        if self.friendly {
            (self.mols * self.pad) as u64
        } else {
            (self.mols * 9) as u64
        }
    }
}

fn cell_index(cells: usize, x: usize, y: usize, z: usize) -> usize {
    (x * cells + y) * cells + z
}

fn water_worker(
    ctx: &M4Ctx,
    p: &WaterParams,
    data: Arr<f64>,
    l: &Layout,
    id: usize,
) -> (sim::SimTime, sim::SimTime) {
    let ncells = p.cells * p.cells * p.cells;
    let (clo, chi) = block_range(ncells, p.nprocs, id);
    let dt = 0.001;

    // Owners initialize molecules of their cells: jittered lattice
    // positions, small random velocities, zero forces.
    for cell in clo..chi {
        for s in 0..p.mols_per_cell {
            let m = cell * p.mols_per_cell + s;
            for comp in 0..3 {
                let latt = match comp {
                    0 => (cell / (p.cells * p.cells)) as f64,
                    1 => (cell / p.cells % p.cells) as f64,
                    _ => (cell % p.cells) as f64,
                };
                let pos = latt + 0.5 + 0.1 * det_f64(21, (m * 3 + comp) as u64);
                data.set(ctx, l.offset(0, m, comp), pos);
                data.set(
                    ctx,
                    l.offset(1, m, comp),
                    0.01 * det_f64(22, (m * 3 + comp) as u64),
                );
                data.set(ctx, l.offset(2, m, comp), 0.0);
            }
        }
    }
    ctx.barrier(5_000, p.nprocs);
    let t0 = ctx.sim.now();

    let mut bar = 5_001u64;
    for _step in 0..p.steps {
        // Force computation: each proc computes forces on molecules of its
        // cells, reading neighbours (reads cross partitions).
        for cell in clo..chi {
            let cx = cell / (p.cells * p.cells);
            let cy = cell / p.cells % p.cells;
            let cz = cell % p.cells;
            for s in 0..p.mols_per_cell {
                let m = cell * p.mols_per_cell + s;
                let my: [f64; 3] = [
                    data.get(ctx, l.offset(0, m, 0)),
                    data.get(ctx, l.offset(0, m, 1)),
                    data.get(ctx, l.offset(0, m, 2)),
                ];
                let mut force = [0.0f64; 3];
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let nx = cx as i64 + dx;
                            let ny = cy as i64 + dy;
                            let nz = cz as i64 + dz;
                            if nx < 0
                                || ny < 0
                                || nz < 0
                                || nx >= p.cells as i64
                                || ny >= p.cells as i64
                                || nz >= p.cells as i64
                            {
                                continue;
                            }
                            let ncell = cell_index(p.cells, nx as usize, ny as usize, nz as usize);
                            for t in 0..p.mols_per_cell {
                                let o = ncell * p.mols_per_cell + t;
                                if o == m {
                                    continue;
                                }
                                let other: [f64; 3] = [
                                    data.get(ctx, l.offset(0, o, 0)),
                                    data.get(ctx, l.offset(0, o, 1)),
                                    data.get(ctx, l.offset(0, o, 2)),
                                ];
                                let d = [my[0] - other[0], my[1] - other[1], my[2] - other[2]];
                                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.01;
                                if r2 > 1.0 {
                                    continue; // cutoff
                                }
                                // Soft repulsive pair force ~ 1/r^4.
                                let f = 1.0 / (r2 * r2);
                                for (fc, dc) in force.iter_mut().zip(d.iter()) {
                                    *fc += f * dc;
                                }
                            }
                        }
                    }
                }
                // The real WATER potential costs hundreds of flops per pair;
                // charge ~40 per neighbour-pair examined.
                ctx.compute(27 * p.mols_per_cell as u64 * 40 * FLOP_NS);
                for comp in 0..3 {
                    data.set(ctx, l.offset(2, m, comp), force[comp]);
                }
            }
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
        // Integration: owners update their molecules (single-writer).
        for cell in clo..chi {
            for s in 0..p.mols_per_cell {
                let m = cell * p.mols_per_cell + s;
                for comp in 0..3 {
                    let v = data.get(ctx, l.offset(1, m, comp))
                        + dt * data.get(ctx, l.offset(2, m, comp));
                    data.set(ctx, l.offset(1, m, comp), v);
                    let x = data.get(ctx, l.offset(0, m, comp)) + dt * v;
                    data.set(ctx, l.offset(0, m, comp), x);
                }
                ctx.compute(12 * FLOP_NS);
            }
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
    }
    (t0, ctx.sim.now())
}

/// Runs the WATER kernel (call from the initial thread).
pub fn water(ctx: &M4Ctx, p: &WaterParams) -> WaterResult {
    let mols = p.molecules();
    let l = Layout {
        mols,
        friendly: p.friendly_layout,
        // Pad records to 16 words (128 bytes) in the friendly layout.
        pad: 16,
    };
    let data: Arr<f64> = Arr::alloc(ctx, l.words());

    let p2 = *p;
    let l2 = l;
    for id in 1..p.nprocs {
        ctx.create(move |c| {
            water_worker(c, &p2, data, &l2, id);
        });
    }
    let window = water_worker(ctx, p, data, &l, 0);
    ctx.wait_for_end();
    ctx.note_parallel(window.0, window.1);

    let mut ke = 0.0;
    let mut mom = [0.0f64; 3];
    let mut mom0 = [0.0f64; 3];
    for m in 0..mols {
        for comp in 0..3 {
            let v = data.get(ctx, l.offset(1, m, comp));
            ke += 0.5 * v * v;
            mom[comp] += v;
            mom0[comp] += 0.01 * det_f64(22, (m * 3 + comp) as u64);
        }
    }
    let d = [mom[0] - mom0[0], mom[1] - mom0[1], mom[2] - mom0[2]];
    WaterResult {
        kinetic_energy: ke,
        momentum_drift: (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_do_not_alias() {
        for friendly in [false, true] {
            let l = Layout {
                mols: 8,
                friendly,
                pad: 16,
            };
            let mut seen = std::collections::HashSet::new();
            for f in 0..3 {
                for m in 0..8 {
                    for c in 0..3 {
                        assert!(
                            seen.insert(l.offset(f, m, c)),
                            "aliased offset in friendly={friendly}"
                        );
                        assert!(l.offset(f, m, c) < l.words());
                    }
                }
            }
        }
    }

    #[test]
    fn friendly_layout_groups_molecule_records() {
        let l = Layout {
            mols: 4,
            friendly: true,
            pad: 16,
        };
        // All nine words of molecule 1 fall inside its padded record.
        for f in 0..3 {
            for c in 0..3 {
                let o = l.offset(f, 1, c);
                assert!((16..32).contains(&o));
            }
        }
    }

    #[test]
    fn cell_index_is_bijective() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    assert!(seen.insert(cell_index(3, x, y, z)));
                }
            }
        }
        assert_eq!(seen.len(), 27);
    }
}
