//! SPLASH-2 LU: blocked dense LU factorization (no pivoting) with
//! contiguous block allocation and 2-D scatter ownership.
//!
//! As in SPLASH-2, each B×B block is stored contiguously and owned by a
//! fixed processor of a `pr × pc` grid; owners initialize their blocks
//! (first-touch placement) and perform all writes to them (single-writer).

use crate::m4::M4Ctx;
use crate::util::{det_f64, Arr, FLOP_NS};

/// LU parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuParams {
    /// Matrix dimension (multiple of `block`).
    pub n: usize,
    /// Block size.
    pub block: usize,
    /// Number of processors.
    pub nprocs: usize,
    /// Check `L·U ≈ A` afterwards (O(n³) on the initial thread — test
    /// sizes only).
    pub verify: bool,
}

impl LuParams {
    /// A small test-size configuration.
    pub fn test(nprocs: usize) -> Self {
        LuParams {
            n: 64,
            block: 8,
            nprocs,
            verify: true,
        }
    }
}

/// LU outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuResult {
    /// Sum of |diagonal| of U (a cheap stability witness).
    pub diag_checksum: f64,
    /// `max |(L·U) - A|` when verification ran.
    pub max_error: Option<f64>,
}

/// Processor grid: the largest `pr × pc` with `pr * pc == nprocs` and
/// `pr <= pc`.
fn proc_grid(nprocs: usize) -> (usize, usize) {
    let mut pr = (nprocs as f64).sqrt() as usize;
    while pr > 1 && nprocs % pr != 0 {
        pr -= 1;
    }
    (pr.max(1), nprocs / pr.max(1))
}

#[derive(Clone, Copy)]
struct Grid {
    nb: usize,
    b: usize,
    pr: usize,
    pc: usize,
}

impl Grid {
    fn owner(&self, bi: usize, bj: usize) -> usize {
        (bi % self.pr) * self.pc + (bj % self.pc)
    }

    /// Element offset of block (bi, bj) in the contiguous-block layout.
    fn block_off(&self, bi: usize, bj: usize) -> u64 {
        ((bi * self.nb + bj) * self.b * self.b) as u64
    }
}

fn read_block(ctx: &M4Ctx, a: Arr<f64>, g: &Grid, bi: usize, bj: usize) -> Vec<f64> {
    // Blocks are stored contiguously: one bulk read per block.
    let mut out = vec![0.0f64; g.b * g.b];
    a.get_slice(ctx, g.block_off(bi, bj), &mut out);
    out
}

fn write_block(ctx: &M4Ctx, a: Arr<f64>, g: &Grid, bi: usize, bj: usize, data: &[f64]) {
    a.set_slice(ctx, g.block_off(bi, bj), data);
}

/// Factor the diagonal block in place: A = L·U with unit-diagonal L.
fn factor_diag(blk: &mut [f64], b: usize) {
    for k in 0..b {
        let pivot = blk[k * b + k];
        assert!(
            pivot.abs() > 1e-12,
            "zero pivot in LU (diagonally dominant init expected)"
        );
        for i in k + 1..b {
            blk[i * b + k] /= pivot;
            for j in k + 1..b {
                blk[i * b + j] -= blk[i * b + k] * blk[k * b + j];
            }
        }
    }
}

/// Solve L·X = B for a perimeter block in row k (L from the diagonal).
fn solve_lower(diag: &[f64], blk: &mut [f64], b: usize) {
    for j in 0..b {
        for k in 0..b {
            let x = blk[k * b + j];
            for i in k + 1..b {
                blk[i * b + j] -= diag[i * b + k] * x;
            }
        }
    }
}

/// Solve X·U = B for a perimeter block in column k (U from the diagonal).
fn solve_upper(diag: &[f64], blk: &mut [f64], b: usize) {
    for i in 0..b {
        for k in 0..b {
            blk[i * b + k] /= diag[k * b + k];
            let x = blk[i * b + k];
            for j in k + 1..b {
                blk[i * b + j] -= x * diag[k * b + j];
            }
        }
    }
}

/// Interior update: C -= A·B.
fn multiply_sub(a: &[f64], bmat: &[f64], c: &mut [f64], b: usize) {
    for i in 0..b {
        for k in 0..b {
            let aik = a[i * b + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b {
                c[i * b + j] -= aik * bmat[k * b + j];
            }
        }
    }
}

fn lu_worker(ctx: &M4Ctx, p: &LuParams, a: Arr<f64>, id: usize) -> (sim::SimTime, sim::SimTime) {
    let (pr, pc) = proc_grid(p.nprocs);
    let g = Grid {
        nb: p.n / p.block,
        b: p.block,
        pr,
        pc,
    };
    let b = g.b;
    // Owner-initialized, diagonally dominant matrix.
    for bi in 0..g.nb {
        for bj in 0..g.nb {
            if g.owner(bi, bj) != id {
                continue;
            }
            let mut blk = vec![0.0f64; b * b];
            for i in 0..b {
                for j in 0..b {
                    blk[i * b + j] = init_elem(p.n, bi * b + i, bj * b + j);
                }
            }
            write_block(ctx, a, &g, bi, bj, &blk);
        }
    }
    ctx.barrier(2_000, p.nprocs);
    let t0 = ctx.sim.now();

    let flop = |ctx: &M4Ctx, count: u64| ctx.compute(count * FLOP_NS);
    let mut bar = 2_001u64;
    for k in 0..g.nb {
        if g.owner(k, k) == id {
            let mut d = read_block(ctx, a, &g, k, k);
            factor_diag(&mut d, b);
            flop(ctx, (b * b * b) as u64 / 3);
            write_block(ctx, a, &g, k, k, &d);
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
        // Perimeter.
        let diag = read_block(ctx, a, &g, k, k);
        for j in k + 1..g.nb {
            if g.owner(k, j) == id {
                let mut blk = read_block(ctx, a, &g, k, j);
                solve_lower(&diag, &mut blk, b);
                flop(ctx, (b * b * b) as u64 / 2);
                write_block(ctx, a, &g, k, j, &blk);
            }
        }
        for i in k + 1..g.nb {
            if g.owner(i, k) == id {
                let mut blk = read_block(ctx, a, &g, i, k);
                solve_upper(&diag, &mut blk, b);
                flop(ctx, (b * b * b) as u64 / 2);
                write_block(ctx, a, &g, i, k, &blk);
            }
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
        // Interior.
        for i in k + 1..g.nb {
            for j in k + 1..g.nb {
                if g.owner(i, j) != id {
                    continue;
                }
                let lik = read_block(ctx, a, &g, i, k);
                let ukj = read_block(ctx, a, &g, k, j);
                let mut c = read_block(ctx, a, &g, i, j);
                multiply_sub(&lik, &ukj, &mut c, b);
                flop(ctx, 2 * (b * b * b) as u64);
                write_block(ctx, a, &g, i, j, &c);
            }
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
    }
    (t0, ctx.sim.now())
}

fn init_elem(n: usize, i: usize, j: usize) -> f64 {
    if i == j {
        n as f64 + 1.0 + det_f64(7, (i * n + j) as u64).abs()
    } else {
        det_f64(7, (i * n + j) as u64)
    }
}

/// Runs the LU kernel (call from the initial thread).
pub fn lu(ctx: &M4Ctx, p: &LuParams) -> LuResult {
    assert!(p.n % p.block == 0, "n must be a multiple of the block size");
    let g_elems = (p.n * p.n) as u64;
    let a: Arr<f64> = Arr::alloc(ctx, g_elems);

    let p2 = *p;
    for id in 1..p.nprocs {
        ctx.create(move |c| {
            lu_worker(c, &p2, a, id);
        });
    }
    let window = lu_worker(ctx, p, a, 0);
    ctx.wait_for_end();
    ctx.note_parallel(window.0, window.1);

    let (pr, pc) = proc_grid(p.nprocs);
    let g = Grid {
        nb: p.n / p.block,
        b: p.block,
        pr,
        pc,
    };
    let mut diag_checksum = 0.0;
    for bi in 0..g.nb {
        let off = g.block_off(bi, bi);
        for i in 0..g.b {
            diag_checksum += a.get(ctx, off + (i * g.b + i) as u64).abs();
        }
    }

    let max_error = p.verify.then(|| {
        // Reconstruct L·U and compare to the original matrix.
        let n = p.n;
        let b = p.block;
        let read = |i: usize, j: usize| -> f64 {
            let (bi, bj) = (i / b, j / b);
            let off = g.block_off(bi, bj);
            a.get(ctx, off + ((i % b) * b + (j % b)) as u64)
        };
        let lu_mat: Vec<f64> = (0..n * n).map(|x| read(x / n, x % n)).collect();
        let mut err = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu_mat[i * n + k] };
                    let u = lu_mat[k * n + j];
                    sum += if k == i { u } else { l * u };
                }
                err = err.max((sum - init_elem(n, i, j)).abs());
            }
        }
        err
    });

    LuResult {
        diag_checksum,
        max_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_grids_factor() {
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(2), (1, 2));
        assert_eq!(proc_grid(4), (2, 2));
        assert_eq!(proc_grid(8), (2, 4));
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(32), (4, 8));
    }

    #[test]
    fn sequential_blocked_lu_is_correct() {
        // Pure local check of the block kernels: factor a 2x2-block matrix
        // and reconstruct.
        let n = 16;
        let b = 8;
        let g = Grid {
            nb: 2,
            b,
            pr: 1,
            pc: 1,
        };
        let mut m: Vec<f64> = (0..n * n).map(|x| init_elem(n, x / n, x % n)).collect();
        let get_block = |m: &Vec<f64>, bi: usize, bj: usize| -> Vec<f64> {
            let mut out = vec![0.0; b * b];
            for i in 0..b {
                for j in 0..b {
                    out[i * b + j] = m[(bi * b + i) * n + bj * b + j];
                }
            }
            out
        };
        let put_block = |m: &mut Vec<f64>, bi: usize, bj: usize, d: &[f64]| {
            for i in 0..b {
                for j in 0..b {
                    m[(bi * b + i) * n + bj * b + j] = d[i * b + j];
                }
            }
        };
        let _ = g;
        for k in 0..2 {
            let mut d = get_block(&m, k, k);
            factor_diag(&mut d, b);
            put_block(&mut m, k, k, &d);
            for j in k + 1..2 {
                let mut blk = get_block(&m, k, j);
                solve_lower(&d, &mut blk, b);
                put_block(&mut m, k, j, &blk);
            }
            for i in k + 1..2 {
                let mut blk = get_block(&m, i, k);
                solve_upper(&d, &mut blk, b);
                put_block(&mut m, i, k, &blk);
            }
            for i in k + 1..2 {
                for j in k + 1..2 {
                    let a = get_block(&m, i, k);
                    let bm = get_block(&m, k, j);
                    let mut c = get_block(&m, i, j);
                    multiply_sub(&a, &bm, &mut c, b);
                    put_block(&mut m, i, j, &c);
                }
            }
        }
        // Reconstruct.
        let mut err = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { m[i * n + k] };
                    let u = m[k * n + j];
                    sum += if k == i { u } else { l * u };
                }
                err = err.max((sum - init_elem(n, i, j)).abs());
            }
        }
        assert!(err < 1e-8, "reconstruction error {err}");
    }
}
