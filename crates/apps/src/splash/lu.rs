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

fn read_block(ctx: &M4Ctx, a: Arr<f64>, g: &Grid, bi: usize, bj: usize, out: &mut [f64]) {
    // Blocks are stored contiguously: one bulk read per block.
    a.get_slice(ctx, g.block_off(bi, bj), out);
}

fn write_block(ctx: &M4Ctx, a: Arr<f64>, g: &Grid, bi: usize, bj: usize, data: &[f64]) {
    a.set_slice(ctx, g.block_off(bi, bj), data);
}

// The four block kernels sweep whole rows through `chunks_exact`,
// `split_at_mut` and `zip`, so their inner loops carry no index arithmetic
// or bounds checks and vectorise. Each element still receives the same
// subtractions in the same `k` order as the textbook index form (kept as
// `tests::reference`), so the results are equal bit for bit.

/// Factor the diagonal block in place: A = L·U with unit-diagonal L.
fn factor_diag(blk: &mut [f64], b: usize) {
    for k in 0..b {
        let (top, below) = blk.split_at_mut((k + 1) * b);
        let urow = &top[k * b..];
        let pivot = urow[k];
        assert!(
            pivot.abs() > 1e-12,
            "zero pivot in LU (diagonally dominant init expected)"
        );
        for row in below.chunks_exact_mut(b) {
            let (head, rest) = row.split_at_mut(k + 1);
            head[k] /= pivot;
            let l = head[k];
            for (x, &u) in rest.iter_mut().zip(&urow[k + 1..]) {
                *x -= l * u;
            }
        }
    }
}

/// Solve L·X = B for a perimeter block in row k (L from the diagonal).
/// Row i of X is row i of B minus `L[i][k]·X[k]` for each `k < i`, in
/// ascending `k`.
fn solve_lower(diag: &[f64], blk: &mut [f64], b: usize) {
    for k in 0..b {
        let (top, below) = blk.split_at_mut((k + 1) * b);
        let xrow = &top[k * b..];
        for (row, lrow) in below
            .chunks_exact_mut(b)
            .zip(diag.chunks_exact(b).skip(k + 1))
        {
            let l = lrow[k];
            for (x, &xk) in row.iter_mut().zip(xrow) {
                *x -= l * xk;
            }
        }
    }
}

/// Solve X·U = B for a perimeter block in column k (U from the diagonal).
fn solve_upper(diag: &[f64], blk: &mut [f64], b: usize) {
    for row in blk.chunks_exact_mut(b) {
        for (k, urow) in diag.chunks_exact(b).enumerate() {
            let (head, rest) = row.split_at_mut(k + 1);
            head[k] /= urow[k];
            let x = head[k];
            for (y, &u) in rest.iter_mut().zip(&urow[k + 1..]) {
                *y -= x * u;
            }
        }
    }
}

/// Columns of C that `multiply_sub` keeps in registers across its `k` loop.
const STRIP: usize = 8;

/// Interior update: C -= A·B. Each row of C is swept in strips of `STRIP`
/// columns, a strip held in registers for the whole `k` loop instead of
/// being reloaded and stored once per `k`; the columns past the last full
/// strip take the plain row sweep.
fn multiply_sub(a: &[f64], bmat: &[f64], c: &mut [f64], b: usize) {
    for (arow, crow) in a.chunks_exact(b).zip(c.chunks_exact_mut(b)) {
        let mut strips = crow.chunks_exact_mut(STRIP);
        for (s, strip) in (&mut strips).enumerate() {
            let mut acc = <[f64; STRIP]>::try_from(&*strip).expect("a full strip");
            for (&aik, brow) in arow.iter().zip(bmat.chunks_exact(b)) {
                if aik == 0.0 {
                    continue;
                }
                for (x, &bkj) in acc.iter_mut().zip(&brow[s * STRIP..][..STRIP]) {
                    *x -= aik * bkj;
                }
            }
            strip.copy_from_slice(&acc);
        }
        let tail = strips.into_remainder();
        let j0 = b - tail.len();
        for (&aik, brow) in arow.iter().zip(bmat.chunks_exact(b)) {
            if aik == 0.0 {
                continue;
            }
            for (x, &bkj) in tail.iter_mut().zip(&brow[j0..]) {
                *x -= aik * bkj;
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
    // Three block buffers, reused by every step: `diag` holds the diagonal
    // block, `blk` a perimeter block; the interior update reuses both for
    // L(i,k) and U(k,j) and reads C(i,j) into `c`.
    let mut diag = vec![0.0f64; b * b];
    let mut blk = vec![0.0f64; b * b];
    let mut c = vec![0.0f64; b * b];
    // Owner-initialized, diagonally dominant matrix.
    for bi in 0..g.nb {
        for bj in 0..g.nb {
            if g.owner(bi, bj) != id {
                continue;
            }
            for (i, row) in blk.chunks_exact_mut(b).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = init_elem(p.n, bi * b + i, bj * b + j);
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
            read_block(ctx, a, &g, k, k, &mut diag);
            factor_diag(&mut diag, b);
            flop(ctx, (b * b * b) as u64 / 3);
            write_block(ctx, a, &g, k, k, &diag);
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
        // Perimeter.
        read_block(ctx, a, &g, k, k, &mut diag);
        for j in k + 1..g.nb {
            if g.owner(k, j) == id {
                read_block(ctx, a, &g, k, j, &mut blk);
                solve_lower(&diag, &mut blk, b);
                flop(ctx, (b * b * b) as u64 / 2);
                write_block(ctx, a, &g, k, j, &blk);
            }
        }
        for i in k + 1..g.nb {
            if g.owner(i, k) == id {
                read_block(ctx, a, &g, i, k, &mut blk);
                solve_upper(&diag, &mut blk, b);
                flop(ctx, (b * b * b) as u64 / 2);
                write_block(ctx, a, &g, i, k, &blk);
            }
        }
        ctx.barrier(bar, p.nprocs);
        bar += 1;
        // Interior.
        let (lik, ukj) = (&mut diag, &mut blk);
        for i in k + 1..g.nb {
            for j in k + 1..g.nb {
                if g.owner(i, j) != id {
                    continue;
                }
                read_block(ctx, a, &g, i, k, lik);
                read_block(ctx, a, &g, k, j, ukj);
                read_block(ctx, a, &g, i, j, &mut c);
                multiply_sub(lik, ukj, &mut c, b);
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
    use proptest::prelude::*;

    /// The block kernels in textbook index form: the oracle the row sweeps
    /// above must match bit for bit.
    mod reference {
        pub fn factor_diag(blk: &mut [f64], b: usize) {
            for k in 0..b {
                let pivot = blk[k * b + k];
                assert!(pivot.abs() > 1e-12, "zero pivot");
                for i in k + 1..b {
                    blk[i * b + k] /= pivot;
                    for j in k + 1..b {
                        blk[i * b + j] -= blk[i * b + k] * blk[k * b + j];
                    }
                }
            }
        }

        pub fn solve_lower(diag: &[f64], blk: &mut [f64], b: usize) {
            for j in 0..b {
                for k in 0..b {
                    let x = blk[k * b + j];
                    for i in k + 1..b {
                        blk[i * b + j] -= diag[i * b + k] * x;
                    }
                }
            }
        }

        pub fn solve_upper(diag: &[f64], blk: &mut [f64], b: usize) {
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

        pub fn multiply_sub(a: &[f64], bmat: &[f64], c: &mut [f64], b: usize) {
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
    }

    /// A random `b × b` block in (-1, 1) in which a share `zeros` of the
    /// entries are exact zeros, half `0.0` and half `-0.0`. `dominant`
    /// replaces the diagonal with `b + 1 + |x|`, so every pivot stays far
    /// from zero.
    fn block(seed: u64, b: usize, zeros: f64, dominant: bool) -> Vec<f64> {
        (0..b * b)
            .map(|x| {
                let (i, j) = (x / b, x % b);
                let v = det_f64(seed, x as u64);
                match det_f64(seed.wrapping_add(1), x as u64) {
                    _ if dominant && i == j => b as f64 + 1.0 + v.abs(),
                    s if s < zeros - 1.0 => 0.0,
                    s if s > 1.0 - zeros => -0.0,
                    _ => v,
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each row-sweep kernel returns exactly the bits of its index-form
        /// reference, on every block size up to 17 (with and without a
        /// remainder after `STRIP`) and on blocks from no zeros to all
        /// zeros, `0.0` and `-0.0` alike. A skipped `aik == 0.0` shows only
        /// where it would have turned a `-0.0` of C into `0.0` and no later
        /// `k` overwrote it, hence the mostly-zero blocks.
        #[test]
        fn row_sweeps_match_index_form_bit_for_bit(
            b in 1usize..=17,
            quarters in 0u8..=4,
            seed in any::<u64>(),
        ) {
            let zeros = f64::from(quarters) / 4.0;
            let diag = block(seed, b, zeros, true);
            let a = block(seed ^ 0xA, b, zeros, false);
            let bm = block(seed ^ 0xB, b, zeros, false);
            let c = block(seed ^ 0xC, b, zeros, false);

            let (mut fast, mut slow) = (diag.clone(), diag.clone());
            factor_diag(&mut fast, b);
            reference::factor_diag(&mut slow, b);
            prop_assert_eq!(bits(&fast), bits(&slow), "factor_diag b={}", b);
            let lu = fast;

            let (mut fast, mut slow) = (a.clone(), a.clone());
            solve_lower(&lu, &mut fast, b);
            reference::solve_lower(&lu, &mut slow, b);
            prop_assert_eq!(bits(&fast), bits(&slow), "solve_lower b={}", b);

            let (mut fast, mut slow) = (a.clone(), a.clone());
            solve_upper(&lu, &mut fast, b);
            reference::solve_upper(&lu, &mut slow, b);
            prop_assert_eq!(bits(&fast), bits(&slow), "solve_upper b={}", b);

            let (mut fast, mut slow) = (c.clone(), c.clone());
            multiply_sub(&a, &bm, &mut fast, b);
            reference::multiply_sub(&a, &bm, &mut slow, b);
            prop_assert_eq!(bits(&fast), bits(&slow), "multiply_sub b={}", b);
        }
    }

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
