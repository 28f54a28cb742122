//! SPLASH-2 FFT: the six-step 1-D FFT over a √n × √n matrix.
//!
//! Structure follows the SPLASH-2 kernel: each processor owns a contiguous
//! block of matrix rows; data is initialized by its owner (single-writer,
//! first-touch-friendly); phases are separated by barriers; the three
//! transposes are where all the communication happens.

use std::f64::consts::PI;

use crate::m4::M4Ctx;
use crate::util::{block_range, det_f64, Arr, FLOP_NS};

/// FFT parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftParams {
    /// log2 of the number of complex points (must be even).
    pub m: u32,
    /// Number of processors (threads).
    pub nprocs: usize,
    /// Run the inverse transform afterwards and report the max error.
    pub verify: bool,
}

impl FftParams {
    /// A small test-size configuration.
    pub fn test(nprocs: usize) -> Self {
        FftParams {
            m: 8,
            nprocs,
            verify: true,
        }
    }
}

/// FFT outcome: a checksum of the spectrum, and the reconstruction error
/// when verification ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FftResult {
    /// Sum of magnitudes of the transformed data.
    pub checksum: f64,
    /// `max |ifft(fft(x)) - x|`, if verification was requested.
    pub max_error: Option<f64>,
}

/// In-place iterative radix-2 FFT of a local buffer.
pub fn fft_local(buf: &mut [(f64, f64)], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "local FFT length must be a power of two"
    );
    // Bit reversal.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            buf.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = buf[i + k];
                let (br, bi) = buf[i + k + len / 2];
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                buf[i + k] = (ar + tr, ai + ti);
                buf[i + k + len / 2] = (ar - tr, ai - ti);
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

struct Layout {
    sqrt_n: u64,
}

impl Layout {
    fn idx(&self, r: u64, c: u64) -> u64 {
        2 * (r * self.sqrt_n + c)
    }
}

fn read_row(ctx: &M4Ctx, a: Arr<f64>, l: &Layout, r: u64) -> Vec<(f64, f64)> {
    // A row is contiguous in memory: one bulk read for the whole row.
    let mut flat = vec![0.0f64; 2 * l.sqrt_n as usize];
    a.get_slice(ctx, l.idx(r, 0), &mut flat);
    flat.chunks_exact(2).map(|p| (p[0], p[1])).collect()
}

fn write_row(ctx: &M4Ctx, a: Arr<f64>, l: &Layout, r: u64, buf: &[(f64, f64)]) {
    let flat: Vec<f64> = buf.iter().flat_map(|&(re, im)| [re, im]).collect();
    a.set_slice(ctx, l.idx(r, 0), &flat);
}

/// One worker's share of a full six-step transform of `src` into `src`
/// (using `scratch`), rows `lo..hi`.
#[allow(clippy::too_many_arguments)]
fn transform(
    ctx: &M4Ctx,
    p: &FftParams,
    src: Arr<f64>,
    scratch: Arr<f64>,
    lo: u64,
    hi: u64,
    inverse: bool,
    barrier_base: u64,
) {
    let sqrt_n = 1u64 << (p.m / 2);
    let l = Layout { sqrt_n };
    let n = sqrt_n * sqrt_n;
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut bar = barrier_base;
    let mut barrier = |ctx: &M4Ctx| {
        ctx.barrier(bar, p.nprocs);
        bar += 1;
    };

    // Step 1: transpose src -> scratch (each proc produces its rows of
    // scratch by reading a column of src: the all-to-all communication).
    for r in lo..hi {
        let col: Vec<(f64, f64)> = (0..sqrt_n)
            .map(|c| {
                let i = l.idx(c, r);
                (src.get(ctx, i), src.get(ctx, i + 1))
            })
            .collect();
        write_row(ctx, scratch, &l, r, &col);
    }
    barrier(ctx);

    // Step 2: row FFTs on scratch.
    for r in lo..hi {
        let mut buf = read_row(ctx, scratch, &l, r);
        fft_local(&mut buf, inverse);
        ctx.compute(5 * sqrt_n * (p.m as u64 / 2) * FLOP_NS);
        write_row(ctx, scratch, &l, r, &buf);
    }
    // Step 3: twiddle multiply (local to the rows just produced).
    for r in lo..hi {
        let mut buf = read_row(ctx, scratch, &l, r);
        for (c, v) in buf.iter_mut().enumerate() {
            let ang = sign * 2.0 * PI * (r as f64) * (c as f64) / n as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            *v = (v.0 * wr - v.1 * wi, v.0 * wi + v.1 * wr);
        }
        ctx.compute(8 * sqrt_n * FLOP_NS);
        write_row(ctx, scratch, &l, r, &buf);
    }
    barrier(ctx);

    // Step 4: transpose scratch -> src.
    for r in lo..hi {
        let col: Vec<(f64, f64)> = (0..sqrt_n)
            .map(|c| {
                let i = l.idx(c, r);
                (scratch.get(ctx, i), scratch.get(ctx, i + 1))
            })
            .collect();
        write_row(ctx, src, &l, r, &col);
    }
    barrier(ctx);

    // Step 5: row FFTs on src.
    for r in lo..hi {
        let mut buf = read_row(ctx, src, &l, r);
        fft_local(&mut buf, inverse);
        ctx.compute(5 * sqrt_n * (p.m as u64 / 2) * FLOP_NS);
        if inverse {
            // Scale by 1/n to complete the inverse transform.
            for v in buf.iter_mut() {
                *v = (v.0 / n as f64, v.1 / n as f64);
            }
        }
        write_row(ctx, src, &l, r, &buf);
    }
    barrier(ctx);

    // Step 6: transpose src -> scratch, then copy back (bit-order fix).
    for r in lo..hi {
        let col: Vec<(f64, f64)> = (0..sqrt_n)
            .map(|c| {
                let i = l.idx(c, r);
                (src.get(ctx, i), src.get(ctx, i + 1))
            })
            .collect();
        write_row(ctx, scratch, &l, r, &col);
    }
    barrier(ctx);
    for r in lo..hi {
        let buf = read_row(ctx, scratch, &l, r);
        write_row(ctx, src, &l, r, &buf);
    }
    barrier(ctx);
}

/// Runs the FFT kernel on an M4 context (call from the initial thread).
pub fn fft(ctx: &M4Ctx, p: &FftParams) -> FftResult {
    assert!(p.m % 2 == 0, "six-step FFT needs an even m");
    assert!(p.nprocs >= 1);
    let sqrt_n = 1u64 << (p.m / 2);
    let n = sqrt_n * sqrt_n;
    let data: Arr<f64> = Arr::alloc(ctx, 2 * n);
    let scratch: Arr<f64> = Arr::alloc(ctx, 2 * n);

    let p2 = *p;
    for id in 1..p.nprocs {
        let (lo, hi) = block_range(sqrt_n as usize, p.nprocs, id);
        ctx.create(move |c| {
            fft_worker(c, &p2, data, scratch, lo as u64, hi as u64);
        });
    }
    let (lo, hi) = block_range(sqrt_n as usize, p.nprocs, 0);
    let window = fft_worker(ctx, p, data, scratch, lo as u64, hi as u64);
    ctx.wait_for_end();
    ctx.note_parallel(window.0, window.1);

    // Checksum of the spectrum (or of the reconstruction if verifying).
    let mut all = vec![0.0f64; 2 * n as usize];
    data.get_slice(ctx, 0, &mut all);
    let checksum = all.iter().map(|v| v.abs()).sum();
    let max_error = p.verify.then(|| {
        let mut err = 0.0f64;
        for (i, got) in all.iter().enumerate() {
            err = err.max((det_f64(1, i as u64) - got).abs());
        }
        err
    });
    FftResult {
        checksum,
        max_error,
    }
}

fn fft_worker(
    ctx: &M4Ctx,
    p: &FftParams,
    data: Arr<f64>,
    scratch: Arr<f64>,
    lo: u64,
    hi: u64,
) -> (sim::SimTime, sim::SimTime) {
    let sqrt_n = 1u64 << (p.m / 2);
    let l = Layout { sqrt_n };
    // Owner-initializes its rows (single-writer, first-touch placement).
    for r in lo..hi {
        let base = l.idx(r, 0);
        let row: Vec<f64> = (0..2 * sqrt_n).map(|j| det_f64(1, base + j)).collect();
        data.set_slice(ctx, base, &row);
    }
    ctx.barrier(1_000, p.nprocs);
    let t0 = ctx.sim.now();
    transform(ctx, p, data, scratch, lo, hi, false, 1_001);
    if p.verify {
        transform(ctx, p, data, scratch, lo, hi, true, 1_101);
    }
    (t0, ctx.sim.now())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_fft_roundtrips() {
        let n = 64;
        let orig: Vec<(f64, f64)> = (0..n)
            .map(|i| (det_f64(9, i as u64), det_f64(10, i as u64)))
            .collect();
        let mut buf = orig.clone();
        fft_local(&mut buf, false);
        fft_local(&mut buf, true);
        for (got, want) in buf.iter().zip(orig.iter()) {
            assert!((got.0 / n as f64 - want.0).abs() < 1e-9);
            assert!((got.1 / n as f64 - want.1).abs() < 1e-9);
        }
    }

    #[test]
    fn local_fft_matches_naive_dft() {
        let n = 16usize;
        let x: Vec<(f64, f64)> = (0..n).map(|i| (det_f64(3, i as u64), 0.0)).collect();
        let mut fast = x.clone();
        fft_local(&mut fast, false);
        for k in 0..n {
            let mut re = 0.0;
            let mut im = 0.0;
            for (j, v) in x.iter().enumerate() {
                let ang = -2.0 * PI * (k * j) as f64 / n as f64;
                re += v.0 * ang.cos() - v.1 * ang.sin();
                im += v.0 * ang.sin() + v.1 * ang.cos();
            }
            assert!((fast[k].0 - re).abs() < 1e-9, "k={k}");
            assert!((fast[k].1 - im).abs() < 1e-9, "k={k}");
        }
    }
}
