//! OpenMP FFT: the six-step transform with `#pragma omp parallel for`
//! over matrix rows; data is initialized inside a parallel region
//! (SPLASH-2-OMP style, owners first-touch their rows).

use std::f64::consts::PI;
use std::sync::Arc;

use cables::Pth;
use memsim::GAddr;
use omp::Omp;

use crate::splash::fft::fft_local;
use crate::util::{det_f64, FLOP_NS};

/// OpenMP FFT parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmpFftParams {
    /// log2 of the point count (even).
    pub m: u32,
    /// Team size.
    pub threads: usize,
    /// Run the inverse transform and report the max error.
    pub verify: bool,
}

impl OmpFftParams {
    /// A small test-size configuration.
    pub fn test(threads: usize) -> Self {
        OmpFftParams {
            m: 8,
            threads,
            verify: true,
        }
    }
}

/// Outcome of the OpenMP FFT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmpFftResult {
    /// Sum of magnitudes of the output.
    pub checksum: f64,
    /// Roundtrip error when verification ran.
    pub max_error: Option<f64>,
}

fn rw(p: &Pth, a: GAddr, i: u64) -> f64 {
    p.read::<f64>(a + 8 * i)
}

fn wr(p: &Pth, a: GAddr, i: u64, v: f64) {
    p.write::<f64>(a + 8 * i, v)
}

fn six_step(omp: &Arc<Omp>, pth: &Pth, data: GAddr, scratch: GAddr, m: u32, inverse: bool) {
    let sqrt_n = 1u64 << (m / 2);
    let n = sqrt_n * sqrt_n;
    let sign = if inverse { 1.0 } else { -1.0 };
    let idx = move |r: u64, c: u64| 2 * (r * sqrt_n + c);

    // Transpose data -> scratch.
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            for col in 0..sqrt_n {
                wr(
                    c.pth(),
                    scratch,
                    idx(r, col),
                    rw(c.pth(), data, idx(col, r)),
                );
                wr(
                    c.pth(),
                    scratch,
                    idx(r, col) + 1,
                    rw(c.pth(), data, idx(col, r) + 1),
                );
            }
        });
    });
    // Row FFTs + twiddle on scratch.
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            let mut buf: Vec<(f64, f64)> = (0..sqrt_n)
                .map(|col| {
                    (
                        rw(c.pth(), scratch, idx(r, col)),
                        rw(c.pth(), scratch, idx(r, col) + 1),
                    )
                })
                .collect();
            fft_local(&mut buf, inverse);
            c.pth().compute(5 * sqrt_n * (m as u64 / 2) * FLOP_NS);
            for (col, v) in buf.iter().enumerate() {
                let ang = sign * 2.0 * PI * (r as f64) * (col as f64) / n as f64;
                let (wr_, wi) = (ang.cos(), ang.sin());
                let t = (v.0 * wr_ - v.1 * wi, v.0 * wi + v.1 * wr_);
                wr(c.pth(), scratch, idx(r, col as u64), t.0);
                wr(c.pth(), scratch, idx(r, col as u64) + 1, t.1);
            }
        });
    });
    // Transpose scratch -> data.
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            for col in 0..sqrt_n {
                wr(
                    c.pth(),
                    data,
                    idx(r, col),
                    rw(c.pth(), scratch, idx(col, r)),
                );
                wr(
                    c.pth(),
                    data,
                    idx(r, col) + 1,
                    rw(c.pth(), scratch, idx(col, r) + 1),
                );
            }
        });
    });
    // Row FFTs on data (+ inverse scaling).
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            let mut buf: Vec<(f64, f64)> = (0..sqrt_n)
                .map(|col| {
                    (
                        rw(c.pth(), data, idx(r, col)),
                        rw(c.pth(), data, idx(r, col) + 1),
                    )
                })
                .collect();
            fft_local(&mut buf, inverse);
            c.pth().compute(5 * sqrt_n * (m as u64 / 2) * FLOP_NS);
            for (col, v) in buf.iter().enumerate() {
                let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
                wr(c.pth(), data, idx(r, col as u64), v.0 * scale);
                wr(c.pth(), data, idx(r, col as u64) + 1, v.1 * scale);
            }
        });
    });
    // Final transpose data -> scratch -> data.
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            for col in 0..sqrt_n {
                wr(
                    c.pth(),
                    scratch,
                    idx(r, col),
                    rw(c.pth(), data, idx(col, r)),
                );
                wr(
                    c.pth(),
                    scratch,
                    idx(r, col) + 1,
                    rw(c.pth(), data, idx(col, r) + 1),
                );
            }
        });
    });
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            let r = r as u64;
            for col in 0..sqrt_n {
                wr(
                    c.pth(),
                    data,
                    idx(r, col),
                    rw(c.pth(), scratch, idx(r, col)),
                );
                wr(
                    c.pth(),
                    data,
                    idx(r, col) + 1,
                    rw(c.pth(), scratch, idx(r, col) + 1),
                );
            }
        });
    });
}

/// Runs the OpenMP FFT (call from the initial thread; `omp` must wrap the
/// same runtime).
pub fn omp_fft(omp: &Arc<Omp>, pth: &Pth, p: OmpFftParams) -> OmpFftResult {
    assert!(p.m % 2 == 0);
    let n = 1u64 << p.m;
    let data = pth.malloc(16 * n);
    let scratch = pth.malloc(16 * n);
    // Parallel initialization: each thread first-touches its rows
    // (SPLASH-2-OMP style).
    let sqrt_n = 1u64 << (p.m / 2);
    omp.parallel(pth, move |c| {
        c.for_static(sqrt_n as usize, |r| {
            for col in 0..2 * sqrt_n {
                let i = (r as u64) * 2 * sqrt_n + col;
                wr(c.pth(), data, i, det_f64(1, i));
            }
        });
    });
    six_step(omp, pth, data, scratch, p.m, false);
    if p.verify {
        six_step(omp, pth, data, scratch, p.m, true);
    }
    let mut checksum = 0.0;
    for i in 0..2 * n {
        checksum += rw(pth, data, i).abs();
    }
    let max_error = p.verify.then(|| {
        let mut err = 0.0f64;
        for i in 0..2 * n {
            err = err.max((rw(pth, data, i) - det_f64(1, i)).abs());
        }
        err
    });
    OmpFftResult {
        checksum,
        max_error,
    }
}
