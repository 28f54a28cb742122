//! Shared-memory helpers and cost calibration for the workloads.

use memsim::{GAddr, Scalar};
use std::marker::PhantomData;

use crate::m4::M4Ctx;

/// Nanoseconds charged per floating-point operation (≈ a 200 MHz
/// PentiumPro's effective FP throughput including memory stalls).
pub const FLOP_NS: u64 = 50;

/// Nanoseconds charged per integer/bookkeeping operation.
pub const INT_OP_NS: u64 = 15;

/// A typed view of an array in global shared memory.
///
/// # Examples
///
/// ```no_run
/// # fn demo(ctx: &cables_apps::M4Ctx) {
/// use cables_apps::util::Arr;
/// let a: Arr<f64> = Arr::alloc(ctx, 16);
/// a.set(ctx, 3, 2.5);
/// assert_eq!(a.get(ctx, 3), 2.5);
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arr<T> {
    base: GAddr,
    len: u64,
    _t: PhantomData<fn() -> T>,
}

impl<T: Scalar> Arr<T> {
    /// Allocates an array of `len` elements with `G_MALLOC`.
    pub fn alloc(ctx: &M4Ctx, len: u64) -> Self {
        let base = ctx.g_malloc(len * T::SIZE as u64);
        Arr {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Wraps an existing allocation.
    pub fn at(base: GAddr, len: u64) -> Self {
        Arr {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address.
    pub fn base(&self) -> GAddr {
        self.base
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr(&self, i: u64) -> GAddr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * T::SIZE as u64
    }

    /// Reads element `i`.
    pub fn get(&self, ctx: &M4Ctx, i: u64) -> T {
        ctx.read(self.addr(i))
    }

    /// Writes element `i`.
    pub fn set(&self, ctx: &M4Ctx, i: u64, v: T) {
        ctx.write(self.addr(i), v)
    }

    /// Reads elements `start..start + out.len()` in one bulk access.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn get_slice(&self, ctx: &M4Ctx, start: u64, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        let end = start + out.len() as u64;
        assert!(
            end <= self.len,
            "range {start}..{end} out of bounds (len {})",
            self.len
        );
        ctx.read_slice(self.base + start * T::SIZE as u64, out)
    }

    /// Writes `data` to elements `start..start + data.len()` in one bulk
    /// access.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn set_slice(&self, ctx: &M4Ctx, start: u64, data: &[T]) {
        if data.is_empty() {
            return;
        }
        let end = start + data.len() as u64;
        assert!(
            end <= self.len,
            "range {start}..{end} out of bounds (len {})",
            self.len
        );
        ctx.write_slice(self.base + start * T::SIZE as u64, data)
    }

    /// Fills elements `start..start + count` with `v` in one bulk access.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn fill_range(&self, ctx: &M4Ctx, start: u64, count: u64, v: T) {
        if count == 0 {
            return;
        }
        let end = start + count;
        assert!(
            end <= self.len,
            "range {start}..{end} out of bounds (len {})",
            self.len
        );
        ctx.fill(self.base + start * T::SIZE as u64, v, count as usize)
    }
}

/// Splits `0..n` into `nprocs` contiguous blocks and returns block `id`.
pub fn block_range(n: usize, nprocs: usize, id: usize) -> (usize, usize) {
    let per = n.div_ceil(nprocs);
    ((id * per).min(n), ((id + 1) * per).min(n))
}

/// A deterministic value stream for initializing workload data (identical
/// on every backend and processor count).
pub fn det_f64(seed: u64, i: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 29;
    // In (-1, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Deterministic u64 stream.
pub fn det_u64(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Order-independent checksum of f64 values (sum of bit patterns, wrapping).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Checksum {
    /// Adds a value.
    pub fn push_f64(&mut self, v: f64) {
        self.0 = self.0.wrapping_add(v.to_bits());
    }

    /// Adds an integer value.
    pub fn push_u64(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_partitions_exactly() {
        for n in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 8] {
                let mut total = 0;
                let mut prev_end = 0;
                for id in 0..p {
                    let (lo, hi) = block_range(n, p, id);
                    assert!(lo <= hi);
                    assert_eq!(lo, prev_end.min(n));
                    prev_end = hi;
                    total += hi - lo;
                }
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn det_streams_are_deterministic_and_bounded() {
        for i in 0..100 {
            assert_eq!(det_f64(5, i), det_f64(5, i));
            let v = det_f64(5, i);
            assert!((-1.0..1.0).contains(&v));
            assert_eq!(det_u64(5, i), det_u64(5, i));
        }
        assert_ne!(det_f64(5, 1), det_f64(6, 1));
    }

    #[test]
    fn checksum_is_order_independent() {
        let mut a = Checksum::default();
        let mut b = Checksum::default();
        a.push_f64(1.5);
        a.push_f64(-2.25);
        b.push_f64(-2.25);
        b.push_f64(1.5);
        assert_eq!(a, b);
    }
}
