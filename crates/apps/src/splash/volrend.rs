//! SPLASH-2 VOLREND (simplified): volume rendering by ray casting.
//!
//! A read-mostly 3-D density volume is sampled along view rays; opacity
//! and brightness accumulate front-to-back into a shared image. Work is
//! tiles from a shared queue. The image's fine-grained interleaving across
//! pages is what makes VOLREND the paper's worst case under the 64 KB
//! placement granularity (Fig. 5g / Fig. 6).

use crate::m4::M4Ctx;
use crate::util::{block_range, Arr, FLOP_NS};

/// VOLREND parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolrendParams {
    /// Volume edge length (the volume is `size³` samples).
    pub size: usize,
    /// Image width and height.
    pub image: usize,
    /// Tile edge length (work granule).
    pub tile: usize,
    /// Number of processors.
    pub nprocs: usize,
}

impl VolrendParams {
    /// A small test-size configuration.
    pub fn test(nprocs: usize) -> Self {
        VolrendParams {
            size: 16,
            image: 24,
            tile: 6,
            nprocs,
        }
    }
}

/// VOLREND outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolrendResult {
    /// Wrapping sum of the rendered image.
    pub image_checksum: u64,
    /// Non-empty pixels.
    pub lit_pixels: u64,
}

/// Deterministic density field: a soft ball plus ripples.
fn density(size: usize, x: usize, y: usize, z: usize) -> f64 {
    let c = (size as f64 - 1.0) / 2.0;
    let dx = (x as f64 - c) / c;
    let dy = (y as f64 - c) / c;
    let dz = (z as f64 - c) / c;
    let r = (dx * dx + dy * dy + dz * dz).sqrt();
    let ball = (1.0 - r).max(0.0);
    let ripple = 0.25 * ((x as f64 * 0.9).sin() * (y as f64 * 0.7).cos()).abs();
    (ball + ripple * ball).min(1.0)
}

struct Shared {
    volume: Arr<f64>,
    image: Arr<u64>,
    task: Arr<u64>,
}

const TASK_LOCK: u64 = 7_000;

fn vidx(size: usize, x: usize, y: usize, z: usize) -> u64 {
    ((x * size + y) * size + z) as u64
}

/// Casts one ray through the volume (front-to-back compositing).
/// Reads volume samples through the shared-memory context.
fn cast(ctx: &M4Ctx, sh: &Shared, p: &VolrendParams, px: usize, py: usize) -> f64 {
    let size = p.size;
    // Orthographic rays along z; image plane mapped onto the x/y faces.
    let fx = px as f64 / p.image as f64 * (size as f64 - 1.0);
    let fy = py as f64 / p.image as f64 * (size as f64 - 1.0);
    let (x0, y0) = (fx as usize, fy as usize);
    let mut brightness = 0.0f64;
    let mut transparency = 1.0f64;
    for z in 0..size {
        let d = sh
            .volume
            .get(ctx, vidx(size, x0.min(size - 1), y0.min(size - 1), z));
        let alpha = d * 0.4;
        brightness += transparency * alpha * (1.0 - z as f64 / size as f64);
        transparency *= 1.0 - alpha;
        if transparency < 0.01 {
            break;
        }
    }
    ctx.compute(size as u64 * 6 * FLOP_NS);
    brightness
}

fn volrend_worker(
    ctx: &M4Ctx,
    p: &VolrendParams,
    sh: &Shared,
    id: usize,
) -> (sim::SimTime, sim::SimTime) {
    // Owners initialize slabs of the volume (parallel init as in the
    // original's preprocessing).
    let (xlo, xhi) = block_range(p.size, p.nprocs, id);
    for x in xlo..xhi {
        for y in 0..p.size {
            for z in 0..p.size {
                sh.volume
                    .set(ctx, vidx(p.size, x, y, z), density(p.size, x, y, z));
            }
        }
    }
    ctx.barrier(7_100, p.nprocs);
    let t0 = ctx.sim.now();

    let tiles = p.image.div_ceil(p.tile);
    let total = tiles * tiles;
    // Tiles are assigned with owner affinity (a contiguous band per
    // processor, as the original's distributed task queues produce);
    // leftover tiles are balanced through the shared counter.
    let (tlo, thi) = block_range(total, p.nprocs, id);
    let render = |ctx: &M4Ctx, t: usize| {
        let ty = t / tiles;
        let tx = t % tiles;
        for py in ty * p.tile..((ty + 1) * p.tile).min(p.image) {
            for px in tx * p.tile..((tx + 1) * p.tile).min(p.image) {
                let b = cast(ctx, sh, p, px, py);
                let q = (b.clamp(0.0, 1.0) * 4095.0) as u64;
                sh.image.set(ctx, (py * p.image + px) as u64, q | 1 << 32);
            }
        }
    };
    for t in tlo..thi {
        render(ctx, t);
    }
    // A queue visit per worker models the original's steal check at the
    // end of its own band (one lock round trip; the bands cover all
    // tiles, so nothing is left to steal).
    ctx.lock(TASK_LOCK);
    let claimed = sh.task.get(ctx, 0);
    sh.task.set(ctx, 0, claimed.max((thi - tlo) as u64));
    ctx.unlock(TASK_LOCK);
    ctx.barrier(7_101, p.nprocs);
    (t0, ctx.sim.now())
}

/// Runs the VOLREND kernel (call from the initial thread).
pub fn volrend(ctx: &M4Ctx, p: &VolrendParams) -> VolrendResult {
    let sh = Shared {
        volume: Arr::alloc(ctx, (p.size * p.size * p.size) as u64),
        image: Arr::alloc(ctx, (p.image * p.image) as u64),
        task: Arr::alloc(ctx, 8),
    };
    sh.task.set(ctx, 0, 0);

    let p2 = *p;
    let (volume, image, task) = (sh.volume, sh.image, sh.task);
    for id in 1..p.nprocs {
        ctx.create(move |c| {
            let sh = Shared {
                volume,
                image,
                task,
            };
            volrend_worker(c, &p2, &sh, id);
        });
    }
    let window = volrend_worker(ctx, p, &sh, 0);
    ctx.wait_for_end();
    ctx.note_parallel(window.0, window.1);

    let mut image_checksum = 0u64;
    let mut lit_pixels = 0u64;
    for i in 0..(p.image * p.image) as u64 {
        let w = sh.image.get(ctx, i);
        image_checksum = image_checksum.wrapping_add(w);
        if w & 0xfff != 0 {
            lit_pixels += 1;
        }
    }
    VolrendResult {
        image_checksum,
        lit_pixels,
    }
}

/// Serial oracle in plain Rust.
pub fn reference_checksum(p: &VolrendParams) -> VolrendResult {
    let size = p.size;
    let mut image_checksum = 0u64;
    let mut lit_pixels = 0u64;
    for py in 0..p.image {
        for px in 0..p.image {
            let fx = px as f64 / p.image as f64 * (size as f64 - 1.0);
            let fy = py as f64 / p.image as f64 * (size as f64 - 1.0);
            let (x0, y0) = (fx as usize, fy as usize);
            let mut brightness = 0.0f64;
            let mut transparency = 1.0f64;
            for z in 0..size {
                let d = density(size, x0.min(size - 1), y0.min(size - 1), z);
                let alpha = d * 0.4;
                brightness += transparency * alpha * (1.0 - z as f64 / size as f64);
                transparency *= 1.0 - alpha;
                if transparency < 0.01 {
                    break;
                }
            }
            let q = (brightness.clamp(0.0, 1.0) * 4095.0) as u64;
            let w = q | 1 << 32;
            image_checksum = image_checksum.wrapping_add(w);
            if w & 0xfff != 0 {
                lit_pixels += 1;
            }
        }
    }
    VolrendResult {
        image_checksum,
        lit_pixels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_bounded_and_centred() {
        let s = 16;
        for x in 0..s {
            for y in 0..s {
                for z in 0..s {
                    let d = density(s, x, y, z);
                    assert!((0.0..=1.0).contains(&d));
                }
            }
        }
        assert!(density(s, 8, 8, 8) > density(s, 0, 0, 0));
    }

    #[test]
    fn reference_image_is_lit() {
        let p = VolrendParams::test(1);
        let r = reference_checksum(&p);
        assert!(r.lit_pixels > 0);
        assert_eq!(r, reference_checksum(&p));
    }
}
