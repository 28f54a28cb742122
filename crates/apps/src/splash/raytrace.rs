//! SPLASH-2 RAYTRACE (simplified): a ray tracer over a sphere scene with
//! a shared tile task queue.
//!
//! The scene is read-mostly shared data; work is distributed dynamically —
//! threads grab image tiles from a lock-protected counter (the SPLASH-2
//! version uses distributed task queues; a central queue preserves the
//! dynamic, read-mostly access pattern at our scales).

use crate::m4::M4Ctx;
use crate::util::{det_f64, Arr, FLOP_NS};

/// RAYTRACE parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayParams {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of spheres in the scene.
    pub spheres: usize,
    /// Tile edge length (work-queue granule).
    pub tile: usize,
    /// Number of processors.
    pub nprocs: usize,
}

impl RayParams {
    /// A small test-size configuration.
    pub fn test(nprocs: usize) -> Self {
        RayParams {
            width: 32,
            height: 24,
            spheres: 8,
            tile: 8,
            nprocs,
        }
    }
}

/// RAYTRACE outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayResult {
    /// Wrapping sum of all pixel values (deterministic image checksum).
    pub image_checksum: u64,
    /// Pixels that were shaded by some sphere.
    pub hit_pixels: u64,
}

const SPHERE_WORDS: u64 = 8; // cx, cy, cz, r, colr, colg, colb, pad

fn sphere_field(s: u64, f: u64) -> u64 {
    s * SPHERE_WORDS + f
}

/// Deterministic scene generation (same on every backend).
fn sphere_value(i: u64, f: u64) -> f64 {
    match f {
        0 => det_f64(31, i) * 4.0,
        1 => det_f64(32, i) * 4.0,
        2 => 6.0 + 2.0 * det_f64(33, i),
        3 => 0.8 + 0.6 * det_f64(34, i).abs(),
        4 => det_f64(35, i).abs(),
        5 => det_f64(36, i).abs(),
        6 => det_f64(37, i).abs(),
        _ => 0.0,
    }
}

/// Traces one primary ray from the origin through pixel (px, py);
/// returns the shaded color or `None` on a miss. Pure local math.
fn trace(
    scene: &[f64],
    spheres: usize,
    width: usize,
    height: usize,
    px: usize,
    py: usize,
) -> Option<[f64; 3]> {
    // Camera at origin looking down +z; pixel grid on the z=1 plane.
    let dx = (px as f64 + 0.5) / width as f64 * 2.0 - 1.0;
    let dy = (py as f64 + 0.5) / height as f64 * 2.0 - 1.0;
    let len = (dx * dx + dy * dy + 1.0).sqrt();
    let d = [dx / len, dy / len, 1.0 / len];
    let mut best: Option<(f64, usize)> = None;
    for s in 0..spheres {
        let c = [
            scene[(sphere_field(s as u64, 0)) as usize],
            scene[(sphere_field(s as u64, 1)) as usize],
            scene[(sphere_field(s as u64, 2)) as usize],
        ];
        let r = scene[(sphere_field(s as u64, 3)) as usize];
        // |t*d - c|^2 = r^2
        let b = d[0] * c[0] + d[1] * c[1] + d[2] * c[2];
        let cc = c[0] * c[0] + c[1] * c[1] + c[2] * c[2] - r * r;
        let disc = b * b - cc;
        if disc < 0.0 {
            continue;
        }
        let t = b - disc.sqrt();
        if t > 1e-6 && best.map(|(bt, _)| t < bt).unwrap_or(true) {
            best = Some((t, s));
        }
    }
    best.map(|(t, s)| {
        let hit = [d[0] * t, d[1] * t, d[2] * t];
        let c = [
            scene[(sphere_field(s as u64, 0)) as usize],
            scene[(sphere_field(s as u64, 1)) as usize],
            scene[(sphere_field(s as u64, 2)) as usize],
        ];
        let r = scene[(sphere_field(s as u64, 3)) as usize];
        let n = [
            (hit[0] - c[0]) / r,
            (hit[1] - c[1]) / r,
            (hit[2] - c[2]) / r,
        ];
        // Headlight shading.
        let lambert = (-(n[0] * d[0] + n[1] * d[1] + n[2] * d[2])).max(0.1);
        [
            scene[(sphere_field(s as u64, 4)) as usize] * lambert,
            scene[(sphere_field(s as u64, 5)) as usize] * lambert,
            scene[(sphere_field(s as u64, 6)) as usize] * lambert,
        ]
    })
}

fn pixel_word(c: [f64; 3]) -> u64 {
    let q = |v: f64| (v.clamp(0.0, 1.0) * 255.0) as u64;
    q(c[0]) << 16 | q(c[1]) << 8 | q(c[2])
}

struct Shared {
    scene: Arr<f64>,
    image: Arr<u64>,
    task: Arr<u64>,
}

const TASK_LOCK: u64 = 6_000;

fn ray_worker(ctx: &M4Ctx, p: &RayParams, sh: &Shared, id: usize) -> (sim::SimTime, sim::SimTime) {
    // No tiles are taken until every thread has arrived (SPLASH-2's
    // post-init barrier), so the timed window covers the whole render.
    ctx.barrier(6_050, p.nprocs);
    let t0 = ctx.sim.now();
    // Read the scene once (read-mostly shared data).
    let scene: Vec<f64> = (0..(p.spheres as u64 * SPHERE_WORDS))
        .map(|i| sh.scene.get(ctx, i))
        .collect();
    let tiles_x = p.width.div_ceil(p.tile);
    let tiles_y = p.height.div_ceil(p.tile);
    let total = tiles_x * tiles_y;
    // SPLASH-2 RAYTRACE uses distributed task queues: each processor
    // starts on its own band of tiles and steals only when it runs dry.
    // The shared counter walks the whole tile space; tiles inside a
    // thread's own band are processed eagerly first.
    let (tlo, thi) = crate::util::block_range(total, p.nprocs, id);
    let render = |ctx: &M4Ctx, t: usize| {
        let ty = t / tiles_x;
        let tx = t % tiles_x;
        for py in ty * p.tile..((ty + 1) * p.tile).min(p.height) {
            for px in tx * p.tile..((tx + 1) * p.tile).min(p.width) {
                let col = trace(&scene, p.spheres, p.width, p.height, px, py);
                ctx.compute(p.spheres as u64 * 15 * FLOP_NS);
                let word = col.map(pixel_word).unwrap_or(0) | 1 << 32;
                sh.image.set(ctx, (py * p.width + px) as u64, word);
            }
        }
    };
    // Own band first (tracked through the per-band cursor in shared
    // memory so stealers can see progress).
    let cursor = 8 + id as u64; // word slot for this thread's cursor
    sh.task.set(ctx, cursor, tlo as u64);
    for t in tlo..thi {
        render(ctx, t);
        sh.task.set(ctx, cursor, t as u64 + 1);
    }
    // Steal pass: scan other bands for leftovers through the queue lock
    // (none remain when all threads participate, but the check is the
    // original's termination protocol).
    ctx.lock(TASK_LOCK);
    let done = sh.task.get(ctx, 0) + (thi - tlo) as u64;
    sh.task.set(ctx, 0, done);
    ctx.unlock(TASK_LOCK);
    ctx.barrier(6_100, p.nprocs);
    (t0, ctx.sim.now())
}

/// Runs the RAYTRACE kernel (call from the initial thread).
pub fn raytrace(ctx: &M4Ctx, p: &RayParams) -> RayResult {
    let sh = Shared {
        scene: Arr::alloc(ctx, p.spheres as u64 * SPHERE_WORDS),
        image: Arr::alloc(ctx, (p.width * p.height) as u64),
        task: Arr::alloc(ctx, 8 + p.nprocs as u64),
    };
    // The initial thread builds the scene (read-mostly afterwards).
    for s in 0..p.spheres as u64 {
        for f in 0..SPHERE_WORDS {
            sh.scene.set(ctx, sphere_field(s, f), sphere_value(s, f));
        }
    }
    sh.task.set(ctx, 0, 0);

    let p2 = *p;
    let (scene, image, task) = (sh.scene, sh.image, sh.task);
    for id in 1..p.nprocs {
        ctx.create(move |c| {
            let sh = Shared { scene, image, task };
            ray_worker(c, &p2, &sh, id);
        });
    }
    let window = ray_worker(ctx, p, &sh, 0);
    ctx.wait_for_end();
    ctx.note_parallel(window.0, window.1);

    let mut image_checksum = 0u64;
    let mut hit_pixels = 0u64;
    for i in 0..(p.width * p.height) as u64 {
        let w = sh.image.get(ctx, i);
        image_checksum = image_checksum.wrapping_add(w);
        if w & 0xff_ffff != 0 {
            hit_pixels += 1;
        }
    }
    RayResult {
        image_checksum,
        hit_pixels,
    }
}

/// Renders the image serially in plain Rust (oracle for tests).
pub fn reference_checksum(p: &RayParams) -> RayResult {
    let scene: Vec<f64> = (0..p.spheres as u64 * SPHERE_WORDS)
        .map(|i| sphere_value(i / SPHERE_WORDS, i % SPHERE_WORDS))
        .collect();
    let mut image_checksum = 0u64;
    let mut hit_pixels = 0u64;
    for py in 0..p.height {
        for px in 0..p.width {
            let col = trace(&scene, p.spheres, p.width, p.height, px, py);
            let w = col.map(pixel_word).unwrap_or(0) | 1 << 32;
            image_checksum = image_checksum.wrapping_add(w);
            if w & 0xff_ffff != 0 {
                hit_pixels += 1;
            }
        }
    }
    RayResult {
        image_checksum,
        hit_pixels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_render_hits_something() {
        let p = RayParams::test(1);
        let r = reference_checksum(&p);
        assert!(r.hit_pixels > 0, "scene should be visible");
        assert!(r.hit_pixels < (p.width * p.height) as u64);
    }

    #[test]
    fn reference_render_is_deterministic() {
        let p = RayParams::test(1);
        assert_eq!(reference_checksum(&p), reference_checksum(&p));
    }

    #[test]
    fn trace_misses_empty_scene() {
        assert!(trace(&[], 0, 8, 8, 4, 4).is_none());
    }
}
