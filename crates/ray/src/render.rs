//! The renderers: sequential, threaded (parallel-for and work-stealing
//! pool), distributed, and GPU-simulated. All produce bit-identical
//! images for the same scene — the shading math is pure per-pixel.

use crate::math::{Ray, Vec3};
use crate::scene::{Camera, Scene};
use pdc_core::trace::TraceSession;
use pdc_gpu::KernelStats;
use pdc_mpi::world::{Rank, TrafficStats, World};
use pdc_threads::parfor::{parallel_for, Schedule};
use pdc_threads::pool::{pool_map, WorkStealingPool};

/// An RGB image with 8-bit channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major RGB triples.
    pub pixels: Vec<[u8; 3]>,
}

impl Image {
    fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![[0; 3]; width * height],
        }
    }

    /// Encode as a binary PPM (P6) byte vector.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            out.extend_from_slice(p);
        }
        out
    }

    /// Mean luminance in `[0, 255]` (for sanity checks).
    pub fn mean_luminance(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .pixels
            .iter()
            .map(|[r, g, b]| {
                0.2126 * f64::from(*r) + 0.7152 * f64::from(*g) + 0.0722 * f64::from(*b)
            })
            .sum();
        total / self.pixels.len() as f64
    }
}

fn to_rgb8(c: Vec3) -> [u8; 3] {
    let c = c.saturate();
    // Gamma 2.0 for a less murky image.
    [
        (c.x.sqrt() * 255.0 + 0.5) as u8,
        (c.y.sqrt() * 255.0 + 0.5) as u8,
        (c.z.sqrt() * 255.0 + 0.5) as u8,
    ]
}

/// Shade one ray: Phong lighting + hard shadows + mirror recursion.
pub fn trace(scene: &Scene, ray: &Ray, depth: u32) -> Vec3 {
    let Some(hit) = scene.hit(ray) else {
        return scene.background;
    };
    let mat = hit.material;
    let mut color = scene.ambient.hadamard(mat.diffuse);
    for light in &scene.lights {
        if scene.in_shadow(hit.point, light.position) {
            continue;
        }
        let l = (light.position - hit.point).normalized();
        let ndotl = hit.normal.dot(l).max(0.0);
        color = color + light.intensity.hadamard(mat.diffuse) * ndotl;
        if mat.specular > 0.0 {
            let r = (-l).reflect(hit.normal);
            let spec = r.dot(ray.dir.normalized()).max(0.0).powf(mat.shininess);
            color = color + light.intensity * (mat.specular * spec);
        }
    }
    if mat.reflectivity > 0.0 && depth > 0 {
        let rdir = ray.dir.reflect(hit.normal).normalized();
        let rray = Ray {
            origin: hit.point + rdir * 1e-6,
            dir: rdir,
        };
        let reflected = trace(scene, &rray, depth - 1);
        color = color * (1.0 - mat.reflectivity) + reflected * mat.reflectivity;
    }
    color
}

/// Render one row of pixels.
fn render_row(
    scene: &Scene,
    cam: &Camera,
    w: usize,
    h: usize,
    y: usize,
    depth: u32,
) -> Vec<[u8; 3]> {
    let row = (0..w)
        .map(|x| {
            let ray = cam.primary_ray(x, y, w, h);
            to_rgb8(trace(scene, &ray, depth))
        })
        .collect();
    // One unit-cost operation per pixel, attributed to whichever
    // strand rendered the row (sequential caller, pool worker, rank
    // thread) — the span pass's work metric. No-op untraced.
    pdc_core::trace::record_steps(w as u64);
    row
}

/// Sequential renderer — the baseline.
pub fn render_sequential(scene: &Scene, cam: &Camera, w: usize, h: usize, depth: u32) -> Image {
    let mut img = Image::new(w, h);
    for y in 0..h {
        let row = render_row(scene, cam, w, h, y, depth);
        img.pixels[y * w..(y + 1) * w].copy_from_slice(&row);
    }
    img
}

/// Threaded renderer: rows are independent; the schedule matters because
/// rows crossing the spheres cost more than sky rows (irregular work).
pub fn render_threaded(
    scene: &Scene,
    cam: &Camera,
    w: usize,
    h: usize,
    depth: u32,
    workers: usize,
    schedule: Schedule,
) -> Image {
    let rows: Vec<std::sync::Mutex<Vec<[u8; 3]>>> =
        (0..h).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    parallel_for(0..h, workers, schedule, |y| {
        *rows[y].lock().unwrap() = render_row(scene, cam, w, h, y, depth);
    });
    let mut img = Image::new(w, h);
    for (y, row) in rows.into_iter().enumerate() {
        img.pixels[y * w..(y + 1) * w].copy_from_slice(&row.into_inner().unwrap());
    }
    img
}

/// Work-stealing renderer: the rows are mapped over the pool by
/// [`pool_map`], which borrows the scene and reassembles them in row
/// order. Unlike [`render_threaded`]'s fixed schedules, the map's
/// threads claim chunks of rows as they go, which balances the irregular
/// per-row cost. Bit-identical to [`render_sequential`].
pub fn render_pool(
    scene: &Scene,
    cam: &Camera,
    w: usize,
    h: usize,
    depth: u32,
    pool: &WorkStealingPool,
) -> Image {
    let rows = pool_map(pool, (0..h).collect(), |y| {
        render_row(scene, cam, w, h, y, depth)
    });
    let mut img = Image::new(w, h);
    for (y, row) in rows.into_iter().enumerate() {
        img.pixels[y * w..(y + 1) * w].copy_from_slice(&row);
    }
    img
}

/// GPU-simulated renderer: one simulated GPU thread per pixel, the RGB
/// triple packed into the low 24 bits of the global-memory word. The
/// shading runs the same [`trace`] as every other backend, so the image
/// is bit-identical; the simulator contributes the cost model (and,
/// when `session` is given, `gpu.*` counters plus a kernel event).
pub fn render_gpu(
    scene: &Scene,
    cam: &Camera,
    w: usize,
    h: usize,
    depth: u32,
    session: Option<&TraceSession>,
) -> (Image, KernelStats) {
    let (words, stats) = pdc_gpu::map_kernel(w * h, 64, session, &|i| {
        let (x, y) = (i % w, i / w);
        let ray = cam.primary_ray(x, y, w, h);
        let [r, g, b] = to_rgb8(trace(scene, &ray, depth));
        (i64::from(r) << 16) | (i64::from(g) << 8) | i64::from(b)
    });
    let mut img = Image::new(w, h);
    for (px, &word) in img.pixels.iter_mut().zip(&words) {
        *px = [(word >> 16) as u8, (word >> 8) as u8, word as u8];
    }
    (img, stats)
}

/// Distributed renderer: row bands per rank; rank 0 gathers the bands.
/// Returns the image (at rank 0's copy) plus message traffic.
pub fn render_distributed(
    scene: &Scene,
    cam: &Camera,
    w: usize,
    h: usize,
    depth: u32,
    ranks: usize,
) -> (Image, TrafficStats) {
    assert!(ranks > 0);
    let p = ranks.min(h);
    // Flattened rows as Vec<u8> messages: (row_index, rgb bytes).
    let (results, traffic) = World::run(p, |rank: &mut Rank<(u64, Vec<u8>)>| {
        let me = rank.id();
        // Cyclic row assignment balances the irregular work.
        let mine: Vec<usize> = (me..h).step_by(p).collect();
        let mut rendered: Vec<(usize, Vec<u8>)> = Vec::with_capacity(mine.len());
        for &y in &mine {
            let row = render_row(scene, cam, w, h, y, depth);
            rendered.push((y, row.iter().flatten().copied().collect()));
        }
        if me == 0 {
            // Collect everyone else's rows.
            let mut all = rendered;
            let expect: usize = h - all.len();
            for _ in 0..expect {
                let (_, (y, bytes)) = rank.recv_any(1);
                all.push((y as usize, bytes));
            }
            Some(all)
        } else {
            for (y, bytes) in rendered {
                rank.send(0, 1, (y as u64, bytes));
            }
            None
        }
    });
    let mut img = Image::new(w, h);
    let all = results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 returns rows");
    for (y, bytes) in all {
        for (x, rgb) in bytes.chunks_exact(3).enumerate() {
            img.pixels[y * w + x] = [rgb[0], rgb[1], rgb[2]];
        }
    }
    (img, traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Camera, Scene};

    const W: usize = 80;
    const H: usize = 60;

    #[test]
    fn image_has_content_and_structure() {
        let img = render_sequential(&Scene::demo(), &Camera::demo(), W, H, 2);
        assert_eq!(img.pixels.len(), W * H);
        let lum = img.mean_luminance();
        assert!(lum > 20.0 && lum < 235.0, "luminance {lum} looks wrong");
        // The image is not a single flat color.
        let first = img.pixels[0];
        assert!(img.pixels.iter().any(|&p| p != first));
    }

    #[test]
    fn threaded_matches_sequential_all_schedules() {
        let scene = Scene::demo();
        let cam = Camera::demo();
        let seq = render_sequential(&scene, &cam, W, H, 2);
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 2 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            for workers in [1usize, 3] {
                let par = render_threaded(&scene, &cam, W, H, 2, workers, schedule);
                assert_eq!(par, seq, "w={workers} {schedule:?}");
            }
        }
    }

    #[test]
    fn distributed_matches_sequential() {
        let scene = Scene::demo();
        let cam = Camera::demo();
        let seq = render_sequential(&scene, &cam, W, H, 2);
        for ranks in [1usize, 2, 4] {
            let (dist, traffic) = render_distributed(&scene, &cam, W, H, 2, ranks);
            assert_eq!(dist, seq, "ranks={ranks}");
            if ranks > 1 {
                // Every non-root row travels exactly once.
                let foreign_rows = (0..H).filter(|y| y % ranks != 0).count() as u64;
                assert_eq!(traffic.messages, foreign_rows);
            }
        }
    }

    #[test]
    fn every_backend_produces_bit_identical_ppm_bytes() {
        // The seam's determinism contract, stated in bytes: sequential,
        // parallel-for, pool, and GPU-sim renders of the same seeded
        // scene must encode to the *same* PPM stream.
        let scene = Scene::seeded(99);
        let cam = Camera::demo();
        let seq = render_sequential(&scene, &cam, W, H, 2).to_ppm();
        let threaded =
            render_threaded(&scene, &cam, W, H, 2, 3, Schedule::Dynamic { chunk: 2 }).to_ppm();
        assert_eq!(threaded, seq, "render_threaded diverged");
        let pool = WorkStealingPool::new(4);
        let pooled = render_pool(&scene, &cam, W, H, 2, &pool).to_ppm();
        assert_eq!(pooled, seq, "render_pool diverged");
        let (gpu, _) = render_gpu(&scene, &cam, W, H, 2, None);
        assert_eq!(gpu.to_ppm(), seq, "render_gpu diverged");
    }

    #[test]
    fn gpu_render_traced_publishes_kernel_counters() {
        let session = TraceSession::new();
        let scene = Scene::demo();
        let (img, stats) = render_gpu(&scene, &Camera::demo(), 32, 24, 1, Some(&session));
        assert_eq!(img.pixels.len(), 32 * 24);
        assert!(stats.executed_ops > 0);
        assert_eq!(session.snapshot().get("gpu.launches"), 1);
    }

    #[test]
    fn reflections_change_the_image() {
        let scene = Scene::demo();
        let cam = Camera::demo();
        let with = render_sequential(&scene, &cam, W, H, 3);
        let without = render_sequential(&scene, &cam, W, H, 0);
        assert_ne!(with, without, "depth-0 kills mirror highlights");
    }

    #[test]
    fn ppm_header_and_size() {
        let img = render_sequential(&Scene::demo(), &Camera::demo(), 16, 8, 1);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n16 8\n255\n"));
        assert_eq!(ppm.len(), 12 + 16 * 8 * 3);
    }

    #[test]
    fn shadowed_floor_is_darker_than_lit_floor() {
        let scene = Scene::demo();
        let cam = Camera::demo();
        let img = render_sequential(&scene, &cam, 200, 150, 1);
        // Rough check: the darkest floor-region pixel is much darker
        // than the brightest, thanks to shadows + checkers.
        let bottom: Vec<&[u8; 3]> = img.pixels[200 * 120..].iter().collect();
        let lum = |p: &[u8; 3]| p.iter().map(|&c| c as u32).sum::<u32>();
        let max = bottom.iter().map(|p| lum(p)).max().unwrap();
        let min = bottom.iter().map(|p| lum(p)).min().unwrap();
        assert!(max > min * 2, "floor contrast: {min}..{max}");
    }
}
