//! Phase `compute`: four scenario kernels, each on the sequential
//! backend and on two threads, through their public backend functions.
//!
//! * ray: `render_sequential` / `render_pool` (one pool task per row);
//! * pagerank: `ranks_sequential` / `ranks_pooled`;
//! * extsort: `external_merge_sort` / `external_merge_sort_pooled`;
//! * life: `step_generations` / `parallel_step_generations` (its own
//!   threads and a `SenseBarrier`, no pool).
//!
//! Every run's output is compared bit for bit with the sequential
//! reference made during set-up. A pool lives only around the threads
//! run that uses it: an idle pool spins on every core and would slow a
//! sequential run timed beside it.

use crate::host::{self, process_cpu_ns};
use crate::report::Report;
use crate::stats::{median, median_of_batches, pct_over, pick, quiet, relative_iqr};
use crate::{Budget, Opts};
use pdc_core::rng::Rng;
use pdc_core::trace::TraceSession;
use pdc_db::pagerank::{gen_graph, ranks_pooled, ranks_sequential, OUT_DEGREE};
use pdc_extmem::extsort::SortConfig;
use pdc_extmem::{external_merge_sort, external_merge_sort_pooled, Disk, FileId};
use pdc_life::{parallel_step_generations, step_generations, Boundary, Grid};
use pdc_ray::render::render_pool;
use pdc_ray::{render_sequential, Camera, Image, Scene};
use pdc_sync::SenseBarrier;
use pdc_threads::{pool_map, WorkStealingPool};
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 2;
const RAY_DEPTH: u32 = pdc_ray::scenario::DEPTH;
const LIFE_GENERATIONS: usize = pdc_life::scenario::GENERATIONS;
const LIFE_DENSITY: f64 = 0.35;
const EXTSORT_BLOCK: usize = 16;

/// How many times the phase sets up per run; its share of `setup_s`
/// is the median of these.
const SETUP_REPEATS: usize = 3;

/// Input sizes of the compute phase.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Image width; the height is three quarters of it.
    pub ray_width: usize,
    /// Pagerank vertices.
    pub pagerank_n: usize,
    /// Records to sort (memory holds an eighth of them).
    pub extsort_n: usize,
    /// Side of the square life torus.
    pub life_side: usize,
    /// Operations per batch in the pool and barrier micro-timings.
    pub micro_ops: usize,
}

impl Sizes {
    /// The benchmark's sizes, or small ones for a smoke run.
    pub fn new(tiny: bool) -> Sizes {
        if tiny {
            Sizes {
                ray_width: 64,
                pagerank_n: 2_000,
                extsort_n: 10_000,
                life_side: 64,
                micro_ops: 200,
            }
        } else {
            Sizes {
                ray_width: 640,
                pagerank_n: 200_000,
                extsort_n: 1_000_000,
                life_side: 640,
                micro_ops: 20_000,
            }
        }
    }
}

/// The four kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Ray,
    Pagerank,
    Extsort,
    Life,
}

const KERNELS: [Kernel; 4] = [Kernel::Ray, Kernel::Pagerank, Kernel::Extsort, Kernel::Life];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Ray => "ray",
            Kernel::Pagerank => "pagerank",
            Kernel::Extsort => "extsort",
            Kernel::Life => "life",
        }
    }

    fn uses_pool(self) -> bool {
        self != Kernel::Life
    }
}

/// Every kernel's input, generated from the seed.
struct Inputs {
    scene: Scene,
    cam: Camera,
    width: usize,
    height: usize,
    graph: Vec<[usize; OUT_DEGREE]>,
    records: Vec<u64>,
    grid: Grid,
    /// Generation time per kernel, ms.
    input_ms: [f64; 4],
}

impl Inputs {
    fn generate(seed: u64, sizes: Sizes) -> Inputs {
        let side = sizes.life_side;
        let (scene, ray_ms) = timed_ms(|| Scene::seeded(seed));
        let (graph, pagerank_ms) = timed_ms(|| gen_graph(seed, sizes.pagerank_n));
        let (records, extsort_ms) = timed_ms(|| Rng::new(seed).u64_vec(sizes.extsort_n));
        let (grid, life_ms) =
            timed_ms(|| Grid::random(side, side, Boundary::Torus, LIFE_DENSITY, seed));
        let input_ms = [ray_ms, pagerank_ms, extsort_ms, life_ms];
        Inputs {
            scene,
            cam: Camera::demo(),
            width: sizes.ray_width,
            height: sizes.ray_width * 3 / 4,
            graph,
            records,
            grid,
            input_ms,
        }
    }
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// A kernel's output, in the form compared bit for bit.
#[derive(Debug, PartialEq, Eq)]
enum Output {
    Ppm(Vec<u8>),
    Ranks(Vec<u64>),
    Sorted { data: Vec<u64>, ios: u64 },
    Grid(Grid),
}

/// A kernel's result as the call returns it.
enum Raw {
    Image(Image),
    Ranks(Vec<u64>),
    File(FileId),
    Grid(Grid),
}

/// One timed kernel call.
struct Cell {
    wall_ms: f64,
    cpu_ms: f64,
    /// Pool tasks executed and steals made during the call.
    tasks: u64,
    steals: u64,
    output: Output,
}

/// Run `kernel` once, sequentially or on `WORKERS` threads. Only the
/// kernel call is timed: the pool is built before and dropped after,
/// and the extsort disk is filled before.
fn run_cell(k: Kernel, threads: bool, inp: &Inputs, traced: bool) -> Cell {
    let pool = (threads && k.uses_pool()).then(|| {
        if traced {
            WorkStealingPool::with_trace(WORKERS, TraceSession::new())
        } else {
            WorkStealingPool::new(WORKERS)
        }
    });
    let mut disk = Disk::new(EXTSORT_BLOCK);
    let file = (k == Kernel::Extsort).then(|| disk.create_file(inp.records.clone()));
    let (exec0, steals0) = pool.as_ref().map_or((0, 0), |p| (p.executed(), p.steals()));
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let raw = match (k, &pool) {
        (Kernel::Ray, None) => Raw::Image(render_sequential(
            &inp.scene, &inp.cam, inp.width, inp.height, RAY_DEPTH,
        )),
        (Kernel::Ray, Some(p)) => Raw::Image(render_pool(
            &inp.scene, &inp.cam, inp.width, inp.height, RAY_DEPTH, p,
        )),
        (Kernel::Pagerank, None) => Raw::Ranks(ranks_sequential(&inp.graph)),
        (Kernel::Pagerank, Some(p)) => Raw::Ranks(ranks_pooled(&inp.graph, p)),
        (Kernel::Extsort, pool) => {
            let input = file.expect("extsort input file");
            let cfg = SortConfig {
                memory: (inp.records.len() / 8).max(2 * EXTSORT_BLOCK),
            };
            Raw::File(match pool {
                None => external_merge_sort(&mut disk, input, cfg),
                Some(p) => external_merge_sort_pooled(&mut disk, input, cfg, p),
            })
        }
        (Kernel::Life, _) if threads => {
            Raw::Grid(parallel_step_generations(&inp.grid, LIFE_GENERATIONS, WORKERS).0)
        }
        (Kernel::Life, _) => Raw::Grid(step_generations(&inp.grid, LIFE_GENERATIONS).0),
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (process_cpu_ns() - cpu0) as f64 / 1e6;
    let output = match raw {
        Raw::Image(img) => Output::Ppm(img.to_ppm()),
        Raw::Ranks(r) => Output::Ranks(r),
        Raw::File(f) => Output::Sorted {
            data: disk.contents(f).to_vec(),
            ios: disk.stats().total(),
        },
        Raw::Grid(g) => Output::Grid(g),
    };
    let (exec1, steals1) = pool.as_ref().map_or((0, 0), |p| (p.executed(), p.steals()));
    Cell {
        wall_ms,
        cpu_ms,
        tasks: exec1 - exec0,
        steals: steals1 - steals0,
        output,
    }
}

/// Every timed run of one kernel on one backend.
#[derive(Default)]
struct Series {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    tasks: Vec<f64>,
    steals: u64,
}

impl Series {
    fn push(&mut self, c: &Cell) {
        self.wall_ms.push(c.wall_ms);
        self.cpu_ms.push(c.cpu_ms);
        self.tasks.push(c.tasks as f64);
        self.steals += c.steals;
    }
}

/// Set-up: inputs, the sequential references, one pool built and
/// dropped, and one warm-up run of every threads cell.
struct Setup {
    inputs: Inputs,
    refs: Vec<Output>,
    pool_create_ms: f64,
    seconds: f64,
}

fn setup(seed: u64, sizes: Sizes, rep: &mut Report) -> Setup {
    let t0 = Instant::now();
    let inputs = Inputs::generate(seed, sizes);
    let tp = Instant::now();
    drop(black_box(WorkStealingPool::new(WORKERS)));
    let pool_create_ms = tp.elapsed().as_secs_f64() * 1e3;
    let refs: Vec<Output> = KERNELS
        .iter()
        .map(|&k| run_cell(k, false, &inputs, false).output)
        .collect();
    for (&k, want) in KERNELS.iter().zip(&refs) {
        let got = run_cell(k, true, &inputs, false).output;
        rep.check(&got == want, || {
            format!("{} threads warm-up differs from seq", k.name())
        });
    }
    if let Output::Sorted { data, .. } = &refs[Kernel::Extsort as usize] {
        rep.check(data.windows(2).all(|w| w[0] <= w[1]), || {
            "extsort output unsorted".into()
        });
    }
    Setup {
        inputs,
        refs,
        pool_create_ms,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// `[seq, threads]` series per kernel, none run yet.
fn no_series() -> Vec<[Series; 2]> {
    KERNELS.iter().map(|_| Default::default()).collect()
}

/// Rounds of all eight cells while `budget` allows, appended to
/// `series`, with each round's host steal (see [`host::stolen`])
/// appended to `steal`. Which backend of a kernel goes first alternates
/// with the parity of `series`' length, so it keeps alternating across
/// calls.
fn rounds(
    s: &Setup,
    budget: &mut Budget,
    traced: bool,
    series: &mut [[Series; 2]],
    steal: &mut Vec<f64>,
    rep: &mut Report,
) {
    while budget.another() {
        let round = series[0][0].wall_ms.len();
        let (t0, steal0) = (Instant::now(), host::steal_ticks());
        for (i, &k) in KERNELS.iter().enumerate() {
            let order = if round.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for threads in order {
                let cell = run_cell(k, threads, &s.inputs, traced);
                let ok = cell.output == s.refs[i];
                rep.ops(1, u64::from(!ok));
                if !ok {
                    eprintln!("perfbench compute: {} threads={threads} differs", k.name());
                }
                series[i][usize::from(threads)].push(&cell);
            }
        }
        budget.spend(t0.elapsed().as_secs_f64());
        steal.push(host::steal_pct(steal0, host::steal_ticks()));
    }
}

fn cell_metric(k: Kernel, threads: bool) -> String {
    format!(
        "{}_{}_ms",
        k.name(),
        if threads { "threads" } else { "seq" }
    )
}

/// The compute phase of an untraced run: set up [`SETUP_REPEATS`]
/// times, then rounds of cells in every slice it is given.
pub struct Phase {
    setup: Setup,
    setups: Vec<f64>,
    budget: Budget,
    series: Vec<[Series; 2]>,
    /// Host steal during each round, percent.
    steal: Vec<f64>,
    /// Highest peak resident memory of a slice, MiB.
    peak_mib: f64,
}

impl Phase {
    /// Set the phase up.
    pub fn new(opts: &Opts, rep: &mut Report) -> Phase {
        let sizes = Sizes::new(opts.tiny);
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let s = setup(opts.seed, sizes, rep);
            setups.push(s.seconds);
            last = Some(s);
        }
        Phase {
            setup: last.expect("at least one setup"),
            setups,
            budget: Budget::default(),
            series: no_series(),
            steal: Vec::new(),
            peak_mib: 0.0,
        }
    }

    /// Rounds of all eight cells for about `seconds` (see [`Budget`]),
    /// with the peak-memory mark restarted before them and read after.
    pub fn slice(&mut self, seconds: f64, rep: &mut Report) {
        host::reset_peak_rss();
        self.budget.grant(seconds);
        rounds(
            &self.setup,
            &mut self.budget,
            false,
            &mut self.series,
            &mut self.steal,
            rep,
        );
        self.peak_mib = self.peak_mib.max(host::peak_rss_mib());
    }

    /// Median set-up time, s.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }

    /// Peak resident memory of the phase, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_mib
    }

    /// The phase's end-to-end metrics: the median of every cell over
    /// the rounds the host stole least from (see [`quiet`]).
    pub fn report(&self, rep: &mut Report) {
        let kept = quiet(&self.steal);
        for (i, &k) in KERNELS.iter().enumerate() {
            for threads in [false, true] {
                let ms = pick(&self.series[i][usize::from(threads)].wall_ms, &kept);
                rep.metric(cell_metric(k, threads), median(&ms), "ms");
                rep.note(
                    format!("{}.within_run_iqr", cell_metric(k, threads)),
                    relative_iqr(&ms),
                );
            }
        }
        rep.note("compute.setup_s", self.setup_s());
        rep.note("compute.peak_rss_mb", self.peak_mib);
        rep.note("compute.rounds", self.series[0][0].wall_ms.len() as f64);
        rep.note("compute.quiet_rounds", kept.len() as f64);
        rep.note("compute.steal_pct", median(&self.steal));
    }
}

/// The traced run of the phase, lasting about `seconds` after set-up:
/// untraced rounds for half the time (speedup, CPU and pool counters),
/// rounds on traced pools for the other half (tracing overhead), then
/// the pool and barrier micro-timings.
pub fn run_traced(opts: &Opts, rep: &mut Report, seconds: f64) {
    let sizes = Sizes::new(opts.tiny);
    let half = seconds / 2.0;
    let mut input_ms: Vec<[f64; 4]> = Vec::new();
    let mut creates = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let s = setup(opts.seed, sizes, rep);
        input_ms.push(s.inputs.input_ms);
        creates.push(s.pool_create_ms);
        last = Some(s);
    }
    let s = last.expect("at least one setup");
    let (mut plain, mut traced) = (no_series(), no_series());
    let mut steal = Vec::new();
    rounds(
        &s,
        &mut Budget::new(half),
        false,
        &mut plain,
        &mut steal,
        rep,
    );
    rounds(
        &s,
        &mut Budget::new(half),
        true,
        &mut traced,
        &mut steal,
        rep,
    );

    let sum_medians = |s: &[[Series; 2]]| -> f64 {
        s.iter()
            .flat_map(|pair| pair.iter().map(|x| median(&x.wall_ms)))
            .sum()
    };
    rep.metric(
        "compute.trace_overhead_pct",
        pct_over(sum_medians(&plain), sum_medians(&traced)),
        "%",
    );

    rep.metric("pool.task_ns", pool_task_ns(sizes), "ns");
    let map_item_ns = pool_map_item_ns(sizes, rep);
    rep.metric("pool.map_item_ns", map_item_ns, "ns");
    rep.metric("pool.join_ns", join_ns(sizes), "ns");
    rep.metric("pool.idle_cpu_cores", idle_cpu_cores(), "cores");
    rep.metric("pool.create_ms", median(&creates), "ms");
    rep.metric("sync.barrier_ns", barrier_ns(sizes), "ns");

    for (i, &k) in KERNELS.iter().enumerate() {
        let [seq, thr] = &plain[i];
        let name = k.name();
        if k.uses_pool() {
            let tasks: f64 = thr.tasks.iter().sum();
            rep.metric(format!("{name}.tasks_per_run"), median(&thr.tasks), "count");
            rep.metric(
                format!("{name}.steals_per_task"),
                thr.steals as f64 / tasks.max(1.0),
                "ratio",
            );
            rep.metric(
                format!("{name}.cpu_efficiency"),
                median(&seq.cpu_ms) / median(&thr.cpu_ms),
                "ratio",
            );
        }
        rep.metric(format!("{name}.threads_cpu_ms"), median(&thr.cpu_ms), "ms");
        rep.metric(
            format!("{name}.speedup"),
            median(&seq.wall_ms) / median(&thr.wall_ms),
            "x",
        );
        let input: Vec<f64> = input_ms.iter().map(|ms| ms[i]).collect();
        rep.metric(format!("{name}.input_ms"), median(&input), "ms");
    }
    if let Output::Sorted { ios, .. } = &s.refs[Kernel::Extsort as usize] {
        rep.metric("extsort.ios", *ios as f64, "count");
    }
}

/// No-op tasks through `spawn` and `wait_idle`, ns per task.
fn pool_task_ns(sizes: Sizes) -> f64 {
    let pool = WorkStealingPool::new(WORKERS);
    median_of_batches(|| {
        let t0 = Instant::now();
        for _ in 0..sizes.micro_ops {
            pool.spawn(|| {});
        }
        pool.wait_idle();
        t0.elapsed().as_secs_f64() * 1e9 / sizes.micro_ops as f64
    })
}

/// An identity `pool_map`, ns per item.
fn pool_map_item_ns(sizes: Sizes, rep: &mut Report) -> f64 {
    let pool = WorkStealingPool::new(WORKERS);
    let n = sizes.micro_ops;
    median_of_batches(|| {
        let items: Vec<usize> = (0..n).collect();
        let t0 = Instant::now();
        let out = pool_map(&pool, items, |x| x);
        let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
        rep.check(out.iter().copied().eq(0..n), || {
            "pool_map reordered items".into()
        });
        ns
    })
}

/// `pdc_threads::join` of two no-ops, ns per join. Each join starts a
/// scoped thread, so a batch holds fewer calls than the others.
fn join_ns(sizes: Sizes) -> f64 {
    let joins = (sizes.micro_ops / 20).max(10);
    median_of_batches(|| {
        let t0 = Instant::now();
        for i in 0..joins {
            black_box(pdc_threads::join(|| black_box(i), || black_box(i + 1)));
        }
        t0.elapsed().as_secs_f64() * 1e9 / joins as f64
    })
}

/// CPU an idle pool of `WORKERS` burns per wall second, in cores.
fn idle_cpu_cores() -> f64 {
    let pool = WorkStealingPool::new(WORKERS);
    pool.wait_idle();
    let (cpu0, t0) = (process_cpu_ns(), Instant::now());
    std::thread::sleep(std::time::Duration::from_millis(200));
    (process_cpu_ns() - cpu0) as f64 / (t0.elapsed().as_secs_f64() * 1e9)
}

/// One `SenseBarrier::wait` episode between two threads, ns.
fn barrier_ns(sizes: Sizes) -> f64 {
    let episodes = sizes.micro_ops;
    median_of_batches(|| {
        let barrier = SenseBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..episodes {
                    barrier.wait();
                }
            });
            let t0 = Instant::now();
            for _ in 0..episodes {
                barrier.wait();
            }
            t0.elapsed().as_secs_f64() * 1e9 / episodes as f64
        })
    })
}
