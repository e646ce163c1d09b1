//! A benchmark of the pdc serving tier, its compute kernels on the
//! sequential and threads backends, and the DPOR checker. It times
//! calls into the public functions of the layer crates from outside and
//! reads only counters those crates already export.
//!
//! ```text
//! perfbench --workload <mixed|read-heavy> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every run has three phases, [`serve`], [`compute`] and [`check`],
//! and the workload sets the serve phase's op mix. An untraced run
//! interleaves the phases in [`SLICES`] slices, so each phase's numbers
//! come from the whole length of the run rather than one stretch of it,
//! and keeps only the samples taken while the hypervisor stole the
//! least CPU from the host (see [`stats::quiet`]).
//!
//! The last line of standard output is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` the metrics are the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (see [`spec`]). The line before it
//! is the run record: host facts and supporting numbers.

pub mod check;
pub mod compute;
pub mod host;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Slices of an untraced run. Each slice gives every phase an equal
/// share of `--seconds`; the serve phase starts a fresh tier in each.
pub const SLICES: usize = 6;

/// Time a phase may spend on rounds of timed work, granted slice by
/// slice. A round is whole, so a phase stops when the next round would
/// end further past the grant than short of it; what one slice runs
/// over or under, the next makes up.
#[derive(Debug, Default)]
pub struct Budget {
    granted: f64,
    spent: f64,
    /// Length of the last round, s.
    last: f64,
    rounds: usize,
}

impl Budget {
    /// A budget holding `seconds`.
    pub fn new(seconds: f64) -> Budget {
        let mut b = Budget::default();
        b.grant(seconds);
        b
    }

    /// Add `seconds` to the budget.
    pub fn grant(&mut self, seconds: f64) {
        self.granted += seconds;
    }

    /// Whether to run another round: always the first one, then while
    /// a round like the last one would end nearer the grant than now.
    pub fn another(&self) -> bool {
        self.rounds == 0 || self.spent + self.last / 2.0 < self.granted
    }

    /// Count a round that took `seconds`.
    pub fn spend(&mut self, seconds: f64) {
        self.spent += seconds;
        self.last = seconds;
        self.rounds += 1;
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `mixed` or `read-heavy`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: Duration,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the smoke test.
    pub tiny: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <mixed|read-heavy> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

impl Opts {
    /// Parse the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
            (None, None, None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
            match flag.as_str() {
                "--workload" if spec::WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(bad("workload")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad("seconds"))?;
                    seconds = Some(Duration::from_secs(s.max(1)));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |f: &str| format!("missing {f}\n{USAGE}");
        Ok(Opts {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            tiny,
        })
    }

    /// A fresh directory for trace files under `target/perfbench`,
    /// relative to the working directory.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = PathBuf::from("target/perfbench").join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// The untraced run: set the compute and check phases up, then
/// [`SLICES`] slices of serve, compute and check. `setup_s` is the sum
/// of the phases' median set-up times, and `peak_rss_mb` the highest
/// peak any phase read.
fn run_untraced(opts: &Opts, rep: &mut Report) {
    let share = opts.seconds.as_secs_f64() / (3 * SLICES) as f64;
    let mut serve = serve::Phase::new(opts);
    let mut compute = compute::Phase::new(opts, rep);
    let mut check = check::Phase::new(opts, rep);
    for _ in 0..SLICES {
        serve.slice(share, rep);
        compute.slice(share, rep);
        check.slice(share, rep);
    }
    rep.metric(
        "setup_s",
        serve.setup_s() + compute.setup_s() + check.setup_s(),
        "s",
    );
    let peak = [
        serve.peak_rss_mib(),
        compute.peak_rss_mib(),
        check.peak_rss_mib(),
    ];
    rep.metric("peak_rss_mb", peak.into_iter().fold(0.0, f64::max), "MiB");
    serve.report(rep);
    compute.report(rep);
    check.report(rep);
}

/// The traced run: each phase's traced run in turn, for a third of
/// `--seconds` each.
fn run_traced(opts: &Opts, rep: &mut Report, rtt_us: f64) {
    let third = opts.seconds.as_secs_f64() / 3.0;
    serve::run_traced(opts, rep, rtt_us, third);
    compute::run_traced(opts, rep, third);
    check::run_traced(opts, rep, third);
}

/// Run one workload and return its report and the run record line.
pub fn run(opts: &Opts) -> (Report, String) {
    let facts = host::HostFacts::read();
    let steal0 = host::steal_ticks();
    let mut rep = Report::default();
    let calib_start = host::calib_ms();
    let rtt_trips = if opts.tiny { 200 } else { 2000 };
    let rtt_us = host::tcp_rtt_us(rtt_trips);
    host::reset_peak_rss();
    if opts.trace {
        run_traced(opts, &mut rep, rtt_us);
    } else {
        run_untraced(opts, &mut rep);
    }
    let calib_end = host::calib_ms();
    if opts.trace {
        rep.metric("host.calib_ms", calib_start, "ms");
        rep.metric("host.calib_end_ms", calib_end, "ms");
        rep.metric("host.tcp_rtt_us", rtt_us, "us");
    }
    rep.note("host.calib_ms", calib_start);
    rep.note("host.calib_end_ms", calib_end);
    rep.note("host.tcp_rtt_us", rtt_us);
    rep.note(
        "host.steal_pct",
        host::steal_pct(steal0, host::steal_ticks()),
    );
    let _ = std::fs::remove_dir("target/perfbench");

    let mut want = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut got: Vec<(String, &str)> = rep
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), *u))
        .collect();
    want.sort();
    got.sort();
    assert_eq!(got, want, "metrics printed differ from the spec");
    let record = rep.record_line(&opts.workload, opts.seed, opts.trace, &facts);
    (rep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = Opts::parse(&args("--workload mixed --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(o.workload, "mixed");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Duration::from_secs(30));
        assert!(o.trace);
        assert!(!o.tiny);
        let o = Opts::parse(&args(
            "--tiny --trace 0 --seconds 1 --seed 0 --workload read-heavy",
        ))
        .unwrap();
        assert!(o.tiny && !o.trace);
    }

    #[test]
    fn a_budget_keeps_the_total_near_the_grants() {
        let mut b = Budget::default();
        let mut rounds = 0;
        for _ in 0..6 {
            b.grant(2.5);
            while b.another() {
                b.spend(2.4);
                rounds += 1;
            }
        }
        assert_eq!(rounds, 6);
        let mut b = Budget::new(1.0);
        assert!(b.another());
        b.spend(3.0);
        assert!(!b.another(), "the first round may overrun, no more");
    }

    #[test]
    fn rejects_bad_or_missing_arguments() {
        for bad in [
            "--workload serve --seed 1 --seconds 1 --trace 0",
            "--workload mixed --seed -1 --seconds 1 --trace 0",
            "--workload mixed --seed 1 --seconds 1 --trace 2",
            "--workload mixed --seed 1 --seconds 1",
            "--workload mixed --seed 1 --seconds 1 --trace",
            "--workload mixed --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(Opts::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
