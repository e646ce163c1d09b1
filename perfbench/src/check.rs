//! Phase `check`: exhaustive DPOR proofs (`pdc_check::explore_dpor`)
//! of two clean bodies, one ordered by a mutex and one by a channel's
//! FIFO edges. A proof is correct when it completes with no failing
//! schedule and explores as many schedules as the run's first proof of
//! that body did.

use crate::report::Report;
use crate::stats::{median, pick, quiet, relative_iqr};
use crate::{Budget, Opts};
use pdc_check::fixtures::{channel_handoff_body, fixed_counter_body};
use pdc_check::{explore_dpor, Config, ExploreReport};
use std::time::Instant;

/// The bodies proved, with the sizes of a full and a smoke run.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// `fixed_counter_body(tasks, ops)`: tasks increment a counter
    /// under a `PdcMutex`.
    FixedCounter { tasks: u32, ops: u64 },
    /// `channel_handoff_body(messages)`: a producer hands messages to
    /// a consumer over a checked channel.
    ChannelHandoff { messages: usize },
}

impl Body {
    fn name(self) -> &'static str {
        match self {
            Body::FixedCounter { .. } => "fixed_counter",
            Body::ChannelHandoff { .. } => "channel_handoff",
        }
    }

    fn prove(self) -> ExploreReport {
        let cfg = Config {
            max_schedules: 1_000_000,
            ..Config::default()
        };
        match self {
            Body::FixedCounter { tasks, ops } => explore_dpor(fixed_counter_body(tasks, ops), &cfg),
            Body::ChannelHandoff { messages } => explore_dpor(channel_handoff_body(messages), &cfg),
        }
    }
}

fn bodies(tiny: bool) -> [Body; 2] {
    if tiny {
        [
            Body::FixedCounter { tasks: 2, ops: 1 },
            Body::ChannelHandoff { messages: 2 },
        ]
    } else {
        [
            Body::FixedCounter { tasks: 4, ops: 2 },
            Body::ChannelHandoff { messages: 6 },
        ]
    }
}

/// Smaller proofs of the same bodies, run while setting up.
fn warm_bodies(tiny: bool) -> [Body; 2] {
    if tiny {
        [
            Body::FixedCounter { tasks: 2, ops: 1 },
            Body::ChannelHandoff { messages: 1 },
        ]
    } else {
        [
            Body::FixedCounter { tasks: 3, ops: 2 },
            Body::ChannelHandoff { messages: 4 },
        ]
    }
}

/// Set-ups per run. One lasts about 0.1 s and the first few of a run
/// are still warming up, so the phase's share of `setup_s` is the
/// median of more of them than the compute phase's.
const SETUPS: usize = 9;

/// One proof's outcome.
struct Proof {
    seconds: f64,
    schedules: usize,
    pruned: usize,
}

/// Prove `body` and check the verdict: complete, passed, and as many
/// schedules as `*count`, which the first proof of the body sets.
fn prove(body: Body, count: &mut Option<usize>, rep: &mut Report) -> Proof {
    let t0 = Instant::now();
    let r = body.prove();
    let seconds = t0.elapsed().as_secs_f64();
    let expect = *count.get_or_insert(r.schedules_run);
    let ok = r.complete && r.passed() && r.schedules_run == expect;
    rep.check(ok, || {
        format!(
            "{}: complete={} passed={} schedules={} (expected {expect})",
            body.name(),
            r.complete,
            r.passed(),
            r.schedules_run
        )
    });
    Proof {
        seconds,
        schedules: r.schedules_run,
        pruned: r.pruned,
    }
}

/// Set-up: prove the smaller bodies; returns the time of each set-up.
fn setup(tiny: bool, rep: &mut Report) -> Vec<f64> {
    let mut counts = [None; 2];
    (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            for (b, count) in warm_bodies(tiny).into_iter().zip(&mut counts) {
                prove(b, count, rep);
            }
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Prove both bodies repeatedly while `budget` allows, appending each
/// proof to its body's list in `out` and each round's host steal (see
/// [`crate::host::stolen`]) to `steal`.
fn rounds(
    tiny: bool,
    counts: &mut [Option<usize>; 2],
    budget: &mut Budget,
    out: &mut [Vec<Proof>; 2],
    steal: &mut Vec<f64>,
    rep: &mut Report,
) {
    while budget.another() {
        let t0 = Instant::now();
        let ((), pct) = crate::host::stolen(|| {
            for (i, b) in bodies(tiny).into_iter().enumerate() {
                out[i].push(prove(b, &mut counts[i], rep));
            }
        });
        budget.spend(t0.elapsed().as_secs_f64());
        steal.push(pct);
    }
}

/// Wall time of both proofs, per round.
fn both_s(proofs: &[Vec<Proof>; 2]) -> Vec<f64> {
    proofs[0]
        .iter()
        .zip(&proofs[1])
        .map(|(a, b)| a.seconds + b.seconds)
        .collect()
}

/// The check phase of an untraced run: set up [`SETUPS`] times, then
/// proofs of both bodies in every slice it is given.
pub struct Phase {
    tiny: bool,
    setups: Vec<f64>,
    counts: [Option<usize>; 2],
    budget: Budget,
    proofs: [Vec<Proof>; 2],
    /// Host steal during each round, percent.
    steal: Vec<f64>,
    /// Highest peak resident memory of a slice, MiB.
    peak_mib: f64,
}

impl Phase {
    /// Set the phase up.
    pub fn new(opts: &Opts, rep: &mut Report) -> Phase {
        Phase {
            tiny: opts.tiny,
            setups: setup(opts.tiny, rep),
            counts: [None; 2],
            budget: Budget::default(),
            proofs: Default::default(),
            steal: Vec::new(),
            peak_mib: 0.0,
        }
    }

    /// Proofs for about `seconds` (see [`Budget`]), with the peak-memory
    /// mark restarted before them and read after.
    pub fn slice(&mut self, seconds: f64, rep: &mut Report) {
        crate::host::reset_peak_rss();
        self.budget.grant(seconds);
        rounds(
            self.tiny,
            &mut self.counts,
            &mut self.budget,
            &mut self.proofs,
            &mut self.steal,
            rep,
        );
        self.peak_mib = self.peak_mib.max(crate::host::peak_rss_mib());
    }

    /// Median set-up time, s.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }

    /// Peak resident memory of the phase, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_mib
    }

    /// The phase's end-to-end metric: the median time of both proofs
    /// over the rounds the host stole least from (see [`quiet`]).
    pub fn report(&self, rep: &mut Report) {
        let kept = quiet(&self.steal);
        let both = pick(&both_s(&self.proofs), &kept);
        rep.metric("check_prove_s", median(&both), "s");
        rep.note("check.setup_s", self.setup_s());
        rep.note("check.peak_rss_mb", self.peak_mib);
        rep.note("check.rounds", self.proofs[0].len() as f64);
        rep.note("check.quiet_rounds", kept.len() as f64);
        rep.note("check.steal_pct", median(&self.steal));
        rep.note("check_prove_s.within_run_iqr", relative_iqr(&both));
    }
}

/// The traced run of the phase, lasting about `seconds` after set-up.
/// The checker records a trace of every schedule whatever the mode, so
/// there is no tracing to switch on: the rounds are the untraced
/// run's, measured per body.
pub fn run_traced(opts: &Opts, rep: &mut Report, seconds: f64) {
    setup(opts.tiny, rep);
    let mut per_body = Default::default();
    rounds(
        opts.tiny,
        &mut [None; 2],
        &mut Budget::new(seconds),
        &mut per_body,
        &mut Vec::new(),
        rep,
    );
    for (b, proofs) in bodies(opts.tiny).iter().zip(&per_body) {
        let name = b.name();
        let per_schedule: Vec<f64> = proofs
            .iter()
            .map(|p| p.seconds * 1e6 / p.schedules.max(1) as f64)
            .collect();
        rep.metric(
            format!("check.{name}.schedules"),
            proofs[0].schedules as f64,
            "count",
        );
        rep.metric(
            format!("check.{name}.pruned"),
            proofs[0].pruned as f64,
            "count",
        );
        rep.metric(
            format!("check.{name}.schedule_us"),
            median(&per_schedule),
            "us",
        );
    }
}
