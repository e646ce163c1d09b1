//! Phase `serve`: the replicated sharded KV (`pdc_db::serve`, two
//! shard processes, 2-way chain replication) driven closed-loop over
//! two client connections. The op mix is the workload's: 50% GET /
//! 40% PUT / 10% DEL for `mixed`, 90% / 8% / 2% for `read-heavy`.
//!
//! Every reply is checked against a local model of the client's own
//! keys, and every serving tier torn down is checked for zero lost
//! acknowledged writes.

use crate::host::{self, process_cpu_ns, reaped_children_cpu_ns, thread_cpu_ns, write_syscalls};
use crate::report::Report;
use crate::stats::{
    median, median_of_batches, pct_over, quiet, relative_iqr, tail, unexplained_us,
};
use crate::Opts;
use pdc_core::merge::MergedTrace;
use pdc_core::rng::Rng;
use pdc_core::trace::{EventKind, TraceSession};
use pdc_db::serve::{self, ApplyCmd, Reply, ServeMsg, ServeOptions, ServeOutcome};
use pdc_db::sharded::{apply_op, apply_script, shard_ring, Applied, KvState, ShardOp};
use pdc_mpi::kv_tcp::TcpKvClient;
use pdc_mpi::{WireMessage, WireOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// World id the shard children of this benchmark dispatch on.
pub const WORLD_ID: &str = "perfbench-serve";

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
/// One-way loopback hops of a GET: client → front end → primary →
/// front end → client.
const READ_HOPS: u32 = 4;
/// One-way hops of a PUT/DEL: the chain adds primary → backup.
const WRITE_HOPS: u32 = 5;

/// Sizes of the serve phase.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Keys each client owns (and writes once while warming up).
    pub keys_per_client: usize,
    /// Ops in each frame-counting probe of the traced run.
    pub probe_ops: usize,
    /// Calls per batch in the layer micro-timings.
    pub micro_calls: usize,
}

impl Sizes {
    /// The benchmark's sizes, or small ones for a smoke run.
    pub fn new(tiny: bool) -> Sizes {
        if tiny {
            Sizes {
                keys_per_client: 64,
                probe_ops: 50,
                micro_calls: 500,
            }
        } else {
            Sizes {
                keys_per_client: 2048,
                probe_ops: 1000,
                micro_calls: 20_000,
            }
        }
    }
}

/// What one client connection did.
#[derive(Default)]
struct ClientRun {
    /// Ops sent, warm-up included.
    ops: u64,
    /// Replies that differed from the model's.
    wrong: u64,
    /// Timed GET latencies, µs.
    reads_us: Vec<f64>,
    /// Timed PUT/DEL latencies, µs.
    writes_us: Vec<f64>,
    /// This thread's CPU during the timed loop, ns.
    cpu_ns: u64,
    /// When the timed loop ended.
    end: Option<Instant>,
    /// The client's model of its own keys.
    model: BTreeMap<String, (String, u64)>,
}

impl ClientRun {
    /// Send `op`, check the reply against the model, return the call's
    /// latency in µs.
    fn exec(&mut self, conn: &mut TcpKvClient, op: &ShardOp) -> f64 {
        let line = op_line(op);
        let t0 = Instant::now();
        let reply = conn.call(&line).expect("closed-loop call");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let want = expected_reply(&mut self.model, op);
        self.ops += 1;
        if reply != want {
            if self.wrong == 0 {
                eprintln!("perfbench serve: {line:?} -> {reply:?}, expected {want:?}");
            }
            self.wrong += 1;
        }
        us
    }
}

/// The request line for `op` in the kv_tcp protocol.
fn op_line(op: &ShardOp) -> String {
    match op {
        ShardOp::Get { key } => format!("GET {key}"),
        ShardOp::Put { key, val } => format!("PUT {key} {val}"),
        ShardOp::Del { key } => format!("DEL {key}"),
    }
}

/// Apply `op` to the model and render the reply the tier must send.
fn expected_reply(model: &mut BTreeMap<String, (String, u64)>, op: &ShardOp) -> String {
    let reply = match apply_op(model, op) {
        Applied::Put(ver) => Reply::PutOk(ver),
        Applied::Got(binding) => Reply::Got(binding),
        Applied::Del(true) => Reply::DelOk,
        Applied::Del(false) => Reply::DelMiss,
    };
    reply.render()
}

fn key(client: usize, k: u64) -> String {
    format!("c{client}k{k}")
}

/// Shares of GET and PUT in the timed loop, in percent; the rest are
/// DELs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent GETs.
    pub get: u64,
    /// Percent PUTs.
    pub put: u64,
}

impl Mix {
    /// The mix of a workload: reads and writes about evenly for
    /// `mixed`, mostly one-hop reads for `read-heavy`.
    pub fn of(workload: &str) -> Mix {
        match workload {
            "read-heavy" => Mix { get: 90, put: 8 },
            _ => Mix { get: 50, put: 40 },
        }
    }
}

/// The next timed op over the client's keys, drawn from `mix`.
fn next_op(rng: &mut Rng, mix: Mix, client: usize, keys: u64, n: u64) -> ShardOp {
    let key = key(client, rng.gen_range(keys));
    let r = rng.gen_range(100);
    if r < mix.get {
        ShardOp::Get { key }
    } else if r < mix.get + mix.put {
        ShardOp::Put {
            key,
            val: format!("v{n}x{}", rng.gen_range(1 << 20)),
        }
    } else {
        ShardOp::Del { key }
    }
}

/// One client: write every owned key once, meet the other clients at
/// `gate`, run the closed loop until `stop` (if `timed`), then QUIT.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    id: usize,
    seed: u64,
    mix: Mix,
    keys: usize,
    gate: &Barrier,
    stop: &AtomicBool,
    timed: bool,
) -> ClientRun {
    let mut conn = TcpKvClient::connect(addr).expect("client connect");
    let mut rng = Rng::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut run = ClientRun::default();
    for k in 0..keys as u64 {
        let op = ShardOp::Put {
            key: key(id, k),
            val: format!("w{k}"),
        };
        run.exec(&mut conn, &op);
    }
    gate.wait();
    if timed {
        let cpu0 = thread_cpu_ns();
        let mut n = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let op = next_op(&mut rng, mix, id, keys as u64, n);
            let us = run.exec(&mut conn, &op);
            match op {
                ShardOp::Get { .. } => run.reads_us.push(us),
                _ => run.writes_us.push(us),
            }
            n += 1;
        }
        run.end = Some(Instant::now());
        run.cpu_ns = thread_cpu_ns() - cpu0;
    }
    if conn.call("QUIT").expect("quit") != "BYE" {
        run.wrong += 1;
    }
    run
}

/// One serving tier from start to teardown.
struct Instance {
    setup_s: f64,
    timed_s: f64,
    clients: Vec<ClientRun>,
    outcome: ServeOutcome,
    /// Process CPU in the timed loop, ns.
    proc_cpu_ns: u64,
    /// `write`/`writev` syscalls in the timed loop.
    write_syscalls: u64,
    /// Peak resident memory when the warm-up ended, MiB: the tier
    /// holds every key by then, and the acked-op log has not yet grown
    /// with the length of the timed loop.
    warm_rss_mib: f64,
    /// CPU of the shard processes over the tier's life, ns.
    shard_cpu_ns: u64,
}

impl Instance {
    fn timed_ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| (c.reads_us.len() + c.writes_us.len()) as u64)
            .sum()
    }

    fn latencies(&self) -> (Vec<f64>, Vec<f64>) {
        let mut reads: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.reads_us.clone())
            .collect();
        let mut writes: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.writes_us.clone())
            .collect();
        reads.sort_by(f64::total_cmp);
        writes.sort_by(f64::total_cmp);
        (reads, writes)
    }

    fn ops_per_s(&self) -> f64 {
        self.timed_ops() as f64 / self.timed_s
    }

    /// Check every reply, then the tier's end state: all ops acked,
    /// the state a replay of the acked ops, equal to the clients'
    /// models, and no connection error, death or retry.
    fn validate(&self, rep: &mut Report) {
        let issued: u64 = self.clients.iter().map(|c| c.ops).sum();
        let wrong: u64 = self.clients.iter().map(|c| c.wrong).sum();
        rep.ops(issued, wrong);
        let o = &self.outcome;
        rep.check(o.acked.len() as u64 == issued, || {
            format!("acked {} of {issued} issued ops", o.acked.len())
        });
        rep.check(
            o.state == apply_script(o.acked.iter().map(|(_, op)| op)),
            || "served state differs from a replay of the acked ops".into(),
        );
        let mut models: KvState = self
            .clients
            .iter()
            .flat_map(|c| c.model.iter().map(|(k, v)| (k.clone(), v.clone())))
            .collect();
        models.sort();
        rep.check(o.state == models, || {
            "served state differs from the clients' models".into()
        });
        rep.check(o.conn_errors == 0, || {
            format!("{} connection errors", o.conn_errors)
        });
        rep.check(
            o.dead.is_empty() && o.retries == 0 && o.promotions == 0,
            || format!("shard deaths {:?}, {} retries", o.dead, o.retries),
        );
    }
}

fn wire(trace_dir: Option<&std::path::Path>) -> WireOptions {
    let w = WireOptions::for_args(SHARDS, WORLD_ID, &[]);
    match trace_dir {
        Some(d) => w.traced(d),
        None => w,
    }
}

/// Start a tier, warm it up through `CLIENTS` connections, run the
/// closed loop for `timed` (if any), and tear it down.
fn run_instance(
    seed: u64,
    mix: Mix,
    sizes: Sizes,
    timed: Option<Duration>,
    trace_dir: Option<&std::path::Path>,
) -> Instance {
    // The front end records events only when the wire options are
    // traced; otherwise the smallest session is enough for counters.
    let session = TraceSession::with_capacity(if trace_dir.is_some() { 1 << 18 } else { 1 });
    let children0 = reaped_children_cpu_ns();
    let t0 = Instant::now();
    let handle = serve::start(ServeOptions::new(SHARDS, wire(trace_dir)), &session)
        .expect("start serving tier");
    let addr = handle.addr();
    let gate = Arc::new(Barrier::new(CLIENTS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let (gate, stop) = (Arc::clone(&gate), Arc::clone(&stop));
            let keys = sizes.keys_per_client;
            std::thread::spawn(move || {
                client(addr, id, seed, mix, keys, &gate, &stop, timed.is_some())
            })
        })
        .collect();
    gate.wait();
    let setup_s = t0.elapsed().as_secs_f64();
    let warm_rss_mib = host::peak_rss_mib();
    let (cpu0, io0, start) = (process_cpu_ns(), write_syscalls(), Instant::now());
    if let Some(d) = timed {
        std::thread::sleep(d);
    }
    stop.store(true, Ordering::Relaxed);
    let clients: Vec<ClientRun> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let (proc_cpu_ns, write_syscalls) = (process_cpu_ns() - cpu0, write_syscalls() - io0);
    let end = clients.iter().filter_map(|c| c.end).max().unwrap_or(start);
    let outcome = handle.finish();
    Instance {
        setup_s,
        timed_s: (end - start).as_secs_f64(),
        clients,
        outcome,
        proc_cpu_ns,
        write_syscalls,
        warm_rss_mib,
        shard_cpu_ns: reaped_children_cpu_ns() - children0,
    }
}

/// What one slice of the serve phase measured.
struct Slice {
    /// Host steal over the tier's life, percent.
    steal_pct: f64,
    reads_us: Vec<f64>,
    writes_us: Vec<f64>,
    ops_s: f64,
}

/// The serve phase of an untraced run. Each slice starts a fresh tier,
/// warms it up and runs the closed loop for its share of the time.
pub struct Phase {
    seed: u64,
    mix: Mix,
    sizes: Sizes,
    setups: Vec<f64>,
    slices: Vec<Slice>,
    /// Highest peak resident memory at the end of a warm-up, MiB.
    warm_rss_mib: f64,
}

impl Phase {
    /// A phase that has run no slice yet.
    pub fn new(opts: &Opts) -> Phase {
        Phase {
            seed: opts.seed,
            mix: Mix::of(&opts.workload),
            sizes: Sizes::new(opts.tiny),
            setups: Vec::new(),
            slices: Vec::new(),
            warm_rss_mib: 0.0,
        }
    }

    /// Start a tier, serve the closed loop for `seconds`, tear it down
    /// and check it. The peak-memory mark restarts at the tier's start
    /// and is read when the warm-up ends (see [`Instance`]).
    pub fn slice(&mut self, seconds: f64, rep: &mut Report) {
        let seed = self.seed ^ ((self.setups.len() as u64) << 32);
        host::reset_peak_rss();
        let timed = Duration::from_secs_f64(seconds);
        let (inst, steal_pct) =
            host::stolen(|| run_instance(seed, self.mix, self.sizes, Some(timed), None));
        inst.validate(rep);
        self.setups.push(inst.setup_s);
        self.warm_rss_mib = self.warm_rss_mib.max(inst.warm_rss_mib);
        self.slices.push(Slice {
            steal_pct,
            reads_us: inst
                .clients
                .iter()
                .flat_map(|c| c.reads_us.clone())
                .collect(),
            writes_us: inst
                .clients
                .iter()
                .flat_map(|c| c.writes_us.clone())
                .collect(),
            ops_s: inst.ops_per_s(),
        });
    }

    /// Median time from a tier's start to its first timed op, s.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }

    /// Peak resident memory of the phase, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.warm_rss_mib
    }

    /// The phase's end-to-end metrics, from the slices the host stole
    /// least from (see [`quiet`]). Throughput is the median of those
    /// slices', so a stall in one slice does not move it.
    pub fn report(&self, rep: &mut Report) {
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal_pct).collect();
        let kept: Vec<&Slice> = quiet(&steal).into_iter().map(|i| &self.slices[i]).collect();
        let ops_s: Vec<f64> = kept.iter().map(|s| s.ops_s).collect();
        let reads: Vec<f64> = kept.iter().flat_map(|s| s.reads_us.clone()).collect();
        let writes: Vec<f64> = kept.iter().flat_map(|s| s.writes_us.clone()).collect();
        rep.metric("serve_ops_s", median(&ops_s), "1/s");
        rep.metric("serve_read_p50_us", median(&reads), "us");
        rep.metric("serve_write_p50_us", median(&writes), "us");
        rep.note("serve.setup_s", self.setup_s());
        rep.note("serve.peak_rss_mb", self.warm_rss_mib);
        rep.note("serve.quiet_slices", kept.len() as f64);
        rep.note("serve.steal_pct", median(&steal));
        rep.note("serve.ops_s.within_run_iqr", relative_iqr(&ops_s));
        rep.note("serve.reads", reads.len() as f64);
        rep.note("serve.writes", writes.len() as f64);
    }
}

/// The traced run of the phase, lasting about `seconds`: an untraced
/// tier for half the time (latency, CPU and syscalls measured from
/// outside), a traced tier for the other half (counters and tracing
/// overhead), two frame-counting probes and the layer micro-timings.
pub fn run_traced(opts: &Opts, rep: &mut Report, rtt_us: f64, seconds: f64) {
    let sizes = Sizes::new(opts.tiny);
    let mix = Mix::of(&opts.workload);
    let half = Duration::from_secs_f64(seconds / 2.0);

    let plain = run_instance(opts.seed, mix, sizes, Some(half), None);
    plain.validate(rep);
    let ops = plain.timed_ops().max(1) as f64;
    let (reads, writes) = plain.latencies();
    let client_cpu: u64 = plain.clients.iter().map(|c| c.cpu_ns).sum();
    let fe_cpu = plain.proc_cpu_ns.saturating_sub(client_cpu) as f64;
    let tier_ops = plain.outcome.acked.len().max(1) as f64;

    let dir = opts.scratch_dir("serve-trace");
    let traced = run_instance(opts.seed, mix, sizes, Some(half), Some(&dir));
    traced.validate(rep);
    let read_frames = probe(
        rep,
        sizes.probe_ops,
        false,
        &opts.scratch_dir("serve-probe-get"),
    );
    let write_frames = probe(
        rep,
        sizes.probe_ops,
        true,
        &opts.scratch_dir("serve-probe-put"),
    );

    let route_ns = route_ns(sizes);
    let codec_ns = codec_ns(rep, sizes);
    let apply_ns = apply_ns(opts.seed, mix, sizes);
    let read_p50 = median(&reads);
    let write_p50 = median(&writes);
    let read_layers = route_ns + 2.0 * codec_ns + apply_ns;
    let write_layers = route_ns + 3.0 * codec_ns + apply_ns;

    rep.metric("serve.route_ns", route_ns, "ns");
    rep.metric("serve.codec_ns", codec_ns, "ns");
    rep.metric("serve.apply_ns", apply_ns, "ns");
    rep.metric(
        "serve.read_unexplained_us",
        unexplained_us(read_p50, READ_HOPS, rtt_us, read_layers),
        "us",
    );
    rep.metric(
        "serve.write_unexplained_us",
        unexplained_us(write_p50, WRITE_HOPS, rtt_us, write_layers),
        "us",
    );
    rep.metric("serve.frontend_cpu_us_per_op", fe_cpu / ops / 1e3, "us");
    rep.metric(
        "serve.shard_cpu_us_per_op",
        plain.shard_cpu_ns as f64 / tier_ops / 1e3,
        "us",
    );
    rep.metric(
        "serve.write_syscalls_per_op",
        plain.write_syscalls as f64 / ops,
        "count",
    );
    let (read_pct, read_tail) = tail(&reads, 99.0);
    let (write_pct, write_tail) = tail(&writes, 99.0);
    rep.metric("serve.read_p99_us", read_tail, "us");
    rep.metric("serve.write_p99_us", write_tail, "us");
    rep.metric("serve.frames_per_read", read_frames, "count");
    rep.metric("serve.frames_per_write", write_frames, "count");
    rep.metric(
        "serve.hub_forwarded",
        traced.outcome.hub_forwarded as f64,
        "count",
    );
    rep.metric("serve.retries", traced.outcome.retries as f64, "count");
    rep.metric(
        "serve.trace_overhead_pct",
        pct_over(traced.ops_per_s(), plain.ops_per_s()),
        "%",
    );
    rep.note("serve.read_tail_percentile", read_pct);
    rep.note("serve.write_tail_percentile", write_pct);
    rep.note("serve.read_p50_us", read_p50);
    rep.note("serve.write_p50_us", write_p50);
    rep.note("serve.untraced_ops_s", plain.ops_per_s());
    rep.note("serve.traced_ops_s", traced.ops_per_s());
    rep.note("serve.timed_ops", ops);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire frames per op: a traced tier serves `n` GETs of absent keys
/// (or `n` PUTs of fresh keys) through one connection, and the merged
/// trace's data frames are counted. Frames of one byte (ping, pong,
/// stop, exit) are control traffic; the teardown's `Entry`/`Done`
/// state reports are subtracted.
fn probe(rep: &mut Report, n: usize, writes: bool, dir: &std::path::Path) -> f64 {
    let session = TraceSession::with_capacity(1 << 16);
    let handle =
        serve::start(ServeOptions::new(SHARDS, wire(Some(dir))), &session).expect("start probe");
    let mut conn = TcpKvClient::connect(handle.addr()).expect("probe connect");
    let mut model = BTreeMap::new();
    let mut wrong = 0;
    for i in 0..n {
        let key = format!("p{i}");
        let op = if writes {
            ShardOp::Put {
                key,
                val: "x".into(),
            }
        } else {
            ShardOp::Get { key }
        };
        let want = expected_reply(&mut model, &op);
        wrong += u64::from(conn.call(&op_line(&op)).expect("probe call") != want);
    }
    rep.ops(n as u64, wrong);
    rep.check(conn.call("QUIT").expect("probe quit") == "BYE", || {
        "probe QUIT".into()
    });
    let outcome = handle.finish();
    let trace = outcome.trace.as_ref().expect("traced probe");
    rep.check(trace.dropped() == 0, || {
        format!("probe trace dropped {}", trace.dropped())
    });
    let reports = (outcome.state.len() + SHARDS) as u64;
    let _ = std::fs::remove_dir_all(dir);
    data_frames(trace).saturating_sub(reports) as f64 / n.max(1) as f64
}

fn data_frames(trace: &MergedTrace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Send && e.b > 1)
        .count() as u64
}

/// `f(i)` for `i` in `0..calls`, in ns per call (median of batches).
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    median_of_batches(|| {
        let t0 = Instant::now();
        for i in 0..calls {
            f(i);
        }
        t0.elapsed().as_secs_f64() * 1e9 / calls as f64
    })
}

fn owned_keys(sizes: Sizes) -> Vec<String> {
    (0..sizes.keys_per_client as u64)
        .map(|k| key(0, k))
        .collect()
}

/// `HashRing::nodes_for(key, 2)` on the tier's ring.
fn route_ns(sizes: Sizes) -> f64 {
    let ring = shard_ring(SHARDS);
    let keys = owned_keys(sizes);
    ns_per_call(sizes.micro_calls, |i| {
        black_box(ring.nodes_for(black_box(&keys[i % keys.len()]), 2));
    })
}

/// `ServeMsg::to_bytes` plus `decode` of one message, averaged over
/// the Op, Fwd and Ack of a PUT.
fn codec_ns(rep: &mut Report, sizes: Sizes) -> f64 {
    let (key, val) = ("c0k1234".to_string(), "v123456x654321".to_string());
    let msgs = [
        ServeMsg::Op {
            id: 123_456,
            op: ShardOp::Put {
                key: key.clone(),
                val: val.clone(),
            },
            backup: 2,
        },
        ServeMsg::Fwd {
            id: 123_456,
            cmd: ApplyCmd::Set {
                key,
                val: val.clone(),
                ver: 7,
            },
            reply: Reply::PutOk(7),
        },
        ServeMsg::Ack {
            id: 123_456,
            reply: Reply::Got(Some((val, 7))),
        },
    ];
    for m in &msgs {
        let back = ServeMsg::decode(&mut m.to_bytes().as_slice());
        rep.check(back.as_ref() == Some(m), || {
            format!("codec round trip of {m:?}")
        });
    }
    ns_per_call(sizes.micro_calls, |i| {
        let bytes = black_box(&msgs[i % msgs.len()]).to_bytes();
        black_box(ServeMsg::decode(&mut bytes.as_slice()));
    })
}

/// `sharded::apply_op` of the timed mix into a store holding every key.
fn apply_ns(seed: u64, mix: Mix, sizes: Sizes) -> f64 {
    let keys = sizes.keys_per_client as u64;
    let mut store = BTreeMap::new();
    for k in 0..keys {
        apply_op(
            &mut store,
            &ShardOp::Put {
                key: key(0, k),
                val: "w".into(),
            },
        );
    }
    let mut rng = Rng::new(seed);
    let ops: Vec<ShardOp> = (0..4096)
        .map(|n| next_op(&mut rng, mix, 0, keys, n))
        .collect();
    ns_per_call(sizes.micro_calls, |i| {
        black_box(apply_op(&mut store, black_box(&ops[i % ops.len()])));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_renders_the_kv_tcp_replies() {
        let mut m = BTreeMap::new();
        let put = ShardOp::Put {
            key: "a".into(),
            val: "x".into(),
        };
        let get = ShardOp::Get { key: "a".into() };
        let del = ShardOp::Del { key: "a".into() };
        assert_eq!(expected_reply(&mut m, &get), "NOTFOUND");
        assert_eq!(expected_reply(&mut m, &put), "OK 1");
        assert_eq!(expected_reply(&mut m, &put), "OK 2");
        assert_eq!(expected_reply(&mut m, &get), "VALUE 2 x");
        assert_eq!(expected_reply(&mut m, &del), "OK 0");
        assert_eq!(expected_reply(&mut m, &del), "NOTFOUND");
    }

    #[test]
    fn each_workload_draws_its_mix() {
        for (workload, gets, dels) in [("mixed", 5000, 1000), ("read-heavy", 9000, 200)] {
            let mix = Mix::of(workload);
            let mut rng = Rng::new(5);
            let ops: Vec<ShardOp> = (0..10_000)
                .map(|n| next_op(&mut rng, mix, 0, 64, n))
                .collect();
            let count = |f: fn(&ShardOp) -> bool| ops.iter().filter(|o| f(o)).count() as i64;
            let g = count(|o| matches!(o, ShardOp::Get { .. }));
            let d = count(|o| matches!(o, ShardOp::Del { .. }));
            assert!((g - gets).abs() < 300, "{workload}: {g} GETs");
            assert!((d - dels).abs() < 150, "{workload}: {d} DELs");
        }
    }
}
