//! The workloads and the metrics every run prints, with their units. A
//! run that prints another set is a bug in the benchmark (see `run`),
//! and the smoke test holds these lists to `BENCHMARK.json`.
//!
//! Every workload runs all three phases (serve, compute, check), so
//! every workload prints every metric; the workloads differ in the
//! serve phase's op mix.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["mixed", "read-heavy"];

/// Scenario kernels whose threads backend runs on the pool.
pub const POOL_KERNELS: [&str; 3] = ["ray", "pagerank", "extsort"];

fn owned(names: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// End-to-end metrics (printed with `--trace 0`).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    owned(&[
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("serve_ops_s", "1/s"),
        ("serve_read_p50_us", "us"),
        ("serve_write_p50_us", "us"),
        ("ray_seq_ms", "ms"),
        ("ray_threads_ms", "ms"),
        ("pagerank_seq_ms", "ms"),
        ("pagerank_threads_ms", "ms"),
        ("extsort_seq_ms", "ms"),
        ("extsort_threads_ms", "ms"),
        ("life_seq_ms", "ms"),
        ("life_threads_ms", "ms"),
        ("check_prove_s", "s"),
    ])
}

/// Per-layer metrics (printed with `--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m = owned(&[
        ("host.calib_ms", "ms"),
        ("host.calib_end_ms", "ms"),
        ("host.tcp_rtt_us", "us"),
        ("serve.route_ns", "ns"),
        ("serve.codec_ns", "ns"),
        ("serve.apply_ns", "ns"),
        ("serve.read_unexplained_us", "us"),
        ("serve.write_unexplained_us", "us"),
        ("serve.frontend_cpu_us_per_op", "us"),
        ("serve.shard_cpu_us_per_op", "us"),
        ("serve.write_syscalls_per_op", "count"),
        ("serve.read_p99_us", "us"),
        ("serve.write_p99_us", "us"),
        ("serve.frames_per_read", "count"),
        ("serve.frames_per_write", "count"),
        ("serve.hub_forwarded", "count"),
        ("serve.retries", "count"),
        ("serve.trace_overhead_pct", "%"),
        ("compute.trace_overhead_pct", "%"),
        ("pool.task_ns", "ns"),
        ("pool.map_item_ns", "ns"),
        ("pool.join_ns", "ns"),
        ("pool.idle_cpu_cores", "cores"),
        ("pool.create_ms", "ms"),
        ("sync.barrier_ns", "ns"),
    ]);
    for k in POOL_KERNELS {
        for (suffix, unit) in [
            ("tasks_per_run", "count"),
            ("steals_per_task", "ratio"),
            ("cpu_efficiency", "ratio"),
            ("threads_cpu_ms", "ms"),
            ("speedup", "x"),
            ("input_ms", "ms"),
        ] {
            m.push((format!("{k}.{suffix}"), unit));
        }
    }
    m.extend(owned(&[
        ("life.threads_cpu_ms", "ms"),
        ("life.speedup", "x"),
        ("life.input_ms", "ms"),
        ("extsort.ios", "count"),
    ]));
    for body in ["fixed_counter", "channel_handoff"] {
        for (suffix, unit) in [
            ("schedules", "count"),
            ("pruned", "count"),
            ("schedule_us", "us"),
        ] {
            m.push((format!("check.{body}.{suffix}"), unit));
        }
    }
    m
}
