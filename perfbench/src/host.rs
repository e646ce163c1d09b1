//! What the benchmark reads about its host and its own process: CPU
//! clocks, `/proc` counters, peak memory, and two witnesses of host
//! speed (a fixed sort and a bare loopback round trip).

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn malloc_trim(pad: usize) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const SC_CLK_TCK: c_int = 2;

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and both clock ids are defined by POSIX on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process, past and present, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU fields of one `/proc/<pid>/stat` line, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatCpu {
    /// User time of the process itself.
    pub utime: u64,
    /// System time of the process itself.
    pub stime: u64,
    /// User time of children the process has waited for.
    pub cutime: u64,
    /// System time of children the process has waited for.
    pub cstime: u64,
}

/// Parse the CPU fields of a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu(line: &str) -> Option<StatCpu> {
    let rest = &line[line.rfind(')')? + 1..];
    // Field 3 (state) is the first token after the name.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| f.get(n - 3)?.parse().ok();
    Some(StatCpu {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// CPU time of the children this process has reaped, in ns.
pub fn reaped_children_cpu_ns() -> u64 {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let cpu = parse_stat_cpu(&line).expect("parse /proc/self/stat");
    // SAFETY: sysconf takes a plain integer and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    (cpu.cutime + cpu.cstime) * 1_000_000_000 / hz
}

/// Host-wide CPU time from the `cpu` line of a `/proc/stat` text, in
/// clock ticks: `(stolen, total)`. Stolen time is time the hypervisor
/// gave this VM's CPUs to someone else.
pub fn parse_steal_ticks(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where the guest times are already counted in user and nice.
    Some((*f.get(7)?, f.iter().take(8).sum()))
}

/// Host-wide stolen and total CPU ticks so far (see
/// [`parse_steal_ticks`]).
pub fn steal_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_steal_ticks(&text).expect("cpu line in /proc/stat")
}

/// Share of the host's CPU time stolen between two [`steal_ticks`]
/// readings, in percent.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 * 100.0 / (to.1 - from.1).max(1) as f64
}

/// `f()`, and the share of the host's CPU time stolen while it ran, in
/// percent.
pub fn stolen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let from = steal_ticks();
    let out = f();
    (out, steal_pct(from, steal_ticks()))
}

/// The `syscw` count of a `/proc/<pid>/io` text: `write`/`writev`
/// syscalls. The kernel does not count `send`/`recv` there, and those
/// are what std's `TcpStream::write` and `read` use.
pub fn parse_write_syscalls(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("syscw:"))
        .and_then(|v| v.trim().parse().ok())
}

/// `write`/`writev` syscalls this process has made so far.
pub fn write_syscalls() -> u64 {
    let text = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
    parse_write_syscalls(&text).expect("parse /proc/self/io")
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Restart the peak-memory mark at the current resident size, so memory
/// the benchmark used for its own witnesses, or an earlier phase, does
/// not count as the next one's peak. Freed heap is handed back to the
/// kernel first (glibc's `malloc_trim`): what earlier phases left in
/// the allocator's free lists varied by 20 MiB from run to run, and the
/// mark would restart on top of it. Best effort: kernels without this
/// `clear_refs` mode keep the old mark.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointer and only releases heap
    // pages no allocation holds.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&text).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Wall time to sort a fixed array of 2^17 pseudo-random `u64`s with
/// the standard library, in ms: the median of fifteen sorts. It
/// witnesses how fast the host runs right now. A sort is used rather
/// than a dependent arithmetic chain because it slows with the kernels
/// when another tenant contends for the core and its caches; a chain of
/// dependent integer ops barely notices. The array is small and
/// refilled in place, so the witness hardly adds to peak memory.
pub fn calib_ms() -> f64 {
    let mut v = vec![0u64; 1 << 17];
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for slot in v.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = x;
            }
            let t0 = Instant::now();
            black_box(&mut v).sort_unstable();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

/// Median round trip of one byte over loopback TCP between two of the
/// benchmark's threads, in µs: the floor for one request/reply hop.
pub fn tcp_rtt_us(round_trips: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let warm = round_trips / 10;
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept ping");
        s.set_nodelay(true).expect("nodelay");
        let mut b = [0u8; 1];
        for _ in 0..warm + round_trips {
            s.read_exact(&mut b).expect("read ping");
            s.write_all(&b).expect("write pong");
        }
    });
    let mut c = TcpStream::connect(addr).expect("connect ping");
    c.set_nodelay(true).expect("nodelay");
    let mut b = [7u8; 1];
    let mut rtts = Vec::with_capacity(round_trips);
    for i in 0..warm + round_trips {
        let t0 = Instant::now();
        c.write_all(&b).expect("write ping");
        c.read_exact(&mut b).expect("read pong");
        if i >= warm {
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    echo.join().expect("echo thread");
    crate::stats::median(&rtts)
}

/// Facts about the host that every run record carries.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores this process may run on.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu: String,
}

impl HostFacts {
    /// Read the facts from the running host.
    pub fn read() -> HostFacts {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|v| v.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel,
            cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_count_from_the_last_paren() {
        let line = "4242 (we (ird) name) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    123 45 67 89 20 0 3 0 1000 10000000 300";
        assert_eq!(
            parse_stat_cpu(line),
            Some(StatCpu {
                utime: 123,
                stime: 45,
                cutime: 67,
                cstime: 89
            })
        );
        assert_eq!(parse_stat_cpu("12 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parens at all"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field_and_guest_time_is_not_counted_twice() {
        let text = "cpu  10 1 5 80 2 0 1 3 7 0\ncpu0 5 0 2 40 1 0 0 1 3 0\n";
        assert_eq!(parse_steal_ticks(text), Some((3, 102)));
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
        let own = std::fs::read_to_string("/proc/stat").unwrap();
        assert!(parse_steal_ticks(&own).is_some());
    }

    #[test]
    fn own_stat_line_parses() {
        let line = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu(&line).is_some());
    }

    #[test]
    fn write_syscalls_are_the_syscw_field() {
        let text = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(parse_write_syscalls(text), Some(4));
        assert_eq!(parse_write_syscalls("syscr: 9\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(5120));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 4000 kB\n"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }
}
