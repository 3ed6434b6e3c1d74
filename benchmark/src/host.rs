//! What the harness reads from the host: process and thread CPU time, peak
//! RSS, and the environment recorded beside every result. Linux `/proc`
//! only; elsewhere the readers return zeros and the metrics read as absent.

use serde::Serialize;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/*/stat`,
/// fixed at 100 on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// Fields 14 and 15 of a `stat` line, counted after the parenthesised
/// command name (which may itself contain spaces).
fn cpu_from_stat(path: &str) -> Cpu {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return Cpu::default();
    };
    let Some((_, after_comm)) = stat.rsplit_once(')') else {
        return Cpu::default();
    };
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (next(), next());
    Cpu { user_s: utime / TICKS_PER_SEC, sys_s: stime / TICKS_PER_SEC }
}

/// CPU time of the whole process, every thread summed.
pub fn process_cpu() -> Cpu {
    cpu_from_stat("/proc/self/stat")
}

/// CPU time of the calling thread, split into user and system at the
/// 10 ms ticks of `stat`: good for a whole run, too coarse for a window.
pub fn thread_cpu() -> Cpu {
    cpu_from_stat("/proc/thread-self/stat")
}

/// CPU time of the whole process in seconds, every thread summed, from the
/// scheduler's nanosecond run-time accounting (`CLOCK_PROCESS_CPUTIME_ID`).
/// The `stat` ticks are sampled at 100 Hz, which misjudges threads that
/// sleep and wake every 100 us (the paced server) by tens of percent per
/// 500-ms window; this clock does not. Zero where it is unavailable.
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    /// Linux `<time.h>`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return 0.0;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Pins the calling thread to the `slot`-th CPU the process may run on
/// and returns that CPU's number; `None`, and no change, where fewer than
/// two CPUs are allowed or the call is unavailable.
///
/// The wire workloads pin serve and loadgen to one CPU each. Left alone,
/// the kernel wakes a loopback receiver on its sender's CPU and on the
/// reference host often keeps both threads there for minutes with the
/// other CPU idle: `wire_saturate` then reads 550-680k pkts/s instead of
/// 860-940k, and which one a run gets is the scheduler's choice.
#[allow(unsafe_code)]
pub fn pin_thread(slot: usize) -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    if !cfg!(target_os = "linux") {
        return None;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpus: Vec<usize> =
        (0..1024).filter(|&cpu| allowed[cpu / 64] & (1u64 << (cpu % 64)) != 0).collect();
    if cpus.len() < 2 {
        return None;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// `InDatagrams` of the `Udp:` row of `/proc/net/snmp`: datagrams the
/// host's UDP layer has queued to a socket in this network namespace.
pub fn udp_in_datagrams() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut rows = snmp.lines().filter_map(|l| l.strip_prefix("Udp:"));
    let (header, values) = (rows.next()?, rows.next()?);
    let column = header.split_ascii_whitespace().position(|name| name == "InDatagrams")?;
    values.split_ascii_whitespace().nth(column)?.parse().ok()
}

/// The socket-buffer request `pels_wire` makes on serve and loadgen
/// sockets. The crate constant is `pub(crate)`; the traced run, which binds
/// its own server socket, mirrors it here.
pub const SOCKET_BUFFER_BYTES: usize = 4 << 20;

/// Recorded in every result, so two results can be told apart by more
/// than their numbers.
#[derive(Debug, Clone, Serialize)]
pub struct Env {
    pub nproc: usize,
    pub kernel: String,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
    /// Worker threads the simulator actually drove (0 on wire workloads).
    pub workers_used: usize,
    pub link: &'static str,
    pub so_rcvbuf_bytes: usize,
    pub seed_note: &'static str,
}

impl Env {
    /// The part of the record every workload fills the same way.
    pub fn new(seed: u64, seconds: f64, smoke: bool, traced: bool) -> Self {
        Env {
            nproc: nproc(),
            kernel: kernel(),
            commit: commit(),
            seed,
            seconds,
            smoke,
            traced,
            workers_used: 0,
            link: "",
            so_rcvbuf_bytes: 0,
            seed_note: "",
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git work tree (the
/// driver's checkout is a plain directory).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
