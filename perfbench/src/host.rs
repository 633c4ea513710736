//! Host facts, process CPU and memory readings, and checkout paths.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::stats;

/// Logical CPUs available to this process, as read on the first call
/// (before a pinned run narrows the process to one core).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `struct rusage` of Linux: two `timeval`s (user, system) followed by
/// fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    _counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of the whole process so far (all
/// threads, including ones that have exited), at microsecond resolution,
/// less the speed probe's own CPU time.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        _counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` (18 machine words on 64-bit Linux), which is all
    // getrusage(2) writes through the pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime) - PROBE.cpu_ns.load(Ordering::SeqCst) as f64 * 1e-9
}

/// Peak resident set size (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on, and returns that CPU. A workload whose timed work
/// runs on one thread is pinned so the speed probe samples the core the
/// work runs on: on the shared host two cores can run at different speeds
/// for minutes, and a probe on the other core reads the wrong one.
pub fn pin_to_current_cpu() -> usize {
    // SAFETY: sched_getcpu(3) takes no arguments and only reads.
    let cpu = unsafe { sched_getcpu() };
    assert!(cpu >= 0, "sched_getcpu failed");
    let cpu = cpu as usize;
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live CPU set of size_of_val(&mask) bytes, all
    // sched_setaffinity(2) reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
    cpu
}

/// Root of the checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the checkout root")
        .to_path_buf()
}

/// The benchmark package directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory for artifacts a run writes (ignored by git).
pub fn work_dir() -> PathBuf {
    let dir = repo_root().join(".perfbench_work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// A per-process scratch file path in [`work_dir`].
pub fn work_file(name: &str) -> PathBuf {
    work_dir().join(format!("{}-{name}", std::process::id()))
}

/// The facts every result is reported with.
pub struct HostFacts {
    /// Logical CPUs.
    pub nproc: usize,
    /// Sweep worker threads the workload used.
    pub sweep_threads: usize,
    /// GA fitness threads the figure driver configures.
    pub ga_threads: usize,
    /// Load-generator threads (planner) or farm worker threads.
    pub generator_threads: usize,
    /// Whether traffic crossed a loopback socket.
    pub loopback: bool,
}

impl HostFacts {
    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} sweep_threads={} ga_threads={} generator_threads={} \
             wide-words={} loopback={} commit={} rustc=\"{}\"",
            self.nproc,
            self.sweep_threads,
            self.ga_threads,
            self.generator_threads,
            if cfg!(feature = "wide-words") {
                "on"
            } else {
                "off"
            },
            if self.loopback { "yes" } else { "no" },
            env!("PERFBENCH_COMMIT"),
            env!("PERFBENCH_RUSTC"),
        )
    }
}

/// SplitMix64: the benchmark's own input generator, so the inputs a
/// seed produces never depend on a program crate's RNG stream.
pub struct InputRng(u64);

impl InputRng {
    /// A generator for workload seed `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        InputRng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// Pause between two speed samples.
const PROBE_PERIOD: std::time::Duration = std::time::Duration::from_millis(50);

/// Words in the probe's random-read table (4 MB, larger than the caches).
const PROBE_TABLE: usize = 1 << 19;

/// The reference host speed, in probe rounds (one sample of each of the
/// [`PROBE_KERNELS`] kernels) per CPU second: the speed the scaled times
/// are expressed at, about that of the two-core host the benchmark was
/// written on.
pub const REFERENCE_SPEED: f64 = 350.0;

/// Kernels of one probe round, each about half a millisecond of work on
/// the reference host. No single kind of work followed the workloads'
/// slowdowns on the shared host best: in interleaved trials of several
/// minutes, an integer chain, bitwise row operations, dependent reads
/// from memory, small and large complex matrix products and a strided
/// density-matrix gate each followed them with correlations of 0.7 to
/// 0.85, a different one best each time, and their even mix as well as
/// the best. The probe therefore times the mix.
const PROBE_KERNELS: usize = 6;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run.
fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the C
    // `struct timespec` of 64-bit Linux, all clock_gettime(2) writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The data the probe kernels work on.
struct ProbeData {
    small: Vec<(f64, f64)>,
    small_out: Vec<(f64, f64)>,
    large: Vec<(f64, f64)>,
    large_out: Vec<(f64, f64)>,
    rho: Vec<(f64, f64)>,
    table: Vec<u64>,
}

impl ProbeData {
    fn new() -> Self {
        let mut rng = InputRng::new(1, 1);
        let mut complex = |n: usize| -> Vec<(f64, f64)> {
            (0..n * n)
                .map(|_| (rng.unit() - 0.5, rng.unit() - 0.5))
                .collect()
        };
        let small = complex(24);
        let large = complex(64);
        let rho = complex(64);
        let table = (0..PROBE_TABLE).map(|_| rng.next_u64()).collect();
        ProbeData {
            small_out: vec![(0.0, 0.0); small.len()],
            large_out: vec![(0.0, 0.0); large.len()],
            small,
            large,
            rho,
            table,
        }
    }
}

fn complex_product(n: usize, a: &[(f64, f64)], out: &mut [(f64, f64)]) {
    for i in 0..n {
        for k in 0..n {
            let (ar, ai) = a[i * n + k];
            for j in 0..n {
                let (br, bi) = a[k * n + j];
                let e = &mut out[i * n + j];
                e.0 += ar * br - ai * bi;
                e.1 += ar * bi + ai * br;
            }
        }
    }
}

/// Runs probe kernel `k` once.
fn probe_kernel(k: usize, d: &mut ProbeData) {
    match k {
        // A dependent integer chain: latency-bound arithmetic.
        0 => {
            let mut rng = InputRng::new(2, 2);
            let mut acc = 0u64;
            for _ in 0..250_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
        }
        // Bitwise row operations with popcounts, as on tableau rows.
        1 => {
            let (rows, other) = d.table.split_at(4096);
            let mut acc = 0u32;
            for r in 0..750 {
                let start = (r * 64) % (4096 - 512);
                for (p, q) in rows[start..start + 512].iter().zip(&other[..512]) {
                    acc = acc.wrapping_add(((p ^ q) & (p >> 1)).count_ones());
                }
            }
            std::hint::black_box(acc);
        }
        // Dependent reads from a table larger than the caches.
        2 => {
            let mut at = 0usize;
            for _ in 0..50_000 {
                at = (d.table[at] as usize) & (PROBE_TABLE - 1);
            }
            std::hint::black_box(at);
        }
        // Complex matrix products held in the first-level cache.
        3 => {
            for _ in 0..25 {
                complex_product(24, &d.small, &mut d.small_out);
            }
            std::hint::black_box(&d.small_out);
        }
        // One complex matrix product the size of a 6-qubit density matrix.
        4 => {
            complex_product(64, &d.large, &mut d.large_out);
            std::hint::black_box(&d.large_out);
        }
        // One-qubit rotations applied to the rows of a 6-qubit density
        // matrix, strided as a simulator applies them.
        _ => {
            let n = 64;
            let (c, s) = (0.6, 0.8);
            for pass in 0..40 {
                let bit = 1 << (pass % 6);
                for i in (0..n).filter(|i| i & bit == 0) {
                    for col in 0..n {
                        let (a, b) = (d.rho[i * n + col], d.rho[(i | bit) * n + col]);
                        d.rho[i * n + col] = (c * a.0 - s * b.1, c * a.1 + s * b.0);
                        d.rho[(i | bit) * n + col] = (c * b.0 - s * a.1, c * b.1 + s * a.0);
                    }
                }
            }
            std::hint::black_box(&d.rho);
        }
    }
}

/// State shared with the speed-probe thread.
struct Probe {
    stop: AtomicBool,
    /// CPU nanoseconds the probe thread has used so far.
    cpu_ns: AtomicU64,
    /// CPU seconds of each sample, by kernel.
    samples: Mutex<[Vec<f64>; PROBE_KERNELS]>,
}

static PROBE: Probe = Probe {
    stop: AtomicBool::new(false),
    cpu_ns: AtomicU64::new(0),
    samples: Mutex::new([const { Vec::new() }; PROBE_KERNELS]),
};

static PROBE_THREAD: Mutex<Option<std::thread::JoinHandle<()>>> = Mutex::new(None);

/// Starts the host speed probe: a thread that, every [`PROBE_PERIOD`],
/// runs the next of the [`PROBE_KERNELS`] kernels in turn and times it by
/// its own CPU clock. CPU time leaves out the waits for a core, so a
/// sample reads the speed of the core it ran on (shared with other
/// tenants' work, at the clock frequency of the moment), not the
/// scheduler's share. The probe uses about one percent of one core;
/// [`cpu_seconds`] leaves its time out.
pub fn start_speed_probe() {
    let mut slot = PROBE_THREAD.lock().expect("probe lock");
    assert!(slot.is_none(), "the speed probe is already running");
    PROBE.stop.store(false, Ordering::SeqCst);
    *slot = Some(std::thread::spawn(|| {
        let mut data = ProbeData::new();
        let mut kernel = 0;
        while !PROBE.stop.load(Ordering::SeqCst) {
            let c0 = thread_cpu_seconds();
            probe_kernel(kernel, &mut data);
            let c1 = thread_cpu_seconds();
            if c1 > c0 {
                PROBE.samples.lock().expect("probe lock")[kernel].push(c1 - c0);
            }
            PROBE.cpu_ns.store((c1 * 1e9) as u64, Ordering::SeqCst);
            kernel = (kernel + 1) % PROBE_KERNELS;
            std::thread::sleep(PROBE_PERIOD);
        }
        PROBE
            .cpu_ns
            .store((thread_cpu_seconds() * 1e9) as u64, Ordering::SeqCst);
    }));
}

/// What the speed probe saw over a run.
#[derive(Clone, Copy, Debug)]
pub struct SpeedReading {
    /// Speed over the run, probe rounds per CPU second (built from mean
    /// times, so it weighs slow spells by how much longer they make the
    /// work).
    pub speed: f64,
    /// Samples taken.
    pub samples: usize,
}

impl SpeedReading {
    /// Factor that turns a time measured on this run's host into the time
    /// at [`REFERENCE_SPEED`].
    pub fn scale(&self) -> f64 {
        self.speed / REFERENCE_SPEED
    }
}

/// Stops the speed probe, waits for its thread to end, and returns the
/// speed over every sample since [`start_speed_probe`]: one over the sum,
/// across kernels, of each kernel's mean CPU time.
pub fn stop_speed_probe() -> SpeedReading {
    PROBE.stop.store(true, Ordering::SeqCst);
    if let Some(handle) = PROBE_THREAD.lock().expect("probe lock").take() {
        handle.join().expect("the speed probe thread panicked");
    }
    let samples = std::mem::take(&mut *PROBE.samples.lock().expect("probe lock"));
    assert!(
        samples.iter().all(|k| !k.is_empty()),
        "the speed probe did not run every kernel"
    );
    let round: f64 = samples.iter().map(|k| stats::mean(k)).sum();
    SpeedReading {
        speed: 1.0 / round,
        samples: samples.iter().map(Vec::len).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_rng_is_seeded_and_in_range() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = InputRng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = InputRng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut r = InputRng::new(8, 1);
        assert!((0..1000).all(|_| (3..=5).contains(&r.range(3, 5))));
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(cpu_seconds() > 0.0);
    }
}
