//! Order statistics, the output digest, and host facts read from `/proc`.

// `/proc` and the `timespec` layout `process_cpu_s` declares.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("mbpbench runs on 64-bit Linux only");

/// Median, quartiles and sample count of one metric over the passes of a
/// run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so they
    /// compare directly with quartiles computed over runs in Python.
    /// A single value is its own median and quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Summary { median, q1, q3, n }
    }

    /// `(q3 - q1) / median`: the spread the benchmark's bounds are set
    /// against.
    pub fn relative_spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(n=4)` over
/// sorted data of at least two values.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// FNV-1a, 64-bit: the digest over job outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest over a set of output lines, independent of the order the jobs
/// that produced them finished in.
pub fn digest(lines: &[String]) -> u64 {
    let mut sorted: Vec<&str> = lines.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    fnv1a64(sorted.join("\n").as_bytes())
}

/// User plus system CPU seconds this process has used, including threads
/// that already exited: `/proc/self/stat`'s utime + stime, read through
/// `CLOCK_PROCESS_CPUTIME_ID` to the nanosecond instead of in 10 ms clock
/// ticks, so that a single job's CPU time can be measured.
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides CLOCK_PROCESS_CPUTIME_ID");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The CPU model name and current clock in MHz, as `/proc/cpuinfo`
/// reports them for the first processor.
pub fn cpu_model() -> (String, f64) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let mhz = field("cpu MHz").and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (model, mhz)
}

/// Threads the host offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed integer loop and returns nanoseconds per iteration: a
/// serial chain whose time follows the host's clock, measured in every
/// pass. The run's median time scales its end-to-end times to a fixed
/// reference clock.
pub fn reference_loop_ns() -> f64 {
    const ITERATIONS: u64 = 5_000_000;
    let start = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).relative_spread(), 1.0);
    }

    #[test]
    fn digest_ignores_completion_order() {
        let a = vec!["t|gshare|1".to_string(), "t|tage|2".to_string()];
        let b = vec!["t|tage|2".to_string(), "t|gshare|1".to_string()];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&["t|gshare|1".to_string()]));
        // Published FNV-1a test vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let before = process_cpu_s();
        assert!(reference_loop_ns() > 0.0);
        assert!(process_cpu_s() > before);
        assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
    }
}
