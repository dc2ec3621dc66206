//! Measurement plumbing shared by every workload: order statistics, the
//! in-memory span recorder, the metric set a run prints, and the host
//! facts recorded next to every result.

use std::fmt::Write as _;
use std::time::Instant;

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 for an empty
/// slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` in `(0, 100]`: the smallest sample with at
/// least `p`% of the samples at or below it. Unlike [`quantile`] it is
/// always a value that was measured.
pub fn percentile_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One timed interval of the benchmark's own code around a call into the
/// program. `req` groups the spans of one request or one iteration.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans in memory while enabled; written out once at the end of
/// the run so recording costs a clock read and a push.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; returns its index (for children and
    /// [`Tracer::end`]), or `None` while tracing is off.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span { name, req, parent, start_ns: t, end_ns: t });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records a span whose duration the program itself reported (a
    /// phase time from `RunReport`), laid end to end after `start_ns`.
    pub fn reported(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        secs: f64,
    ) -> u64 {
        let end_ns = start_ns + (secs * 1e9) as u64;
        if self.enabled {
            self.spans.push(Span { name, req, parent, start_ns, end_ns });
        }
        end_ns
    }

    /// Records a span timed elsewhere (on a client thread).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, req, parent: None, start_ns: ns(start), end_ns: ns(end) });
        }
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Writes the spans as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, parent, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: correctness tallies plus the metrics to print.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Share of the measuring window the hypervisor stole from the vCPUs.
    pub steal_frac: f64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_num(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit the measurement carries.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("{path}: bad VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Reads a CPU-time clock with nanosecond resolution (unlike the `/proc`
/// counters, which advance only at scheduler ticks).
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the clock ids used are the fixed POSIX CPU-time clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling process has run, over every thread.
pub fn self_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Clock ticks per second of the `/proc` CPU counters.
fn clk_tck() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` reads a configuration value and has no
    // preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// CPU seconds (user + system, over every thread, live or exited) that
/// process `pid` has run, at scheduler-tick resolution. Time the
/// hypervisor stole from the vCPU is not in it, which is what makes it
/// steady on a shared host.
pub fn process_cpu_s(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| format!("{path}: bad stat line"))
    };
    Ok((tick(11)? + tick(12)?) / clk_tck())
}

/// Seconds the hypervisor has stolen from all vCPUs together.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let line = t.lines().next()?.to_string();
            line.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / clk_tck())
}

/// Facts about the machine and the code a result was measured on.
pub fn host_facts(kernel_tier: &str, steal_frac: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"kernel_tier\": \"{kernel_tier}\", \
         \"git_revision\": \"{}\", \"steal_frac\": {}}}}}",
        cpu.replace('"', "'"),
        git_revision(),
        json_num(steal_frac)
    )
}

/// The checked-out commit, read from `.git` directly (no `git` process);
/// `unknown` outside a git working tree.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_rank(&many, 99.0), 198.0);
        assert_eq!(percentile_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome { attempted: 3, failed: 0, ..Default::default() };
        o.push("queries_per_s", 1.25, "1/s");
        let line = o.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"queries_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}"));
    }
}
