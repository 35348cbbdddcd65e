//! Timing samples, process readings from `/proc`, and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Latency samples of one kind of operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, s: f64) {
        self.0.push(s);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The latest sample, in seconds (NaN when empty).
    pub fn last_secs(&self) -> f64 {
        self.0.last().copied().unwrap_or(f64::NAN)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn total_secs(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile in seconds; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (summed from each thread's `schedstat`, nanosecond resolution).
pub fn process_cpu_secs() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut ns = 0u64;
    for t in tasks.flatten() {
        let stat = read(&format!("{}/schedstat", t.path().display()));
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
    }
    ns as f64 / 1e9
}

/// Steal ticks of the whole machine so far (the eighth field of the
/// `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The one-minute load average.
pub fn load_average() -> String {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .unwrap_or("?")
        .to_string()
}

/// The commit being measured, when the checkout is a git work tree.
pub fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let direct = read(&format!(".git/{r}"));
            if !direct.trim().is_empty() {
                return direct.trim().to_string();
            }
            read(".git/packed-refs")
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("unknown")
                .to_string()
        }
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The named metrics of one run, in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a value that is not a
    /// finite number is written as `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push('}');
        s
    }
}

/// The result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
