//! Metric collection, percentiles, run metadata and the final JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind a percentile or median, when it is one.
    pub samples: Option<usize>,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Record `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(name.into(), value, unit, None);
    }

    /// Record a percentile or median with its sample count.
    pub fn set_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.put(name.into(), value, unit, Some(n));
    }

    /// Record a copy of `m`.
    pub fn put_metric(&mut self, m: Metric) {
        self.put(m.name, m.value, m.unit, m.samples);
    }

    fn put(&mut self, name: String, value: f64, unit: &'static str, samples: Option<usize>) {
        let value = if value.is_finite() { value } else { 0.0 };
        let metric = Metric {
            name,
            value,
            unit,
            samples,
        };
        match self.items.iter_mut().find(|m| m.name == metric.name) {
            Some(slot) => *slot = metric,
            None => self.items.push(metric),
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    /// All metrics, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// Print one human-readable line per metric, prefixed by `tag`.
    pub fn print(&self, tag: &str) {
        for m in &self.items {
            match m.samples {
                Some(n) => println!("{tag} {} = {} {} (n={n})", m.name, m.value, m.unit),
                None => println!("{tag} {} = {} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The `metrics` object of the final JSON line.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number for `v` (JSON has no NaN/inf; whole floats keep a `.0`).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The nearest-rank `p`-th percentile of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples kept per latency class. Reservoir sampling bounds the
/// benchmark's own memory, so `peak_rss_mb` does not grow with throughput.
const RESERVOIR: usize = 50_000;

/// A uniform reservoir sample of a latency stream (ns).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    kept: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Samples {
    /// Offer one sample.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
            return;
        }
        self.rng = lhrs_testkit::splitmix64(self.rng);
        let slot = (self.rng % self.seen) as usize;
        if let Some(k) = self.kept.get_mut(slot) {
            *k = v;
        }
    }

    /// Offer every kept sample of `other` and count all it was offered
    /// (exact while neither side has overflowed its reservoir).
    pub fn absorb(&mut self, other: &Samples) {
        for &v in &other.kept {
            self.push(v);
        }
        self.seen += other.seen - other.kept.len() as u64;
    }

    /// Samples offered.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The nearest-rank `p`-th percentile of the kept samples.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile(&mut self.kept.clone(), p)
    }
}

/// Record `<prefix>_p50_us` and `<prefix>_p99_us` of `samples`, with the
/// number of samples behind them.
pub fn latency_pair(out: &mut Metrics, prefix: &str, samples: &Samples) {
    let n = samples.seen as usize;
    out.set_n(
        format!("{prefix}_p50_us"),
        samples.percentile(50.0) as f64 / 1e3,
        "us",
        n,
    );
    out.set_n(
        format!("{prefix}_p99_us"),
        samples.percentile(99.0) as f64 / 1e3,
        "us",
        n,
    );
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and source the numbers came from.
pub fn print_metadata(lines: &[(&str, String)]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!("meta nproc = {nproc}");
    println!("meta cpu_model = {cpu}");
    println!("meta git_rev = {}", git_rev());
    for (k, v) in lines {
        println!("meta {k} = {v}");
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never from a parent directory); "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
