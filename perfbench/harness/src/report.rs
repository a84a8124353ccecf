//! Result accounting: metrics with units, operation counts, the
//! correctness digest, and the one-line JSON report `run.py` reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations the value summarizes (1 for a single count).
    pub samples: usize,
}

/// Operations attempted and failed, plus the reason for each failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Failures that are correctness mismatches (these make the run
    /// incorrect, not merely lossy).
    pub mismatches: u64,
}

impl Ops {
    /// Counts one attempted operation; a failure is recorded with its
    /// reason.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one correctness comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
        }
        self.record(ok, what);
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.failures.extend(other.failures);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one harness invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub properties: Vec<Metric>,
    pub ops: Ops,
    pub digest: u64,
    pub host: Vec<(String, String)>,
    pub trace_file: Option<String>,
    pub self_times: Vec<(String, f64)>,
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, samples: usize) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    });
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        push(&mut self.e2e, name, value, unit, samples);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        push(&mut self.layer, name, value, unit, samples);
    }

    pub fn property(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.properties, name, value, unit, 1);
    }

    /// The single-line JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"workload\":{}", quote(&self.workload));
        let _ = write!(
            out,
            ",\"attempted\":{},\"failed\":{},\"mismatches\":{}",
            self.ops.attempted, self.ops.failed, self.ops.mismatches
        );
        let _ = write!(out, ",\"digest\":\"{:016x}\"", self.digest);
        let failures: Vec<String> = self.ops.failures.iter().map(|f| quote(f)).collect();
        let _ = write!(out, ",\"failures\":[{}]", failures.join(","));
        for (key, list) in [
            ("e2e", &self.e2e),
            ("layer", &self.layer),
            ("properties", &self.properties),
        ] {
            let items: Vec<String> = list
                .iter()
                .map(|m| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                        quote(&m.name),
                        number(m.value),
                        quote(m.unit),
                        m.samples
                    )
                })
                .collect();
            let _ = write!(out, ",{}:{{{}}}", quote(key), items.join(","));
        }
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let _ = write!(out, ",\"host\":{{{}}}", host.join(","));
        let selfs: Vec<String> = self
            .self_times
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
            .collect();
        let _ = write!(out, ",\"self_ms\":{{{}}}", selfs.join(","));
        match &self.trace_file {
            Some(path) => {
                let _ = write!(out, ",\"trace_file\":{}", quote(path));
            }
            None => out.push_str(",\"trace_file\":null"),
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (which a correct run never
/// produces) become `null` so the reader flags them.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 for
/// none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over a byte stream: the outcome digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
