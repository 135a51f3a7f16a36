//! The run report: every metric by name, unit and sample count, the
//! host envelope, and the one-line JSON result the harness reads.

use std::fmt::Write as _;
use std::process::Command;

use crate::stats::Samples;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from, for percentiles and means.
    pub samples: Option<usize>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations issued (requests, ingested documents, restarts).
    pub attempted: u64,
    /// Operations that errored, panicked or returned a wrong output.
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples: None,
        });
    }

    pub fn add_n(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples: Some(samples),
        });
    }

    /// Adds `<prefix>.p50` and `<prefix>.p99` of `samples`.
    pub fn add_p50_p99(&mut self, prefix: &str, unit: &'static str, samples: &mut Samples) {
        let n = samples.len();
        self.add_n(&format!("{prefix}.p50"), unit, samples.median(), n);
        self.add_n(&format!("{prefix}.p99"), unit, samples.quantile(0.99), n);
    }

    /// Records one failed operation; the first few reasons are printed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// A free-text line printed with the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints the human-readable report, then the JSON result line with
    /// the metrics named in `contract`. Returns false when a contract
    /// metric is missing or not a finite number.
    pub fn print(&self, envelope: &str, contract: &[&str]) -> bool {
        let mut out = String::new();
        let _ = writeln!(out, "# {envelope}");
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(out, "{:<40} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        let mut ok = true;
        let mut json = String::new();
        for (i, name) in contract.iter().enumerate() {
            match self.get(name) {
                Some(m) if m.value.is_finite() => {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(
                        json,
                        "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        fmt_number(m.value),
                        m.unit
                    );
                }
                _ => {
                    let _ = writeln!(out, "# MISSING or non-finite metric: {name}");
                    ok = false;
                }
            }
        }
        if !ok {
            eprint!("{out}");
            return false;
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        print!("{out}");
        true
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn fmt_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The host envelope printed with every report.
pub fn envelope(workload: &str, seed: u64, threads: usize, scale: &str, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host nproc={nproc} profile={profile} rustc=\"{}\" git={} workload={workload} seed={seed} \
         threads={threads} bed={scale} trace={}",
        first_line(Command::new("rustc").arg("--version")),
        git_sha(),
        u8::from(trace)
    )
}

/// The commit of the working directory, or `unknown` when it is not a
/// git checkout. Git may not look above the working directory.
fn git_sha() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).as_os_str().to_owned();
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling);
    first_line(&mut git)
}

/// First line of a command's stdout, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}
