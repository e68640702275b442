//! `webdep-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query|evolve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs rounds of the workload's whole loop — a fresh
//! checkpointed campaign to a served answer, an open-loop query load, and
//! live epochs under a query stream — and reports the end-to-end metrics.
//! Traced (`--trace 1`) replays the same inputs one layer call at a time
//! on one thread and reports the per-layer metrics. Both check the
//! program's outputs; any failed check fails the run (exit code 1).
//!
//! The metrics `BENCHMARK.json` declares for the run's kind are printed as
//! `metric <name> <value> <unit>`, anything else measured as `info ...`;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the declared `metrics`.

mod alloc;
mod client;
mod trace;
mod util;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: its metrics plus every operation attempted and every
/// check that failed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Counts `n` operations of which `failed` failed (requests, sites).
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout was taken from, read straight from `.git` in
/// the working directory (no `git` process); `unknown` outside a clone.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metric names `BENCHMARK.json` (in the working directory) declares
/// under `key`; `None` when there is no such file.
fn declared(key: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).ok()?;
    let names = doc.get(key)?.as_array()?;
    Some(
        names
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect(),
    )
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(params) = workload::Params::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_escape(env!("PERFBENCH_RUSTC")),
        json_escape(&git_sha()),
        params.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Stores and journals live in the checkout, one directory per process.
    let work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", params.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let outcome = if args.trace {
        trace::run(
            &params,
            args.seed,
            args.seconds as f64,
            nproc,
            &work,
            &mut report,
        )
    } else {
        workload::run(
            &params,
            args.seed,
            args.seconds as f64,
            nproc,
            &work,
            &mut report,
        )
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    if let Err(e) = outcome {
        report.check(false, format!("run aborted: {e}"));
    }

    // The result carries exactly the declared metrics; anything else the
    // run measured is printed as `info` for the log.
    let declared = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    if let Some(names) = &declared {
        for name in names {
            if !report.metrics.iter().any(|m| m.name == name.as_str()) {
                report.failed += 1;
                report
                    .failures
                    .push(format!("declared metric {name} was not measured"));
            }
        }
    }
    let mut metrics = String::new();
    for m in &report.metrics {
        if declared
            .as_ref()
            .is_some_and(|names| !names.iter().any(|n| n == m.name))
        {
            println!("info {} {} {}", m.name, m.value, m.unit);
            continue;
        }
        let value = if m.value.is_finite() {
            m.value
        } else {
            report.failed += 1;
            report
                .failures
                .push(format!("metric {} is not a number", m.name));
            -1.0
        };
        println!("metric {} {} {}", m.name, value, m.unit);
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    for f in &report.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
