//! `perfbench`: the seeded end-to-end benchmark of the lifter.
//!
//! ```text
//! perfbench --workload suite|tail|serve --seed N --seconds S --trace 0|1 [--tmp DIR]
//! perfbench --workload W --seed N --setup-only [--tmp DIR]
//! perfbench --scan SEED[,SEED...]
//! ```
//!
//! A run prints one JSON line: the workload's metrics, the deterministic
//! counters of its lifts, and how many lifts failed a check. `run.py`
//! builds this binary, times its set-up and turns the line into the
//! benchmark's result. `--scan` lifts every suite kernel under each given
//! oracle seed and prints one line per lift; it is how the `tail` pairs
//! and the `serve` pool were found (see README.md).

mod check;
mod lifts;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gtl_store::json::Json;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Suite,
    Tail,
    Serve,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub setup_only: bool,
    pub tmp: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload suite|tail|serve --seed N --seconds S \
--trace 0|1 [--setup-only] [--tmp DIR] | perfbench --scan SEED[,SEED...]";

fn usage_error(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: not a number: {value}")))
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut setup_only = false;
    let mut tmp = PathBuf::from(".bench_build/perfbench-tmp");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                workload = Some(match argv.next().as_deref() {
                    Some("suite") => Workload::Suite,
                    Some("tail") => Workload::Tail,
                    Some("serve") => Workload::Serve,
                    other => usage_error(&format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(parse_number("--seed", argv.next())),
            "--seconds" => seconds = parse_number("--seconds", argv.next()),
            "--trace" => trace = parse_number::<u8>("--trace", argv.next()) != 0,
            "--setup-only" => setup_only = true,
            "--tmp" => {
                tmp = PathBuf::from(
                    argv.next()
                        .unwrap_or_else(|| usage_error("--tmp needs a value")),
                )
            }
            "--scan" => {
                let list = argv
                    .next()
                    .unwrap_or_else(|| usage_error("--scan needs seeds"));
                let seeds: Vec<u64> = list
                    .split(',')
                    .map(|s| parse_number("--scan", Some(s.to_string())))
                    .collect();
                lifts::scan(&seeds);
                return;
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        usage_error("--seconds must be in (0, 3600]");
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| usage_error("--workload is required")),
        seed: seed.unwrap_or_else(|| usage_error("--seed is required")),
        seconds: Duration::from_secs_f64(seconds),
        trace,
        setup_only,
        tmp,
    };
    let report = match args.workload {
        Workload::Suite | Workload::Tail => lifts::run(&args),
        Workload::Serve => serve::run(&args),
    };
    let Some(report) = report else {
        // Set-up only: nothing was measured.
        return;
    };
    println!("{}", report.to_json(&args).to_line());
}

/// What one run measured.
pub struct Report {
    /// Lifts (or requests) attempted in the measured window.
    pub attempted: u64,
    /// Lifts whose result broke a check: a wrong output, an error or lost
    /// stream, a traced lift that differs from `Stagg::lift`, or a lift
    /// whose outcome changed between passes.
    pub failed: u64,
    /// Share of attempted lifts with no verified and checked solution
    /// (budget exhaustion included).
    pub failed_frac: f64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Wall seconds of each pass (suite, tail) or of each server cycle's
    /// request loop (serve).
    pub pass_seconds: Vec<f64>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The deterministic counters of the workload.
    pub counters: Json,
}

impl Report {
    fn to_json(&self, args: &Args) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect();
        let workload = match args.workload {
            Workload::Suite => "suite",
            Workload::Tail => "tail",
            Workload::Serve => "serve",
        };
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::u64(args.seed)),
            ("trace", Json::Bool(args.trace)),
            ("passes", Json::u64(self.pass_seconds.len() as u64)),
            (
                "pass_seconds",
                Json::Arr(self.pass_seconds.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "nproc",
                Json::u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("failed_frac", Json::Num(self.failed_frac)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p.clone())).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("counters", self.counters.clone()),
        ])
    }

    /// Records a failure, keeping the first few descriptions.
    pub fn fail(&mut self, count: u64, problem: impl FnOnce() -> String) {
        self.failed += count;
        if self.problems.len() < 8 {
            self.problems.push(problem());
        }
    }
}

/// A small deterministic generator (SplitMix64) for everything the
/// workload seed draws: orders, samples and check inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `values` with linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Microseconds since `start`, as a float.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable (`run.py` then falls back to `getrusage`).
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
        .map_or(0.0, |kb| kb / 1024.0)
}
