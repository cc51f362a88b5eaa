//! The repository's benchmark: end-to-end and per-layer numbers for the
//! `bd-serve` daemon, from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hit|serve-miss --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: the metric names and units come from
//! `BENCHMARK.json` there. Human-readable progress goes to stdout first;
//! the last stdout line is one JSON object
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set
//! from a traced run (see README.md). Scratch files live
//! under `.bench_work/` in the working directory and are removed at exit,
//! except the traced run's span files under `.bench_work/traces/`.

mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["serve-hit", "serve-miss"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag}: not a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// splitmix64: the workload's only source of randomness, seeded from
/// `--seed`, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
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

/// This run's scratch directory under `.bench_work/`, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let catalogue = match report::Catalogue::load(Path::new("BENCHMARK.json")) {
        Ok(catalogue) => catalogue,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: creating {:?}: {e}", work.0);
        return ExitCode::FAILURE;
    }
    let class = match args.workload.as_str() {
        "serve-hit" => serve::Class::Hit,
        _ => serve::Class::Miss,
    };
    let outcome = serve::run(&args, &work.0, class);
    let outcome = outcome.and_then(|mut run| {
        run.end_to_end.set("peak_rss_mb", report::peak_rss_mb()?);
        let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
        run.per_layer.set("error_rate", error_rate);
        report::result_line(&run, &catalogue, args.trace)
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-hit --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hit", 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-hit --seconds 1 --trace 0",
            "--workload serve-hit --seed 1 --seconds 0 --trace 0",
            "--workload serve-hit --seed 1 --seconds 1 --trace 2",
            "--workload serve-hit --seed x --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
