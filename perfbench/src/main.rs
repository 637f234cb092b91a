//! The repository's benchmark: one command, two seeded workloads, one per
//! runtime, correctness checks on every run, and one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-tree --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `sim-tree` runs Plumtree in the simulator, `live-tree` runs it on 300
//! live TCP nodes of one reactor.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` plays the
//! workload once plain and once with spans around every call into a layer,
//! and reports the per-layer metrics instead. The last line of standard
//! output is the result object; progress goes to standard error. Traced
//! runs also write their spans to `$CARGO_TARGET_DIR/perfbench-traces/`.

mod live;
mod report;
mod sim;
mod stats;
mod trace;

use hyparview_obsv::Registry;
use report::Report;

const USAGE: &str =
    "usage: perfbench --workload <sim-tree|live-tree> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// The benchmark's input generator: SplitMix64, so inputs are a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Counter or gauge `name` of `registry`; 0 when it was never registered.
pub fn value(registry: &Registry, name: &str) -> u64 {
    registry.value_by_name(name).unwrap_or(0)
}

/// How much counter `name` grew from `before` to `after`.
pub fn delta(after: &Registry, before: &Registry, name: &str) -> u64 {
    value(after, name).saturating_sub(value(before, name))
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "sim-tree" => Ok(sim::run(args.seed, args.seconds, args.traced)),
        "live-tree" => live::run(args.seed, args.seconds, args.traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in report.human_lines(args.traced) {
        println!("{line}");
    }
    println!("{}", report.to_json(args.traced));
    if !report.correct {
        eprintln!("perfbench: {} failed its correctness checks", args.workload);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "sim-tree", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.traced), ("sim-tree", 7, 10, true));
        assert!(args(&["--workload", "sim-tree", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(
            args(&["--workload", "x", "--seed", "z", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(args(&["--trace", "2"]).is_err());
    }

    #[test]
    fn generator_is_a_function_of_its_seed() {
        let (mut a, mut b) = (SplitMix::new(3), SplitMix::new(3));
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        assert!((0..1000).all(|_| a.below(7) < 7));
    }
}
