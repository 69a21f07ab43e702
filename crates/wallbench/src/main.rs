//! Command line of the benchmark (see the crate README):
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wallbench --all [--seed <n>] [--seconds <s>] [--out results.json]
//! wallbench --compare A.json B.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use wallbench::report::{compare, measure, run_all};
use wallbench::workload::{Spec, WORKLOADS};

const USAGE: &str = "usage:
  wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  wallbench --all [--seed <n>] [--seconds <s>] [--out results.json]
  wallbench --compare A.json B.json";

/// The value following `flag`, parsed.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a valid value\n{USAGE}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        return match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => Err(USAGE.into()),
        };
    }
    let seed: u64 = arg(args, "--seed")?.unwrap_or(1);
    if args.iter().any(|a| a == "--all") {
        let seconds = arg(args, "--seconds")?.unwrap_or(4.0);
        let out: Option<String> = arg(args, "--out")?;
        return run_all(seed, seconds, out.as_deref());
    }
    let name: String = arg(args, "--workload")?.ok_or(USAGE)?;
    let spec = Spec::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {known:?}")
    })?;
    let seconds: f64 = arg(args, "--seconds")?.unwrap_or(10.0);
    // Span files go beside the build, inside the checkout.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let span_dir = PathBuf::from(target).join("wallbench");
    let traced = arg::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let measured = measure(&spec, seed, seconds, traced.then_some(span_dir.as_path()))?;
    println!("{name} (seed {seed})");
    print!("{}", measured.to_table());
    println!("{}", measured.to_json());
    Ok(measured.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("wallbench: {why}");
            ExitCode::from(2)
        }
    }
}
