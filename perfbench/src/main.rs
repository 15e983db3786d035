//! `ppr-perfbench`: runs one workload of the repository benchmark and prints
//! its result as one JSON line (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 10 --trace 0
//! ```

mod common;
mod ingest;
mod inputs;
mod mixed;
mod report;
mod rng;
mod salsa;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["ingest", "serve", "mixed", "salsa"];

/// One run's settings, all from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for durable stores and traces, inside the working
    /// directory.
    pub work: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        traced: traced.unwrap_or(false),
        work,
    })
}

/// The program reads `PPR_*` variables (page budget, pinning, test matrices);
/// any of them would silently change what is measured.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PPR_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn main() -> ExitCode {
    let ctx = match check_environment().and_then(|()| parse_args()) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let outcome = std::panic::catch_unwind(|| {
        let mut report = Report::default();
        match ctx.workload.as_str() {
            "ingest" => ingest::run(&ctx, &mut report),
            "serve" => serve::run(&ctx, &mut report),
            "mixed" => mixed::run(&ctx, &mut report),
            "salsa" => salsa::run(&ctx, &mut report),
            _ => unreachable!("workload validated by parse_args"),
        }
        report
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    match outcome {
        Ok(report) => {
            report.print_summary(&ctx.workload);
            println!("{}", report.json(ctx.traced));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(_) => {
            eprintln!("perfbench: workload {} panicked", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
