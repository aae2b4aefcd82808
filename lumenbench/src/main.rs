//! `lumenbench`: one serving benchmark for lumen.
//!
//! ```text
//! lumenbench --workload <fleet-saturate|lumend-waves>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics, traced
//! (`--trace 1`) runs the per-layer metrics. The last line of standard
//! output is the JSON result; a human-readable account goes to standard
//! error. A run whose outputs disagree with the offline reference, whose
//! accounting does not balance, or whose hostile clients draw a wrong
//! goodbye or none at all, reports `"correct": false`. The one exception
//! is the flooder's goodbye lost to the daemon's reset, a known defect of
//! the daemon, which is counted in `daemon.goodbyes_lost`.
//!
//! See `lumenbench/NOTES.md` for the workloads, the metric definitions
//! and the baseline findings.

mod common;
mod fleet_saturate;
mod inputs;
mod layers;
mod lumend;
mod reference;
mod report;
mod stats;
mod trace;

use common::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Prints a per-layer self-time table to standard error.
pub(crate) fn print_breakdown(workload: &str, selfs: &BTreeMap<String, f64>, clips: u64) {
    let total: f64 = selfs.values().sum();
    eprintln!("# {workload}: self time by layer over {clips} clips");
    let mut rows: Vec<(&String, &f64)> = selfs.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, ns) in rows {
        eprintln!(
            "#   {name:<22} {:>10.1} us/clip {:>6.1} %",
            ns / clips.max(1) as f64 / 1e3,
            100.0 * ns / total.max(f64::MIN_POSITIVE)
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lumenbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "lumenbench: workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "fleet-saturate" => fleet_saturate::run(&args),
        "lumend-waves" => lumend::run_waves(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lumenbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &report.values {
        eprintln!("  {name:<40} {value}");
    }
    match report.json(args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("lumenbench: a correctness check failed (see above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lumenbench: {e}");
            ExitCode::FAILURE
        }
    }
}
