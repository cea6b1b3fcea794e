//! Command line of the end-to-end benchmark:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <eval_s1|eval_s10|serve_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a record line, then the result as the last line of stdout. Output
//! check failures are listed on stderr and make `correct` false.

use std::process::ExitCode;
use std::time::Duration;

use seed_e2ebench::{run, RunConfig, Workload};

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig::new(
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(0),
        Duration::from_secs(seconds.unwrap_or(10)),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <eval_s1|eval_s10|serve_rw> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", report.record_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
