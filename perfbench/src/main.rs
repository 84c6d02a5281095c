//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rankd PATH]`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct": true, "attempted": …, "failed": …, "metrics": {…}}`.
//! A reply that differs from the serial oracle, or any other failed
//! check, exits non-zero without printing a result.

use perfbench::run::{result_json, run, Args};
use perfbench::workloads::Workload;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload resident_big|small_pipelined \
--seed N --seconds S --trace 0|1 [--rankd PATH]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ResidentBig,
        seed: 1,
        seconds: 10.0,
        trace: false,
        rankd: PathBuf::from(".bench_build/release/rankd"),
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad value for {flag}: {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {val}")),
                }
            }
            "--rankd" => args.rankd = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    match run(&args) {
        Ok(out) => println!("{}", result_json(&out)),
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1)
        }
    }
}
