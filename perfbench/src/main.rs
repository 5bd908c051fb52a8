//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`
//!
//! Runs one benchmark workload, prints notes (workload, checks, digest of the
//! simulated outputs) and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a correctness check
//! fails and 2 on a bad command line.

use std::process::ExitCode;

use perfbench::workload::{Workload, NAMES};
use perfbench::{run, Options};

const USAGE: &str =
    "usage: perfbench --workload <ts0-gc|lun2-read|fleet-mirror> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    Ok((
        workload,
        Options {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&workload, &opts);
    for line in &out.notes {
        println!("# {line}");
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
