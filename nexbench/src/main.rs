//! `nexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric and, as the last line of
//! standard output, a JSON result. Exits 1 if any request failed or its
//! explanation differed from its reference, 2 on bad arguments.
//!
//! `nexbench --references` prints a fresh reference-digest file instead
//! (see `references.tsv`).

use nexbench::explain;
use nexbench::references;
use nexbench::report::{Outcome, END_TO_END, PER_LAYER};
use nexbench::serve;

/// `--seconds` when the flag is left out: `run_seconds` of
/// `BENCHMARK.json`, which the bounds were set on.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
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
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_path = format!(".nexbench/trace-{}-{}.json", args.workload, args.seed);
    let explain_workload = match args.workload.as_str() {
        "explain-scan" => explain::scan(),
        "explain-select" => explain::select(),
        "serve-mixed" => {
            return serve::run(args.seed, args.seconds, args.trace.then_some(&*trace_path))
        }
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(if args.trace {
        explain::run_traced(&explain_workload, args.seed, args.seconds, &trace_path)
    } else {
        explain::run(&explain_workload, args.seed, args.seconds)
    })
}

fn main() {
    if std::env::args().skip(1).eq(["--references"]) {
        match references::record() {
            Ok(file) => print!("{file}"),
            Err(e) => {
                eprintln!("nexbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("nexbench: {e}");
        std::process::exit(2);
    });
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nexbench: {e}");
            std::process::exit(1);
        }
    };
    outcome.print(if args.trace { PER_LAYER } else { END_TO_END });
    if !outcome.correct() {
        std::process::exit(1);
    }
}
