//! `diknn-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one named workload (see `--list`) from a seed, prints every metric
//! with its unit and, as the last line, one JSON result object. Exits 1
//! when a correctness check failed, 2 on bad arguments.
//!
//! `--list` prints the metric catalogue; `--manifest` prints the
//! `BENCHMARK.json` it implies.

use std::fs;
use std::process::ExitCode;

use diknn_e2ebench::workload::{self, Workload};
use diknn_e2ebench::{catalog, host, report};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(workload::RUN_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--list") => {
            print!("{}", catalog::listing());
            return ExitCode::SUCCESS;
        }
        Some("--manifest") => {
            print!("{}", catalog::manifest());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diknn-e2ebench: {e}");
            eprintln!("usage: diknn-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1> | --list | --manifest");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let inv = workload::invoke(args.workload, args.seed, args.seconds, args.trace);
    let (text, result) = report::render(name, args.seed, args.seconds, args.trace, &inv);
    print!("{text}");
    if let Some(rec) = &inv.recorder {
        // Spans stay in memory during the run and are written out here.
        let path = format!(".bench_out/spans-{name}-{}.jsonl", args.seed);
        let header = format!(
            "{{\"workload\":\"{name}\",\"seed\":{},\"host\":\"{}\"}}",
            args.seed,
            host::describe().replace('"', "'")
        );
        let written = fs::create_dir_all(".bench_out")
            .and_then(|()| fs::File::create(&path))
            .and_then(|f| rec.write_jsonl(&mut std::io::BufWriter::new(f), &header));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("diknn-e2ebench: could not write {path}: {e}"),
        }
    }
    println!("{result}");
    if inv.ledger.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
