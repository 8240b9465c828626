//! The tlscope benchmark: one workload per process, untraced for the
//! end-to-end metrics or traced for the per-layer ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study_full --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. Every line but the last starts
//! with `#` and is meant for people: the run's context, then each
//! metric with its median, quartiles, tail and sample count. The last
//! line is the JSON result. The process exits 1 when any requested
//! unit (month, sweep date or experiment) is missing or differs from
//! the reference, and 2 on a usage error.

mod catalog;
mod check;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use catalog::Workload;

const USAGE: &str =
    "usage: tlscope-perfbench --workload <study_full|passive_stress_resume|scan_weekly> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    // Both apertures get one worker per available core.
    let workers = sys::nproc();
    let report = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, workers)
    } else {
        workloads::run(args.workload, args.seed, args.seconds, workers)
    };

    let context = sys::Context::collect();
    println!(
        "# context {}",
        report::context_line(&context, name, args.seed, workers, args.seconds, args.trace)
    );
    let reference = match (&report.reference, &report.digest) {
        (Some(r), _) => format!("checked against reference {r}"),
        (None, Some(d)) => format!("no reference for this seed; jobs agreed on digest {d}"),
        (None, None) => "no reference for this seed".into(),
    };
    println!(
        "# correctness: {} of {} units failed; {reference}",
        report.tally.failed, report.tally.attempted
    );
    for problem in &report.tally.problems {
        println!("# problem: {problem}");
    }
    for note in &report.notes {
        println!("# note: {note}");
    }
    print!("{}", report.table(args.trace));
    println!("{}", report.result_line(args.trace));
    if report.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload scan_weekly --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ScanWeekly);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload study_full --seed x").is_err());
        assert!(parse("--workload study_full --seed 1 --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload study_full --seed 1 --bogus 1").is_err());
    }
}
