//! The PCC reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|pcc_convergence|udp_loopback|fig07_loss> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced, repeatedly for `--seconds`,
//! and the end-to-end metrics are reported as medians over the
//! repetitions. With `--trace 1` a traced run rebuilds the workload with
//! timing decorators around each layer's public trait objects and reports
//! the per-layer metrics. Every run checks the program's outputs. The last
//! line of standard output is the result as one JSON object; see
//! `perfbench/BENCHMARK.md` for what each metric means.

mod churn;
mod convergence;
mod fig07;
mod host;
mod report;
mod sim;
mod trace;
mod udp;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// The workloads, with their end-to-end and traced entry points.
type Entry = (
    &'static str,
    fn(u64, Duration) -> Outcome,
    fn(u64, Duration) -> Outcome,
);

const WORKLOADS: &[Entry] = &[
    ("churn", churn::run, churn::run_traced),
    ("pcc_convergence", convergence::run, convergence::run_traced),
    ("udp_loopback", udp::run, udp::run_traced),
    ("fig07_loss", fig07::run, fig07::run_traced),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Entries every traced run reports, and the add-up check of the
/// simulated workloads.
fn finish_traced(out: &mut Outcome) {
    if let Some(err) = out.metrics.get("trace.addup_error") {
        if err.abs() > sim::ADDUP_TOLERANCE {
            eprintln!(
                "layer self times miss the untraced run time by {:.1}% (tolerance {:.0}%)",
                err * 100.0,
                sim::ADDUP_TOLERANCE * 100.0
            );
            out.correct = false;
        }
    }
    out.metrics.set("host.calib_ms", host::calibration_ms());
    out.metrics.set("host.nproc", host::nproc() as f64);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run, run_traced)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "workload {name}, seed {}, {} s, trace {}, nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let outcome = if args.trace {
        run_traced(args.seed, seconds)
    } else {
        run(args.seed, seconds)
    };
    report::print_result(&outcome, args.trace);
    ExitCode::SUCCESS
}
