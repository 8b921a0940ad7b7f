//! Command-line driver: regenerate any table or figure of the paper.
//!
//! ```text
//! pcc-experiments list            # show available experiments
//! pcc-experiments algos           # show every registered CC algorithm + its spec keys
//! pcc-experiments fig07           # run one (scaled durations)
//! pcc-experiments fig07 --full    # paper-scale durations
//! pcc-experiments all             # run everything
//! pcc-experiments all --seed 42 --out target/experiments
//! pcc-experiments all --jobs 8  # 8 simulation workers (0 = auto, default)
//! pcc-experiments fig07 --batched # engines on 1-RTT batched reports
//! pcc-experiments sweep "pcc:eps=0.01..0.1" "cubic:iw=4|32" --points 3
//! pcc-experiments vary            # every algorithm over the bundled traces
//! pcc-experiments vary lte --secs 30 --jobs 4
//! ```
//!
//! Simulations run on a worker pool (`--jobs`, default one per core);
//! results are bit-identical at any worker count because every simulation
//! owns its seed — see `pcc_experiments::runner`.

use std::process::ExitCode;

use pcc_experiments::{registry, Opts};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut extras: Vec<String> = Vec::new();
    let mut points: usize = 3;
    let mut secs: u64 = 4;
    let mut secs_set = false;
    let mut opts = Opts {
        jobs: 0, // auto: one worker per core (library default is serial)
        ..Opts::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.full = true,
            // Process-wide: every engine this run switches from per-ACK
            // callbacks to 1-RTT batched measurement reports (the
            // off-path control plane). Numbers shift within the
            // documented tolerance; fingerprints are per-ACK only.
            "--batched" => pcc_scenarios::force_batched_reports(true),
            "--jobs" => {
                i += 1;
                opts.jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs <n> (0 = auto)");
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed <u64>");
            }
            "--out" => {
                i += 1;
                opts.out_dir = args.get(i).expect("--out <dir>").into();
            }
            "--points" => {
                i += 1;
                points = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--points <n>");
            }
            "--secs" => {
                i += 1;
                secs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--secs <n>");
                secs_set = true;
            }
            other if which.is_none() => which = Some(other.to_string()),
            other if matches!(which.as_deref(), Some("sweep" | "vary")) => {
                extras.push(other.to_string())
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| "list".into());
    // `vary` has its own scaled default duration; 0 lets the module pick
    // it (sweep keeps its historical 4 s default).
    let vary_secs = if secs_set { secs } else { 0 };
    let reg = registry();
    match which.as_str() {
        "list" => {
            println!("available experiments (run with `pcc-experiments <id> [--full]`):");
            for (id, desc, _) in &reg {
                println!("  {id:<8} {desc}");
            }
            println!("  all      run every experiment");
            println!("  algos    list every registered congestion-control algorithm");
            println!(
                "  sweep    sweep spec templates, e.g. sweep \"pcc:eps=0.01..0.1\" --points 3"
            );
            println!("  (vary also takes trace names: vary lte --secs 30 --jobs 4)");
            ExitCode::SUCCESS
        }
        "algos" => {
            pcc_scenarios::install_registry();
            println!("registered congestion-control algorithms (datapath-agnostic);");
            println!("parameterize with name:key=val,... :");
            for name in pcc_transport::registry::names() {
                println!("  {name}");
                for p in pcc_transport::registry::schema_of(&name).unwrap_or(&[]) {
                    println!("      {}=<{}>  {}", p.key, p.kind.describe(), p.doc);
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => match pcc_experiments::sweep::run_cli(&opts, &extras, points, secs) {
            Ok(_) => {
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "vary" => match pcc_experiments::vary::run_cli(&opts, &extras, vary_secs) {
            Ok(_) => {
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "all" => {
            for (id, desc, run) in &reg {
                println!("\n### {id}: {desc}\n");
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall clock only times the CLI's per-module progress report; results are computed by the deterministic runner"
                )]
                let t0 = std::time::Instant::now();
                let _ = run(&opts);
                println!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
            }
            println!("\nCSV output in {}", opts.out_dir.display());
            ExitCode::SUCCESS
        }
        id => match reg.iter().find(|(rid, _, _)| *rid == id) {
            Some((_, desc, run)) => {
                println!("### {id}: {desc}\n");
                let _ = run(&opts);
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{id}'; try `pcc-experiments list`");
                ExitCode::FAILURE
            }
        },
    }
}
