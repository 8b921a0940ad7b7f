//! `fig07_loss`: the `fig07` experiment as a user regenerates it, through
//! `pcc_experiments`' runner at one job per core: PCC, BBR, Illinois and
//! CUBIC each over ten random-loss rates, 30 simulated seconds per cell.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pcc_experiments::fig07_loss::{self, LOSS_RATES};
use pcc_experiments::{fmt, runner, Opts, Table};
use pcc_scenarios::links::{lossy_setup, run_lossy};
use pcc_scenarios::Protocol;
use pcc_simnet::time::{SimDuration, SimTime};

use crate::host::{self, median};
use crate::report::{Metrics, Outcome};
use crate::{sim, trace};

/// Where the experiment writes its CSV, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

const RTT: SimDuration = SimDuration::from_millis(30);
/// The experiment's cell length and warm-up at its default scale.
const CELL_SECS: u64 = 30;
const WARMUP_SECS: u64 = 8;
/// The scenario builders' default stats sampling interval.
const SAMPLE: SimDuration = SimDuration::from_millis(100);

/// The table's protocol columns, in order.
fn protocols() -> [Protocol; 4] {
    [
        Protocol::pcc_default(RTT),
        Protocol::Named("bbr".into()),
        Protocol::Tcp("illinois"),
        Protocol::Tcp("cubic"),
    ]
}

fn opts(seed: u64) -> Opts {
    Opts {
        full: false,
        out_dir: PathBuf::from(OUT_DIR),
        seed,
        jobs: runner::auto_jobs(),
    }
}

/// Every cell of the rendered table, row by row: `None` for a cell that is
/// missing or not a finite number.
fn cells(table: &Table) -> Vec<Option<f64>> {
    let text = table.render();
    let rows: Vec<&str> = text.lines().skip(3).collect();
    let mut out = Vec::new();
    for i in 0..LOSS_RATES.len() {
        let fields: Vec<&str> = rows
            .get(i)
            .map_or(Vec::new(), |r| r.split_whitespace().collect());
        for col in 1..=protocols().len() {
            out.push(
                fields
                    .get(col)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite()),
            );
        }
    }
    out
}

/// Set-up: the registry, the output directory, and the forty cells'
/// networks (topology, links, the flow and its algorithm), each built as
/// `run_lossy` builds it and dropped, not run.
fn setup(seed: u64) {
    fs::create_dir_all(OUT_DIR).expect("output directory inside the checkout");
    for &loss in LOSS_RATES {
        for p in protocols() {
            let link = lossy_setup(loss);
            drop(black_box(sim::dumbbell(
                &link,
                &[(p, SimTime::ZERO)],
                seed,
                SAMPLE,
                false,
            )));
        }
    }
}

/// One regeneration of the figure: wall and process CPU seconds, and its
/// table's cells.
fn regenerate(seed: u64) -> (f64, f64, Vec<Option<f64>>) {
    let opts = opts(seed);
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let tables = fig07_loss::run(&opts);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    (wall, cpu, tables.first().map_or(Vec::new(), cells))
}

/// End-to-end run: the experiment repeated for `seconds`.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut walls, mut cpu_per_gb, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<Option<f64>>> = None;
    let started = Instant::now();
    while walls.len() < 2 || started.elapsed() < seconds {
        setups.extend(host::time_setup(5, || setup(seed), drop));
        let (wall, cpu, cells) = regenerate(seed);
        walls.push(wall);
        out.attempted += (LOSS_RATES.len() * protocols().len()) as u64;
        out.failed += cells.iter().filter(|c| c.is_none()).count() as u64;
        // Simulated gigabytes delivered inside the measured windows.
        let window = (CELL_SECS - WARMUP_SECS) as f64;
        let gb: f64 = cells.iter().flatten().map(|mbps| mbps * window / 8e3).sum();
        cpu_per_gb.push(cpu / gb);
        match &first {
            None => first = Some(cells),
            Some(f) => out.correct &= *f == cells,
        }
    }
    let cells = first.expect("at least one regeneration");
    // The PCC cell at 1% loss, at full precision, from the same scenario
    // the figure runs; it must round to the table's value.
    let at = LOSS_RATES
        .iter()
        .position(|&l| l == 0.01)
        .expect("fig07 sweeps 1% loss");
    let cols = protocols().len();
    let r = run_lossy(
        protocols()[0].clone(),
        0.01,
        SimDuration::from_secs(CELL_SECS),
        seed,
    );
    let pcc = r.throughput_in(
        0,
        SimTime::from_secs(WARMUP_SECS),
        SimTime::from_secs(CELL_SECS),
    );
    out.correct &= cells[at * cols] == fmt(pcc).parse::<f64>().ok();
    out.correct &= out.failed == 0;
    // The paper's claim for this cell (PCC near capacity, CUBIC about 10x
    // below) is reported, not enforced: it is a property of the algorithm
    // under this seed, not of the program's outputs being computed right.
    let cubic = cells[at * cols + 3].unwrap_or(f64::NAN);
    println!(
        "fig07_loss: {} cells per regeneration; at 1% loss pcc {pcc:.3} Mbps, cubic {cubic} Mbps; \
         paper claim (pcc >= 90 Mbps and >= 5x cubic) {}",
        cells.len(),
        if pcc >= 90.0 && pcc >= 5.0 * cubic {
            "holds"
        } else {
            "does not hold"
        }
    );
    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("goodput_mbps", pcc);
    m.set("cpu_s_per_gb", median(&cpu_per_gb));
    out
}

/// Traced run: the runner's CPU use while regenerating for `seconds`. No
/// decorator reaches inside the experiment's jobs, so the other layers
/// report 0 here.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let cal = trace::calibrate();
    let jobs = runner::auto_jobs();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 2 || started.elapsed() < seconds {
        let (wall, cpu, cells) = regenerate(seed);
        out.attempted += cells.len() as u64;
        out.failed += cells.iter().filter(|c| c.is_none()).count() as u64;
        let mut m = Metrics::default();
        m.set("experiments.runner.cpu_util", cpu / (wall * jobs as f64));
        m.set("experiments.runner.jobs", jobs as f64);
        m.set("trace.timer_ns", cal.timer_ns);
        runs.push(m);
    }
    out.correct = out.failed == 0;
    out.metrics = Metrics::median_of(&runs);
    crate::finish_traced(&mut out);
    out
}
