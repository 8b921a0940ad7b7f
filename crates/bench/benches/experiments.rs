//! The experiment benches: `cargo bench -p pcc-bench --bench experiments`
//! regenerates every table and figure of the paper (scaled durations; see
//! EXPERIMENTS.md). This is intentionally a `harness = false` binary, not a
//! statistical benchmark: each experiment runs once and prints its rows.

use pcc_experiments::{registry, Opts};

fn main() {
    let mut opts = Opts::default();
    if std::env::args().any(|a| a == "--full") {
        opts.full = true;
    }
    println!("Regenerating every PCC (NSDI'15) table and figure (scaled durations).");
    println!(
        "Pass --full for paper-scale runs. CSV lands in {}\n",
        opts.out_dir.display()
    );
    for (id, desc, run) in registry() {
        println!("\n### {id}: {desc}\n");
        #[expect(
            clippy::disallowed_methods,
            reason = "the benchmark clock: times deterministic work, never feeds it"
        )]
        let t0 = std::time::Instant::now();
        let tables = run(&opts);
        println!(
            "[{id}: {} table(s) in {:.1}s]",
            tables.len(),
            t0.elapsed().as_secs_f64()
        );
    }
}
