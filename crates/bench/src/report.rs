//! The machine-readable perf baseline: `BENCH.json`.
//!
//! Every bench run leaves a JSON datapoint so perf regressions are
//! diffable across PRs instead of anecdotal. The file carries, per
//! full-simulation scenario, the wall clock, the simulator event count,
//! **events/sec**, and **simulated seconds per wall second** — plus the
//! wall clock of the experiment suite at `--jobs 1` vs `--jobs N` and
//! the resulting speedup.
//!
//! The writer is hand-rolled (the workspace is dependency-free by
//! construction); the schema is flat enough that any JSON reader — or
//! `jq` — consumes it directly.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One full-simulation scenario measurement.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Bench name, e.g. `full_sim_5s_pcc_100mbps`.
    pub name: String,
    /// Best-of-runs wall clock, milliseconds.
    pub wall_ms: f64,
    /// Simulator events processed in one run.
    pub events: u64,
    /// Simulated duration of one run, seconds.
    pub sim_secs: f64,
}

impl Scenario {
    /// Simulator events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1000.0).max(1e-12)
    }

    /// Simulated seconds advanced per wall-clock second.
    pub fn sim_secs_per_wall_sec(&self) -> f64 {
        self.sim_secs / (self.wall_ms / 1000.0).max(1e-12)
    }
}

/// Wall clock of the experiment suite at `--jobs 1` vs `--jobs N`.
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// Which experiment ids were timed (a fast subset by default).
    pub ids: Vec<String>,
    /// Worker count of the parallel run.
    pub jobs: usize,
    /// Serial (`--jobs 1`) wall clock, seconds.
    pub serial_secs: f64,
    /// Parallel (`--jobs N`) wall clock, seconds.
    pub parallel_secs: f64,
}

impl SuiteTiming {
    /// Serial / parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-12)
    }
}

/// The whole `BENCH.json` document.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Which mode produced it (`fast`, `default`, `full`).
    pub mode: String,
    /// Available cores on the measuring machine.
    pub cores: usize,
    /// Full-simulation scenario measurements.
    pub scenarios: Vec<Scenario>,
    /// Experiment-suite timing, when measured.
    pub suite: Option<SuiteTiming>,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl BenchReport {
    /// Render the document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", esc(&self.mode)));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        #[expect(
            clippy::disallowed_types,
            reason = "stamps the report file; no measured result reads it"
        )]
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        out.push_str(&format!("  \"timestamp_unix\": {stamp},\n"));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, \
                 \"events_per_sec\": {:.0}, \"sim_secs\": {:.3}, \
                 \"sim_secs_per_wall_sec\": {:.2}}}{}\n",
                esc(&s.name),
                s.wall_ms,
                s.events,
                s.events_per_sec(),
                s.sim_secs,
                s.sim_secs_per_wall_sec(),
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ]");
        if let Some(suite) = &self.suite {
            let ids: Vec<String> = suite
                .ids
                .iter()
                .map(|i| format!("\"{}\"", esc(i)))
                .collect();
            out.push_str(&format!(
                ",\n  \"experiments_suite\": {{\n    \"ids\": [{}],\n    \"jobs\": {},\n    \
                 \"serial_secs\": {:.3},\n    \"parallel_secs\": {:.3},\n    \
                 \"speedup\": {:.3}\n  }}",
                ids.join(", "),
                suite.jobs,
                suite.serial_secs,
                suite.parallel_secs,
                suite.speedup(),
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// Write the document to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Where the report lands: `$PCC_BENCH_OUT`, or
    /// `target/bench/BENCH.json` under the *workspace* root (anchored at
    /// compile time — `cargo bench` sets the bench's cwd to the crate
    /// directory, which would otherwise sprout a stray `target/`).
    pub fn default_path() -> PathBuf {
        std::env::var_os("PCC_BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench/BENCH.json")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            mode: "fast".into(),
            cores: 4,
            scenarios: vec![Scenario {
                name: "full_sim_5s_pcc_100mbps".into(),
                wall_ms: 50.0,
                events: 250_000,
                sim_secs: 5.0,
            }],
            suite: Some(SuiteTiming {
                ids: vec!["fig07".into(), "fig15".into()],
                jobs: 4,
                serial_secs: 10.0,
                parallel_secs: 4.0,
            }),
        }
    }

    #[test]
    fn derived_rates() {
        let r = sample();
        assert_eq!(r.scenarios[0].events_per_sec(), 5_000_000.0);
        assert_eq!(r.scenarios[0].sim_secs_per_wall_sec(), 100.0);
        assert_eq!(r.suite.as_ref().expect("set").speedup(), 2.5);
    }

    #[test]
    fn json_shape_and_write() {
        let r = sample();
        let json = r.to_json();
        for needle in [
            "\"mode\": \"fast\"",
            "\"events_per_sec\": 5000000",
            "\"sim_secs_per_wall_sec\": 100.00",
            "\"experiments_suite\"",
            "\"speedup\": 2.500",
            "\"ids\": [\"fig07\", \"fig15\"]",
        ] {
            assert!(json.contains(needle), "{needle} in:\n{json}");
        }
        // Balanced braces/brackets (a cheap well-formedness check given
        // the no-deps constraint).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let path = std::env::temp_dir().join("pcc_bench_report_test/BENCH.json");
        r.write(&path).expect("writes");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), json);
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = sample();
        r.mode = "we\"ird\\mode".into();
        let json = r.to_json();
        assert!(json.contains("we\\\"ird\\\\mode"));
    }
}
