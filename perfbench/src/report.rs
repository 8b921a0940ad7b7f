//! The metric catalogue and the result line.
//!
//! The two lists below are the benchmark's metric set; `BENCHMARK.json`
//! at the repository root names the same metrics (a test keeps the two in
//! step). An untraced run reports every end-to-end metric, a traced run
//! every per-layer metric; a layer a workload does not exercise reports 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_mbps", "Mbps"),
    ("cpu_s_per_gb", "s/GB"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.sim.self_s", "s"),
    ("simnet.sim.ns_per_event", "ns"),
    ("simnet.sim.events", "count"),
    ("simnet.sim.peak_live", "count"),
    ("simnet.sim.recycled", "count"),
    ("simnet.sim.stale_packets", "count"),
    ("simnet.sim.stale_timers", "count"),
    ("transport.sender.self_s", "s"),
    ("transport.sender.calls", "count"),
    ("transport.sender.ns_per_call", "ns"),
    ("transport.sender.losses", "count"),
    ("cc.self_s", "s"),
    ("cc.ns_per_call", "ns"),
    ("cc.on_ack", "count"),
    ("cc.on_sent", "count"),
    ("cc.on_loss", "count"),
    ("cc.on_timer", "count"),
    ("cc.on_report", "count"),
    ("transport.receiver.self_s", "s"),
    ("transport.receiver.calls", "count"),
    ("simnet.queue.self_s", "s"),
    ("simnet.queue.ops", "count"),
    ("simnet.queue.drops", "count"),
    ("simnet.queue.max_backlog_bytes", "bytes"),
    ("scenarios.workload.self_s", "s"),
    ("scenarios.workload.us_per_arrival", "us"),
    ("scenarios.workload.arrivals", "count"),
    ("udp.sender.cpu_s", "s"),
    ("udp.sender.busy_frac", "ratio"),
    ("udp.sender.datagrams", "count"),
    ("udp.sender.losses", "count"),
    ("udp.receiver.cpu_s", "s"),
    ("udp.receiver.duplicates", "count"),
    ("experiments.runner.cpu_util", "ratio"),
    ("experiments.runner.jobs", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.timer_ns", "ns"),
    ("trace.addup_error", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.nproc", "count"),
];

/// Named metric values collected by a workload.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`, which must be one of the catalogue's names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The per-name median over several runs' metrics.
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            let v: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
            if !v.is_empty() {
                out.0.insert(name, crate::host::median(&v));
            }
        }
        out
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (flows, transfers, runs or cells).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
}

/// Print each metric of `catalogue` as a human-readable line, then the
/// result as one JSON object on the last line. A value that is missing
/// from an end-to-end run, or not finite, marks the run incorrect.
pub fn print_result(outcome: &Outcome, trace: bool) {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct && outcome.attempted > 0;
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            None if trace => 0.0,
            None => {
                correct = false;
                0.0
            }
        };
        println!("  {name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units of `list` as they appear in BENCHMARK.json.
    fn declared(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let len = rest[open..].find('"').expect("value closes");
                    rest[open..open + len].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (list, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&json, list), ours, "{list}");
        }
    }

    #[test]
    fn median_of_takes_each_metric_separately() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        let mut c = Metrics::default();
        a.set("wall_s", 1.0);
        b.set("wall_s", 3.0);
        c.set("wall_s", 2.0);
        c.set("cc.on_ack", 7.0);
        let m = Metrics::median_of(&[a, b, c]);
        assert_eq!(m.get("wall_s"), Some(2.0));
        assert_eq!(m.get("cc.on_ack"), Some(7.0));
    }
}
