//! Micro-benchmarks: simulator substrate hot paths, plus the
//! machine-readable `BENCH.json` perf baseline.
//!
//! `cargo bench -p pcc-bench --bench micro`
//!
//! Modes (environment variables):
//!
//! * `PCC_BENCH_FAST=1` — CI smoke: fewer samples, smallest experiment
//!   subset.
//! * default — full micro benches + a quick experiment subset timed at
//!   `--jobs 1` vs `--jobs N`.
//! * `PCC_BENCH_FULL=1` — times the *entire* experiment registry both
//!   ways (minutes).
//!
//! Always writes `BENCH.json` (to `$PCC_BENCH_OUT`, default
//! `target/bench/BENCH.json`): per-scenario events/sec and simulated
//! seconds per wall second, and the suite serial-vs-parallel wall clock.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use pcc_bench::bench;
use pcc_bench::report::{BenchReport, Scenario, SuiteTiming};
use pcc_core::{MiMetrics, SafeSigmoid, UtilityFunction};
use pcc_experiments::{registry, runner, Opts};
use pcc_scenarios::perf;
use pcc_scenarios::protocol::Protocol;
use pcc_simnet::event::{Event, EventQueue};
use pcc_simnet::ids::{FlowId, LinkId, Side};
use pcc_simnet::packet::{AckInfo, Packet};
use pcc_simnet::queue::{fq_codel, Codel, DropTail, FairQueue, Queue};
use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::report::ReportAggregator;
use pcc_transport::{registry as cc_registry, AckEvent, Ctx, Effects, Scoreboard, SentEvent};

fn fast_mode() -> bool {
    std::env::var_os("PCC_BENCH_FAST").is_some_and(|v| v != "0")
}

fn full_mode() -> bool {
    std::env::var_os("PCC_BENCH_FULL").is_some_and(|v| v != "0")
}

fn bench_event_queue() {
    bench("event_queue_push_pop_1k", 20, 20, || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos((i * 7919) % 10_000), Event::Sample);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    bench("event_queue_delay_line_1k", 20, 20, || {
        let mut q = EventQueue::new();
        delay_line_stream(&mut q, 1000);
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
}

/// `n` arrivals alternating between two constant-delay wires, with a
/// timer scheduled after every fourth: the simulator's steady state of
/// packets in flight plus a few pending timers.
fn delay_line_stream(q: &mut EventQueue, n: u64) {
    let pkt = Packet::data(FlowId(0), 0, 1500, SimTime::ZERO, false);
    for i in 0..n {
        let sent = SimTime::from_nanos(i * 1_200);
        let wire = LinkId((i % 2) as u32);
        q.schedule_arrival(wire, sent + SimDuration::from_millis(15), pkt);
        if i % 4 == 0 {
            q.schedule(
                sent + SimDuration::from_millis(200),
                Event::Timer {
                    flow: FlowId(0),
                    side: Side::Sender,
                    token: i,
                    gen: 0,
                },
            );
        }
    }
}

fn bench_queues() {
    let pkt = |s: u64| Packet::data(FlowId(s as u32 % 8), s, 1500, SimTime::ZERO, false);
    bench("qdisc_droptail_1k", 20, 20, || {
        let mut q = DropTail::bytes(1 << 20);
        for s in 0..1000 {
            q.enqueue(pkt(s), SimTime::from_nanos(s * 1000));
        }
        while q.dequeue(SimTime::from_millis(2)).is_some() {}
    });
    bench("qdisc_fair_queue_1k", 20, 20, || {
        let mut q = FairQueue::new(1 << 20);
        for s in 0..1000 {
            q.enqueue(pkt(s), SimTime::from_nanos(s * 1000));
        }
        while q.dequeue(SimTime::from_millis(2)).is_some() {}
    });
    bench("qdisc_codel_1k", 20, 20, || {
        let mut q = Codel::bytes(1 << 20);
        for s in 0..1000 {
            q.enqueue(pkt(s), SimTime::from_nanos(s * 1000));
        }
        while q.dequeue(SimTime::from_millis(2)).is_some() {}
    });
    bench("qdisc_fq_codel_1k", 20, 20, || {
        let mut q = fq_codel(1 << 20);
        for s in 0..1000 {
            q.enqueue(pkt(s), SimTime::from_nanos(s * 1000));
        }
        while q.dequeue(SimTime::from_millis(2)).is_some() {}
    });
}

fn bench_utility() {
    let u = SafeSigmoid::default();
    let m = MiMetrics {
        mi_id: 0,
        target_rate_bps: 1e8,
        send_rate_bps: 1e8,
        throughput_bps: 9.7e7,
        loss_rate: 0.012,
        avg_rtt: SimDuration::from_millis(31),
        prev_avg_rtt: Some(SimDuration::from_millis(30)),
        min_rtt: SimDuration::from_millis(30),
        rtt_slope: 0.001,
        duration: SimDuration::from_millis(60),
        started_at: SimTime::ZERO,
        sent: 500,
        acked: 494,
        lost: 6,
    };
    bench("safe_sigmoid_utility", 20, 5, || {
        black_box(u.utility(black_box(&m)));
    });
}

/// Measure the reference full-simulation scenarios (shared with the
/// `perf_probe` example through `pcc_scenarios::perf`, so the two tools
/// always quote the same workload).
fn bench_full_sim(out: &mut BenchReport) {
    let runs = if fast_mode() { 2 } else { 5 };
    for (name, wall_ms, events, sim_secs) in perf::time_all_scenarios(runs) {
        let s = Scenario {
            name: name.to_string(),
            wall_ms,
            events,
            sim_secs,
        };
        println!(
            "{name:<32} best {wall_ms:>9.3}ms   {:>12.0} events/s   {:>8.1} sim-s/wall-s",
            s.events_per_sec(),
            s.sim_secs_per_wall_sec(),
        );
        out.scenarios.push(s);
    }
}

/// The off-path control-plane twins: the reference PCC and CUBIC
/// dumbbells rerun with the engine flipped to 1-RTT batched reports.
/// Read against `full_sim_5s_{pcc,cubic}_100mbps` from [`bench_full_sim`]
/// (same link, same seed, same horizon), the pair quotes the end-to-end
/// engine-cost delta of moving the algorithm off the per-ACK path.
fn bench_batched_sim(out: &mut BenchReport) {
    let runs = if fast_mode() { 2 } else { 5 };
    let twins: [(&str, Protocol); 2] = [
        (
            "full_sim_5s_pcc_batched",
            Protocol::pcc_default(SimDuration::from_millis(30)),
        ),
        ("full_sim_5s_cubic_batched", Protocol::Tcp("cubic")),
    ];
    for (name, proto) in twins {
        let (wall_ms, events) = perf::time_batched_scenario(&proto, runs);
        let s = Scenario {
            name: name.to_string(),
            wall_ms,
            events,
            sim_secs: perf::REFERENCE_SIM_SECS as f64,
        };
        println!(
            "{name:<32} best {wall_ms:>9.3}ms   {:>12.0} events/s   {:>8.1} sim-s/wall-s",
            s.events_per_sec(),
            s.sim_secs_per_wall_sec(),
        );
        out.scenarios.push(s);
    }
}

/// Pure engine-dispatch cost, no simulator: drive one algorithm object
/// with synthetic sent+ACK pairs at 100 µs spacing, once through the
/// per-ACK callback path (`on_sent` + `on_ack` + an effects drain per
/// packet, due timers delivered) and once through the batched path (the
/// aggregator absorbs each event and the algorithm sees one
/// `on_report` per 300 packets ≈ one 30 ms RTT). The wall-clock delta is
/// the control-plane work a datapath core sheds when feedback goes
/// off-path.
fn bench_cc_dispatch(out: &mut BenchReport) {
    pcc_scenarios::install_registry();
    const PKTS: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    const SPACING_US: u64 = 100;
    const PER_REPORT: u64 = 300;
    let rtt = SimDuration::from_millis(30);
    let sim_secs = (PKTS * SPACING_US) as f64 / 1e6;
    let runs = if fast_mode() { 2 } else { 5 };

    let drive = |algo: &str, batched: bool| -> f64 {
        let params = cc_registry::CcParams::default().with_rtt_hint(rtt);
        let mut cc = cc_registry::by_name(algo, &params).expect("registered algorithm");
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        let mut timers: Vec<(SimTime, u64)> = Vec::new();
        let mut agg = ReportAggregator::default();
        let mut now = SimTime::ZERO;
        {
            let mut ctx = Ctx::new(now, &mut rng, &mut fx);
            cc.on_start(&mut ctx);
        }
        timers.extend(fx.drain().timers);
        if batched {
            agg.begin(now);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the benchmark clock: times deterministic work, never feeds it"
        )]
        let t0 = Instant::now();
        for i in 0..PKTS {
            now = SimTime::from_nanos(i * SPACING_US * 1_000);
            // Timers fire on both paths (batched mode withholds event
            // callbacks, not the clock).
            while let Some(ix) = timers.iter().position(|&(at, _)| at <= now) {
                let (_, token) = timers.swap_remove(ix);
                {
                    let mut ctx = Ctx::new(now, &mut rng, &mut fx);
                    cc.on_timer(token, &mut ctx);
                }
                timers.extend(fx.drain().timers);
            }
            let sent = SentEvent {
                now,
                seq: i,
                bytes: 1500,
                retx: false,
                in_flight: 30,
            };
            let ack = AckEvent {
                now,
                seq: i,
                rtt,
                sampled: true,
                srtt: rtt,
                min_rtt: rtt,
                max_rtt: rtt,
                recv_at: now,
                probe_train: cc.probe_tag(),
                of_retx: false,
                cum_ack: i + 1,
                newly_acked: 1,
                in_flight: 30,
                mss: 1500,
                in_recovery: false,
            };
            if batched {
                agg.on_sent(&sent);
                agg.on_ack(&ack);
                if (i + 1) % PER_REPORT == 0 {
                    let mut rep = agg.take(now);
                    rep.srtt = rtt;
                    rep.min_rtt = rtt;
                    rep.in_flight = 30;
                    rep.cum_ack = i + 1;
                    rep.mss = 1500;
                    {
                        let mut ctx = Ctx::new(now, &mut rng, &mut fx);
                        cc.on_report(&rep, &mut ctx);
                    }
                    timers.extend(fx.drain().timers);
                }
            } else {
                {
                    let mut ctx = Ctx::new(now, &mut rng, &mut fx);
                    cc.on_sent(&sent, &mut ctx);
                }
                timers.extend(fx.drain().timers);
                {
                    let mut ctx = Ctx::new(now, &mut rng, &mut fx);
                    cc.on_ack(&ack, &mut ctx);
                }
                timers.extend(fx.drain().timers);
            }
        }
        t0.elapsed().as_secs_f64() * 1000.0
    };

    for algo in ["cubic", "newreno", "pcc"] {
        for (suffix, batched) in [("per_ack", false), ("batched", true)] {
            let mut best_ms = f64::MAX;
            for _ in 0..runs {
                best_ms = best_ms.min(drive(algo, batched));
            }
            let s = Scenario {
                name: format!("cc_dispatch_{algo}_{suffix}"),
                wall_ms: best_ms,
                events: PKTS,
                sim_secs,
            };
            println!(
                "{:<32} best {best_ms:>9.3}ms   {:>12.0} events/s   {:>8.1} sim-s/wall-s",
                s.name,
                s.events_per_sec(),
                s.sim_secs_per_wall_sec(),
            );
            out.scenarios.push(s);
        }
    }
}

/// The scoreboard's per-ACK loss bookkeeping in PCC's rate mode, alone: a
/// 250-packet window (100 Mbps over a 30 ms RTT), every packet SACKed one
/// RTT after it left and followed by a loss scan at RTO = 1.05 × RTT —
/// the rate-mode RTO sits just above the RTT. 1% of originals are dropped
/// and retransmitted once the reordering rule finds them. One event is one
/// ACK plus its scan.
fn bench_scoreboard(out: &mut BenchReport) {
    const ACKS: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    let rtt = SimDuration::from_millis(30);
    let rto = SimDuration::from_nanos(rtt.as_nanos() * 105 / 100);
    let gap = SimDuration::from_nanos(rtt.as_nanos() / 250);
    let runs = if fast_mode() { 2 } else { 5 };

    let drive = || -> f64 {
        let mut sb = Scoreboard::new();
        // `(arrive_at, seq, sent_at)`: every packet takes exactly one RTT,
        // so arrivals stay in order.
        let mut arrivals: VecDeque<(SimTime, u64, SimTime)> = VecDeque::new();
        let mut received: Vec<bool> = Vec::new();
        let (mut cum, mut acks) = (0u64, 0u64);
        let mut next_send = SimTime::ZERO;
        #[expect(
            clippy::disallowed_methods,
            reason = "the benchmark clock: times deterministic work, never feeds it"
        )]
        let t0 = Instant::now();
        while acks < ACKS {
            match arrivals.front() {
                Some(&(now, seq, sent_at)) if now <= next_send => {
                    arrivals.pop_front();
                    received[seq as usize] = true;
                    while received.get(cum as usize) == Some(&true) {
                        cum += 1;
                    }
                    let info = AckInfo {
                        acked_seq: seq,
                        cum_ack: cum,
                        echo_sent_at: sent_at,
                        recv_at: now,
                        probe_train: None,
                        of_retx: false,
                    };
                    black_box(sb.on_ack(&info, now));
                    for seq in sb.detect_losses(now, rto) {
                        sb.on_send(seq, now, true);
                        arrivals.push_back((now + rtt, seq, now));
                    }
                    acks += 1;
                }
                _ => {
                    let (now, seq) = (next_send, sb.next_seq());
                    sb.on_send(seq, now, false);
                    received.push(false);
                    if seq % 100 != 37 {
                        arrivals.push_back((now + rtt, seq, now));
                    }
                    next_send = now + gap;
                }
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        let losses = sb.total_losses();
        assert!(
            losses > 0 && losses * 100 <= sb.next_seq() + 100,
            "only the 1% holes are lost: {losses} of {}",
            sb.next_seq()
        );
        ms
    };

    let mut best_ms = f64::MAX;
    for _ in 0..runs {
        best_ms = best_ms.min(drive());
    }
    let s = Scenario {
        name: "scoreboard_rate_mode_ack_clock".to_string(),
        wall_ms: best_ms,
        events: ACKS,
        sim_secs: (ACKS * gap.as_nanos()) as f64 / 1e9,
    };
    println!(
        "{:<32} best {best_ms:>9.3}ms   {:>12.0} events/s   {:>8.1} sim-s/wall-s",
        s.name,
        s.events_per_sec(),
        s.sim_secs_per_wall_sec(),
    );
    out.scenarios.push(s);
}

/// Time a subset of the experiment registry serially (`jobs = 1`) and in
/// parallel (`jobs = N`): the BENCH.json datapoint for the parallel
/// runner. Tables print as a side effect (they are the workload).
fn bench_experiments_suite(out: &mut BenchReport) {
    let ids: Vec<&str> = if full_mode() {
        registry().iter().map(|(id, _, _)| *id).collect()
    } else if fast_mode() {
        vec!["fig11", "fig15"]
    } else {
        vec!["fig07", "fig09", "fig11", "fig15", "sec442"]
    };
    let time_suite = |jobs: usize, dir: &str| -> f64 {
        let opts = Opts {
            jobs,
            out_dir: std::env::temp_dir().join(dir),
            ..Opts::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the benchmark clock: times deterministic work, never feeds it"
        )]
        let t0 = Instant::now();
        for (id, _, run) in registry() {
            if ids.contains(&id) {
                let _ = run(&opts);
            }
        }
        t0.elapsed().as_secs_f64()
    };
    // Untimed warmup: the first experiment after a build pays first-touch
    // costs (code pages, registry init, out-dir creation) that would
    // otherwise all land on the serial pass and inflate the recorded
    // speedup.
    if let Some(&first) = ids.first() {
        for (id, _, run) in registry() {
            if id == first {
                let _ = run(&Opts {
                    jobs: 1,
                    out_dir: std::env::temp_dir().join("pcc_bench_suite_warmup"),
                    ..Opts::default()
                });
            }
        }
    }
    let serial_secs = time_suite(1, "pcc_bench_suite_serial");
    let jobs = runner::auto_jobs();
    let parallel_secs = time_suite(jobs, "pcc_bench_suite_parallel");
    let suite = SuiteTiming {
        ids: ids.iter().map(|s| s.to_string()).collect(),
        jobs,
        serial_secs,
        parallel_secs,
    };
    println!(
        "experiments_suite {:?}: serial {serial_secs:.1}s vs --jobs {jobs} {parallel_secs:.1}s \
         (speedup {:.2}x)",
        suite.ids,
        suite.speedup(),
    );
    out.suite = Some(suite);
}

fn main() {
    if !fast_mode() {
        bench_event_queue();
        bench_queues();
        bench_utility();
    } else {
        // Smoke the micro harness cheaply so CI still exercises it.
        bench("event_queue_smoke", 1, 1, || {
            let mut q = EventQueue::new();
            for i in 0..100u64 {
                q.schedule(SimTime::from_nanos(i * 7919 % 1000), Event::Sample);
            }
            delay_line_stream(&mut q, 100);
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    }
    let mut out = BenchReport {
        mode: if full_mode() {
            "full"
        } else if fast_mode() {
            "fast"
        } else {
            "default"
        }
        .to_string(),
        cores: runner::auto_jobs(),
        ..Default::default()
    };
    bench_full_sim(&mut out);
    bench_batched_sim(&mut out);
    bench_cc_dispatch(&mut out);
    bench_scoreboard(&mut out);
    bench_experiments_suite(&mut out);
    let path = BenchReport::default_path();
    match out.write(&path) {
        Ok(()) => println!("\nBENCH.json written to {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
