//! The many-flow load workloads (`fanout`, `lossy_hol`): `LoadScenario`
//! runs over `SimTransport`, sharded with `run_sharded`, checked against
//! expected streams computed from the scenario in set-up.

use crate::spans::SpanRecorder;
use crate::stats::{delay_note, Ratio};
use crate::timing::{self, Timed};
use crate::{Layer, RepResult};
use minion_engine::{
    fnv1a, Absorb, EngineMetrics, LoadObs, LoadReport, LoadScenario, PoolStats, SimTransport,
    FNV_OFFSET_BASIS,
};
use minion_simnet::LossConfig;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadKind {
    Fanout,
    LossyHol,
}

/// One load workload: its passes (uTCP receivers first; `lossy_hol` adds a
/// standard-TCP pass on the same seed), the expected stream of every flow,
/// and the first repetition's reports, which every later one must equal.
pub struct LoadWorkload {
    kind: LoadKind,
    passes: Vec<LoadScenario>,
    /// Per global flow: FNV-1a fingerprint and length of the sent stream.
    expected: Vec<(u64, u64)>,
    reference: Vec<Option<LoadReport>>,
    threads: usize,
}

/// Build the workload for `seed`: scenarios plus the expected per-flow
/// streams (the set-up the benchmark times).
pub fn prepare(kind: LoadKind, seed: u64, threads: usize) -> LoadWorkload {
    let utcp = match kind {
        // Without loss nothing else in fanout depends on the seed, so the
        // seed picks the nominal record size around 160 B.
        LoadKind::Fanout => LoadScenario {
            flows: 16_384,
            records_per_flow: 12,
            record_len: 150 + (seed % 21) as usize,
            loss: LossConfig::None,
            receiver_utcp: true,
            seed,
            ..LoadScenario::default()
        },
        LoadKind::LossyHol => LoadScenario {
            flows: 512,
            records_per_flow: 128,
            record_len: 600,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            receiver_utcp: true,
            seed,
            ..LoadScenario::default()
        },
    };
    let mut passes = vec![utcp.clone()];
    if kind == LoadKind::LossyHol {
        passes.push(LoadScenario {
            receiver_utcp: false,
            ..utcp.clone()
        });
    }
    let mut buf = Vec::new();
    let expected = (0..utcp.flows)
        .map(|flow| {
            buf.clear();
            utcp.build_stream(flow, &mut buf);
            let mut fp = FNV_OFFSET_BASIS;
            fnv1a(&mut fp, &buf);
            (fp, buf.len() as u64)
        })
        .collect();
    LoadWorkload {
        kind,
        reference: vec![None; passes.len()],
        passes,
        expected,
        threads,
    }
}

/// Records of `report` that were not delivered exactly once and intact, or
/// (standard receivers) arrived out of order. Checked flow by flow against
/// the streams computed in set-up.
fn bad_records(pass: &LoadScenario, report: &LoadReport, expected: &[(u64, u64)]) -> u64 {
    let per_flow = pass.records_per_flow as u64;
    if report.per_flow.len() != pass.flows {
        return pass.flows as u64 * per_flow;
    }
    report
        .per_flow
        .iter()
        .enumerate()
        .filter(|(i, f)| {
            let (fp, len) = expected[*i];
            f.flow as usize != *i
                || f.records_delivered != per_flow
                || f.bytes_delivered != len
                || f.fingerprint != fp
                || (!pass.receiver_utcp && f.chunks_out_of_order != 0)
        })
        .count() as u64
        * per_flow
}

/// Check one pass's report: against the expected streams, and against the
/// first repetition's report (every deterministic field must repeat; a
/// repetition that differs fails as a whole).
fn check(w: &mut LoadWorkload, pass: usize, report: LoadReport) -> RepResult {
    let scenario = &w.passes[pass];
    let attempted = (scenario.flows * scenario.records_per_flow) as u64;
    let mut failed = bad_records(scenario, &report, &w.expected);
    match &w.reference[pass] {
        Some(reference) if *reference != report => {
            eprintln!(
                "[{}] report differs from the first repetition",
                report.label
            );
            failed = attempted;
        }
        Some(_) => {}
        None => w.reference[pass] = Some(report),
    }
    RepResult {
        attempted,
        delivered: attempted - failed,
        failed,
    }
}

fn run_checked(w: &mut LoadWorkload, pass: usize, threads: usize) -> RepResult {
    let scenario = &w.passes[pass];
    match catch_unwind(AssertUnwindSafe(|| scenario.run_sharded(threads))) {
        Ok(report) => check(w, pass, report),
        Err(_) => {
            let attempted = (scenario.flows * scenario.records_per_flow) as u64;
            RepResult {
                attempted,
                delivered: 0,
                failed: attempted,
            }
        }
    }
}

/// One repetition: every pass, sharded on the benchmark's thread count.
pub fn rep(w: &mut LoadWorkload) -> RepResult {
    let threads = w.threads;
    (0..w.passes.len()).fold(RepResult::default(), |acc, p| {
        acc + run_checked(w, p, threads)
    })
}

fn reference(w: &LoadWorkload, pass: usize) -> &LoadReport {
    w.reference[pass]
        .as_ref()
        .expect("a repetition ran before metrics are read")
}

/// Delivery-delay metrics from the first repetition (virtual time, so every
/// repetition of a seed reads the same): `(p50, p99, ordered p99)` in ms.
/// Notes give each receiver's sample count and tail level. `None` when a
/// p99 has fewer than ten samples beyond it.
pub fn delays(w: &LoadWorkload, notes: &mut Vec<String>) -> Option<(f64, f64, f64)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut p99 = |what: &str, r: &LoadReport| -> Option<(f64, f64)> {
        let h = &r.obs.delivery_delay;
        let (note, valid) = delay_note(what, h.count(), |l| ms(h.quantile_milli(l * 10)));
        notes.push(note);
        valid.then(|| (ms(h.p50()), ms(h.p99())))
    };
    let unordered = reference(w, 0);
    let (p50, unordered_p99) = p99("unordered (uTCP)", unordered)?;
    if w.kind == LoadKind::LossyHol {
        let (_, ordered_p99) = p99("ordered (TCP)", reference(w, 1))?;
        return Some((p50, unordered_p99, ordered_p99));
    }
    // fanout has no loss and no ordered twin. With no chunk out of order,
    // the unordered receiver delivered exactly in stream order, so its
    // delays are the in-order delays.
    let ooo: u64 = unordered
        .per_flow
        .iter()
        .map(|f| f.chunks_out_of_order)
        .sum();
    if ooo != 0 {
        notes.push(format!(
            "fanout delivered {ooo} chunks out of order without loss"
        ));
        return None;
    }
    notes.push(
        "ordered delay: every chunk arrived in order, so it equals the unordered delay".into(),
    );
    Some((p50, unordered_p99, unordered_p99))
}

/// Wall-clock sums of one traced cycle, in nanoseconds.
#[derive(Default)]
struct CycleTimes {
    serial_ns: u64,
    parallel_ns: u64,
    traced_ns: u64,
    run_on_ns: u64,
    driver_self_ns: u64,
    step_ns: u64,
    step_calls: u64,
    read_ns: u64,
    read_calls: u64,
    write_ns: u64,
    take_ns: u64,
    connect_ns: u64,
    close_ns: u64,
    finish_ns: u64,
    stats_ns: u64,
    phase_ns: [u64; 3],
    merge_ns: u64,
}

/// One traced cycle of one pass: an untraced `run_sharded(1)` and
/// `run_sharded(threads)` for the executor speed-up, then every shard
/// serially through `run_on` over the timing decorator. The traced shard
/// reports must merge to exactly the untraced report.
fn trace_pass(
    w: &mut LoadWorkload,
    pass: usize,
    t: &mut CycleTimes,
) -> (RepResult, Option<SpanRecorder>) {
    let threads = w.threads;
    let start = Instant::now();
    let mut res = run_checked(w, pass, 1);
    t.serial_ns += start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    res = res + run_checked(w, pass, threads);
    t.parallel_ns += start.elapsed().as_nanos() as u64;

    let scenario = w.passes[pass].clone();
    let attempted = (scenario.flows * scenario.records_per_flow) as u64;
    let rec = RefCell::new(SpanRecorder::new());
    let start = Instant::now();
    let traced = catch_unwind(AssertUnwindSafe(|| {
        let mut reports = Vec::with_capacity(scenario.shard_count());
        for s in 0..scenario.shard_count() {
            let shard = scenario.shard(s);
            let mut transport = Timed::new(SimTransport::new(&shard), &rec, s as u64);
            let root = rec.borrow_mut().open("run_on", s as u64);
            let report = shard.run_on(&mut transport);
            rec.borrow_mut().close(root);
            // Phases accrue in `step` and in `finish`; keep the step share.
            let phases = report.phases.get();
            for (i, acc) in t.phase_ns.iter_mut().enumerate() {
                *acc += phases.nanos(i) - transport.finish_phase_ns[i];
            }
            reports.push(report);
        }
        reports
    }));
    t.traced_ns += start.elapsed().as_nanos() as u64;
    let Ok(reports) = traced else {
        let failed = RepResult {
            attempted,
            delivered: 0,
            failed: attempted,
        };
        return (res + failed, None);
    };

    let start = Instant::now();
    let mut obs = LoadObs::default();
    for r in &reports {
        obs.absorb(&r.obs);
    }
    t.merge_ns += start.elapsed().as_nanos() as u64;

    // The decorator forwards every call unchanged, so the traced shards
    // must reproduce the untraced run's deterministic report exactly.
    let mut engine = EngineMetrics::default();
    let mut pool = PoolStats::default();
    for r in &reports {
        engine.absorb(&r.engine);
        pool.absorb(&r.pool);
    }
    let untraced = reference(w, pass);
    let per_flow_same = reports
        .iter()
        .flat_map(|r| r.per_flow.iter())
        .eq(untraced.per_flow.iter());
    let identical = per_flow_same
        && obs == untraced.obs
        && engine == untraced.engine
        && pool == untraced.pool
        && reports.iter().map(|r| r.records_delivered).sum::<u64>() == untraced.records_delivered
        && reports.iter().map(|r| r.total_bytes).sum::<u64>() == untraced.total_bytes
        && reports.iter().map(|r| r.completion_us).max() == Some(untraced.completion_us);
    let failed = if identical {
        0
    } else {
        eprintln!(
            "[{}] traced shards differ from the untraced report",
            untraced.label
        );
        attempted
    };
    res = res
        + RepResult {
            attempted,
            delivered: attempted - failed,
            failed,
        };

    let rec = rec.into_inner();
    let total = |name: &str| rec.total(name);
    let sum = |names: &[&str]| names.iter().map(|n| total(n).0).sum::<u64>();
    t.run_on_ns += total("run_on").0;
    t.driver_self_ns += rec.self_time_of("run_on");
    let (step_ns, step_calls) = total(timing::STEP);
    t.step_ns += step_ns;
    t.step_calls += step_calls;
    let (read_ns, read_calls) = total(timing::READ);
    t.read_ns += read_ns;
    t.read_calls += read_calls;
    t.write_ns += total(timing::WRITE).0;
    t.take_ns += sum(&timing::TAKE);
    t.connect_ns += total(timing::CONNECT).0;
    t.close_ns += total(timing::CLOSE).0;
    t.finish_ns += total(timing::FINISH).0;
    t.stats_ns += sum(&timing::STATS);
    (res, Some(rec))
}

/// The traced run: whole traced cycles until `seconds` have passed (at
/// least one); times are per-cycle means, counts come from the reports.
/// Returns the span recorders of the last cycle, one per pass.
pub fn trace(
    w: &mut LoadWorkload,
    seconds: f64,
    layer: &mut Layer,
) -> (RepResult, Vec<SpanRecorder>) {
    let mut res = rep(w); // the reference reports
    let mut t = CycleTimes::default();
    let mut cycles = 0u64;
    let mut last = Vec::new();
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        last.clear();
        for pass in 0..w.passes.len() {
            let (r, rec) = trace_pass(w, pass, &mut t);
            res = res + r;
            last.extend(rec);
        }
        cycles += 1;
    }
    let per_cycle_ms = |ns: u64| ns as f64 / cycles as f64 / 1e6;
    let records: u64 = (0..w.passes.len())
        .map(|p| reference(w, p).records_delivered)
        .sum();

    let phase_ms: Vec<f64> = t.phase_ns.iter().map(|&ns| per_cycle_ms(ns)).collect();
    let step_ms = per_cycle_ms(t.step_ns);
    let transport_ms = step_ms
        + [
            t.read_ns,
            t.write_ns,
            t.take_ns,
            t.connect_ns,
            t.close_ns,
            t.finish_ns,
            t.stats_ns,
        ]
        .iter()
        .map(|&ns| per_cycle_ms(ns))
        .sum::<f64>();
    let driver_self_ms = per_cycle_ms(t.driver_self_ns);
    let run_on_ms = per_cycle_ms(t.run_on_ns);
    layer.note(format!(
        "run_on {run_on_ms:.3} ms = driver self {driver_self_ms:.3} ms + transport {transport_ms:.3} ms (residual {:.6} ms) over {cycles} traced cycle(s)",
        run_on_ms - driver_self_ms - transport_ms
    ));

    layer.time("driver.self_ms", driver_self_ms);
    layer.ratio("driver.self_share", Ratio::new(driver_self_ms, run_on_ms));
    layer.time("transport.step_ms", step_ms);
    layer.count("transport.step_calls", t.step_calls / cycles);
    layer.time("transport.read_ms", per_cycle_ms(t.read_ns));
    layer.count("transport.read_calls", t.read_calls / cycles);
    layer.time("transport.write_ms", per_cycle_ms(t.write_ns));
    layer.time("transport.take_ms", per_cycle_ms(t.take_ns));
    layer.time("transport.connect_ms", per_cycle_ms(t.connect_ns));
    layer.time("transport.close_ms", per_cycle_ms(t.close_ns));
    layer.time("transport.finish_ms", per_cycle_ms(t.finish_ns));
    layer.time("transport.stats_ms", per_cycle_ms(t.stats_ns));
    layer.time("engine.flush_ms", phase_ms[0]);
    layer.time("engine.dispatch_ms", phase_ms[1]);
    layer.time("engine.timers_ms", phase_ms[2]);
    layer.time(
        "engine.unprofiled_step_ms",
        step_ms - phase_ms.iter().sum::<f64>(),
    );

    let mut engine = EngineMetrics::default();
    let mut pool = PoolStats::default();
    let (mut rtx, mut fast, mut rto, mut ooo) = (0u64, 0u64, 0u64, 0u64);
    for p in 0..w.passes.len() {
        let r = reference(w, p);
        engine.absorb(&r.engine);
        pool.absorb(&r.pool);
        for f in &r.per_flow {
            rtx += f.retransmissions;
            fast += f.fast_retransmits;
            rto += f.rto_fires;
            ooo += f.chunks_out_of_order;
        }
    }
    layer.ratio(
        "engine.ns_per_packet",
        Ratio::new(step_ms * 1e6, engine.packets_delivered as f64),
    );
    layer.count("engine.events", engine.events());
    layer.count("engine.packets_sent", engine.packets_sent);
    layer.count("engine.packets_delivered", engine.packets_delivered);
    layer.count("engine.timer_fires", engine.timer_fires);
    layer.count("engine.flow_polls", engine.flow_polls);
    layer.count("pool.allocations", pool.allocations);
    layer.ratio(
        "pool.reuse_ratio",
        Ratio::new(pool.reuses as f64, (pool.reuses + pool.allocations) as f64),
    );
    layer.count("tcp.retransmissions", rtx);
    layer.count("tcp.fast_retransmits", fast);
    layer.count("tcp.rto_fires", rto);
    layer.count("tcp.chunks_out_of_order", ooo);
    layer.ratio(
        "tcp.retransmit_ratio",
        Ratio::new(rtx as f64, engine.packets_sent as f64),
    );
    layer.count("exec.shards", w.passes[0].shard_count() as u64);
    layer.ratio(
        "exec.speedup",
        Ratio::new(t.serial_ns as f64, t.parallel_ns as f64),
    );
    layer.time("obs.merge_ms", per_cycle_ms(t.merge_ns));
    // Untraced over traced records per second, both serial over the same
    // records: the serial `run_sharded(1)` wall against the traced wall.
    layer.ratio(
        "trace.overhead_ratio",
        Ratio::new(t.traced_ns as f64, t.serial_ns as f64),
    );
    layer.note(format!("records per traced cycle: {records}"));
    (res, last)
}
