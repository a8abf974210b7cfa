//! The multi-flow load gate (see `minion_engine`): the scenario-matrix
//! `flows ∈ {1, 64, 1024}` axis, with exactly-once delivery and per-stream
//! order asserted per flow and every cell run twice under its fixed seed to
//! prove byte-identical metrics.

use minion_repro::engine::{fnv1a, verify_load, LoadReport, LoadScenario, FNV_OFFSET_BASIS};
use minion_repro::testkit::{run_matrix, summarize, MatrixSpec};

/// The 1024-flow acceptance scenario: deterministic (same seed ⇒ identical
/// metrics across two runs, asserted inside `verify_load`), exactly-once per
/// flow, and actually concurrent — the engine multiplexes every flow over one
/// shared link.
#[test]
fn one_thousand_flows_deterministic_and_exactly_once() {
    let scenario = LoadScenario::smoke_1k();
    let report = verify_load(&scenario);
    assert_eq!(report.flows, 1024);
    assert_eq!(report.records_delivered, report.records_sent);
    assert_eq!(report.per_flow.len(), 1024);
    assert!(
        report.per_flow.iter().all(|f| f.bytes_delivered > 0),
        "every flow carried payload"
    );
    assert!(report.goodput_bps > 0);
    assert!(
        report.engine.timer_fires > 0,
        "the timer wheel must be doing real work (delayed ACKs at minimum)"
    );
    // The engine never sweeps all flows per event: polls stay proportional
    // to events, not flows × events.
    assert!(
        report.engine.flow_polls < report.engine.events() * 4,
        "flow polls ({}) must scale with events ({}), not with flows × events",
        report.engine.flow_polls,
        report.engine.events()
    );
}

/// The load matrix: flows {1, 64, 1024} × receiver stack × loss, every cell
/// verified twice for determinism by `run_matrix`.
#[test]
fn flows_axis_matrix_is_exactly_once_per_flow() {
    let spec = MatrixSpec::load();
    let cells = spec.cells();
    // 1 protocol × 2 stacks × 2 losses × 3 flow counts.
    assert_eq!(cells.len(), 12);
    let labels: std::collections::BTreeSet<String> = cells.iter().map(|c| c.label()).collect();
    assert_eq!(labels.len(), cells.len(), "matrix cells must be distinct");
    let reports = run_matrix(&cells);
    println!("{}", summarize(&reports));
    for report in &reports {
        assert_eq!(
            report.delivered, report.sent,
            "[{}] every record delivered exactly once",
            report.label
        );
    }
    // Standard receivers never see out-of-order chunks, whatever the scale.
    for (cell, report) in cells.iter().zip(&reports) {
        if cell.receiver_stack == minion_repro::testkit::StackMode::Standard {
            assert_eq!(report.out_of_order, 0, "[{}] in-order only", report.label);
        }
    }
}

/// Loss hits individual flows, not the aggregate: under Bernoulli loss some
/// flows retransmit while (at these rates) most do not, and the harness
/// still reassembles every stream.
#[test]
fn loss_under_load_is_recovered_per_flow() {
    let scenario = LoadScenario {
        flows: 64,
        loss: minion_repro::simnet::LossConfig::Bernoulli { probability: 0.02 },
        ..LoadScenario::default()
    };
    let report = verify_load(&scenario);
    assert_eq!(report.records_delivered, report.records_sent);
    let with_retx = report
        .per_flow
        .iter()
        .filter(|f| f.retransmissions > 0)
        .count();
    assert!(
        with_retx > 0,
        "2% loss across 64 flows must hit at least one flow"
    );
    assert!(
        with_retx < 64,
        "2% loss should not hit every single flow's data"
    );
}

/// FNV-1a over the `Debug` rendering of every deterministic `LoadReport`
/// field. `phases` is left out: it times real CPU work. The destructuring
/// names every field, so a new one fails to compile here until it is
/// either hashed or excluded on purpose.
fn report_digest(report: &LoadReport) -> u64 {
    let LoadReport {
        label,
        seed,
        flows,
        records_sent,
        records_delivered,
        total_bytes,
        completion_us,
        goodput_bps,
        events_per_sim_sec,
        allocs_per_flow_milli,
        engine,
        pool,
        obs,
        phases: _,
        per_flow,
    } = report;
    let fields: [&dyn std::fmt::Debug; 14] = [
        label,
        seed,
        flows,
        records_sent,
        records_delivered,
        total_bytes,
        completion_us,
        goodput_bps,
        events_per_sim_sec,
        allocs_per_flow_milli,
        engine,
        pool,
        obs,
        per_flow,
    ];
    let mut h = FNV_OFFSET_BASIS;
    for field in fields {
        fnv1a(&mut h, format!("{field:?}\n").as_bytes());
    }
    h
}

/// Golden digests of three load reports, captured before the driver's
/// stream synthesis and record matching were rewritten. The reports cover
/// the delivery-delay histograms, the per-flow digests, the trace ring and
/// the per-flow fingerprints, so any change to what the driver measures or
/// in which order it records it moves a digest.
#[test]
fn load_reports_match_golden_digests() {
    let cases = [
        (
            "obs_comparison(utcp), 2 shards",
            LoadScenario::obs_comparison(true).run_sharded(2),
            0x9cf4_ae57_2f55_ccc9,
        ),
        (
            "obs_comparison(tcp), 2 shards",
            LoadScenario::obs_comparison(false).run_sharded(2),
            0x6299_f730_18f2_2707,
        ),
        (
            "256 lossless flows, unsharded",
            LoadScenario::with_flows(256).run(),
            0xdc42_4cf5_ff3f_43c5,
        ),
    ];
    for (name, report, golden) in &cases {
        let digest = report_digest(report);
        eprintln!("{name}: {digest:#018x}");
        assert_eq!(digest, *golden, "{name}: report digest moved");
    }
}
