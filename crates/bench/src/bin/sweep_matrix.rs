//! The parallel matrix-sweep benchmark: run the full scenario matrix (the
//! tier-1 protocol×stack×loss matrix plus the `flows ∈ {1, 64, 1024}` load
//! matrix) once per requested thread count with `minion_engine::par_map`,
//! assert every sweep's reports are byte-identical, and emit
//! `BENCH_sweep.json` with cells/sec per thread count and speedup versus 1
//! thread.
//!
//! CI runs this as the report-diff gate: `--report-prefix` writes one
//! canonical report file per thread count (full `Debug` dump of every cell
//! report, in cell order), and the job `diff`s the `threads=1` file against
//! the `threads=4` file — any byte of divergence fails the build. The
//! binary additionally asserts the equality in-process.
//!
//! ```text
//! sweep_matrix [--threads 1,4] [--report-prefix PREFIX] [--out BENCH_sweep.json]
//! ```

use minion_bench::cli;
use minion_engine::par_map;
use minion_testkit::{run_cell, summarize, CcAlgorithm, CellReport, CellSpec, MatrixSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// The sweep's cell set: the tier-1 default matrix plus the load matrix —
/// "the full matrix" CI diffs across thread counts. `--cc` multiplies the
/// *load* slice by the requested congestion-control algorithms (the
/// single-flow matrix stays on the default NewReno: its cells pin protocol
/// framing behaviour, not sender dynamics).
fn full_matrix(ccs: &[CcAlgorithm]) -> Vec<CellSpec> {
    let mut cells = MatrixSpec::default().cells();
    let mut load = MatrixSpec::load();
    load.ccs = ccs.to_vec();
    cells.extend(load.cells());
    cells
}

/// The canonical sweep report: the human summary table followed by the
/// complete `Debug` dump of every cell report, in cell order. Every counter
/// and fingerprint a cell produces lands in this text, so two sweeps are
/// byte-identical iff this text is.
fn canonical_report(cells: &[CellSpec], reports: &[CellReport]) -> String {
    let mut out = String::new();
    out.push_str(&summarize(reports));
    out.push('\n');
    for (cell, report) in cells.iter().zip(reports) {
        writeln!(out, "seed={:#018x} {report:?}", cell.seed).expect("write to String");
    }
    out
}

struct Run {
    threads: usize,
    wall_seconds: f64,
    /// Sum of the per-cell wall times: worker time spent running cells.
    busy_ns: u64,
}

impl Run {
    /// Worker time not spent running cells: `threads × wall − busy`.
    fn idle_ns(&self) -> u64 {
        ((self.threads as f64 * self.wall_seconds * 1e9) as u64).saturating_sub(self.busy_ns)
    }
}

/// The `"obs"` section of `BENCH_sweep.json`: the deterministic
/// delivery-delay columns of every multi-flow cell (identical across
/// thread counts — the report diff proves it) plus each run's worker
/// busy/idle split (wall-clock; varies run to run by design).
fn obs_section_json(reports: &[CellReport], runs: &[Run]) -> String {
    let delivery = reports
        .iter()
        .filter(|r| r.trace_events > 0)
        .map(|r| {
            format!(
                concat!(
                    "      {{\"label\": \"{label}\", \"p50_ns\": {p50}, \"p99_ns\": {p99}, ",
                    "\"p999_ns\": {p999}, \"mean_ns\": {mean}, \"trace_events\": {events}, ",
                    "\"trace_fingerprint\": \"{fp:#018x}\"}}"
                ),
                label = r.label.replace('\\', "\\\\").replace('"', "\\\""),
                p50 = r.delivery_delay_p50_ns,
                p99 = r.delivery_delay_p99_ns,
                p999 = r.delivery_delay_p999_ns,
                mean = r.delivery_delay_mean_ns,
                events = r.trace_events,
                fp = r.trace_fingerprint,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let exec = runs
        .iter()
        .map(|run| {
            format!(
                "      {{\"threads\": {}, \"busy_ns\": {}, \"idle_ns\": {}}}",
                run.threads,
                run.busy_ns,
                run.idle_ns()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "  \"obs\": {{\n",
            "    \"delivery_delay\": [\n{delivery}\n    ],\n",
            "    \"exec\": [\n{exec}\n    ]\n",
            "  }}"
        ),
        delivery = delivery,
        exec = exec,
    )
}

fn parse_args() -> (Vec<usize>, Vec<CcAlgorithm>, Option<String>, String) {
    let mut threads: Vec<usize> = vec![1, 4];
    let mut threads_requested = false;
    let mut backend = cli::Backend::Sim;
    let mut ccs = vec![CcAlgorithm::NewReno];
    let mut report_prefix: Option<String> = None;
    let mut out = std::env::var("BENCH_SWEEP_OUT").unwrap_or_else(|_| "BENCH_sweep.json".into());
    let mut args = cli::CliArgs::new(
        "sweep_matrix [--backend sim] [--threads 1,4] [--cc newreno,cubic,none] \
         [--report-prefix PREFIX] [--out FILE]",
    );
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--backend" => backend = cli::parse_backend(&args.value("--backend")),
            "--threads" => {
                threads = cli::parse_count_list(&args.value("--threads"), "--threads");
                threads_requested = true;
            }
            "--cc" => ccs = cli::parse_cc_list(&args.value("--cc"), "--cc"),
            "--report-prefix" => report_prefix = Some(args.value("--report-prefix")),
            "--out" => out = args.value("--out"),
            other => args.unknown(other),
        }
    }
    // The sweep's whole point is byte-identical reports across thread
    // counts — a property only the simulator has. The shared validation
    // rejects --threads with os; the sweep itself needs sim outright.
    cli::validate_backend(backend, threads_requested);
    assert!(
        backend == cli::Backend::Sim,
        "sweep_matrix is sim-only (byte-identical sweeps); use load_engine --backend os for kernel-socket runs"
    );
    cli::validate_out_path("--out", &out);
    (threads, ccs, report_prefix, out)
}

fn main() {
    let (thread_counts, ccs, report_prefix, out) = parse_args();
    let cells = full_matrix(&ccs);
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sweeping {} cells at threads {:?}, cc {:?} (host parallelism: {})",
        cells.len(),
        thread_counts,
        ccs.iter().map(|c| c.label()).collect::<Vec<_>>(),
        avail
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut reference: Option<String> = None;
    let mut first_reports: Option<Vec<CellReport>> = None;
    for &threads in &thread_counts {
        let t0 = Instant::now();
        let timed = par_map(threads, &cells, |cell| {
            let start = Instant::now();
            let report = run_cell(cell);
            (report, start.elapsed().as_nanos() as u64)
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        let busy_ns = timed.iter().map(|(_, ns)| ns).sum();
        let reports: Vec<CellReport> = timed.into_iter().map(|(report, _)| report).collect();
        let text = canonical_report(&cells, &reports);
        // Write the report file *before* asserting equality: on divergence
        // CI's `diff -u` step then shows the exact divergent bytes instead
        // of a missing-file error.
        if let Some(prefix) = &report_prefix {
            let path = format!("{prefix}-t{threads}.txt");
            std::fs::write(&path, &text).expect("write sweep report");
            println!("wrote {path}");
        }
        match &reference {
            None => reference = Some(text),
            Some(reference) => {
                if &text != reference {
                    let hint = match &report_prefix {
                        Some(prefix) => format!("diff the {prefix}-t*.txt files"),
                        None => "re-run with --report-prefix to capture both reports".into(),
                    };
                    panic!(
                        "threads={threads} produced a different sweep report than \
                         threads={} — parallelism must not perturb results ({hint})",
                        thread_counts[0]
                    );
                }
            }
        }
        println!(
            "threads={threads}: {} cells in {:.1} ms ({:.2} cells/sec)",
            cells.len(),
            wall_seconds * 1000.0,
            cells.len() as f64 / wall_seconds.max(1e-9)
        );
        if first_reports.is_none() {
            first_reports = Some(reports);
        }
        runs.push(Run {
            threads,
            wall_seconds,
            busy_ns,
        });
    }

    // Speedups are measured against the threads=1 run when the list has one
    // (CI's does), else against the first run.
    let baseline = runs
        .iter()
        .find(|r| r.threads == 1)
        .unwrap_or(&runs[0])
        .wall_seconds;
    let rows = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"threads\": {threads},\n",
                    "      \"wall_ms\": {wall_ms:.3},\n",
                    "      \"cells_per_sec\": {cps:.3},\n",
                    "      \"speedup_vs_1thread\": {speedup:.3}\n",
                    "    }}"
                ),
                threads = r.threads,
                wall_ms = r.wall_seconds * 1000.0,
                cps = cells.len() as f64 / r.wall_seconds.max(1e-9),
                speedup = baseline / r.wall_seconds.max(1e-9),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let obs = obs_section_json(first_reports.as_deref().unwrap_or(&[]), &runs);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sweep_matrix\",\n",
            "  \"cells\": {cells},\n",
            "  \"cc\": [{cc}],\n",
            "  \"available_parallelism\": {avail},\n",
            "  \"reports_identical\": true,\n",
            "{obs},\n",
            "  \"runs\": [\n{rows}\n  ]\n",
            "}}\n"
        ),
        cells = cells.len(),
        cc = ccs
            .iter()
            .map(|c| format!("\"{}\"", c.label()))
            .collect::<Vec<_>>()
            .join(", "),
        avail = avail,
        obs = obs,
        rows = rows,
    );
    cli::write_output("--out", &out, &json);
    println!("wrote {out}");
}
