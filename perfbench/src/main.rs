//! The repository benchmark: one command per workload that runs a fixed
//! batch as a closed loop, checks every output, and prints each metric by
//! name and unit, with one JSON object as the last line of standard output.
//!
//! ```text
//! perfbench --workload <fanout|lossy_hol|ucobs|utls> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer split. See README.md for the workloads,
//! the metrics and the layer each one belongs to.

mod codec;
mod load;
mod procfs;
mod spans;
mod stats;
mod timing;

use codec::CodecKind;
use load::LoadKind;
use stats::{median, Ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_us_per_record", "us"),
    ("delay_p50_ms", "ms"),
    ("delay_p99_ms", "ms"),
    ("ordered_delay_p99_ms", "ms"),
    ("peak_rss_MB", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// bypasses a layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("driver.self_ms", "ms"),
    ("driver.self_share", "ratio"),
    ("transport.step_ms", "ms"),
    ("transport.step_calls", "count"),
    ("transport.read_ms", "ms"),
    ("transport.read_calls", "count"),
    ("transport.write_ms", "ms"),
    ("transport.take_ms", "ms"),
    ("transport.connect_ms", "ms"),
    ("transport.close_ms", "ms"),
    ("transport.finish_ms", "ms"),
    ("transport.stats_ms", "ms"),
    ("engine.flush_ms", "ms"),
    ("engine.dispatch_ms", "ms"),
    ("engine.timers_ms", "ms"),
    ("engine.unprofiled_step_ms", "ms"),
    ("engine.ns_per_packet", "ns"),
    ("engine.events", "count"),
    ("engine.packets_sent", "count"),
    ("engine.packets_delivered", "count"),
    ("engine.timer_fires", "count"),
    ("engine.flow_polls", "count"),
    ("pool.allocations", "count"),
    ("pool.reuse_ratio", "ratio"),
    ("tcp.retransmissions", "count"),
    ("tcp.fast_retransmits", "count"),
    ("tcp.rto_fires", "count"),
    ("tcp.chunks_out_of_order", "count"),
    ("tcp.retransmit_ratio", "ratio"),
    ("exec.shards", "count"),
    ("exec.speedup", "ratio"),
    ("obs.merge_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("ucobs.send_ns_per_kB.loss0", "ns/kB"),
    ("ucobs.send_ns_per_kB.loss2", "ns/kB"),
    ("ucobs.recv_ns_per_kB.loss0", "ns/kB"),
    ("ucobs.recv_ns_per_kB.loss2", "ns/kB"),
    ("ucobs.stack_ns_per_kB.loss0", "ns/kB"),
    ("ucobs.stack_ns_per_kB.loss2", "ns/kB"),
    ("cobs.send_ns_per_kB.loss0", "ns/kB"),
    ("cobs.send_ns_per_kB.loss2", "ns/kB"),
    ("cobs.recv_ns_per_kB.loss0", "ns/kB"),
    ("cobs.recv_ns_per_kB.loss2", "ns/kB"),
    ("cobs.stack_ns_per_kB.loss0", "ns/kB"),
    ("cobs.stack_ns_per_kB.loss2", "ns/kB"),
    ("utls.send_ns_per_kB.loss0", "ns/kB"),
    ("utls.send_ns_per_kB.loss2", "ns/kB"),
    ("utls.recv_ns_per_kB.loss0", "ns/kB"),
    ("utls.recv_ns_per_kB.loss2", "ns/kB"),
    ("utls.stack_ns_per_kB.loss0", "ns/kB"),
    ("utls.stack_ns_per_kB.loss2", "ns/kB"),
    ("tls.send_ns_per_kB.loss0", "ns/kB"),
    ("tls.send_ns_per_kB.loss2", "ns/kB"),
    ("tls.recv_ns_per_kB.loss0", "ns/kB"),
    ("tls.recv_ns_per_kB.loss2", "ns/kB"),
    ("tls.stack_ns_per_kB.loss0", "ns/kB"),
    ("tls.stack_ns_per_kB.loss2", "ns/kB"),
    ("ucobs.recv_cost_ratio", "ratio"),
    ("utls.recv_cost_ratio", "ratio"),
    ("cobs.encode_ns_per_kB", "ns/kB"),
    ("cobs.decode_ns_per_kB", "ns/kB"),
    ("tls.seal_ns_per_kB", "ns/kB"),
    ("tls.open_ns_per_kB", "ns/kB"),
    ("ucobs.dup_ratio", "ratio"),
    ("ucobs.wire_overhead_ratio", "ratio"),
    ("utls.mac_attempts", "count"),
    ("utls.mac_success_ratio", "ratio"),
    ("utls.prediction_failures", "count"),
    ("utls.wire_overhead_ratio", "ratio"),
];

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 9;

/// Records attempted, delivered and verified, and failed, by one or more
/// repetitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepResult {
    pub attempted: u64,
    pub delivered: u64,
    pub failed: u64,
}

impl std::ops::Add for RepResult {
    type Output = RepResult;

    fn add(self, o: RepResult) -> RepResult {
        RepResult {
            attempted: self.attempted + o.attempted,
            delivered: self.delivered + o.delivered,
            failed: self.failed + o.failed,
        }
    }
}

/// Per-layer values of a traced run, with notes that give every ratio its
/// base.
#[derive(Default)]
pub struct Layer {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Layer {
    fn set(&mut self, name: String, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn time(&mut self, name: &str, ms: f64) {
        self.set(name.to_string(), ms);
    }

    pub fn count(&mut self, name: &str, n: u64) {
        self.set(name.to_string(), n as f64);
    }

    pub fn ratio(&mut self, name: &str, r: Ratio) {
        self.ratio_named(name.to_string(), r);
    }

    pub fn ratio_named(&mut self, name: String, r: Ratio) {
        self.notes.push(format!("{name} = {}", r.describe()));
        self.set(name, r.reported());
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Load(LoadKind),
    Codec(CodecKind),
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("fanout", Workload::Load(LoadKind::Fanout)),
        ("lossy_hol", Workload::Load(LoadKind::LossyHol)),
        ("ucobs", Workload::Codec(CodecKind::Ucobs)),
        ("utls", Workload::Codec(CodecKind::Utls)),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fanout|lossy_hol|ucobs|utls> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// splitmix64: spreads nearby `--seed` values over unrelated inputs.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the timed part of an end-to-end run measured.
struct Measured {
    setup_s: f64,
    records_per_s: Vec<f64>,
    cpu_s: Option<f64>,
    peak_rss_mb: Option<f64>,
    delivered_timed: u64,
    total: RepResult,
}

/// Set up [`SETUPS`] times, run one untimed reference repetition (after
/// which the peak resident memory is read), then repeat the batch until
/// `seconds` have passed.
fn measure<W>(
    seconds: f64,
    mut prepare: impl FnMut() -> W,
    mut rep: impl FnMut(&mut W) -> RepResult,
) -> (W, Measured) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        prepared = Some(std::hint::black_box(prepare()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = prepared.expect("SETUPS > 0");
    let mut total = rep(&mut w);
    // The timed loop repeats this work. Its later peaks depend on which
    // allocator arena each fresh worker thread picks up, which swung one
    // workload's peak by 40% from run to run, so the peak is read here.
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut records_per_s = Vec::new();
    let mut delivered_timed = 0;
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    while records_per_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = rep(&mut w);
        let wall = t.elapsed().as_secs_f64();
        records_per_s.push(r.delivered as f64 / wall);
        delivered_timed += r.delivered;
        total = total + r;
    }
    let cpu_s = procfs::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    let m = Measured {
        setup_s: median(&setups).expect("SETUPS > 0"),
        records_per_s,
        cpu_s,
        peak_rss_mb,
        delivered_timed,
        total,
    };
    (w, m)
}

/// Records, `(metric, value)` pairs (`None` when unavailable) and notes.
type RunOutput = (RepResult, Vec<(&'static str, Option<f64>)>, Vec<String>);

/// The end-to-end run of one workload.
fn end_to_end(args: &Args, seed: u64, threads: usize) -> RunOutput {
    let secs = args.seconds;
    let mut delay_notes = Vec::new();
    let (m, delay) = match args.workload {
        Workload::Load(kind) => {
            let (w, m) = measure(secs, || load::prepare(kind, seed, threads), load::rep);
            (m, load::delays(&w, &mut delay_notes))
        }
        Workload::Codec(kind) => {
            let (w, m) = measure(secs, || codec::prepare(kind, seed, threads), codec::rep);
            (m, codec::delays(&w, &mut delay_notes))
        }
    };
    let mut notes = vec![format!(
        "{} timed repetitions; records/s per repetition: {:?}",
        m.records_per_s.len(),
        m.records_per_s
    )];
    notes.extend(delay_notes);
    let cpu_us = m
        .cpu_s
        .filter(|_| m.delivered_timed > 0)
        .map(|c| c * 1e6 / m.delivered_timed as f64);
    let values = vec![
        ("setup_s", Some(m.setup_s)),
        ("records_per_s", median(&m.records_per_s)),
        ("cpu_us_per_record", cpu_us),
        ("delay_p50_ms", delay.map(|d| d.0)),
        ("delay_p99_ms", delay.map(|d| d.1)),
        ("ordered_delay_p99_ms", delay.map(|d| d.2)),
        ("peak_rss_MB", m.peak_rss_mb),
    ];
    (m.total, values, notes)
}

/// The traced run of one workload.
fn traced(args: &Args, seed: u64, threads: usize) -> RunOutput {
    let mut layer = Layer::default();
    let (res, recorders) = match args.workload {
        Workload::Load(kind) => {
            let mut w = load::prepare(kind, seed, threads);
            load::trace(&mut w, args.seconds, &mut layer)
        }
        Workload::Codec(kind) => {
            let mut w = codec::prepare(kind, seed, threads);
            codec::trace(&mut w, args.seconds, &mut layer)
        }
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("spans");
    for (i, rec) in recorders.iter().enumerate() {
        let path = dir.join(format!("{}.{i}.tsv", args.workload.name()));
        match rec.write_tsv(&path) {
            Ok(()) => layer.note(format!(
                "{} spans written to {}",
                rec.spans().len(),
                path.display()
            )),
            Err(e) => layer.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let values = PER_LAYER
        .iter()
        .map(|(n, _)| (*n, Some(layer.values.get(*n).copied().unwrap_or(0.0))))
        .collect();
    (res, values, layer.notes)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let seed = mix(args.seed);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (res, values, notes) = if args.trace {
        traced(&args, seed, threads)
    } else {
        end_to_end(&args, seed, threads)
    };
    let units: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    for note in &notes {
        println!("# {note}");
    }
    let mut json = Vec::new();
    let mut complete = true;
    for ((name, value), (_, unit)) in values.iter().zip(units) {
        match value {
            Some(v) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                json.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => {
                println!("{name} = unavailable {unit}");
                complete = false;
            }
        }
    }
    let correct = res.failed == 0 && complete;
    println!(
        "# failed_ratio = {}",
        Ratio::new(res.failed as f64, res.attempted as f64).describe()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted,
        res.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "lossy_hol",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload, Workload::Load(LoadKind::LossyHol));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "ucobs", "--trace", "2"],
            &["--workload", "ucobs", "--seconds", "0"],
            &["--workload", "ucobs", "--extra", "1"],
            &["--workload"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the benchmark directory alone, without the repository
        };
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in Workload::ALL {
            assert!(compact.contains(&format!("\"name\":\"{name}\"")));
        }
    }
}
