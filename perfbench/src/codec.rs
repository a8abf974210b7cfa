//! The codec workloads (`ucobs`, `utls`): datagram transfers through
//! `UcobsSocket`/`UtlsSocket` over `stack::Sim`, on figure 6's link.
//!
//! Every datagram carries its sequence number, its virtual send time and a
//! payload derived from the seed and the sequence number, so the receiver
//! side checks each one as delivered exactly once and byte-exact, and
//! measures its delivery delay in virtual time.
//!
//! The sender is paced (an open loop at [`PACE_BPS`], each datagram due at a
//! seed-jittered time within its slot) rather than bulk: at 2% loss a bulk
//! TCP sender's throughput, and with it both the send-buffer wait in every
//! delay and the receive-side reassembly work, swing by tens of percent
//! from one loss pattern to the next. Delays are timed from the due time.

use crate::spans::SpanRecorder;
use crate::stats::{delay_note, percentile_sorted, Ratio};
use crate::{mix, Layer, RepResult};
use minion_cobs::frame::{frame_datagram, scan_records};
use minion_core::{Datagram, MinionConfig, UcobsSocket, UtlsSocket};
use minion_simnet::{LinkConfig, LossConfig, NodeId, SimDuration};
use minion_stack::{Host, Sim, SocketAddr};
use minion_tls::{
    CipherSuite, RecordHeader, RecordProtection, CONTENT_APPLICATION_DATA, VERSION_TLS11,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Datagram size on the application side.
const DATAGRAM: usize = 1200;
/// Sequence number (u32) and virtual send time in µs (u64), big-endian.
const HEADER: usize = 12;
/// Virtual time between pump steps.
const PUMP_STEP: SimDuration = SimDuration::from_millis(5);
/// Virtual time after which a transfer gives up and counts what is missing.
const TRANSFER_DEADLINE: SimDuration = SimDuration::from_secs(900);
/// Offered load of the paced sender, well below what TCP sustains at 2%
/// loss on this path, so no send-buffer backlog builds.
const PACE_BPS: u64 = 250_000;

const PORT: u16 = 7000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecKind {
    Ucobs,
    Utls,
}

/// The four transfers of an instance: unordered and ordered receivers, each
/// at 0% and 2% loss.
const TRANSFERS: [(bool, f64); 4] = [(true, 0.0), (true, 0.02), (false, 0.0), (false, 0.02)];
/// Index of the unordered and ordered 2%-loss transfers in [`TRANSFERS`].
const UNORDERED_LOSSY: usize = 1;
const ORDERED_LOSSY: usize = 3;

impl CodecKind {
    fn total_bytes(self) -> usize {
        match self {
            CodecKind::Ucobs => 6_000_000,
            CodecKind::Utls => 1_500_000,
        }
    }

    /// Independent instances of the four transfers per repetition, each
    /// with its own loss seed and send jitter. Delays pool all of them, so
    /// the tail does not hinge on one loss pattern's timeouts; uTLS, with a
    /// quarter of the datagrams per transfer, needs more instances.
    fn instances(self) -> usize {
        match self {
            CodecKind::Ucobs => 4,
            CodecKind::Utls => 8,
        }
    }

    /// Metric prefix of a transfer: the unordered protocol or its ordered
    /// twin.
    fn proto(self, unordered: bool) -> &'static str {
        match (self, unordered) {
            (CodecKind::Ucobs, true) => "ucobs",
            (CodecKind::Ucobs, false) => "cobs",
            (CodecKind::Utls, true) => "utls",
            (CodecKind::Utls, false) => "tls",
        }
    }
}

/// Endpoint counters of one transfer (deterministic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counters {
    sender_wire_bytes: u64,
    sender_payload_bytes: u64,
    received: u64,
    duplicates_suppressed: u64,
    mac_attempts: u64,
    rejected_candidates: u64,
    prediction_failures: u64,
}

/// What one transfer did; every field repeats exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TransferOutcome {
    delivered: u64,
    failed: u64,
    /// Delivery delays in virtual µs, sorted.
    delays_us: Vec<u64>,
    counters: Counters,
}

pub struct CodecWorkload {
    kind: CodecKind,
    seed: u64,
    /// `count` datagrams of [`DATAGRAM`] bytes back to back, send time
    /// zeroed.
    templates: Vec<u8>,
    count: usize,
    reference: Option<Vec<TransferOutcome>>,
    threads: usize,
}

/// Build the workload for `seed`: the datagrams every transfer sends.
pub fn prepare(kind: CodecKind, seed: u64, threads: usize) -> CodecWorkload {
    let count = kind.total_bytes() / DATAGRAM;
    let mut templates = vec![0u8; count * DATAGRAM];
    for (seq, d) in templates.chunks_exact_mut(DATAGRAM).enumerate() {
        d[..4].copy_from_slice(&(seq as u32).to_be_bytes());
        let mut x = seed ^ (seq as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d;
        for b in &mut d[HEADER..] {
            // xorshift64: a cheap payload that differs per seed and datagram.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x >> 32) as u8;
        }
    }
    CodecWorkload {
        kind,
        seed,
        templates,
        count,
        reference: None,
        threads,
    }
}

impl CodecWorkload {
    fn template(&self, seq: usize) -> &[u8] {
        &self.templates[seq * DATAGRAM..(seq + 1) * DATAGRAM]
    }
}

/// The socket calls a transfer makes, over either codec.
trait Endpoint {
    fn send(&mut self, host: &mut Host, datagram: &[u8]) -> bool;
    fn send_buffer_free(&self, host: &Host) -> usize;
    fn recv(&mut self, host: &mut Host) -> Vec<Datagram>;
}

impl Endpoint for UcobsSocket {
    fn send(&mut self, host: &mut Host, datagram: &[u8]) -> bool {
        self.send_datagram(host, datagram).is_ok()
    }
    fn send_buffer_free(&self, host: &Host) -> usize {
        UcobsSocket::send_buffer_free(self, host)
    }
    fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        UcobsSocket::recv(self, host)
    }
}

impl Endpoint for UtlsSocket {
    fn send(&mut self, host: &mut Host, datagram: &[u8]) -> bool {
        self.send_datagram(host, datagram).is_ok()
    }
    fn send_buffer_free(&self, host: &Host) -> usize {
        UtlsSocket::send_buffer_free(self, host)
    }
    fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        UtlsSocket::recv(self, host)
    }
}

/// Run `f` inside a span when tracing.
fn span<R>(
    rec: &mut Option<&mut SpanRecorder>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, id, f),
        None => f(),
    }
}

/// Pump one transfer to completion: hand each datagram to the sender once it
/// is due (and the send buffer has room), advance the simulator in
/// [`PUMP_STEP`]s, and check every datagram the receiver hands up.
#[allow(clippy::too_many_arguments)]
fn pump<E: Endpoint>(
    w: &CodecWorkload,
    seed: u64,
    unordered: bool,
    sim: &mut Sim,
    (a, b): (NodeId, NodeId),
    tx: &mut E,
    rx: &mut E,
    rec: &mut Option<&mut SpanRecorder>,
    id: u64,
) -> TransferOutcome {
    let n = w.count;
    let mut out = TransferOutcome::default();
    let mut seen = vec![false; n];
    let mut arrived = 0usize;
    let mut next_send = 0usize;
    let mut next_in_order = 0usize;
    let mut buf = vec![0u8; DATAGRAM];
    let start_us = sim.now().as_micros();
    let deadline = sim.now() + TRANSFER_DEADLINE;
    let slot_us = DATAGRAM as u64 * 8 * 1_000_000 / PACE_BPS;
    let due_us = |seq: usize| start_us + seq as u64 * slot_us + mix(seed ^ seq as u64) % slot_us;
    while arrived < n && sim.now() < deadline {
        while next_send < n
            && due_us(next_send) <= sim.now().as_micros()
            && tx.send_buffer_free(sim.host(a)) > 4 * DATAGRAM
        {
            buf.copy_from_slice(w.template(next_send));
            buf[4..HEADER].copy_from_slice(&due_us(next_send).to_be_bytes());
            if !span(rec, "send", id, || tx.send(sim.host_mut(a), &buf)) {
                break;
            }
            next_send += 1;
        }
        span(rec, "stack", id, || sim.run_for(PUMP_STEP));
        let now_us = sim.now().as_micros();
        for d in span(rec, "recv", id, || rx.recv(sim.host_mut(b))) {
            let p = &d.payload;
            let seq = match p.get(..4) {
                Some(s) if p.len() == DATAGRAM => {
                    u32::from_be_bytes(s.try_into().expect("4 bytes")) as usize
                }
                _ => {
                    out.failed += 1;
                    continue;
                }
            };
            if seq >= n || p[HEADER..] != w.template(seq)[HEADER..] || seen[seq] {
                // Corrupt, unknown or duplicate.
                out.failed += 1;
                continue;
            }
            seen[seq] = true;
            arrived += 1;
            if !unordered && seq != next_in_order {
                out.failed += 1;
            } else {
                out.delivered += 1;
            }
            next_in_order = seq + 1;
            let sent_us = u64::from_be_bytes(p[4..HEADER].try_into().expect("8 bytes"));
            out.delays_us.push(now_us.saturating_sub(sent_us));
        }
    }
    out.failed += (n - arrived) as u64;
    out.delays_us.sort_unstable();
    out
}

/// The simulator of one transfer: two hosts over figure 6's link (20 Mbit/s,
/// 30 ms each way, 256 KiB queue).
fn world(seed: u64, loss: f64) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(seed);
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    // Loss on the data direction only, as in the load scenarios.
    let link =
        LinkConfig::new(20_000_000, SimDuration::from_millis(30)).with_queue_bytes(256 * 1024);
    let toward = link.clone().with_loss(LossConfig::from_rate(loss));
    sim.link_asymmetric(a, b, toward, link);
    (sim, a, b)
}

/// Step the simulator until `ready` holds, or a virtual-time limit passes.
fn settle(sim: &mut Sim, mut ready: impl FnMut(&mut Sim) -> bool) -> bool {
    let limit = sim.now() + SimDuration::from_secs(60);
    while sim.now() < limit {
        if ready(sim) {
            return true;
        }
        sim.run_for(PUMP_STEP);
    }
    false
}

/// Transfer `idx` of [`TRANSFERS`] in instance `inst`.
fn transfer(
    w: &CodecWorkload,
    inst: usize,
    idx: usize,
    rec: &mut Option<&mut SpanRecorder>,
) -> TransferOutcome {
    let (unordered, loss) = TRANSFERS[idx];
    let seed = mix(w.seed ^ inst as u64);
    let config = if unordered {
        MinionConfig::default()
    } else {
        MinionConfig::without_utcp()
    };
    let (mut sim, a, b) = world(seed, loss);
    let addr = SocketAddr::new(b, PORT);
    let all_failed = || TransferOutcome {
        failed: w.count as u64,
        ..TransferOutcome::default()
    };
    let id = (inst * TRANSFERS.len() + idx) as u64;
    match w.kind {
        CodecKind::Ucobs => {
            UcobsSocket::listen(sim.host_mut(b), PORT, &config).expect("listen on a fresh host");
            let now = sim.now();
            let mut tx = UcobsSocket::connect(sim.host_mut(a), addr, &config, now);
            let mut rx = None;
            if !settle(&mut sim, |s| {
                rx = rx
                    .take()
                    .or_else(|| UcobsSocket::accept(s.host_mut(b), PORT));
                rx.is_some()
            }) {
                return all_failed();
            }
            let mut rx = rx.expect("accepted");
            let mut out = pump(
                w,
                seed,
                unordered,
                &mut sim,
                (a, b),
                &mut tx,
                &mut rx,
                rec,
                id,
            );
            let (s, r) = (tx.stats(), rx.stats());
            out.counters = Counters {
                sender_wire_bytes: s.wire_bytes_sent,
                sender_payload_bytes: s.payload_bytes_sent,
                received: r.datagrams_received,
                duplicates_suppressed: r.duplicates_suppressed,
                ..Counters::default()
            };
            out
        }
        CodecKind::Utls => {
            UtlsSocket::listen(sim.host_mut(b), PORT, &config).expect("listen on a fresh host");
            let now = sim.now();
            let mut tx = UtlsSocket::connect(sim.host_mut(a), addr, &config, now);
            let mut rx = None;
            if !settle(&mut sim, |s| {
                rx = rx
                    .take()
                    .or_else(|| UtlsSocket::accept(s.host_mut(b), PORT, &config));
                rx.is_some()
            }) {
                return all_failed();
            }
            let mut rx = rx.expect("accepted");
            // The TLS handshake runs over the in-order path of both ends.
            if !settle(&mut sim, |s| {
                let _ = rx.recv(s.host_mut(b));
                let _ = tx.recv(s.host_mut(a));
                tx.is_established() && rx.is_established()
            }) {
                return all_failed();
            }
            let mut out = pump(
                w,
                seed,
                unordered,
                &mut sim,
                (a, b),
                &mut tx,
                &mut rx,
                rec,
                id,
            );
            let s = tx.stats();
            let r = rx.receiver_stats().cloned().unwrap_or_default();
            out.counters = Counters {
                sender_wire_bytes: s.wire_bytes_sent,
                sender_payload_bytes: s.payload_bytes_sent,
                received: rx.stats().datagrams_received,
                mac_attempts: r.mac_attempts,
                rejected_candidates: r.rejected_candidates,
                prediction_failures: r.prediction_failures,
                ..Counters::default()
            };
            out
        }
    }
}

/// The four transfers of instance `inst`, each in a `transfer` span with id
/// `inst * 4 + idx` when tracing. A transfer that panics fails as a whole.
fn instance(
    w: &CodecWorkload,
    inst: usize,
    rec: &mut Option<&mut SpanRecorder>,
) -> Vec<TransferOutcome> {
    (0..TRANSFERS.len())
        .map(|idx| {
            let id = (inst * TRANSFERS.len() + idx) as u64;
            let root = rec.as_deref_mut().map(|r| r.open("transfer", id));
            let outcome = catch_unwind(AssertUnwindSafe(|| transfer(w, inst, idx, rec)))
                .unwrap_or_else(|_| TransferOutcome {
                    failed: w.count as u64,
                    ..TransferOutcome::default()
                });
            if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
                r.close(root);
            }
            outcome
        })
        .collect()
}

/// Run every instance's four transfers; check them against the first
/// repetition's. Outcome `inst * 4 + idx` is transfer `idx` of instance
/// `inst`. Untraced, the independent instances spread over `threads`
/// threads; traced, they run serially into the one recorder.
fn run_transfers(
    w: &mut CodecWorkload,
    mut rec: Option<&mut SpanRecorder>,
    threads: usize,
) -> RepResult {
    let n = w.kind.instances();
    let outcomes: Vec<TransferOutcome> = if rec.is_some() {
        (0..n)
            .flat_map(|inst| instance(w, inst, &mut rec))
            .collect()
    } else {
        let w = &*w;
        let mut done: Vec<(usize, Vec<TransferOutcome>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        (t..n)
                            .step_by(threads)
                            .map(|inst| (inst, instance(w, inst, &mut None)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("transfer panics are caught per transfer"))
                .collect()
        });
        done.sort_by_key(|(inst, _)| *inst);
        done.into_iter().flat_map(|(_, o)| o).collect()
    };
    let attempted = (w.count * outcomes.len()) as u64;
    let mut failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    match &w.reference {
        Some(reference) if *reference != outcomes => {
            eprintln!("[{:?}] transfers differ from the first repetition", w.kind);
            failed = attempted;
        }
        Some(_) => {}
        None => w.reference = Some(outcomes),
    }
    RepResult {
        attempted,
        delivered: attempted - failed,
        failed,
    }
}

/// One repetition: every instance's four transfers, untraced. The first
/// (reference) repetition runs its instances one at a time, so the peak
/// memory read after it is one transfer's, not a race between two
/// threads' allocator arenas.
pub fn rep(w: &mut CodecWorkload) -> RepResult {
    let threads = if w.reference.is_none() { 1 } else { w.threads };
    run_transfers(w, None, threads)
}

fn reference(w: &CodecWorkload) -> &[TransferOutcome] {
    w.reference
        .as_deref()
        .expect("a repetition ran before metrics are read")
}

/// Outcomes of transfer `idx` across all instances.
fn cell(transfers: &[TransferOutcome], idx: usize) -> impl Iterator<Item = &TransferOutcome> {
    transfers.iter().skip(idx).step_by(TRANSFERS.len())
}

/// Delivery-delay metrics of the 2%-loss transfers, pooled over instances:
/// `(p50, p99, ordered p99)` in ms. Notes give each receiver's sample count
/// and tail level. `None` when a p99 has fewer than ten samples beyond it.
pub fn delays(w: &CodecWorkload, notes: &mut Vec<String>) -> Option<(f64, f64, f64)> {
    let transfers = reference(w);
    let ms = |us: u64| us as f64 / 1e3;
    let mut p99 = |idx: usize| -> Option<(f64, f64)> {
        let mut d: Vec<u64> = cell(transfers, idx)
            .flat_map(|o| o.delays_us.iter().copied())
            .collect();
        d.sort_unstable();
        let at = |l: u64| percentile_sorted(&d, l).map_or(0.0, ms);
        let what = format!("{} 2%-loss", w.kind.proto(TRANSFERS[idx].0));
        let (note, valid) = delay_note(&what, d.len() as u64, at);
        notes.push(note);
        valid.then(|| (at(5_000), at(9_900)))
    };
    let (p50, unordered_p99) = p99(UNORDERED_LOSSY)?;
    let (_, ordered_p99) = p99(ORDERED_LOSSY)?;
    Some((p50, unordered_p99, ordered_p99))
}

/// The standalone codec pass over the same datagrams: COBS framing and
/// scanning, or TLS record sealing and opening. Returns failed datagrams.
fn codec_pass(w: &CodecWorkload, rec: &mut SpanRecorder) -> u64 {
    let mut failed = 0;
    match w.kind {
        CodecKind::Ucobs => {
            for seq in 0..w.count {
                let d = w.template(seq);
                let framed = rec.time("cobs.encode", seq as u64, || frame_datagram(d));
                let records = rec.time("cobs.decode", seq as u64, || scan_records(&framed, false));
                if records.len() != 1 || records[0].payload != d {
                    failed += 1;
                }
            }
        }
        CodecKind::Utls => {
            let mut protection = RecordProtection::new(
                CipherSuite::Aes128CbcExplicitIv,
                [0x11; 16],
                [0x22; 32],
                VERSION_TLS11,
            );
            for seq in 0..w.count {
                let d = w.template(seq);
                let n = seq as u64;
                let wire = rec.time("tls.seal", n, || {
                    protection.seal(n, CONTENT_APPLICATION_DATA, d)
                });
                let opened = RecordHeader::decode(&wire).map(|header| {
                    rec.time("tls.open", n, || protection.open(n, &header, &wire[5..]))
                });
                if !matches!(opened, Some(Ok(ref p)) if p == d) {
                    failed += 1;
                }
            }
        }
    }
    failed
}

/// The traced run: cycles of one untraced serial repetition, one traced
/// repetition and the standalone codec pass, until `seconds` have passed
/// (at least one). Times are per-cycle means.
pub fn trace(
    w: &mut CodecWorkload,
    seconds: f64,
    layer: &mut Layer,
) -> (RepResult, Vec<SpanRecorder>) {
    let mut res = rep(w); // the reference transfers
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    // [transfer][send, recv, stack] nanoseconds, then codec encode/decode.
    let mut call_ns = [[0u64; 3]; 4];
    let mut codec_ns = [0u64; 2];
    let mut cycles = 0u64;
    let mut last = None;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        // Serial like the traced repetition, so the ratio is the tracing
        // cost alone.
        let t = Instant::now();
        res = res + run_transfers(w, None, 1);
        untraced_ns += t.elapsed().as_nanos() as u64;

        let mut rec = SpanRecorder::new();
        let t = Instant::now();
        res = res + run_transfers(w, Some(&mut rec), 1);
        traced_ns += t.elapsed().as_nanos() as u64;
        let codec_failed = codec_pass(w, &mut rec);
        let attempted = w.count as u64;
        res = res
            + RepResult {
                attempted,
                delivered: attempted - codec_failed,
                failed: codec_failed,
            };
        for s in rec.spans() {
            let call = ["send", "recv", "stack"].iter().position(|n| *n == s.name);
            if let Some(call) = call {
                call_ns[s.id as usize % TRANSFERS.len()][call] += s.end_ns - s.start_ns;
            }
        }
        let names = match w.kind {
            CodecKind::Ucobs => ["cobs.encode", "cobs.decode"],
            CodecKind::Utls => ["tls.seal", "tls.open"],
        };
        for (acc, name) in codec_ns.iter_mut().zip(names) {
            *acc += rec.total(name).0;
        }
        last = Some(rec);
        cycles += 1;
    }

    // Transfers send every datagram once per instance; the standalone codec
    // pass handles each once.
    let kb = (w.count * DATAGRAM) as f64 / 1e3;
    let per_kb = |ns: u64| Ratio::new(ns as f64 / cycles as f64, kb * w.kind.instances() as f64);
    let codec_per_kb = |ns: u64| Ratio::new(ns as f64 / cycles as f64, kb);
    for (idx, row) in call_ns.iter().enumerate() {
        let (unordered, loss) = TRANSFERS[idx];
        let proto = w.kind.proto(unordered);
        let loss = if loss == 0.0 { "loss0" } else { "loss2" };
        for (call, ns) in ["send", "recv", "stack"].iter().zip(row) {
            layer.ratio_named(format!("{proto}.{call}_ns_per_kB.{loss}"), per_kb(*ns));
        }
    }
    let unordered = w.kind.proto(true);
    layer.ratio_named(
        format!("{unordered}.recv_cost_ratio"),
        Ratio::new(
            call_ns[UNORDERED_LOSSY][1] as f64,
            call_ns[ORDERED_LOSSY][1] as f64,
        ),
    );
    let transfers = reference(w);
    let sum = |idx: usize, f: fn(&Counters) -> u64| -> u64 {
        cell(transfers, idx).map(|o| f(&o.counters)).sum()
    };
    layer.ratio_named(
        format!("{unordered}.wire_overhead_ratio"),
        Ratio::new(
            sum(0, |c| c.sender_wire_bytes) as f64,
            sum(0, |c| c.sender_payload_bytes) as f64,
        ),
    );
    let lossy = Counters {
        received: sum(UNORDERED_LOSSY, |c| c.received),
        duplicates_suppressed: sum(UNORDERED_LOSSY, |c| c.duplicates_suppressed),
        mac_attempts: sum(UNORDERED_LOSSY, |c| c.mac_attempts),
        rejected_candidates: sum(UNORDERED_LOSSY, |c| c.rejected_candidates),
        prediction_failures: sum(UNORDERED_LOSSY, |c| c.prediction_failures),
        ..Counters::default()
    };
    match w.kind {
        CodecKind::Ucobs => {
            layer.ratio("cobs.encode_ns_per_kB", codec_per_kb(codec_ns[0]));
            layer.ratio("cobs.decode_ns_per_kB", codec_per_kb(codec_ns[1]));
            layer.ratio(
                "ucobs.dup_ratio",
                Ratio::new(lossy.duplicates_suppressed as f64, lossy.received as f64),
            );
        }
        CodecKind::Utls => {
            layer.ratio("tls.seal_ns_per_kB", codec_per_kb(codec_ns[0]));
            layer.ratio("tls.open_ns_per_kB", codec_per_kb(codec_ns[1]));
            layer.count("utls.mac_attempts", lossy.mac_attempts);
            layer.ratio(
                "utls.mac_success_ratio",
                Ratio::new(
                    (lossy.mac_attempts - lossy.rejected_candidates) as f64,
                    lossy.mac_attempts as f64,
                ),
            );
            layer.count("utls.prediction_failures", lossy.prediction_failures);
        }
    }
    layer.ratio(
        "trace.overhead_ratio",
        Ratio::new(traced_ns as f64, untraced_ns as f64),
    );
    (res, last.into_iter().collect())
}
