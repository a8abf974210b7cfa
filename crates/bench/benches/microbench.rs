//! Criterion microbenchmarks of the data-path hot spots: COBS encoding and
//! record scanning, the uCOBS receiver, TLS record protection, uTLS
//! out-of-order recovery, and TCP segment serialization. These quantify the per-byte costs behind the
//! Figure 6 CPU numbers.
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minion_cobs::{decode, encode, frame_datagram, scan_records};
use minion_core::UcobsReceiver;
use minion_crypto::{cbc, hmac_sha256, sha256, Aes128};
use minion_tcp::{SeqNum, TcpFlags, TcpSegment};
use minion_tls::{
    CipherSuite, RecordHeader, RecordProtection, UtlsReceiver, CONTENT_APPLICATION_DATA,
    RECORD_HEADER_LEN, VERSION_TLS11,
};
use std::ops::Range;
use std::time::Duration;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 256) as u8).collect()
}

fn bench_cobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cobs");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("encode_1400B", |b| {
        b.iter(|| encode(std::hint::black_box(&data)))
    });
    let encoded = encode(&data);
    group.bench_function("decode_1400B", |b| {
        b.iter(|| decode(std::hint::black_box(&encoded)))
    });
    // Record scanning over a 20-record fragment.
    let mut stream = Vec::new();
    for _ in 0..20 {
        stream.extend_from_slice(&frame_datagram(&data));
    }
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("scan_20_records", |b| {
        b.iter(|| scan_records(std::hint::black_box(&stream), true))
    });
    let datagram = payload(1200);
    group.throughput(Throughput::Bytes(1200));
    group.bench_function("frame_1200B", |b| {
        b.iter(|| frame_datagram(std::hint::black_box(&datagram)))
    });
    group.finish();
}

/// A fixed receive schedule for 1000 framed 1200-byte datagrams: 1448-byte
/// segments in stream order, except that every 50th segment (2%) arrives 30
/// segments late, as a retransmission would. Segments arriving while a hole
/// is open are flagged out of order.
fn lossy_schedule() -> (Vec<u8>, Vec<(Range<usize>, bool)>) {
    let mut stream = Vec::new();
    for seq in 0..1000u32 {
        let mut d = payload(1200);
        d[..4].copy_from_slice(&seq.to_be_bytes());
        stream.extend_from_slice(&frame_datagram(&d));
    }
    let segments: Vec<Range<usize>> = (0..stream.len())
        .step_by(1448)
        .map(|start| start..(start + 1448).min(stream.len()))
        .collect();
    let mut schedule = Vec::new();
    let mut late: Vec<(usize, Range<usize>)> = Vec::new();
    for (i, seg) in segments.into_iter().enumerate() {
        if i % 50 == 49 {
            late.push((i + 30, seg));
        } else {
            schedule.push((seg, late.is_empty()));
        }
        while late.first().is_some_and(|(due, _)| *due <= i) {
            let (_, seg) = late.remove(0);
            schedule.push((seg, true));
        }
    }
    for (_, seg) in late {
        schedule.push((seg, true));
    }
    (stream, schedule)
}

fn bench_ucobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ucobs");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let (stream, schedule) = lossy_schedule();
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("receiver_2pct_shuffled", |b| {
        b.iter(|| {
            let mut rx = UcobsReceiver::new();
            let mut delivered = 0;
            for (range, in_order) in &schedule {
                let chunk = &stream[range.clone()];
                delivered += rx.on_chunk(range.start as u64, chunk, *in_order).len();
            }
            assert_eq!(delivered, 1000);
            rx.buffered_bytes()
        })
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("sha256_1400B", |b| {
        b.iter(|| sha256(std::hint::black_box(&data)))
    });
    group.bench_function("hmac_sha256_1400B", |b| {
        b.iter(|| hmac_sha256(b"key", std::hint::black_box(&data)))
    });
    // CBC over the 78 blocks a 1200-byte record occupies with its MAC and
    // padding, in place (each iteration re-encrypts the previous output).
    let aes = Aes128::new(b"0123456789abcdef");
    let iv = [0x42u8; 16];
    let mut blocks = payload(1248);
    group.throughput(Throughput::Bytes(1248));
    group.bench_function("aes128_cbc_encrypt_1248B", |b| {
        b.iter(|| cbc::encrypt(&aes, &iv, std::hint::black_box(&mut blocks)))
    });
    group.bench_function("aes128_cbc_decrypt_1248B", |b| {
        b.iter(|| cbc::decrypt(&aes, &iv, std::hint::black_box(&mut blocks)))
    });
    group.finish();
}

fn bench_tls(c: &mut Criterion) {
    let mut group = c.benchmark_group("tls");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    let keys = (*b"0123456789abcdef", [7u8; 32]);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("seal_record_1400B", |b| {
        let mut tx = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let mut n = 0u64;
        b.iter(|| {
            let wire = tx.seal(n, CONTENT_APPLICATION_DATA, std::hint::black_box(&data));
            n += 1;
            wire
        })
    });
    group.bench_function("open_record_1400B", |b| {
        let mut tx = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let mut rx = tx.clone();
        let wire = tx.seal(0, CONTENT_APPLICATION_DATA, &data);
        let header = RecordHeader::decode(&wire).expect("sealed header");
        b.iter(|| rx.open(0, &header, std::hint::black_box(&wire[RECORD_HEADER_LEN..])))
    });
    // uTLS out-of-order recovery of a record after a hole.
    group.bench_function("utls_recover_after_hole", |b| {
        let mut tx = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let rx_prot = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let wires: Vec<Vec<u8>> = (0..4u64)
            .map(|n| tx.seal(n, CONTENT_APPLICATION_DATA, &data))
            .collect();
        let offset1 = wires[0].len() as u64;
        let offset3 = (wires[0].len() + wires[1].len() + wires[2].len()) as u64;
        b.iter(|| {
            let mut rx = UtlsReceiver::new(rx_prot.clone(), 8);
            rx.on_fragment(0, &wires[0]);
            let _ = offset1;
            rx.on_fragment(offset3, std::hint::black_box(&wires[3]))
        })
    });
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut seg = TcpSegment::bare(443, 50000, SeqNum(123456), SeqNum(654321), TcpFlags::ACK);
    seg.payload = bytes::Bytes::from(payload(1400));
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("segment_encode_1400B", |b| {
        b.iter(|| std::hint::black_box(&seg).encode())
    });
    let wire = seg.encode();
    group.bench_function("segment_decode_1400B", |b| {
        b.iter(|| TcpSegment::decode(std::hint::black_box(&wire)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cobs,
    bench_ucobs,
    bench_crypto,
    bench_tls,
    bench_tcp
);
criterion_main!(benches);
