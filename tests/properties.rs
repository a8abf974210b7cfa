//! Property-based tests over the core data structures and codecs.

use minion_repro::cobs;
use minion_repro::core::{FragmentStore, UcobsReceiver};
use minion_repro::crypto;
use minion_repro::tcp::{SackBlock, SeqNum, TcpFlags, TcpOption, TcpSegment};
use minion_repro::tls::{
    CipherSuite, RecordProtection, UtlsReceiver, UtlsRecord, CONTENT_APPLICATION_DATA,
    VERSION_TLS11,
};
use proptest::prelude::*;

proptest! {
    // Fixed case count (with seeds derived from file + test name) so every
    // CI run generates the identical case sequence; override locally with
    // PROPTEST_CASES. Failures are pinned in proptest-regressions/.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COBS is a bijection on arbitrary byte strings and never emits the
    /// reserved marker byte.
    #[test]
    fn cobs_roundtrip_and_marker_freedom(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let encoded = cobs::encode(&data);
        prop_assert!(encoded.iter().all(|&b| b != cobs::MARKER));
        prop_assert!(encoded.len() <= cobs::max_encoded_len(data.len()));
        let decoded = cobs::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, data);
    }

    /// Framed records are always recoverable from the full stream, and
    /// concatenations of framed records scan back to the original sequence.
    #[test]
    fn framed_records_scan_back(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..600), 1..12)
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&cobs::frame_datagram(p));
        }
        let scanned = cobs::scan_records(&stream, true);
        let got: Vec<Vec<u8>> = scanned.into_iter().map(|r| r.payload).collect();
        prop_assert_eq!(got, payloads);
    }

    /// The fragment store reassembles an arbitrary permutation of arbitrary
    /// overlapping slices of a stream into exactly the original bytes.
    #[test]
    fn fragment_store_reassembles_any_arrival_order(
        len in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        // Slice the stream into chunks of pseudo-random sizes, then deliver
        // them in a pseudo-random order with some duplicates.
        let mut chunks = Vec::new();
        let mut offset = 0usize;
        let mut state = seed | 1;
        while offset < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let size = 1 + (state >> 33) as usize % 200;
            let end = (offset + size).min(len);
            chunks.push((offset as u64, data[offset..end].to_vec()));
            offset = end;
        }
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        // Deterministic shuffle.
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(12345);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut store = FragmentStore::new();
        for &i in &order {
            let (off, ref chunk) = chunks[i];
            store.insert(off, chunk);
            // Occasionally re-deliver a duplicate.
            if i % 5 == 0 {
                store.insert(off, chunk);
            }
        }
        let frag = store.fragment_at(0).expect("stream head present");
        prop_assert_eq!(frag.offset, 0);
        prop_assert_eq!(frag.data, data);
        prop_assert_eq!(store.fragment_count(), 1);
    }

    /// The uTLS receiver delivers every record exactly once, byte-exact,
    /// whatever order, duplication and overlap the stream's chunks arrive
    /// with; in-order arrival never yields an out-of-order record, and once
    /// the whole stream has arrived nothing stays buffered.
    #[test]
    fn utls_receiver_delivers_each_record_exactly_once(
        lens in proptest::collection::vec(1usize..1501, 1..40),
        seed in any::<u64>(),
    ) {
        let enc = *b"prop-test-key-16";
        let mac = [5u8; 32];
        let mut tx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (n, &len) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + n * 7) as u8).collect();
            stream.extend_from_slice(&tx.seal(n as u64, CONTENT_APPLICATION_DATA, &payload));
            payloads.push(payload);
        }
        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        // Random chunk sizes, each followed now and then by an overlapping
        // re-send reaching back to an earlier offset.
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let mut offset = 0usize;
        while offset < stream.len() {
            let end = (offset + 1 + next(3000)).min(stream.len());
            chunks.push((offset, end));
            if next(4) == 0 {
                chunks.push((offset.saturating_sub(next(2000)), end));
            }
            offset = end;
        }
        let receiver = || {
            let rx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
            UtlsReceiver::new(rx, 8)
        };
        let check = |got: &[UtlsRecord], rx: &UtlsReceiver| {
            let mut numbers: Vec<u64> = got.iter().map(|r| r.record_number).collect();
            numbers.sort_unstable();
            prop_assert_eq!(numbers, (0..lens.len() as u64).collect::<Vec<u64>>());
            for r in got {
                prop_assert_eq!(&r.payload, &payloads[r.record_number as usize]);
            }
            prop_assert_eq!(rx.buffered_bytes(), 0);
        };

        let mut in_order = receiver();
        let mut got = Vec::new();
        for &(start, end) in &chunks {
            got.extend(in_order.on_fragment(start as u64, &stream[start..end]));
        }
        prop_assert!(got.iter().all(|r| !r.out_of_order));
        check(&got, &in_order);

        // Shuffle, and duplicate some chunks at random later positions.
        let mut order = chunks.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i + 1));
        }
        for _ in 0..next(order.len() + 1) {
            let dup = order[next(order.len())];
            let at = next(order.len() + 1);
            order.insert(at, dup);
        }
        let mut shuffled = receiver();
        let mut got = Vec::new();
        for &(start, end) in &order {
            got.extend(shuffled.on_fragment(start as u64, &stream[start..end]));
        }
        check(&got, &shuffled);
    }

    /// The uCOBS receiver delivers every record exactly once, byte-exact,
    /// whatever order, duplication and overlap the stream's chunks arrive
    /// with; in-order arrival never yields an out-of-order datagram, and once
    /// the whole stream has arrived at most its trailing marker stays
    /// buffered.
    #[test]
    fn ucobs_receiver_delivers_each_record_exactly_once(
        lens in proptest::collection::vec(0usize..1501, 1..40),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        // Zero-heavy and zero-free payloads: COBS runs from 0 to 254 bytes.
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (n, &len) in lens.iter().enumerate() {
            let payload: Vec<u8> = match n % 3 {
                0 => (0..len).map(|i| (i * 31 + n * 7) as u8 | 1).collect(),
                1 => (0..len).map(|_| if next(3) == 0 { 0 } else { next(256) as u8 }).collect(),
                _ => (0..len).map(|i| (i % 2 * n) as u8).collect(),
            };
            stream.extend_from_slice(&cobs::frame_datagram(&payload));
            payloads.push(payload);
        }
        // Random chunk sizes, each followed now and then by an overlapping
        // re-send reaching back to an earlier offset.
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let mut offset = 0usize;
        while offset < stream.len() {
            let end = (offset + 1 + next(3000)).min(stream.len());
            chunks.push((offset, end));
            if next(4) == 0 {
                chunks.push((offset.saturating_sub(next(2000)), end));
            }
            offset = end;
        }

        let mut in_order = UcobsReceiver::new();
        let mut got = Vec::new();
        for &(start, end) in &chunks {
            got.extend(in_order.on_chunk(start as u64, &stream[start..end], true));
        }
        prop_assert!(got.iter().all(|d| !d.out_of_order));
        let got: Vec<Vec<u8>> = got.into_iter().map(|d| d.payload).collect();
        prop_assert_eq!(&got, &payloads);
        prop_assert!(in_order.buffered_bytes() <= 1);

        // Shuffle, and duplicate some chunks at random later positions.
        let mut order = chunks.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i + 1));
        }
        for _ in 0..next(order.len() + 1) {
            let dup = order[next(order.len())];
            let at = next(order.len() + 1);
            order.insert(at, dup);
        }
        let mut shuffled = UcobsReceiver::new();
        let mut got = Vec::new();
        for &(start, end) in &order {
            let in_order = next(2) == 0;
            got.extend(shuffled.on_chunk(start as u64, &stream[start..end], in_order));
        }
        // Each payload as often as it was sent (payloads may repeat).
        let mut got: Vec<Vec<u8>> = got.into_iter().map(|d| d.payload).collect();
        let mut want = payloads.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert!(shuffled.buffered_bytes() <= 1);
        prop_assert_eq!(shuffled.stats().datagrams_received, lens.len() as u64);
    }

    /// TCP segments round-trip through their wire encoding for arbitrary
    /// field values.
    #[test]
    fn tcp_segment_roundtrip(
        src in any::<u16>(),
        dst in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        sack_ranges in proptest::collection::vec((any::<u32>(), 1u32..5000), 0..3),
    ) {
        let mut seg = TcpSegment::bare(src, dst, SeqNum::new(seq), SeqNum::new(ack), TcpFlags::ACK);
        seg.window = window;
        seg.payload = payload.into();
        if !sack_ranges.is_empty() {
            let blocks: Vec<SackBlock> = sack_ranges
                .iter()
                .map(|&(start, len)| SackBlock { start: SeqNum::new(start), end: SeqNum::new(start) + len })
                .collect();
            seg.options = vec![TcpOption::SackPermitted, TcpOption::Sack(blocks), TcpOption::Mss(1448)];
        }
        let decoded = TcpSegment::decode(&seg.encode()).unwrap();
        prop_assert_eq!(decoded, seg);
    }

    /// TLS records round-trip under the correct record number and fail under
    /// any other record number (the property uTLS's guess-and-verify relies
    /// on).
    #[test]
    fn tls_record_mac_binds_the_record_number(
        payload in proptest::collection::vec(any::<u8>(), 1..1500),
        record_number in 0u64..1_000_000,
        wrong_delta in 1u64..50,
    ) {
        let enc = *b"prop-test-key-16";
        let mac = [3u8; 32];
        let mut tx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        let mut rx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        let wire = tx.seal(record_number, CONTENT_APPLICATION_DATA, &payload);
        let header = minion_repro::tls::RecordHeader::decode(&wire).unwrap();
        let body = &wire[minion_repro::tls::RECORD_HEADER_LEN..];
        prop_assert_eq!(rx.open(record_number, &header, body).unwrap(), payload);
        prop_assert!(rx.open(record_number + wrong_delta, &header, body).is_err());
    }

    /// SHA-256 and HMAC are deterministic and input-sensitive.
    #[test]
    fn hashes_are_deterministic_and_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        flip in any::<usize>(),
    ) {
        let a = crypto::sha256(&data);
        let b = crypto::sha256(&data);
        prop_assert_eq!(a, b);
        let mut mutated = data.clone();
        let idx = flip % mutated.len();
        mutated[idx] ^= 0x01;
        prop_assert_ne!(crypto::sha256(&mutated), a);
        prop_assert_ne!(
            crypto::hmac_sha256(b"k1", &data),
            crypto::hmac_sha256(b"k2", &data)
        );
    }
}
