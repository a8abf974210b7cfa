//! Load-scenario observability: what the paper actually argues about.
//!
//! The existing [`LoadReport`](crate::LoadReport) counters say how much got
//! through and how fast in aggregate; [`LoadObs`] says *when each record
//! arrived* — the per-record delivery-delay distribution that separates
//! ordered TCP (head-of-line blocking inflates the tail) from uTCP
//! (unordered delivery keeps later records out of earlier losses' shadow).
//! It bundles:
//!
//! * [`Histogram`]s — delivery delay (send-enqueue → app-deliver), RTO wait
//!   (per-timer arm → fire), and buffer-pool dwell, all in nanoseconds of
//!   backend time (virtual on sim, monotonic on os);
//! * a [`CounterSet`]/[`GaugeSet`] over fixed slot names (see
//!   [`LOAD_COUNTER_NAMES`]);
//! * a [`TraceRing`] of per-flow lifecycle events (SYN, first byte, record
//!   delivery, retransmit, RTO, FIN), dumpable as JSONL via
//!   `load_engine --trace-out`.
//!
//! Everything merges via [`Absorb`] in shard order, so a sharded run's
//! `LoadObs` is byte-identical to the serial merge at any thread count —
//! the same discipline the rest of the report already obeys.

use crate::metrics::{fnv1a, FNV_OFFSET_BASIS};
use minion_obs::{
    Absorb, CcObs, CounterSet, FlowDelayMap, GaugeSet, Histogram, KindSet, StreamStats, TraceRing,
};

/// Counter slots of [`LoadObs::counters`] (fixed at compile time so sharded
/// and serial registries always line up slot for slot).
pub const LOAD_COUNTER_NAMES: &[&str] = &[
    "records_enqueued",
    "records_delivered",
    "chunks_delivered",
    "chunks_out_of_order",
    "retransmit_edges",
    "rto_edges",
];

/// Slot: records fully handed to the transport's send buffer.
pub const C_RECORDS_ENQUEUED: usize = 0;
/// Slot: records whose full byte range reached the application.
pub const C_RECORDS_DELIVERED: usize = 1;
/// Slot: delivery chunks read from the transport.
pub const C_CHUNKS_DELIVERED: usize = 2;
/// Slot: delivery chunks that arrived out of stream order.
pub const C_CHUNKS_OUT_OF_ORDER: usize = 3;
/// Slot: retransmission edges observed (consecutive duplicates collapse in
/// the connection's event queue, so this undercounts dense bursts; the exact
/// per-flow count lives in `FlowMetrics::retransmissions`).
pub const C_RETRANSMIT_EDGES: usize = 4;
/// Slot: RTO-fired edges observed.
pub const C_RTO_EDGES: usize = 5;

/// Gauge slots of [`LoadObs::gauges`].
pub const LOAD_GAUGE_NAMES: &[&str] = &["coverage_ranges_high_water"];

/// Slot: most disjoint coverage ranges any flow's receive stream held at
/// once — a direct measure of how fragmented unordered delivery got.
pub const G_COVERAGE_RANGES_HIGH_WATER: usize = 0;

/// Deterministic observability of one load-scenario run (or shard).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadObs {
    /// Per-record delivery delay: send-enqueue → app-deliver, nanoseconds.
    pub delivery_delay: Histogram,
    /// RTO wait: how long each fired retransmission timer was armed
    /// (arm → fire, nanoseconds) — the realized timeout, including backoff.
    pub rto_wait: Histogram,
    /// Buffer-pool dwell of send-stream buffers (take → give), nanoseconds.
    pub pool_dwell: Histogram,
    /// Event counters over [`LOAD_COUNTER_NAMES`].
    pub counters: CounterSet,
    /// High-water marks over [`LOAD_GAUGE_NAMES`].
    pub gauges: GaugeSet,
    /// Lifecycle trace, bounded to the last
    /// [`DEFAULT_TRACE_CAP`](minion_obs::DEFAULT_TRACE_CAP) events.
    pub trace: TraceRing,
    /// Per-flow trace admission filter + admitted/suppressed accounting.
    pub trace_filter: TraceFilter,
    /// Accounting of the zero-drop streaming sink, when the run spilled
    /// its trace to a file (all-zero otherwise). The sink itself holds an
    /// OS writer and never enters this mergeable state — only its
    /// deterministic counters do.
    pub stream: StreamStats,
    /// Per-flow delivery-delay digests: who owns the tail, not just how
    /// fat it is.
    pub flow_delay: FlowDelayMap,
    /// Congestion-control window telemetry merged over the run's client
    /// flows, in flow order.
    pub cc_obs: CcObs,
}

impl Default for LoadObs {
    fn default() -> Self {
        LoadObs {
            delivery_delay: Histogram::new(),
            rto_wait: Histogram::new(),
            pool_dwell: Histogram::new(),
            counters: CounterSet::new(LOAD_COUNTER_NAMES),
            gauges: GaugeSet::new(LOAD_GAUGE_NAMES),
            trace: TraceRing::default(),
            trace_filter: TraceFilter::default(),
            stream: StreamStats::default(),
            flow_delay: FlowDelayMap::default(),
            cc_obs: CcObs::default(),
        }
    }
}

impl Absorb for LoadObs {
    fn absorb(&mut self, other: &Self) {
        self.delivery_delay.absorb(&other.delivery_delay);
        self.rto_wait.absorb(&other.rto_wait);
        self.pool_dwell.absorb(&other.pool_dwell);
        self.counters.absorb(&other.counters);
        self.gauges.absorb(&other.gauges);
        self.trace.absorb(&other.trace);
        self.trace_filter.absorb(&other.trace_filter);
        self.stream.absorb(&other.stream);
        self.flow_delay.absorb(&other.flow_delay);
        self.cc_obs.absorb(&other.cc_obs);
    }
}

/// Flow × kind trace admission: when focused on one flow and/or a kind
/// slice, only matching events enter the trace sinks, so a 1k-flow run
/// can trace a single flow (or just the `retransmit,rto` recovery
/// events) at full granularity without drowning the bounded ring. Counts
/// what it admits and suppresses so filtered dumps stay honest about
/// coverage. The scenario driver applies the predicate through
/// `minion_obs::FilteredSink`; this struct is the mergeable *record* of
/// the predicate config plus its accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceFilter {
    /// Global flow index to focus on; `None` admits every flow.
    pub flow: Option<u32>,
    /// Kinds to admit; `KindSet::all()` (the default) admits every kind.
    pub kinds: KindSet,
    /// Events that passed the filter.
    pub admitted: u64,
    /// Events rejected by the focus.
    pub suppressed: u64,
}

impl TraceFilter {
    /// A filter over both predicate axes.
    pub fn sliced(flow: Option<u32>, kinds: KindSet) -> Self {
        TraceFilter {
            flow,
            kinds,
            ..TraceFilter::default()
        }
    }
}

impl Absorb for TraceFilter {
    /// Counters add; the predicate config must agree. A pristine filter
    /// (nothing counted) adopts `other`'s config so `TraceFilter::default()`
    /// is a true merge identity; all shards of one scenario inherit the
    /// same predicate, so mismatched non-pristine configs are a bug — loudly.
    fn absorb(&mut self, other: &Self) {
        if self.admitted == 0 && self.suppressed == 0 {
            self.flow = other.flow;
            self.kinds = other.kinds;
        } else if other.admitted != 0 || other.suppressed != 0 {
            assert_eq!(
                self.flow, other.flow,
                "merging trace filters with different focus"
            );
            assert_eq!(
                self.kinds, other.kinds,
                "merging trace filters with different kind slices"
            );
        }
        self.admitted += other.admitted;
        self.suppressed += other.suppressed;
    }
}

impl LoadObs {
    /// Order-sensitive FNV-1a fingerprint of the trace ring's event stream
    /// (the compact form the determinism gates compare).
    pub fn trace_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        for ev in self.trace.events() {
            fnv1a(&mut h, &ev.t_ns.to_be_bytes());
            fnv1a(&mut h, &ev.flow.to_be_bytes());
            fnv1a(&mut h, &ev.seq.to_be_bytes());
            fnv1a(&mut h, ev.kind.as_str().as_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_obs::{TraceEvent, TraceKind};

    fn sample(base: u64) -> LoadObs {
        let mut o = LoadObs::default();
        o.delivery_delay.record(base + 1_000);
        o.rto_wait.record(base + 2_000);
        o.pool_dwell.record(0);
        o.counters.inc(C_RECORDS_DELIVERED);
        o.gauges.observe(G_COVERAGE_RANGES_HIGH_WATER, base);
        o.trace.push(TraceEvent {
            t_ns: base,
            flow: base as u32,
            seq: 0,
            kind: TraceKind::Syn,
        });
        o.trace_filter.admitted += 1;
        o.cc_obs.record_window(base, 14_400, 7_200);
        o.cc_obs.record_recovery(base + 500, 7_200);
        o
    }

    #[test]
    fn absorb_is_associative_with_default_identity() {
        let (a, b, c) = (sample(1), sample(2), sample(3));
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        assert_eq!(left, right, "associative");
        let mut id = LoadObs::default();
        id.absorb(&a);
        assert_eq!(id, a, "default ⊕ a == a");
        let mut back = a.clone();
        back.absorb(&LoadObs::default());
        assert_eq!(back, a, "a ⊕ default == a");
    }

    #[test]
    #[should_panic(expected = "different kind slices")]
    fn trace_filter_absorb_rejects_mismatched_kind_slices() {
        use minion_obs::KindSet;
        let mut a = TraceFilter::sliced(None, KindSet::of(&[TraceKind::Retransmit]));
        let mut b = TraceFilter::sliced(None, KindSet::of(&[TraceKind::Syn]));
        a.admitted = 1;
        b.suppressed = 1;
        a.absorb(&b);
    }

    #[test]
    fn trace_filter_absorb_is_associative_and_order_stable() {
        let mk = |adm: u64, sup: u64| {
            let mut f = TraceFilter::sliced(Some(3), KindSet::all());
            f.admitted = adm;
            f.suppressed = sup;
            f
        };
        let (a, b, c) = (mk(1, 2), mk(3, 4), mk(5, 6));
        let mut left = a;
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b;
        bc.absorb(&c);
        let mut right = a;
        right.absorb(&bc);
        assert_eq!(left, right, "associative");
        assert_eq!((left.admitted, left.suppressed), (9, 12));
        // order-stability: counters are commutative sums, so shard order
        // cannot change the merged value
        let mut rev = c;
        rev.absorb(&b);
        rev.absorb(&a);
        assert_eq!(rev, left);
        // pristine identity adopts the focus
        let mut id = TraceFilter::default();
        id.absorb(&a);
        assert_eq!(id, a);
        let mut back = a;
        back.absorb(&TraceFilter::default());
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "different focus")]
    fn trace_filter_absorb_rejects_mismatched_focus() {
        let mut a = TraceFilter::sliced(Some(1), KindSet::all());
        let mut b = TraceFilter::sliced(Some(2), KindSet::all());
        a.admitted = 1;
        b.suppressed = 1;
        a.absorb(&b);
    }

    #[test]
    fn trace_fingerprint_is_order_sensitive() {
        let mut ab = sample(1);
        ab.absorb(&sample(2));
        let mut ba = sample(2);
        ba.absorb(&sample(1));
        assert_ne!(ab.trace_fingerprint(), ba.trace_fingerprint());
        assert_eq!(ab.trace_fingerprint(), ab.clone().trace_fingerprint());
        assert_eq!(LoadObs::default().trace_fingerprint(), FNV_OFFSET_BASIS);
    }
}
