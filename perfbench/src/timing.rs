//! A timing [`Transport`] decorator: every trait method forwards unchanged
//! to the wrapped transport, and the calls that do work are timed as spans
//! under the caller's open `run_on` span.
//!
//! `backend`, `now` and `syscalls` are plain accessors and are forwarded
//! without a span; their cost stays in the driver's self time.

use crate::spans::SpanRecorder;
use minion_engine::{
    EngineMetrics, FlowId, Transport, TransportChunk, TransportFlowStats, ENGINE_PHASES,
};
use minion_obs::{CcObs, PhaseProfile};
use minion_simnet::SimTime;
use minion_tcp::ConnEvent;
use std::cell::RefCell;

/// Span names of the decorator, grouped the way the per-layer metrics
/// report them.
pub const STEP: &str = "transport.step";
pub const READ: &str = "transport.read";
pub const WRITE: &str = "transport.write";
pub const CONNECT: &str = "transport.connect";
pub const CLOSE: &str = "transport.close";
pub const FINISH: &str = "transport.finish";
pub const TAKE: [&str; 4] = [
    "transport.take_accepted",
    "transport.take_readable",
    "transport.take_writable",
    "transport.take_lifecycle",
];
pub const STATS: [&str; 4] = [
    "transport.flow_stats",
    "transport.flow_cc_obs",
    "transport.metrics",
    "transport.phases",
];

pub struct Timed<'a, T: Transport> {
    inner: T,
    rec: &'a RefCell<SpanRecorder>,
    /// Id for spans that belong to no single flow (the shard index).
    shard: u64,
    /// Engine phase time spent inside `finish`, per [`ENGINE_PHASES`] slot,
    /// so step-time phases can be told apart from teardown phases.
    pub finish_phase_ns: [u64; 3],
}

impl<'a, T: Transport> Timed<'a, T> {
    pub fn new(inner: T, rec: &'a RefCell<SpanRecorder>, shard: u64) -> Self {
        assert_eq!(ENGINE_PHASES.len(), 3, "engine phase list changed");
        Timed {
            inner,
            rec,
            shard,
            finish_phase_ns: [0; 3],
        }
    }
}

/// Run `f` inside a span of `rec`. The recorder is borrowed only to open and
/// close the span, never across the forwarded call.
fn timed<R>(rec: &RefCell<SpanRecorder>, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let span = rec.borrow_mut().open(name, id);
    let r = f();
    rec.borrow_mut().close(span);
    r
}

impl<T: Transport> Transport for Timed<'_, T> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn connect(&mut self) -> (FlowId, u64) {
        let inner = &mut self.inner;
        timed(self.rec, CONNECT, self.shard, || inner.connect())
    }

    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize {
        let inner = &mut self.inner;
        timed(self.rec, WRITE, u64::from(flow.0), || {
            inner.write(flow, data)
        })
    }

    fn read(&mut self, flow: FlowId) -> Option<TransportChunk> {
        let inner = &mut self.inner;
        timed(self.rec, READ, u64::from(flow.0), || inner.read(flow))
    }

    fn close(&mut self, flow: FlowId) {
        let inner = &mut self.inner;
        timed(self.rec, CLOSE, u64::from(flow.0), || inner.close(flow))
    }

    fn step(&mut self) -> bool {
        let inner = &mut self.inner;
        timed(self.rec, STEP, self.shard, || inner.step())
    }

    fn take_accepted(&mut self) -> Vec<(FlowId, u64)> {
        let inner = &mut self.inner;
        timed(self.rec, TAKE[0], self.shard, || inner.take_accepted())
    }

    fn take_readable(&mut self) -> Vec<FlowId> {
        let inner = &mut self.inner;
        timed(self.rec, TAKE[1], self.shard, || inner.take_readable())
    }

    fn take_writable(&mut self) -> Vec<FlowId> {
        let inner = &mut self.inner;
        timed(self.rec, TAKE[2], self.shard, || inner.take_writable())
    }

    fn take_lifecycle(&mut self) -> Vec<(FlowId, ConnEvent)> {
        let inner = &mut self.inner;
        timed(self.rec, TAKE[3], self.shard, || inner.take_lifecycle())
    }

    fn phases(&self) -> PhaseProfile {
        timed(self.rec, STATS[3], self.shard, || self.inner.phases())
    }

    fn flow_stats(&self, flow: FlowId) -> TransportFlowStats {
        timed(self.rec, STATS[0], u64::from(flow.0), || {
            self.inner.flow_stats(flow)
        })
    }

    fn flow_cc_obs(&self, flow: FlowId) -> CcObs {
        timed(self.rec, STATS[1], u64::from(flow.0), || {
            self.inner.flow_cc_obs(flow)
        })
    }

    fn metrics(&self) -> EngineMetrics {
        timed(self.rec, STATS[2], self.shard, || self.inner.metrics())
    }

    fn syscalls(&self) -> u64 {
        self.inner.syscalls()
    }

    fn finish(&mut self) {
        let inner = &mut self.inner;
        let mut delta = [0u64; 3];
        timed(self.rec, FINISH, self.shard, || {
            let before = inner.phases();
            inner.finish();
            let after = inner.phases();
            for (i, d) in delta.iter_mut().enumerate() {
                *d = after.nanos(i) - before.nanos(i);
            }
        });
        for (acc, d) in self.finish_phase_ns.iter_mut().zip(delta) {
            *acc += d;
        }
    }
}
