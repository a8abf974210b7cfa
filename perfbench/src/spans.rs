//! An in-memory span recorder for the traced run.
//!
//! Every span records its name, start, end, parent span and the flow or
//! transfer id it belongs to. Spans stay in memory while the run measures
//! and are written out once at the end.

use crate::stats::{self_time, Interval};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Flow id (load workloads) or transfer index (codec workloads).
    pub id: u64,
}

impl Span {
    pub fn interval(&self) -> Interval {
        (self.start_ns, self.end_ns)
    }
}

/// Records nested spans against one monotonic epoch.
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanRecorder {
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close in reverse order of opening");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, id);
        let r = f();
        self.close(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds and calls of one span name.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.end_ns - s.start_ns, n + 1))
    }

    /// Summed self time of every span named `name`.
    pub fn self_time_of(&self, name: &str) -> u64 {
        let mut children: HashMap<u32, Vec<Interval>> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| (i as u32, Vec::new()))
            .collect();
        for s in &self.spans {
            if let Some(list) = s.parent.and_then(|p| children.get_mut(&p)) {
                list.push(s.interval());
            }
        }
        children
            .iter()
            .map(|(&i, kids)| self_time(self.spans[i as usize].interval(), kids))
            .sum()
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent id` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = SpanRecorder::new();
        let root = rec.open("root", 7);
        rec.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time("child", 2, || ());
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].id, 7);
        let (child_ns, calls) = rec.total("child");
        assert_eq!(calls, 2);
        let (root_ns, _) = rec.total("root");
        assert!(child_ns >= 2_000_000);
        assert_eq!(rec.self_time_of("root"), root_ns - child_ns);
        assert_eq!(rec.self_time_of("child"), child_ns);
    }

    #[test]
    #[should_panic(expected = "reverse order")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = SpanRecorder::new();
        let a = rec.open("a", 0);
        let _b = rec.open("b", 0);
        rec.close(a);
    }
}
