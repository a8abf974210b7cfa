//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! ratios that keep their base, and span self time.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Percentile levels the tail rule chooses from, in parts per 10 000.
const TAIL_LEVELS: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// A percentile level chosen for a sample set, with how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailLevel {
    /// The level in parts per 10 000 (`9_900` = p99).
    pub per_10k: u64,
    /// Samples ranked above the level's nearest-rank position.
    pub beyond: u64,
}

impl TailLevel {
    /// Samples beyond the nearest-rank `per_10k` percentile of `n` samples.
    pub fn of(per_10k: u64, n: u64) -> TailLevel {
        let rank = (n * per_10k).div_ceil(10_000);
        TailLevel {
            per_10k,
            beyond: n - rank,
        }
    }

    /// `p99`, `p99.9`, ... as a label.
    pub fn label(&self) -> String {
        let whole = self.per_10k / 100;
        let frac = self.per_10k % 100;
        match frac {
            0 => format!("p{whole}"),
            f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
            f => format!("p{whole}.{f:02}"),
        }
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, or `None` when `n` is too small for even the median.
pub fn tail_level(n: u64) -> Option<TailLevel> {
    TAIL_LEVELS
        .iter()
        .map(|&l| TailLevel::of(l, n))
        .find(|t| t.beyond >= 10)
}

/// One line on a delay distribution of `n` samples: p50, p99 and the
/// highest percentile with ten samples beyond it, each with its count
/// beyond. `ms_at(per_10k)` gives the percentile in ms. The flag says
/// whether p99 has at least ten samples beyond it.
pub fn delay_note(what: &str, n: u64, ms_at: impl Fn(u64) -> f64) -> (String, bool) {
    let p99 = TailLevel::of(9_900, n);
    let mut line = format!(
        "{what} delay: n={n} p50={:.3} ms p99={:.3} ms (beyond p99: {})",
        ms_at(5_000),
        ms_at(9_900),
        p99.beyond
    );
    if let Some(t) = tail_level(n) {
        line += &format!(
            "; highest tail {}={:.3} ms (beyond: {})",
            t.label(),
            ms_at(t.per_10k),
            t.beyond
        );
    }
    (line, p99.beyond >= 10)
}

/// Nearest-rank percentile of sorted samples (`per_10k` parts per 10 000).
pub fn percentile_sorted(sorted: &[u64], per_10k: u64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as u64 * per_10k).div_ceil(10_000).max(1);
    Some(sorted[rank as usize - 1])
}

/// A ratio that keeps its numerator and base, so every printed ratio can
/// say what it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// The quotient; `None` over a zero base.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.num / self.base)
    }

    /// The quotient as reported: a layer that did no work (zero base)
    /// reports 0.
    pub fn reported(&self) -> f64 {
        self.value().unwrap_or(0.0)
    }

    /// `value (num / base)`.
    pub fn describe(&self) -> String {
        match self.value() {
            Some(v) => format!("{v:.6} ({} / {})", self.num, self.base),
            None => format!("n/a ({} / 0)", self.num),
        }
    }
}

/// A closed-open time interval in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a span: its duration minus the part of it that the union of
/// its children's intervals covers. Children are clipped to the parent, and
/// overlapping children count once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<Interval> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    p1.saturating_sub(p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_level_is_the_highest_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(
            tail_level(1000),
            Some(TailLevel {
                per_10k: 9_900,
                beyond: 10
            })
        );
        // 999 samples: p99 leaves 9 (rank 990), so p90 is the highest.
        assert_eq!(tail_level(999).map(|t| t.per_10k), Some(9_000));
        assert_eq!(tail_level(999).map(|t| t.beyond), Some(99));
        // 10 000 samples reach p99.9; 100 000 reach p99.99.
        assert_eq!(tail_level(10_000).map(|t| t.per_10k), Some(9_990));
        assert_eq!(tail_level(100_000).map(|t| t.per_10k), Some(9_999));
        // 20 samples: the median leaves 10 beyond; 19 samples leave 9.
        assert_eq!(tail_level(20).map(|t| t.per_10k), Some(5_000));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn tail_level_labels() {
        assert_eq!(TailLevel::of(9_900, 1).label(), "p99");
        assert_eq!(TailLevel::of(9_990, 1).label(), "p99.9");
        assert_eq!(TailLevel::of(9_999, 1).label(), "p99.99");
        assert_eq!(TailLevel::of(5_000, 1).label(), "p50");
    }

    #[test]
    fn delay_note_gives_counts_and_p99_validity() {
        let (line, ok) = delay_note("x", 1000, |l| l as f64);
        assert!(ok);
        assert!(line.contains("n=1000 p50=5000.000 ms p99=9900.000 ms (beyond p99: 10)"));
        assert!(line.contains("highest tail p99=9900.000 ms (beyond: 10)"));
        let (line, ok) = delay_note("x", 999, |l| l as f64);
        assert!(!ok, "p99 of 999 samples has only 9 beyond it");
        assert!(line.contains("highest tail p90=9000.000 ms (beyond: 99)"));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 5_000), Some(50));
        assert_eq!(percentile_sorted(&v, 9_900), Some(99));
        assert_eq!(percentile_sorted(&v, 10_000), Some(100));
        assert_eq!(percentile_sorted(&[7], 0), Some(7));
        assert_eq!(percentile_sorted(&[], 5_000), None);
    }

    #[test]
    fn ratio_carries_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), Some(0.25));
        assert_eq!(r.describe(), "0.250000 (3 / 12)");
        let z = Ratio::new(5.0, 0.0);
        assert_eq!(z.value(), None);
        assert_eq!(z.reported(), 0.0);
        assert_eq!(z.describe(), "n/a (5 / 0)");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children count once: [10, 40) covered = 30.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // Nested and unsorted children.
        assert_eq!(self_time((0, 100), &[(60, 90), (10, 50), (20, 30)]), 30);
        // Touching children merge without a gap.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // A child outside the parent covers nothing.
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }
}
