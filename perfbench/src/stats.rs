//! Numeric helpers: percentiles under the tail-sample rule, the
//! order-independent result digest, and span self-time arithmetic.

use std::time::Instant;

use mj_relalg::Value;
use mj_server::{WireBatch, WireColumn};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise its value is decided by a handful of
/// outliers and does not repeat from run to run.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (no tail rule: used for repeated
/// timings of one operation, not for latency distributions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A reported metric with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// splitmix64 finalizer: a fixed, seed-free mixer, so digests computed
/// in different processes and runs agree.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes one row's cells in column order.
#[derive(Clone, Copy)]
pub struct RowHash(u64);

impl RowHash {
    pub fn new() -> Self {
        RowHash(0x5BD1_E995)
    }

    pub fn int(&mut self, v: i64) {
        self.0 = mix(self.0.rotate_left(7) ^ v as u64);
    }

    pub fn str(&mut self, s: &str) {
        // FNV-1a over the bytes, tagged so a string never equals an int.
        let h = s.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
        });
        self.0 = mix(self.0.rotate_left(7) ^ h ^ 0x5354_5200_0000_0000);
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.int(*i),
            Value::Str(s) => self.str(s),
        }
    }
}

/// Order-independent multiset digest of a query result: the row count
/// and the wrapping sum of per-row hashes. Two results with the same
/// rows in any order agree; a missing, extra or changed row moves it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, row: RowHash) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix(row.0));
    }

    pub fn add_values(&mut self, row: &[Value]) {
        let mut h = RowHash::new();
        row.iter().for_each(|v| h.value(v));
        self.add(h);
    }

    /// Folds in every row of a decoded binary batch, reading the typed
    /// columns directly (no row pivot).
    pub fn add_wire_batch(&mut self, batch: &WireBatch) {
        for r in 0..batch.row_count {
            let mut h = RowHash::new();
            for col in &batch.columns {
                match col {
                    WireColumn::Int(v) => h.int(v[r]),
                    WireColumn::Val(v) => h.value(&v[r]),
                }
            }
            self.add(h);
        }
    }
}

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the enclosing span in the same [`Trace`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log, written out once the run ends.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span whose end is filled in later by [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
    ) -> usize {
        self.record(name, parent, request, start, start)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Appends another trace's spans, rebasing their parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered.min(span.dur_ns())
        })
        .collect()
}

/// Share of the root spans named `root` that no child span covers.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let self_ns = self_times(spans);
    let (mut uncovered, mut total) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_ns) {
        if s.parent.is_none() && s.name == root {
            uncovered += own;
            total += s.dur_ns();
        }
    }
    uncovered as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_omits_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0)); // 10 samples beyond
        assert_eq!(percentile(&v, 0.99), None); // only 1 beyond
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..19], 0.5), None); // 9 beyond the median
        assert_eq!(percentile(&v[..21], 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let rows = [
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::str("x")],
            vec![Value::Int(1), Value::Int(2)],
        ];
        let digest = |order: &[usize]| {
            let mut d = Digest::default();
            order.iter().for_each(|&i| d.add_values(&rows[i]));
            d
        };
        assert_eq!(digest(&[0, 1, 2]), digest(&[2, 1, 0]));
        assert_ne!(digest(&[0, 1, 2]), digest(&[0, 1]));
        assert_ne!(
            digest(&[0, 0, 1]),
            digest(&[0, 1, 1]),
            "multiplicity counts"
        );
        let mut swapped = Digest::default();
        swapped.add_values(&[Value::Int(2), Value::Int(1)]);
        let mut straight = Digest::default();
        straight.add_values(&[Value::Int(1), Value::Int(2)]);
        assert_ne!(swapped, straight, "column order counts");
    }

    #[test]
    fn wire_batch_digest_matches_row_digest() {
        let batch = WireBatch {
            row_count: 2,
            columns: vec![
                WireColumn::Int(vec![4, 5]),
                WireColumn::Val(vec![Value::str("a"), Value::Int(9)]),
            ],
        };
        let mut from_cols = Digest::default();
        from_cols.add_wire_batch(&batch);
        let mut from_rows = Digest::default();
        batch.to_rows().iter().for_each(|r| from_rows.add_values(r));
        assert_eq!(from_cols, from_rows);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to the root's end
            span("a.1", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 5, 20, 30, 5]);
        assert!((unattributed_share(&spans, "root") - 0.5).abs() < 1e-12);
    }
}
