//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! rule, span self time, open-loop latency and serial/parallel
//! iteration pairing. Everything here is pure so the tests at the
//! bottom pin it on hand-made inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`th percentile among `n >= 1`
/// samples. The small epsilon keeps decimal percentiles such as 99.9
/// from rounding one rank up through binary representation error.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of the ladder 50/75/90/95/99/99.9 that keeps
/// at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Fewest samples for which the `p`th percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("p < 100")
}

/// Median (nearest rank) of unsorted samples; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// A set of timing samples reduced to its median and one named tail.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The requested tail percentile and its value.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` at tail percentile `tail_p`. The caller
    /// fixes `tail_p` per metric name; [`Self::tail_ok`] says whether
    /// the sample count actually supports it.
    pub fn of(values: &[f64], tail_p: f64) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            p50: percentile(&v, 50.0).unwrap_or(0.0),
            tail_p,
            tail: percentile(&v, tail_p).unwrap_or(0.0),
        }
    }

    /// States the tail, its sample count and how far up the samples
    /// would support.
    pub fn tail_note(&self) -> String {
        format!(
            "p{} of n={} ({} beyond; the highest percentile with {MIN_BEYOND} beyond is p{})",
            self.tail_p,
            self.n,
            beyond(self.n, self.tail_p),
            tail_percentile(self.n).unwrap_or(0.0)
        )
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond the tail.
    pub fn tail_ok(&self) -> bool {
        beyond(self.n, self.tail_p) >= MIN_BEYOND
    }
}

/// One recorded interval, in nanoseconds from a common origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Self time of every interval: its duration minus the part of it
/// that the union of its children's intervals covers (children may
/// overlap, as concurrent requests under one serve call do).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Open-loop latency of one request: from when it was *due* to be sent
/// until it completed. `submitted` is when the generator's submit call
/// returned and `service_latency` the pool's own submission-to-result
/// time, so a generator running late (or blocked on admission) charges
/// its lateness to the request instead of hiding it.
pub fn latency_from_due(due: Instant, submitted: Instant, service_latency: Duration) -> Duration {
    submitted.saturating_duration_since(due) + service_latency
}

/// One iteration's host time on one runtime: `(query, iteration)`
/// identifies the same work on every runtime under the bit-equality
/// contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterSample {
    pub query: usize,
    pub iteration: u32,
    pub ns: u64,
    pub degree_sum: u64,
}

/// Pairs iteration *i* of query *q* across a serial and a parallel
/// run, returning `(serial_ns, parallel_ns, degree_sum)` per matched
/// key in key order. Unmatched samples are dropped; a degree-sum
/// mismatch means the runs did different work and is dropped too.
pub fn pair_iterations(serial: &[IterSample], parallel: &[IterSample]) -> Vec<(u64, u64, u64)> {
    let by_key = |v: &[IterSample]| -> BTreeMap<(usize, u32), IterSample> {
        v.iter().map(|s| ((s.query, s.iteration), *s)).collect()
    };
    let par = by_key(parallel);
    by_key(serial)
        .into_iter()
        .filter_map(|(k, s)| {
            let p = par.get(&k)?;
            (p.degree_sum == s.degree_sum).then_some((s.ns, p.ns, s.degree_sum))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>(), 90.0);
        assert_eq!((s.n, s.p50, s.tail), (100, 50.0, 90.0));
        assert!(s.tail_ok());
        assert!(!Summary::of(&[1.0; 99], 90.0).tail_ok());
    }

    #[test]
    fn self_time_subtracts_union_of_nested_children() {
        let iv = |start, end, parent| Interval { start, end, parent };
        let spans = vec![
            iv(0, 100, None),      // 0: root
            iv(10, 40, Some(0)),   // 1: child
            iv(30, 60, Some(0)),   // 2: overlaps child 1
            iv(90, 120, Some(0)),  // 3: runs past the root's end
            iv(15, 25, Some(1)),   // 4: grandchild of the root
            iv(200, 210, Some(0)), // 5: wholly outside the root
        ];
        let st = self_times(&spans);
        // Root covered by [10, 60) and [90, 100): 60 of 100.
        assert_eq!(st[0], 40);
        // Child 1 minus its own child only; the grandchild never
        // counts against the root twice.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[4], 10);
    }

    #[test]
    fn latency_counts_generator_lateness() {
        let due = Instant::now();
        let late = due + Duration::from_millis(7);
        let service = Duration::from_millis(3);
        assert_eq!(
            latency_from_due(due, late, service),
            Duration::from_millis(10)
        );
        // A submission that (by clock skew) precedes its due time is
        // charged the service latency alone.
        assert_eq!(latency_from_due(late, due, service), service);
    }

    #[test]
    fn pairs_same_iteration_of_same_query() {
        let s = |query, iteration, ns, degree_sum| IterSample {
            query,
            iteration,
            ns,
            degree_sum,
        };
        let serial = vec![
            s(0, 1, 10, 5),
            s(0, 2, 20, 7),
            s(1, 1, 30, 9),
            s(2, 1, 1, 1),
        ];
        let parallel = vec![
            s(1, 1, 15, 9),
            s(0, 2, 12, 7),
            s(0, 1, 40, 5),
            s(2, 1, 1, 2),
        ];
        assert_eq!(
            pair_iterations(&serial, &parallel),
            vec![(10, 40, 5), (20, 12, 7), (30, 15, 9)]
        );
    }
}
