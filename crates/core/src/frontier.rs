//! Worklists, degree classification and per-thread bins (§4).
//!
//! Step I of JIT task management classifies active vertices by degree
//! into three worklists; step II assigns a thread per small task, a warp
//! per medium task and a CTA per large task. During computation the
//! online filter records newly-activated vertices into bounded
//! *thread bins*; a bin overflow is the signal that flips the JIT
//! controller over to the ballot filter.

use simdx_gpu::SchedUnit;
use simdx_graph::csr::Csr;
use simdx_graph::VertexId;

/// Degree thresholds separating the three worklists.
///
/// §4: "we initialize the small, medium and large worklists to be warp
/// and block sizes (i.e., 32 and 128)", and performance is stable for
/// small/med in `[4, 128]` and med/large in `[128, 2048]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifyThresholds {
    /// Degrees `<= small_max` go to the small (Thread) list.
    pub small_max: u32,
    /// Degrees `<= med_max` go to the medium (Warp) list; larger ones to
    /// the large (CTA) list.
    pub med_max: u32,
}

impl Default for ClassifyThresholds {
    fn default() -> Self {
        Self {
            small_max: 32,
            med_max: 128,
        }
    }
}

impl ClassifyThresholds {
    /// The worklist for a vertex of degree `d`.
    pub fn classify(&self, d: u32) -> SchedUnit {
        if d <= self.small_max {
            SchedUnit::Thread
        } else if d <= self.med_max {
            SchedUnit::Warp
        } else {
            SchedUnit::Cta
        }
    }
}

/// The three active worklists of one iteration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Worklists {
    /// Vertices processed one-per-thread (small degrees).
    pub small: Vec<VertexId>,
    /// Vertices processed one-per-warp (medium degrees).
    pub med: Vec<VertexId>,
    /// Vertices processed one-per-CTA (large degrees).
    pub large: Vec<VertexId>,
}

impl Worklists {
    /// Builds worklists by classifying `active` against the degrees in
    /// `csr` (in the scan direction the next iteration will use).
    pub fn classify(active: &[VertexId], csr: &Csr, thresholds: ClassifyThresholds) -> Self {
        let mut lists = Self::default();
        lists.classify_into(active, csr, thresholds);
        lists
    }

    /// In-place [`Self::classify`]: clears the lists (keeping their
    /// capacity) and refills them — the zero-allocation path the engine
    /// scratch uses every iteration.
    pub fn classify_into(
        &mut self,
        active: &[VertexId],
        csr: &Csr,
        thresholds: ClassifyThresholds,
    ) {
        self.clear();
        for &v in active {
            match thresholds.classify(csr.degree(v)) {
                SchedUnit::Thread => self.small.push(v),
                SchedUnit::Warp => self.med.push(v),
                SchedUnit::Cta => self.large.push(v),
            }
        }
    }

    /// Clears all three lists, keeping capacity.
    pub fn clear(&mut self) {
        self.small.clear();
        self.med.clear();
        self.large.clear();
    }

    /// Appends another set of worklists (used to merge per-worker
    /// classification results in worker order, which reproduces the
    /// serial order because workers own contiguous chunks).
    pub fn append(&mut self, other: &Self) {
        self.small.extend_from_slice(&other.small);
        self.med.extend_from_slice(&other.med);
        self.large.extend_from_slice(&other.large);
    }

    /// Total entries across the three lists.
    pub fn len(&self) -> u64 {
        (self.small.len() + self.med.len() + self.large.len()) as u64
    }

    /// Whether every list is empty (BSP termination signal).
    pub fn is_empty(&self) -> bool {
        self.small.is_empty() && self.med.is_empty() && self.large.is_empty()
    }

    /// The list processed at the given granularity.
    pub fn list(&self, unit: SchedUnit) -> &[VertexId] {
        match unit {
            SchedUnit::Thread => &self.small,
            SchedUnit::Warp => &self.med,
            SchedUnit::Cta => &self.large,
        }
    }

    /// Iterates `(unit, list)` pairs in small→med→large order.
    pub fn iter_units(&self) -> impl Iterator<Item = (SchedUnit, &[VertexId])> {
        [
            (SchedUnit::Thread, self.small.as_slice()),
            (SchedUnit::Warp, self.med.as_slice()),
            (SchedUnit::Cta, self.large.as_slice()),
        ]
        .into_iter()
    }

    /// Sum of scan-direction degrees over all entries — the frontier
    /// workload volume used by the direction heuristic.
    pub fn degree_sum(&self, csr: &Csr) -> u64 {
        self.iter_units()
            .flat_map(|(_, l)| l.iter())
            .map(|&v| csr.degree(v) as u64)
            .sum()
    }
}

/// Bounded per-thread bins used by the online filter.
///
/// Each simulated GPU thread owns a bin of at most `threshold` slots
/// (the §4 overflow threshold, default 64). Recording into a full bin
/// raises the overflow flag instead of growing — exactly the behaviour
/// that forces the switch to the ballot filter.
#[derive(Clone, Debug)]
pub struct ThreadBins {
    bins: Vec<Vec<VertexId>>,
    threshold: usize,
    overflowed: bool,
    /// Records dropped because of overflow (kept for diagnostics; the
    /// ballot filter regenerates the full list so nothing is lost).
    dropped: u64,
}

impl ThreadBins {
    /// Creates `num_threads` empty bins with the given overflow
    /// threshold.
    pub fn new(num_threads: usize, threshold: usize) -> Self {
        Self {
            bins: vec![Vec::new(); num_threads.max(1)],
            threshold,
            overflowed: false,
            dropped: 0,
        }
    }

    /// Number of bins (simulated threads).
    pub fn num_threads(&self) -> usize {
        self.bins.len()
    }

    /// The overflow threshold in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Records vertex `v` from simulated thread `thread`. Returns
    /// `false` (and sets the overflow flag) if the bin was full.
    pub fn record(&mut self, thread: usize, v: VertexId) -> bool {
        let idx = thread % self.bins.len();
        let bin = &mut self.bins[idx];
        if bin.len() >= self.threshold {
            self.overflowed = true;
            self.dropped += 1;
            return false;
        }
        bin.push(v);
        true
    }

    /// Whether any bin has overflowed.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Records dropped due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total recorded entries across bins.
    pub fn total_recorded(&self) -> u64 {
        self.bins.iter().map(|b| b.len() as u64).sum()
    }

    /// Concatenates all bins in thread order (the prefix-scan
    /// concatenation of Fig. 4(b) line 20). The result may contain
    /// duplicates and is generally unsorted — the documented online
    /// filter trade-off (§4).
    pub fn concatenate(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.total_recorded() as usize);
        self.concatenate_into(&mut out);
        out
    }

    /// In-place [`Self::concatenate`] into a reused buffer (cleared
    /// first, capacity kept).
    pub fn concatenate_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        for bin in &self.bins {
            out.extend_from_slice(bin);
        }
    }

    /// Clears all bins and the overflow flag for the next iteration.
    pub fn clear(&mut self) {
        for bin in &mut self.bins {
            bin.clear();
        }
        self.overflowed = false;
        self.dropped = 0;
    }

    /// Reshapes to `num_threads` bins with `threshold` capacity and
    /// clears, reusing existing bin allocations (the engine calls this
    /// every iteration; growing/shrinking only moves empty `Vec`s).
    pub fn reset_to(&mut self, num_threads: usize, threshold: usize) {
        self.bins.resize_with(num_threads.max(1), Vec::new);
        self.threshold = threshold;
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_graph::EdgeList;

    fn star_csr(leaves: u32) -> Csr {
        Csr::from_edge_list(&EdgeList::from_pairs(
            (1..=leaves).map(|i| (0, i)).collect(),
        ))
    }

    #[test]
    fn default_thresholds_match_paper() {
        let t = ClassifyThresholds::default();
        assert_eq!(t.small_max, 32);
        assert_eq!(t.med_max, 128);
        assert_eq!(t.classify(1), SchedUnit::Thread);
        assert_eq!(t.classify(32), SchedUnit::Thread);
        assert_eq!(t.classify(33), SchedUnit::Warp);
        assert_eq!(t.classify(128), SchedUnit::Warp);
        assert_eq!(t.classify(129), SchedUnit::Cta);
    }

    #[test]
    fn classify_splits_by_degree() {
        let csr = star_csr(200);
        // Vertex 0 has degree 200 (large); leaves have degree 0 (small).
        let lists = Worklists::classify(&[0, 1, 2], &csr, ClassifyThresholds::default());
        assert_eq!(lists.large, vec![0]);
        assert_eq!(lists.small, vec![1, 2]);
        assert!(lists.med.is_empty());
        assert_eq!(lists.len(), 3);
        assert!(!lists.is_empty());
    }

    #[test]
    fn degree_sum_counts_scan_volume() {
        let csr = star_csr(200);
        let lists = Worklists::classify(&[0, 1], &csr, ClassifyThresholds::default());
        assert_eq!(lists.degree_sum(&csr), 200);
    }

    #[test]
    fn empty_worklists() {
        let lists = Worklists::default();
        assert!(lists.is_empty());
        assert_eq!(lists.len(), 0);
    }

    #[test]
    fn bins_record_until_threshold() {
        let mut bins = ThreadBins::new(2, 3);
        for i in 0..3 {
            assert!(bins.record(0, i));
        }
        assert!(!bins.overflowed());
        assert!(!bins.record(0, 99));
        assert!(bins.overflowed());
        assert_eq!(bins.dropped(), 1);
        // The other bin is unaffected.
        assert!(bins.record(1, 5));
        assert_eq!(bins.total_recorded(), 4);
    }

    #[test]
    fn concatenate_preserves_thread_order_with_duplicates() {
        let mut bins = ThreadBins::new(2, 8);
        bins.record(0, 7);
        bins.record(1, 3);
        bins.record(0, 7); // duplicate is kept — online filter semantics
        assert_eq!(bins.concatenate(), vec![7, 7, 3]);
    }

    #[test]
    fn clear_resets_overflow() {
        let mut bins = ThreadBins::new(1, 1);
        bins.record(0, 1);
        bins.record(0, 2);
        assert!(bins.overflowed());
        bins.clear();
        assert!(!bins.overflowed());
        assert_eq!(bins.total_recorded(), 0);
        assert_eq!(bins.dropped(), 0);
    }

    #[test]
    fn thread_index_wraps() {
        let mut bins = ThreadBins::new(4, 16);
        bins.record(7, 42); // 7 % 4 == 3
        assert_eq!(bins.concatenate(), vec![42]);
    }
}
