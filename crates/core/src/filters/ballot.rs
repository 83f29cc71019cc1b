//! The ballot filter (§4).
//!
//! Threads cooperatively scan the metadata arrays in warp-sized,
//! coalesced chunks; `__ballot` condenses each chunk's Active results
//! into a lane mask, and the set bits are appended — in vertex order —
//! to the next active list. Because each warp owns a contiguous vertex
//! range, the output is **sorted and duplicate-free**, the property that
//! makes next-iteration memory access sequential (§4's "dual benefits:
//! coalesced scan and sorted active vertices").

use crate::acc::AccProgram;
use simdx_gpu::warp::{ballot, popc};
use simdx_gpu::{Cost, GpuExecutor, KernelDesc, SchedUnit, WARP_SIZE};
use simdx_graph::VertexId;

/// Per-warp-chunk scan cost: two coalesced metadata loads per lane,
/// the compare + ballot + popc ALU work, and the compacted append of
/// the `votes` voting lanes.
fn chunk_cost(chunk: usize, votes: u32) -> Cost {
    Cost {
        compute_ops: 3 * chunk as u64,
        coalesced_reads: 2 * chunk as u64,
        writes: u64::from(votes),
        width: WARP_SIZE as u64,
        ..Cost::default()
    }
}

/// Reusable output buffers of one ballot-scan partition (also the
/// serial scan's scratch — the serial engine is the one-partition case).
#[derive(Clone, Debug, Default)]
pub struct WarpScanScratch {
    /// Per-warp-chunk scan costs, in chunk order.
    pub tasks: Vec<Cost>,
    /// Active vertices found, in vertex order.
    pub active: Vec<VertexId>,
}

impl WarpScanScratch {
    /// Clears both buffers, keeping capacity.
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.active.clear();
    }
}

/// Scans vertices `[start, end)` of the metadata arrays in warp-sized
/// chunks, appending active vertices and per-chunk costs to `out`.
///
/// `start` must be warp-aligned so that partition boundaries fall on
/// the same chunk boundaries the whole-array scan uses — partitions
/// concatenated in range order are then bit-identical (same actives,
/// same cost sequence) to one scan of the full range.
pub fn scan_range<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    start: usize,
    end: usize,
    out: &mut WarpScanScratch,
) {
    assert_eq!(curr.len(), prev.len(), "metadata arrays must be parallel");
    assert!(
        start.is_multiple_of(WARP_SIZE),
        "partition start must be warp-aligned"
    );
    let mut preds = [false; WARP_SIZE];
    let mut base = start;
    while base < end {
        let chunk = (end - base).min(WARP_SIZE);
        for lane in 0..chunk {
            let v = (base + lane) as VertexId;
            preds[lane] = program.active(v, &curr[base + lane], &prev[base + lane]);
        }
        // `__ballot` across the warp, then the warp appends its set
        // lanes in order — keeping the global output sorted because
        // warp w owns vertices [32w, 32w+32).
        let mask = ballot(&preds[..chunk]);
        let votes = popc(mask);
        for lane in 0..chunk {
            if mask & (1 << lane) != 0 {
                out.active.push((base + lane) as VertexId);
            }
        }
        out.tasks.push(chunk_cost(chunk, votes));
        base += chunk;
    }
}

/// Scans `curr` vs `prev` metadata with the program's Active condition
/// and returns the sorted, duplicate-free active list, charging the scan
/// kernel to `executor`.
///
/// # Panics
///
/// Panics if the metadata arrays have different lengths.
pub fn scan<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
) -> Vec<VertexId> {
    let mut out = WarpScanScratch::default();
    scan_range(program, curr, prev, 0, curr.len(), &mut out);
    executor.run_kernel(kernel, SchedUnit::Warp, &out.tasks, launch);
    out.active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::CombineKind;
    use simdx_gpu::DeviceSpec;
    use simdx_graph::{Graph, Weight};

    /// Trivial program whose Active is the default curr != prev.
    struct Diff;

    impl AccProgram for Diff {
        type Meta = u32;
        type Update = u32;

        fn name(&self) -> &'static str {
            "diff"
        }

        fn combine_kind(&self) -> CombineKind {
            CombineKind::Vote
        }

        fn init(&self, _g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
            unreachable!("not used by filter tests")
        }

        fn compute(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            _ms: &u32,
            _md: &u32,
        ) -> Option<u32> {
            None
        }

        fn combine(&self, a: u32, _b: u32) -> u32 {
            a
        }

        fn apply(&self, _v: VertexId, _c: &u32, _u: u32) -> Option<u32> {
            None
        }
    }

    fn setup() -> (GpuExecutor, KernelDesc) {
        (
            GpuExecutor::new(DeviceSpec::k40()),
            KernelDesc::new("taskmgmt", 24),
        )
    }

    #[test]
    fn finds_changed_vertices_sorted() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 100];
        let mut curr = prev.clone();
        curr[97] = 1;
        curr[3] = 1;
        curr[40] = 2;
        let list = scan(&Diff, &curr, &prev, &mut ex, &k, true);
        assert_eq!(list, vec![3, 40, 97]);
        assert_eq!(ex.stats().kernel_launches, 1);
    }

    #[test]
    fn no_changes_empty_list_but_scan_still_paid() {
        let (mut ex, k) = setup();
        let meta = vec![7u32; 1000];
        let list = scan(&Diff, &meta, &meta, &mut ex, &k, false);
        assert!(list.is_empty());
        // The scan cost is proportional to V even with nothing active —
        // the weakness JIT control exists to avoid (ER/RC in §4).
        assert!(ex.stats().total_cycles > 0);
    }

    #[test]
    fn partial_last_warp_handled() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 33];
        let mut curr = prev.clone();
        curr[32] = 5;
        let list = scan(&Diff, &curr, &prev, &mut ex, &k, false);
        assert_eq!(list, vec![32]);
    }

    #[test]
    fn cost_proportional_to_vertices_not_actives() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 32 * 1024];
        let mut curr = prev.clone();
        curr[5] = 1;
        scan(&Diff, &curr, &prev, &mut ex, &k, false);
        let one_active = ex.stats().total_cycles;

        ex.reset();
        let mut all = prev.clone();
        for m in all.iter_mut() {
            *m = 1;
        }
        scan(&Diff, &all, &prev, &mut ex, &k, false);
        let all_active = ex.stats().total_cycles;
        // The scan dominates, not the append volume: the all-active case
        // adds write traffic but stays within a small factor.
        assert!(all_active < one_active * 8);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_arrays_panic() {
        let (mut ex, k) = setup();
        scan(&Diff, &[1u32, 2], &[1u32], &mut ex, &k, false);
    }

    #[test]
    fn empty_metadata_ok() {
        let (mut ex, k) = setup();
        let list = scan(&Diff, &[] as &[u32], &[], &mut ex, &k, false);
        assert!(list.is_empty());
    }
}
