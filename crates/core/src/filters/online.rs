//! The online filter's task-management step (§4).
//!
//! Recording happens *during* computation (the engine pushes updated
//! vertices into [`ThreadBins`]); what remains for task management is
//! the "simple prefix-scan based concatenation of all thread bins"
//! (Fig. 4(b) line 20). The resulting list may be unsorted and contain
//! duplicates — both documented properties the evaluation measures.

use crate::frontier::ThreadBins;
use simdx_gpu::{Cost, GpuExecutor, KernelDesc, SchedUnit};
use simdx_graph::VertexId;

/// Concatenates all thread bins into the next active list, charging the
/// prefix-scan + copy kernel to `executor`.
pub fn concatenate(
    bins: &ThreadBins,
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
) -> Vec<VertexId> {
    let mut tasks = Vec::new();
    let mut list = Vec::with_capacity(bins.total_recorded() as usize);
    concatenate_into(bins, executor, kernel, launch, &mut tasks, &mut list);
    list
}

/// In-place [`concatenate`] writing the next active list and the charged
/// task costs into reused buffers (both cleared first) — the engine
/// scratch's zero-allocation path.
pub fn concatenate_into(
    bins: &ThreadBins,
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
    tasks: &mut Vec<Cost>,
    out: &mut Vec<VertexId>,
) {
    bins.concatenate_into(out);
    // Cost: a warp-cooperative exclusive scan over the bin sizes plus a
    // coalesced copy of every recorded vertex to its offset.
    let scan_warps = (bins.num_threads() as u64).div_ceil(32);
    let copy_warps = bins.total_recorded().div_ceil(32);
    tasks.clear();
    for _ in 0..scan_warps {
        tasks.push(Cost {
            compute_ops: 96,
            coalesced_reads: 32,
            width: 32,
            ..Cost::default()
        });
    }
    for _ in 0..copy_warps {
        tasks.push(Cost {
            compute_ops: 32,
            coalesced_reads: 32,
            writes: 32,
            width: 32,
            ..Cost::default()
        });
    }
    executor.run_kernel(kernel, SchedUnit::Warp, tasks, launch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_gpu::DeviceSpec;

    fn setup() -> (GpuExecutor, KernelDesc) {
        (
            GpuExecutor::new(DeviceSpec::k40()),
            KernelDesc::new("taskmgmt", 24),
        )
    }

    #[test]
    fn concatenation_matches_bins() {
        let (mut ex, k) = setup();
        let mut bins = ThreadBins::new(3, 8);
        bins.record(0, 5);
        bins.record(2, 9);
        bins.record(0, 5); // duplicate kept
        let list = concatenate(&bins, &mut ex, &k, true);
        assert_eq!(list, vec![5, 5, 9]);
        assert_eq!(ex.stats().kernel_launches, 1);
    }

    #[test]
    fn cost_scales_with_recorded_count() {
        let (mut ex, k) = setup();
        let mut small = ThreadBins::new(64, 1024);
        let mut large = ThreadBins::new(64, 1024);
        for i in 0..10u32 {
            small.record(i as usize, i);
        }
        for i in 0..10_000u32 {
            large.record(i as usize % 64, i % 999);
        }
        concatenate(&small, &mut ex, &k, false);
        let small_cycles = ex.stats().total_cycles;
        ex.reset();
        concatenate(&large, &mut ex, &k, false);
        assert!(ex.stats().total_cycles > small_cycles);
    }

    #[test]
    fn empty_bins_produce_empty_list() {
        let (mut ex, k) = setup();
        let bins = ThreadBins::new(4, 8);
        assert!(concatenate(&bins, &mut ex, &k, false).is_empty());
    }
}
