//! Compatibility pin for the durable checkpoint wire format (SXCP
//! version 1, `crates/core/src/persist.rs`).
//!
//! `tests/data/golden_bfs.sxcp` was written by an earlier build: a BFS
//! from vertex 0 on a fixed generated RMAT graph (scale 8, edge factor
//! 8, seed 5), aborted by a cycle budget after two iterations, spilled
//! as ticket 7. It must keep decoding and re-encoding byte for byte,
//! and resuming it must stay bit-equal to an uninterrupted run — so a
//! change to the format or to the engine's metadata storage cannot pass
//! on round-trips of its own output alone.

use simdx::algos::Bfs;
use simdx::core::persist;
use simdx::core::prelude::*;
use simdx::graph::gen::Rmat;
use simdx::graph::Graph;

const GOLDEN: &[u8] = include_bytes!("data/golden_bfs.sxcp");

/// The graph the golden checkpoint was captured on.
fn graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(8, 8).generate(5))
}

#[test]
fn golden_blob_decodes_and_resumes_bit_equal() {
    let frame = persist::decode::<u32>(GOLDEN).expect("golden blob decodes");
    assert_eq!(frame.ticket, 7);
    assert_eq!(frame.seed, 0);
    let cp = &frame.checkpoint;
    assert_eq!(cp.algorithm(), "bfs");
    assert_eq!(cp.num_vertices(), 256);
    assert_eq!(cp.iteration(), 2);
    assert_eq!(persist::encode(&frame), GOLDEN, "re-encoding drifted");

    let g = graph();
    for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let runtime = Runtime::new(EngineConfig::unscaled().with_exec(exec)).expect("runtime");
        let bound = runtime.bind(&g);
        let baseline = bound.run(Bfs::new(0)).execute().expect("uninterrupted run");
        let resumed = bound
            .resume(Bfs::new(0), frame.checkpoint.clone())
            .execute()
            .expect("resume golden checkpoint");
        let label = exec.label();
        assert_eq!(resumed.meta, baseline.meta, "{label}: metadata");
        assert_eq!(resumed.report.log, baseline.report.log, "{label}: log");
        assert_eq!(
            resumed.report.stats, baseline.report.stats,
            "{label}: stats"
        );
        assert_eq!(
            resumed.report.edges_examined, baseline.report.edges_examined,
            "{label}: edge meter"
        );
    }
}

#[test]
fn chunked_layout_byte_is_a_typed_error() {
    // Header (8) then the IDENT section's id (1) and payload length (8).
    let ident_start = 8 + 1 + 8;
    let ident_len = u64::from_le_bytes(GOLDEN[9..17].try_into().expect("8 bytes")) as usize;
    // ticket, seed, num_vertices, iteration, edges_examined, prev_dir
    // and the three fusion bytes precede the layout byte.
    let layout_at = ident_start + 8 + 4 + 4 + 4 + 8 + 1 + 3;
    assert_eq!(GOLDEN[layout_at], 0, "golden blob stores the flat layout");

    let mut blob = GOLDEN.to_vec();
    blob[layout_at] = 1;
    // Re-seal the section and whole-file CRCs so decode reaches the
    // layout check itself instead of rejecting the checksum.
    let crc_at = ident_start + ident_len;
    let crc = persist::crc32(&blob[ident_start..crc_at]);
    blob[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let body = blob.len() - 4;
    let crc = persist::crc32(&blob[..body]);
    blob[body..].copy_from_slice(&crc.to_le_bytes());

    match persist::decode::<u32>(&blob) {
        Err(SimdxError::CheckpointCorrupt { reason }) => {
            assert!(reason.contains("layout"), "wrong reason: {reason}")
        }
        other => panic!(
            "expected CheckpointCorrupt, got {:?}",
            other.map(|f| f.ticket)
        ),
    }
}
