//! Graph I/O: a compact binary CSR codec and a text edge-list parser.
//!
//! The binary format lets the bench harness cache generated datasets
//! between runs; the text parser accepts the whitespace-separated
//! `src dst [weight]` format used by SNAP and GTgraph dumps.

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::{VertexId, Weight};

/// Magic prefix of the binary CSR format.
pub const MAGIC: u32 = 0x5349_4D58; // "SIMX"
/// Current binary format version.
pub const VERSION: u32 = 1;

/// Fixed header: magic u32 · version u32 · vertex count u32 · weighted
/// flag u8 · edge count u64, all little-endian. The payload follows:
/// `(n + 1)` u64 offsets, `m` u32 targets, then `m` u32 weights when
/// the flag is set.
const HEADER_BYTES: usize = 4 + 4 + 4 + 1 + 8;

/// Errors produced while decoding graph data.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input is shorter than the declared payload.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// A structural invariant does not hold (e.g. unsorted offsets).
    Corrupt(&'static str),
    /// Text parse failure with a line number.
    Parse { line: usize, what: &'static str },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "input truncated"),
            Self::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            Self::BadVersion(v) => write!(f, "unsupported version {v}"),
            Self::Corrupt(w) => write!(f, "corrupt payload: {w}"),
            Self::Parse { line, what } => write!(f, "parse error at line {line}: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a CSR into the binary format.
pub fn encode_csr(csr: &Csr) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        HEADER_BYTES
            + csr.offsets().len() * 8
            + csr.targets().len() * 4
            + csr.weights().map_or(0, |w| w.len() * 4),
    );
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&csr.num_vertices().to_le_bytes());
    buf.push(u8::from(csr.is_weighted()));
    buf.extend_from_slice(&csr.num_edges().to_le_bytes());
    for &o in csr.offsets() {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    for &t in csr.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    for &w in csr.weights().unwrap_or_default() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// A little-endian cursor whose every read is bounds-checked.
struct Reader<'a> {
    data: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .data
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.data = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_le_bytes)
    }
}

/// Decodes a CSR from the binary format. Any input — truncated at any
/// offset or with a crafted header — yields a typed error, never a
/// panic: the declared sizes are checked against the bytes present
/// before anything is allocated.
pub fn decode_csr(data: &[u8]) -> Result<Csr, DecodeError> {
    if data.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let mut r = Reader { data };
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let n = r.u32()?;
    let weighted = r.u8()? != 0;
    let m = r.u64()?;

    let edge_bytes: u64 = if weighted { 8 } else { 4 };
    let need = m
        .checked_mul(edge_bytes)
        .and_then(|e| e.checked_add((u64::from(n) + 1) * 8))
        .ok_or(DecodeError::Corrupt("edge count overflows"))?;
    if (r.data.len() as u64) < need {
        return Err(DecodeError::Truncated);
    }
    // `need` fits in the input, so both counts fit in `usize` and every
    // reservation below is backed by bytes actually present.
    let (n, m) = (n as usize, m as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(r.u64()?);
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        targets.push(r.u32()? as VertexId);
    }
    let weights = if weighted {
        let mut ws = Vec::with_capacity(m);
        for _ in 0..m {
            ws.push(r.u32()? as Weight);
        }
        Some(ws)
    } else {
        None
    };

    // The checked constructor validates every structural invariant and
    // wraps the decoded arrays in place — no O(E) edge-list rebuild.
    Csr::try_new(offsets, targets, weights).map_err(|err| {
        DecodeError::Corrupt(match err {
            GraphError::OffsetEndpoints { .. } => "offset endpoints",
            GraphError::NonMonotonicOffsets { .. } => "offsets not monotone",
            GraphError::TargetOutOfRange { .. } => "target out of range",
            GraphError::WeightsLengthMismatch { .. } => "weights not parallel to targets",
            GraphError::EdgeCountOverflow { .. } => "offset overflow",
            _ => "invalid csr payload",
        })
    })
}

/// Parses a whitespace-separated `src dst [weight]` edge list. Lines
/// starting with `#` or `%` are comments; blank lines are skipped.
pub fn parse_edge_list(text: &str) -> Result<EdgeList, DecodeError> {
    let mut edges = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    let mut any_weight = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, what| -> Result<u64, DecodeError> {
            tok.ok_or(DecodeError::Parse {
                line: lineno + 1,
                what,
            })?
            .parse::<u64>()
            .map_err(|_| DecodeError::Parse {
                line: lineno + 1,
                what,
            })
        };
        let s = parse(it.next(), "source")? as VertexId;
        let d = parse(it.next(), "destination")? as VertexId;
        match it.next() {
            Some(tok) => {
                let w = tok.parse::<Weight>().map_err(|_| DecodeError::Parse {
                    line: lineno + 1,
                    what: "weight",
                })?;
                if !any_weight && !edges.is_empty() {
                    return Err(DecodeError::Parse {
                        line: lineno + 1,
                        what: "mixed weighted/unweighted rows",
                    });
                }
                any_weight = true;
                weights.push(w);
            }
            None if any_weight => {
                return Err(DecodeError::Parse {
                    line: lineno + 1,
                    what: "mixed weighted/unweighted rows",
                })
            }
            None => {}
        }
        edges.push((s, d));
    }
    Ok(if any_weight {
        let n = edges.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0);
        EdgeList::from_weighted(n, edges, weights)
    } else {
        EdgeList::from_pairs(edges)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr(weighted: bool) -> Csr {
        let el = if weighted {
            EdgeList::from_weighted(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], vec![1, 2, 3, 4])
        } else {
            EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 3), (2, 3)])
        };
        Csr::from_edge_list(&el)
    }

    #[test]
    fn roundtrip_unweighted() {
        let csr = sample_csr(false);
        let decoded = decode_csr(&encode_csr(&csr)).expect("decode");
        assert_eq!(decoded, csr);
    }

    #[test]
    fn roundtrip_weighted() {
        let csr = sample_csr(true);
        let decoded = decode_csr(&encode_csr(&csr)).expect("decode");
        assert_eq!(decoded, csr);
    }

    #[test]
    fn truncated_input_rejected() {
        let data = encode_csr(&sample_csr(false));
        assert_eq!(decode_csr(&data[..10]), Err(DecodeError::Truncated));
    }

    #[test]
    fn crafted_edge_count_is_a_typed_error() {
        // n = 0, unweighted, m = 2^62, one offset: `m * 4` wraps to 0,
        // so an unchecked size would pass the length test and then
        // reserve 2^62 targets.
        let mut data = Vec::new();
        data.extend_from_slice(&MAGIC.to_le_bytes());
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.push(0);
        data.extend_from_slice(&(1u64 << 62).to_le_bytes());
        data.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(data.len(), 29);
        assert!(matches!(
            decode_csr(&data),
            Err(DecodeError::Truncated | DecodeError::Corrupt(_))
        ));
        // A huge but non-overflowing count is merely truncated.
        data[13..21].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(decode_csr(&data), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = encode_csr(&sample_csr(false));
        data[0] ^= 0xFF;
        assert!(matches!(decode_csr(&data), Err(DecodeError::BadMagic(_))));
    }

    #[test]
    fn corrupt_target_rejected() {
        let csr = sample_csr(false);
        let mut data = encode_csr(&csr);
        // Last 4 bytes are the final target; make it out of range.
        let len = data.len();
        data[len - 4..].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(
            decode_csr(&data),
            Err(DecodeError::Corrupt("target out of range"))
        );
    }

    #[test]
    fn parse_text_with_comments() {
        let text = "# comment\n0 1\n1 2\n\n% another\n2 0\n";
        let el = parse_edge_list(text).expect("parse");
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn parse_weighted_text() {
        let el = parse_edge_list("0 1 5\n1 2 9\n").expect("parse");
        assert_eq!(el.weights(), Some(&[5, 9][..]));
    }

    #[test]
    fn parse_mixed_rows_rejected() {
        let err = parse_edge_list("0 1 5\n1 2\n").unwrap_err();
        assert!(matches!(err, DecodeError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_garbage_rejected() {
        let err = parse_edge_list("zero one\n").unwrap_err();
        assert!(matches!(err, DecodeError::Parse { line: 1, .. }));
    }
}
