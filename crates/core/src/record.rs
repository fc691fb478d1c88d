//! Records, record-group keys, and fixed-size coding cells.
//!
//! Parity arithmetic needs equal-length buffers, but applications store
//! variable-length payloads. LH\*RS pads; we make the padding carry the
//! length so that erasure decoding recovers the exact payload: a **cell**
//! is `[len: u32 LE | payload bytes | zero padding]` of fixed size
//! `4 + record_len`. Cells are what flows in Δ-messages and what parity
//! buckets accumulate.

use crate::{Key, Rank};

/// The logical record-group key `(g, r)`: bucket group and rank. All
/// records with the same `(g, r)` — at most one per bucket of group `g` —
/// form one record group protected by one parity record per parity bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Bucket-group number `g`.
    pub group: u64,
    /// Rank `r` within the group.
    pub rank: Rank,
}

/// A primary record as stored in a data bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Application key.
    pub key: Key,
    /// Application payload (variable length, ≤ `record_len`).
    pub payload: Vec<u8>,
}

/// Encode a payload into a fixed-size coding cell.
///
/// # Panics
/// Panics if `payload.len() > cell_len - 4`; the driver validates payload
/// sizes before they reach this point.
pub fn encode_cell(payload: &[u8], cell_len: usize) -> Vec<u8> {
    assert!(payload.len() + 4 <= cell_len, "payload exceeds cell");
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut cell = Vec::with_capacity(cell_len);
    cell.extend_from_slice(&len.to_le_bytes());
    cell.extend_from_slice(payload);
    cell.resize(cell_len, 0);
    cell
}

/// Decode a coding cell back into the exact payload.
///
/// Returns `None` if the cell is malformed (length prefix beyond the cell),
/// which after a correct RS decode indicates corruption.
pub fn decode_cell(cell: &[u8]) -> Option<Vec<u8>> {
    let (len, rest) = cell.split_first_chunk::<4>()?;
    let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
    rest.get(..len).map(<[u8]>::to_vec)
}

/// Whether a cell is all zeroes — the encoding of "no record at this rank".
pub fn cell_is_zero(cell: &[u8]) -> bool {
    cell.iter().all(|&b| b == 0)
}

/// `a ⊕ b` for two cells (the Δ of an update, or of an insert/delete
/// against the implicit zero cell). Routed through the GF kernel so the
/// Δ-path exercises the same (vectorised, prefix-degrading) XOR the parity
/// encode path uses; mismatched lengths degrade to the common prefix.
pub fn cell_delta(a: &[u8], b: &[u8]) -> Vec<u8> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = a.get(..a.len().min(b.len())).unwrap_or(a).to_vec();
    lhrs_gf::add_slice(b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip_various_lengths() {
        for len in [0usize, 1, 10, 60] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 3 + 1) as u8).collect();
            let cell = encode_cell(&payload, 68);
            assert_eq!(cell.len(), 68);
            assert_eq!(decode_cell(&cell).unwrap(), payload);
        }
    }

    #[test]
    fn empty_payload_is_not_zero_cell() {
        // An empty payload still has a zero length prefix — which IS the
        // zero cell. Distinguishing "record with empty payload" from "no
        // record" is done by the key lists in parity records, never by cell
        // content; this test documents that deliberately.
        let cell = encode_cell(&[], 8);
        assert!(cell_is_zero(&cell));
    }

    #[test]
    #[should_panic(expected = "exceeds cell")]
    fn oversized_payload_panics() {
        encode_cell(&[0u8; 10], 12);
    }

    #[test]
    fn malformed_cells_rejected() {
        assert_eq!(decode_cell(&[1, 2]), None);
        // Length prefix claims 100 bytes in a 8-byte cell.
        let mut bad = vec![0u8; 8];
        bad[0] = 100;
        assert_eq!(decode_cell(&bad), None);
    }

    #[test]
    fn delta_is_xor() {
        let a = encode_cell(b"abc", 10);
        let b = encode_cell(b"xy", 10);
        let d = cell_delta(&a, &b);
        let mut expect = a.clone();
        for (e, y) in expect.iter_mut().zip(&b) {
            *e ^= y;
        }
        assert_eq!(d, expect);
        // Applying the delta to `a` yields `b`.
        assert_eq!(cell_delta(&a, &d), b);
    }
}
