//! Binary serialization of the SPC-Index.
//!
//! Two formats share the `DSPC` magic:
//!
//! **v1** mirrors the paper's storage layout (§4.1): one 64-bit word per
//! label entry — 25-bit hub, 10-bit distance, 29-bit count — when every
//! entry fits those fields, with a transparent fallback to a wide 16-byte
//! encoding for graphs whose counts or distances overflow the packed
//! widths. This remains the most compact interchange form and the default
//! of [`encode_index`].
//!
//! ```text
//! magic  "DSPC"            4 bytes
//! version u32              1
//! flags   u32              bit 0: 1 = packed entries, 0 = wide
//! n       u64              vertex/id-space size
//! vertex_at[n] u32         rank → vertex id (the total order)
//! for each vertex 0..n:
//!   len   u32
//!   len × entry            8 bytes packed | 16 bytes wide (hub, dist, count)
//! ```
//!
//! **v2** ([`encode_flat`] / [`encode_index_v2`]) stores the label rows
//! as CSR columns (compressed sparse rows: per-vertex `offsets` into the
//! `hubs`, `dists` and `counts` columns). Each column section is
//! length-prefixed (element count as `u64`) and starts 8-byte aligned. A
//! row holds its `(hub, dist)` keys, then its counts
//! ([`crate::label::LabelRow`]), so the codec is per-row copies: the
//! encoders write each row's keys into the hub and distance columns and
//! its counts into the count column, straight from label rows, live or
//! published; the decoder builds each vertex's row block from its slices
//! of the three columns, one shared row of a [`FlatIndex`], and
//! [`decode_index`] thaws that snapshot into a live index without copying
//! a row ([`crate::flat::Snapshot::thaw`]). [`put_index_v2`] appends the image
//! to a caller's buffer (the serving layer's checkpoint embeds it).
//!
//! ```text
//! magic  "DSPC"            4 bytes
//! version u32              2
//! flags   u32              0
//! n       u64              vertex/id-space size
//! vertex_at[n] u32         rank → vertex id (the total order)
//! pad to 8-byte boundary
//! len u64, offsets[n + 1] u32, pad to 8
//! len u64, hubs[e]  u32,       pad to 8
//! len u64, dists[e] u32,       pad to 8
//! len u64, counts[e] u64
//! crc64[5] u64             per-section checksums (header, offsets, hubs,
//!                          dists, counts)
//! magic  "DSPCXSUM"        8 bytes, footer marker
//! ```
//!
//! The checksum footer is verified before any decoded value is used; a
//! mismatch fails with [`CodecError::Corrupt`] naming the damaged section.
//! Footer-less v2 files (written before the footer existed) still decode —
//! the footer is detected by its trailing marker.
//!
//! Neither v1 nor a footer-less v2 file can detect every damage by
//! checksum, so every decoded row of either version must obey the rules
//! of a stored row ([`crate::index::LabelIndex::check_invariants`]: sorted
//! unique hubs, the owner's self label, no hub ranked below the owner,
//! finite distances, non-zero counts); a row that breaks one fails with
//! [`CodecError::BadColumns`] instead of reaching the query kernels.
//!
//! [`load_index`] and [`decode_index`] accept both versions.

use crate::flat::{FlatIndex, Snapshot};
use crate::index::SpcIndex;
use crate::label::{check_row, packed, HubEntry, LabelEntry, Rank, RowKey, RowRef, SharedRows};
use crate::order::{OrderingStrategy, RankMap};
use crate::shard::even_bounds;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dspc_graph::VertexId;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DSPC";
const VERSION: u32 = 1;
const VERSION_FLAT: u32 = 2;
const FLAG_PACKED: u32 = 1;

/// Trailing marker of the v2 checksum footer.
const FOOTER_MAGIC: &[u8; 8] = b"DSPCXSUM";
/// Names of the five checksummed v2 sections, in file order.
const SECTION_NAMES: [&str; 5] = ["header", "offsets", "hubs", "dists", "counts"];
/// Footer size: five section checksums plus the trailing marker.
const FOOTER_LEN: usize = 5 * 8 + FOOTER_MAGIC.len();

/// CRC-64 (reflected ECMA-182 polynomial — the XZ variant), table built at
/// compile time. Used for the v2 checksum footer and by the serving
/// layer's write-ahead journal; any single-bit corruption is detected.
pub fn crc64(data: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    const TABLE: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u64;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = u64::MAX;
    for &byte in data {
        crc = TABLE[((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serialization/deserialization failures.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the `DSPC` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Input ended prematurely or lengths are inconsistent.
    Truncated,
    /// The rank permutation is invalid.
    BadRankMap,
    /// A decoded row breaks the rules of a stored row (unsorted or
    /// repeated hubs, a missing self label, a hub ranked below the row's
    /// owner, an infinite distance, a zero count), or the v2 column
    /// sections are inconsistent (offsets not monotone, or column lengths
    /// disagreeing with each other or the header).
    BadColumns,
    /// A checksum mismatch in the named section — the bytes were damaged
    /// after writing (bit rot, torn write, hostile edit). The payload names
    /// the damaged section so operators know *where* the file broke.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a DSPC index (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported DSPC index version {v}"),
            CodecError::Truncated => write!(f, "truncated DSPC index"),
            CodecError::BadRankMap => write!(f, "corrupt rank permutation"),
            CodecError::BadColumns => write!(f, "inconsistent DSPC label rows"),
            CodecError::Corrupt(section) => {
                write!(f, "corrupt DSPC '{section}' section (checksum mismatch)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes `index` to bytes. Any hub/distance/count exceeding the packed
/// field widths forces the wide encoding so that no information is lost.
pub fn encode_index(index: &SpcIndex) -> Bytes {
    let n = index.num_vertices();
    let packed_ok = (0..n).all(|v| {
        index.label_set(VertexId(v as u32)).iter().all(|e| {
            e.hub.0 <= packed::MAX_HUB && e.dist <= packed::MAX_DIST && e.count <= packed::MAX_COUNT
        })
    });
    let mut buf = BytesMut::with_capacity(20 + n * 8 + index.num_entries() * 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(if packed_ok { FLAG_PACKED } else { 0 });
    buf.put_u64_le(n as u64);
    for r in 0..n {
        buf.put_u32_le(index.vertex(Rank(r as u32)).0);
    }
    for v in 0..n {
        let ls = index.label_set(VertexId(v as u32));
        buf.put_u32_le(ls.len() as u32);
        for e in ls.iter() {
            if packed_ok {
                buf.put_u64_le(packed::pack(e).expect("checked packable").0);
            } else {
                buf.put_u32_le(e.hub.0);
                buf.put_u32_le(e.dist);
                buf.put_u64_le(e.count);
            }
        }
    }
    buf.freeze()
}

/// Reads the common header prefix (magic + version), returning the
/// version without consuming anything.
fn peek_version(data: &[u8]) -> Result<u32, CodecError> {
    if data.len() < 8 {
        return Err(CodecError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Ok(u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")))
}

/// Deserializes an index previously produced by [`encode_index`] (v1) or
/// [`encode_flat`]/[`encode_index_v2`] (v2). The explicit rank permutation
/// stored in the file is restored exactly. The decoded rows
/// ([`decode_flat`]) become the live index's rows as they are, shared
/// until each is first written.
pub fn decode_index(data: &[u8]) -> Result<SpcIndex, CodecError> {
    decode_flat(data).map(|flat| flat.thaw())
}

/// Deserializes a snapshot from either format, one shared row per vertex.
pub fn decode_flat(data: &[u8]) -> Result<FlatIndex, CodecError> {
    match peek_version(data)? {
        VERSION => decode_v1(data),
        VERSION_FLAT => decode_v2(data),
        v => Err(CodecError::BadVersion(v)),
    }
}

/// The rank map of a file's `vertex_at` permutation (rank → vertex id),
/// which must be a bijection on `0..n`.
fn rank_map(vertex_at: &[u32]) -> Result<RankMap, CodecError> {
    let mut seen = vec![false; vertex_at.len()];
    for &v in vertex_at {
        match seen.get_mut(v as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return Err(CodecError::BadRankMap),
        }
    }
    Ok(RankMap::from_rank_order(
        vertex_at,
        OrderingStrategy::Identity,
    ))
}

/// The row block of `len` entries: the keys `key(k)`, then the counts
/// `count(k)`, `k` in `0..len`.
fn row_block(len: usize, key: impl Fn(usize) -> u64, count: impl Fn(usize) -> u64) -> Arc<[u64]> {
    (0..len).map(key).chain((0..len).map(count)).collect()
}

/// A one-shard snapshot of decoded row blocks (vertex `v`'s is
/// `rows[v]`), each of which must obey the rules of a stored row.
fn decoded(rows: Vec<Arc<[u64]>>, ranks: RankMap) -> Result<FlatIndex, CodecError> {
    let bounds = even_bounds(rows.len(), 1);
    let rows = SharedRows::<LabelEntry>::from_blocks(rows.into_iter());
    for v in 0..rows.num_vertices() {
        check_row(rows.row(v), ranks.rank(VertexId::from_index(v)))
            .map_err(|_| CodecError::BadColumns)?;
    }
    Ok(Snapshot::from_parts(vec![rows], ranks, bounds))
}

fn decode_v1(mut data: &[u8]) -> Result<FlatIndex, CodecError> {
    if data.remaining() < 20 {
        return Err(CodecError::Truncated);
    }
    data.advance(8); // magic + version, validated by the caller
    let flags = data.get_u32_le();
    let entry_size = if flags & FLAG_PACKED != 0 { 8 } else { 16 };
    let n = data.get_u64_le() as usize;
    // Lengths come from the file and are unverified: overflow is damage.
    if n.checked_mul(4)
        .is_none_or(|bytes| data.remaining() < bytes)
    {
        return Err(CodecError::Truncated);
    }
    let vertex_at: Vec<u32> = (0..n).map(|_| data.get_u32_le()).collect();
    let ranks = rank_map(&vertex_at)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        if data.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let len = data.get_u32_le() as usize;
        if len
            .checked_mul(entry_size)
            .is_none_or(|bytes| data.remaining() < bytes)
        {
            return Err(CodecError::Truncated);
        }
        let entry = |data: &mut &[u8]| {
            if entry_size == 8 {
                packed::unpack(packed::PackedLabel(data.get_u64_le()))
            } else {
                let (hub, dist) = (Rank(data.get_u32_le()), data.get_u32_le());
                LabelEntry::new(hub, dist, data.get_u64_le())
            }
        };
        let entries: Vec<LabelEntry> = (0..len).map(|_| entry(&mut data)).collect();
        rows.push(row_block(len, |k| entries[k].key(), |k| entries[k].count));
    }
    decoded(rows, ranks)
}

/// Bytes of the v2 image of an index over `n` vertices holding `entries`
/// label entries: what [`encode_index_v2`] returns and [`put_index_v2`]
/// appends.
pub fn v2_image_len(n: usize, entries: usize) -> usize {
    let padded = |bytes: usize| bytes.next_multiple_of(8);
    padded(20 + 4 * n)
        + padded(8 + 4 * (n + 1))
        + 2 * padded(8 + 4 * entries)
        + 8
        + 8 * entries
        + FOOTER_LEN
}

/// Appends the v2 image of the rows `row(v)`, `v` in `0..n`, under `ranks`
/// to `out`: header, rank permutation, the four length-prefixed column
/// sections (aligned to 8 bytes from the image's first byte), and the
/// per-section checksum footer. Each column is copied row by row: the hub
/// and distance columns from a row's keys, the count column from its
/// counts.
fn put_v2<'a>(out: &mut Vec<u8>, ranks: &RankMap, row: impl Fn(usize) -> RowRef<'a, LabelEntry>) {
    let n = ranks.len();
    let base = out.len();
    let pad = |out: &mut Vec<u8>| {
        while !(out.len() - base).is_multiple_of(8) {
            out.put_u8(0);
        }
    };
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION_FLAT);
    out.put_u32_le(0); // flags
    out.put_u64_le(n as u64);
    for r in 0..n {
        out.put_u32_le(ranks.vertex(Rank(r as u32)).0);
    }
    pad(out);
    let mut ends = [0usize; 5];
    ends[0] = out.len();
    out.put_u64_le(n as u64 + 1);
    out.put_u32_le(0);
    let mut entries = 0usize;
    for v in 0..n {
        entries += row(v).len();
        out.put_u32_le(u32::try_from(entries).expect("v2 image exceeds the u32 offset space"));
    }
    pad(out);
    ends[1] = out.len();
    let column = |out: &mut Vec<u8>, put: fn(&mut Vec<u8>, RowRef<'a, LabelEntry>)| {
        out.put_u64_le(entries as u64);
        for v in 0..n {
            put(out, row(v));
        }
        pad(out);
    };
    column(out, |out, r| {
        r.keys().iter().for_each(|k| out.put_u32_le(k.hub().0))
    });
    ends[2] = out.len();
    column(out, |out, r| {
        r.keys().iter().for_each(|k| out.put_u32_le(k.dist()))
    });
    ends[3] = out.len();
    column(out, |out, r| {
        r.counts().iter().for_each(|&c| out.put_u64_le(c))
    });
    ends[4] = out.len();
    // Checksum footer: one crc64 per section, then the trailing marker the
    // decoder detects the footer by.
    let mut start = base;
    let crcs = ends.map(|end| {
        let crc = crc64(&out[start..end]);
        start = end;
        crc
    });
    for crc in crcs {
        out.put_u64_le(crc);
    }
    out.put_slice(FOOTER_MAGIC);
}

/// Serializes a snapshot in the v2 columnar layout.
pub fn encode_flat(flat: &FlatIndex) -> Bytes {
    let mut out = Vec::with_capacity(v2_image_len(flat.num_vertices(), flat.num_entries()));
    put_v2(&mut out, flat.ranks(), |v| flat.rows().row(v));
    out.into()
}

/// Serializes a live index in the v2 columnar layout, straight from its
/// rows: the bytes [`encode_flat`] writes for its frozen copy.
pub fn encode_index_v2(index: &SpcIndex) -> Bytes {
    let mut out = Vec::with_capacity(v2_image_len(index.num_vertices(), index.num_entries()));
    put_index_v2(index, &mut out);
    out.into()
}

/// Appends [`encode_index_v2`]'s bytes to `out`, which should have room
/// for [`v2_image_len`] more.
pub fn put_index_v2(index: &SpcIndex, out: &mut Vec<u8>) {
    put_v2(out, index.ranks(), |v| {
        index.label_set(VertexId::from_index(v)).view()
    });
}

/// Splits a v2 input into its body and (when present) the five per-section
/// checksums of the trailing footer. Footer-less files pass through whole.
fn split_footer(data: &[u8]) -> (&[u8], Option<[u64; 5]>) {
    if data.len() < FOOTER_LEN || !data.ends_with(FOOTER_MAGIC) {
        return (data, None);
    }
    let body_len = data.len() - FOOTER_LEN;
    let mut crcs = [0u64; 5];
    for (i, crc) in crcs.iter_mut().enumerate() {
        let at = body_len + i * 8;
        *crc = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    }
    (&data[..body_len], Some(crcs))
}

fn decode_v2(data: &[u8]) -> Result<FlatIndex, CodecError> {
    let (body, footer) = split_footer(data);
    let mut pos = 12usize; // magic + version (validated by the caller), flags
    let read_u64 = |pos: &mut usize| -> Result<u64, CodecError> {
        let end = pos.checked_add(8).ok_or(CodecError::Truncated)?;
        let bytes = body.get(*pos..end).ok_or(CodecError::Truncated)?;
        *pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    };
    // `len` values of `width` bytes at `pos`, then padding to 8 bytes.
    // Lengths are read before the checksums are verified: an overflowing
    // product is damage, not a size.
    let values = |pos: &mut usize, len: usize, width: usize| -> Result<&[u8], CodecError> {
        let bytes = len.checked_mul(width).ok_or(CodecError::Truncated)?;
        let end = pos.checked_add(bytes).ok_or(CodecError::Truncated)?;
        let section = body.get(*pos..end).ok_or(CodecError::Truncated)?;
        let aligned = end.checked_add(7).ok_or(CodecError::Truncated)? & !7;
        if aligned > body.len() {
            return Err(CodecError::Truncated);
        }
        *pos = aligned;
        Ok(section)
    };
    let column = |pos: &mut usize, width: usize| -> Result<&[u8], CodecError> {
        let len = read_u64(pos)? as usize;
        values(pos, len, width)
    };
    let n = read_u64(&mut pos)? as usize;
    let vertex_at = values(&mut pos, n, 4)?;
    let mut ends = [0usize; 5];
    ends[0] = pos;
    let offsets = column(&mut pos, 4)?;
    ends[1] = pos;
    let hubs = column(&mut pos, 4)?;
    ends[2] = pos;
    let dists = column(&mut pos, 4)?;
    ends[3] = pos;
    let counts = column(&mut pos, 8)?;
    ends[4] = pos;
    // Bytes past the counts section must be a valid footer (split off
    // above). Anything else means the file was damaged near its end.
    if pos != body.len() {
        return Err(CodecError::Corrupt("footer"));
    }
    // Verify every section checksum before trusting any decoded value.
    if let Some(crcs) = footer {
        let mut start = 0usize;
        for (i, &end) in ends.iter().enumerate() {
            if crc64(&body[start..end]) != crcs[i] {
                return Err(CodecError::Corrupt(SECTION_NAMES[i]));
            }
            start = end;
        }
    }
    let u32s = |col: &[u8]| -> Vec<u32> {
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
        col.chunks_exact(4).map(word).collect()
    };
    let ranks = rank_map(&u32s(vertex_at))?;
    let offsets = u32s(offsets);
    let entries = hubs.len() / 4;
    if offsets.len() != n + 1
        || offsets[0] != 0
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets[n] as usize != entries
        || dists.len() / 4 != entries
        || counts.len() / 8 != entries
    {
        return Err(CodecError::BadColumns);
    }
    let u32_at = |col: &[u8], k: usize| {
        u32::from_le_bytes(col[4 * k..4 * k + 4].try_into().expect("4 bytes"))
    };
    let key = |k: usize| <u64 as RowKey>::new(Rank(u32_at(hubs, k)), u32_at(dists, k));
    let count =
        |k: usize| u64::from_le_bytes(counts[8 * k..8 * k + 8].try_into().expect("8 bytes"));
    let rows = offsets
        .windows(2)
        .map(|w| {
            let first = w[0] as usize;
            row_block(
                (w[1] - w[0]) as usize,
                |k| key(first + k),
                |k| count(first + k),
            )
        })
        .collect();
    decoded(rows, ranks)
}

/// Writes an index to a file (v1, the compact interchange form).
pub fn save_index<P: AsRef<std::path::Path>>(index: &SpcIndex, path: P) -> std::io::Result<()> {
    std::fs::write(path, encode_index(index))
}

/// Loads an index from a file; accepts v1 and v2 inputs.
pub fn load_index<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<SpcIndex> {
    let data = std::fs::read(path)?;
    decode_index(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes a flat snapshot to a file in the v2 columnar layout.
pub fn save_flat<P: AsRef<std::path::Path>>(flat: &FlatIndex, path: P) -> std::io::Result<()> {
    std::fs::write(path, encode_flat(flat))
}

/// Loads a flat snapshot from a file; accepts v1 and v2 inputs.
pub fn load_flat<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<FlatIndex> {
    let data = std::fs::read(path)?;
    decode_flat(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::query::spc_query;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use dspc_graph::scratch::ScratchDir;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_packed() {
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Degree);
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(spc_query(&index, s, t), spc_query(&back, s, t));
            }
        }
        back.check_invariants().unwrap();
        // Packed mode: 8 bytes per entry.
        let expected = 20 + 12 * 4 + 12 * 4 + index.num_entries() * 8;
        assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn round_trip_wide_fallback() {
        let g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let big = LabelEntry::new(index.rank(VertexId(0)), 1, u64::MAX / 3);
        index.label_set_mut(VertexId(11)).upsert(big);
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).unwrap();
        assert_eq!(
            back.label_of(VertexId(11), VertexId(0)).unwrap().count,
            u64::MAX / 3
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert_eq!(decode_index(b"nope"), Err(CodecError::Truncated));
        let mut bad = b"XXXX".to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_index(&bad), Err(CodecError::BadMagic));
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Degree);
        let bytes = encode_index(&index);
        assert_eq!(
            decode_index(&bytes[..bytes.len() - 3]),
            Err(CodecError::Truncated)
        );
        let mut bad_version = bytes.to_vec();
        bad_version[4] = 99;
        assert_eq!(decode_index(&bad_version), Err(CodecError::BadVersion(99)));
        // Corrupt permutation: duplicate rank entry.
        let mut bad_perm = bytes.to_vec();
        let dup: [u8; 4] = bad_perm[24..28].try_into().unwrap();
        bad_perm[20..24].copy_from_slice(&dup);
        assert_eq!(decode_index(&bad_perm), Err(CodecError::BadRankMap));
    }

    #[test]
    fn empty_index_round_trip() {
        let g = dspc_graph::UndirectedGraph::new();
        let index = build_index(&g, OrderingStrategy::Degree);
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).unwrap();
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_entries(), 0);
    }

    #[test]
    fn single_vertex_round_trip() {
        let g = dspc_graph::UndirectedGraph::with_vertices(1);
        let index = build_index(&g, OrderingStrategy::Degree);
        let back = decode_index(&encode_index(&index)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(
            spc_query(&back, VertexId(0), VertexId(0)).as_option(),
            Some((0, 1))
        );
    }

    /// Equality up to the `OrderingStrategy` provenance tag, which the
    /// file format does not carry (the explicit permutation does): same
    /// rows, same rank order.
    fn assert_flat_equiv(a: &FlatIndex, b: &FlatIndex) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.num_vertices(), b.num_vertices());
        for r in 0..a.num_vertices() as u32 {
            assert_eq!(a.ranks().vertex(Rank(r)), b.ranks().vertex(Rank(r)));
        }
    }

    /// Live-index counterpart of [`assert_flat_equiv`]: identical label
    /// sets and rank order, provenance tag ignored.
    fn assert_index_equiv(a: &SpcIndex, b: &SpcIndex) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        for v in 0..a.num_vertices() as u32 {
            let v = VertexId(v);
            assert_eq!(a.label_set(v), b.label_set(v));
            assert_eq!(a.rank(v), b.rank(v));
        }
    }

    #[test]
    fn v2_round_trips_both_representations() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_gnm(70, 180, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);

        let bytes = encode_flat(&flat);
        // Flat → flat: exact columns + rank order.
        assert_flat_equiv(&decode_flat(&bytes).unwrap(), &flat);
        // Flat → live: identical labels to the original index.
        let live = decode_index(&bytes).unwrap();
        assert_index_equiv(&live, &index);
        live.check_invariants().unwrap();
        // encode_index_v2 is freeze + encode.
        assert_eq!(encode_index_v2(&index), bytes);
        // v1 input also decodes into a flat snapshot.
        assert_flat_equiv(&decode_flat(&encode_index(&index)).unwrap(), &flat);
    }

    #[test]
    fn v2_sections_are_aligned() {
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Degree);
        let bytes = encode_index_v2(&index);
        assert_eq!(bytes.len() % 8, 0);
        // Header: 4 magic + 4 version + 4 flags + 8 n + 12 × 4 perm = 68,
        // padded to 72; every section start is then 8-aligned by layout.
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        let off_len = u64::from_le_bytes(bytes[72..80].try_into().unwrap());
        assert_eq!(off_len, 13); // n + 1 offsets
    }

    #[test]
    fn v2_image_len_is_exact_and_appends_anywhere() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in 0..9 {
            let g = erdos_renyi_gnm(n, n / 2, &mut rng);
            let index = build_index(&g, OrderingStrategy::Degree);
            let bytes = encode_index_v2(&index);
            assert_eq!(bytes.len(), v2_image_len(n, index.num_entries()));
            // Appended at an unaligned offset, the image keeps its bytes:
            // sections align from the image's first byte.
            let mut out = vec![7u8; 3];
            put_index_v2(&index, &mut out);
            assert_eq!(&out[3..], &bytes[..]);
        }
    }

    #[test]
    fn v2_corruption_rejected() {
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Degree);
        let bytes = encode_index_v2(&index);
        // Cutting into the footer marker leaves trailing bytes that are not
        // a valid footer.
        assert_eq!(
            decode_flat(&bytes[..bytes.len() - 5]),
            Err(CodecError::Corrupt("footer"))
        );
        // Damaged offsets column: the section checksum trips before the
        // (now nonsensical) values are ever interpreted.
        let mut bad = bytes.to_vec();
        bad[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_flat(&bad), Err(CodecError::Corrupt("offsets")));
        // Duplicate rank permutation entry: caught by the header checksum.
        let mut bad_perm = bytes.to_vec();
        let dup: [u8; 4] = bad_perm[24..28].try_into().unwrap();
        bad_perm[20..24].copy_from_slice(&dup);
        assert_eq!(decode_flat(&bad_perm), Err(CodecError::Corrupt("header")));
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for the standard "123456789" input.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn footer_less_v2_still_decodes() {
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);
        let bytes = encode_flat(&flat);
        // A pre-footer v2 file is exactly today's encoding minus the footer.
        let legacy = &bytes[..bytes.len() - FOOTER_LEN];
        assert_flat_equiv(&decode_flat(legacy).unwrap(), &flat);
        // Without a footer, logical validation still runs: a duplicate
        // permutation entry is caught the old way.
        let mut bad_perm = legacy.to_vec();
        let dup: [u8; 4] = bad_perm[24..28].try_into().unwrap();
        bad_perm[20..24].copy_from_slice(&dup);
        assert_eq!(decode_flat(&bad_perm), Err(CodecError::BadRankMap));
    }

    #[test]
    fn flat_file_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnm(50, 120, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);
        let dir = ScratchDir::new("dspc_serialize_test").unwrap();
        let path = dir.path().join("index.dspc2");
        save_flat(&flat, &path).unwrap();
        assert_flat_equiv(&load_flat(&path).unwrap(), &flat);
        // load_index accepts the v2 file too.
        assert_index_equiv(&load_index(&path).unwrap(), &index);
    }

    #[test]
    fn file_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_gnm(60, 150, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let dir = ScratchDir::new("dspc_serialize_test").unwrap();
        let path = dir.path().join("index.dspc");
        save_index(&index, &path).unwrap();
        let back = load_index(&path).unwrap();
        assert_eq!(index.num_entries(), back.num_entries());
        for s in g.vertices().take(20) {
            for t in g.vertices().take(20) {
                assert_eq!(spc_query(&index, s, t), spc_query(&back, s, t));
            }
        }
    }
}
