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
//! **v2** ([`encode_flat`] / [`encode_index_v2`]) writes a
//! [`FlatIndex`]'s CSR columns directly — each column section is
//! length-prefixed (element count as `u64`) and starts 8-byte aligned, so
//! a loader reconstructs either representation with four bulk column
//! reads and zero per-entry decoding: [`decode_flat`] rebuilds the flat
//! snapshot as-is, and [`decode_index`] thaws it into a live index by
//! appending each already-sorted row ([`LabelSet::push_descending`]).
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
//! [`load_index`] and [`decode_index`] accept both versions.

use crate::flat::FlatIndex;
use crate::index::SpcIndex;
use crate::label::{packed, Count, LabelEntry, LabelSet, Rank};
use crate::order::{OrderingStrategy, RankMap};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dspc_graph::VertexId;

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
    /// The v2 column sections are inconsistent (offsets not monotone, or
    /// column lengths disagreeing with each other or the header).
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
            CodecError::BadColumns => write!(f, "inconsistent DSPC flat columns"),
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
        index
            .label_set(VertexId(v as u32))
            .entries()
            .iter()
            .all(|e| {
                e.hub.0 <= packed::MAX_HUB
                    && e.dist <= packed::MAX_DIST
                    && e.count <= packed::MAX_COUNT
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
        for e in ls.entries() {
            if packed_ok {
                buf.put_u64_le(packed::pack(*e).expect("checked packable").0);
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
/// stored in the file is restored exactly. A v2 input reconstructs the
/// live representation without per-entry decoding: four bulk column reads,
/// then one ordered append pass per vertex.
pub fn decode_index(data: &[u8]) -> Result<SpcIndex, CodecError> {
    match peek_version(data)? {
        VERSION => decode_index_v1(data),
        VERSION_FLAT => Ok(decode_flat_v2(data)?.thaw()),
        v => Err(CodecError::BadVersion(v)),
    }
}

fn decode_index_v1(mut data: &[u8]) -> Result<SpcIndex, CodecError> {
    if data.remaining() < 20 {
        return Err(CodecError::Truncated);
    }
    data.advance(8); // magic + version, validated by the caller
    let flags = data.get_u32_le();
    let is_packed = flags & FLAG_PACKED != 0;
    let n = data.get_u64_le() as usize;
    if data.remaining() < n * 4 {
        return Err(CodecError::Truncated);
    }
    let mut vertex_at = Vec::with_capacity(n);
    for _ in 0..n {
        vertex_at.push(data.get_u32_le());
    }
    {
        let mut seen = vec![false; n];
        for &v in &vertex_at {
            if v as usize >= n || seen[v as usize] {
                return Err(CodecError::BadRankMap);
            }
            seen[v as usize] = true;
        }
    }
    let ranks = RankMap::from_rank_order(&vertex_at, OrderingStrategy::Identity);
    let mut index = SpcIndex::self_labeled(ranks);
    for v in 0..n {
        if data.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let len = data.get_u32_le() as usize;
        let entry_size = if is_packed { 8 } else { 16 };
        if data.remaining() < len * entry_size {
            return Err(CodecError::Truncated);
        }
        let mut restored = LabelSet::new();
        for _ in 0..len {
            let e = if is_packed {
                packed::unpack(packed::PackedLabel(data.get_u64_le()))
            } else {
                let hub = Rank(data.get_u32_le());
                let dist = data.get_u32_le();
                let count = data.get_u64_le();
                LabelEntry { hub, dist, count }
            };
            restored.upsert(e);
        }
        *index.label_set_mut(VertexId(v as u32)) = restored;
    }
    Ok(index)
}

fn pad_to_8(buf: &mut BytesMut) {
    while !buf.len().is_multiple_of(8) {
        buf.put_u8(0);
    }
}

/// Serializes a flat snapshot in the v2 columnar layout: header, rank
/// permutation, then the four length-prefixed, 8-byte-aligned column
/// sections, written with bulk copies, closed by the per-section checksum
/// footer.
pub fn encode_flat(flat: &FlatIndex) -> Bytes {
    let cols = flat.columns();
    let n = flat.num_vertices();
    let e = flat.num_entries();
    let mut buf = BytesMut::with_capacity(64 + n * 8 + e * 16 + FOOTER_LEN);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_FLAT);
    buf.put_u32_le(0); // flags
    buf.put_u64_le(n as u64);
    for r in 0..n {
        buf.put_u32_le(flat.ranks().vertex(Rank(r as u32)).0);
    }
    pad_to_8(&mut buf);
    let mut ends = [0usize; 5];
    ends[0] = buf.len();
    let put_u32s = |buf: &mut BytesMut, xs: &[u32]| {
        buf.put_u64_le(xs.len() as u64);
        for &x in xs {
            buf.put_u32_le(x);
        }
        pad_to_8(buf);
    };
    put_u32s(&mut buf, cols.offsets());
    ends[1] = buf.len();
    put_u32s(&mut buf, cols.hubs());
    ends[2] = buf.len();
    put_u32s(&mut buf, cols.dists());
    ends[3] = buf.len();
    buf.put_u64_le(cols.counts().len() as u64);
    for &c in cols.counts() {
        buf.put_u64_le(c);
    }
    ends[4] = buf.len();
    // Checksum footer: one crc64 per section, then the trailing marker the
    // decoder detects the footer by.
    let mut crcs = [0u64; 5];
    let mut start = 0usize;
    for (i, &end) in ends.iter().enumerate() {
        crcs[i] = crc64(&buf.as_ref()[start..end]);
        start = end;
    }
    for c in crcs {
        buf.put_u64_le(c);
    }
    buf.put_slice(FOOTER_MAGIC);
    buf.freeze()
}

/// Serializes a live index in the v2 columnar layout (freeze + encode).
pub fn encode_index_v2(index: &SpcIndex) -> Bytes {
    encode_flat(&FlatIndex::freeze(index))
}

/// Deserializes a flat snapshot from either format: a v2 input is four
/// bulk column reads; a v1 input decodes the live representation and
/// freezes it.
pub fn decode_flat(data: &[u8]) -> Result<FlatIndex, CodecError> {
    match peek_version(data)? {
        VERSION => Ok(FlatIndex::freeze(&decode_index_v1(data)?)),
        VERSION_FLAT => decode_flat_v2(data),
        v => Err(CodecError::BadVersion(v)),
    }
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

fn decode_flat_v2(data: &[u8]) -> Result<FlatIndex, CodecError> {
    let (body, footer) = split_footer(data);
    let mut pos = 8usize; // magic + version, validated by the caller
    let read_u32 = |pos: &mut usize| -> Result<u32, CodecError> {
        let end = pos.checked_add(4).ok_or(CodecError::Truncated)?;
        let bytes = body.get(*pos..end).ok_or(CodecError::Truncated)?;
        *pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    };
    let read_u64 = |pos: &mut usize| -> Result<u64, CodecError> {
        let end = pos.checked_add(8).ok_or(CodecError::Truncated)?;
        let bytes = body.get(*pos..end).ok_or(CodecError::Truncated)?;
        *pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    };
    let align8 = |pos: &mut usize| -> Result<(), CodecError> {
        let aligned = pos.checked_add(7).ok_or(CodecError::Truncated)? & !7;
        if aligned > body.len() {
            return Err(CodecError::Truncated);
        }
        *pos = aligned;
        Ok(())
    };
    let _flags = read_u32(&mut pos)?;
    let n = read_u64(&mut pos)? as usize;
    if body.len().saturating_sub(pos) < n * 4 {
        return Err(CodecError::Truncated);
    }
    let mut vertex_at = Vec::with_capacity(n);
    for _ in 0..n {
        vertex_at.push(read_u32(&mut pos)?);
    }
    align8(&mut pos)?;
    let mut ends = [0usize; 5];
    ends[0] = pos;
    let read_u32_col = |pos: &mut usize| -> Result<Vec<u32>, CodecError> {
        let len = read_u64(pos)? as usize;
        if body.len().saturating_sub(*pos) < len * 4 {
            return Err(CodecError::Truncated);
        }
        let mut col = Vec::with_capacity(len);
        for _ in 0..len {
            col.push(read_u32(pos)?);
        }
        align8(pos)?;
        Ok(col)
    };
    let offsets = read_u32_col(&mut pos)?;
    ends[1] = pos;
    let hubs = read_u32_col(&mut pos)?;
    ends[2] = pos;
    let dists = read_u32_col(&mut pos)?;
    ends[3] = pos;
    let counts_len = read_u64(&mut pos)? as usize;
    if body.len().saturating_sub(pos) < counts_len * 8 {
        return Err(CodecError::Truncated);
    }
    let mut counts: Vec<Count> = Vec::with_capacity(counts_len);
    for _ in 0..counts_len {
        counts.push(read_u64(&mut pos)?);
    }
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
    {
        let mut seen = vec![false; n];
        for &v in &vertex_at {
            if v as usize >= n || seen[v as usize] {
                return Err(CodecError::BadRankMap);
            }
            seen[v as usize] = true;
        }
    }
    if offsets.len() != n + 1 {
        return Err(CodecError::BadColumns);
    }
    let cols = crate::flat::FlatColumns::from_raw(offsets, hubs, dists, counts)
        .map_err(|_| CodecError::BadColumns)?;
    let ranks = RankMap::from_rank_order(&vertex_at, OrderingStrategy::Identity);
    Ok(FlatIndex::from_parts(cols, ranks))
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
    /// columns, same rank order.
    fn assert_flat_equiv(a: &FlatIndex, b: &FlatIndex) {
        assert_eq!(a.columns(), b.columns());
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
