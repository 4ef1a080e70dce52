//! Serialization format compatibility: hand-assembled v1 and v2 byte
//! fixtures pin the on-disk layouts against accidental format drift, the
//! v1 → v2 migration path (decode packed, re-encode columnar) must
//! preserve every label bit in both directions, and damage the formats
//! cannot detect by checksum must never decode into rows that break the
//! index's rules. Also covers the serving layer's warm-start path: a
//! server booted from a `save_flat` file must answer — and continue
//! maintaining — identically to one built live, sharing the loaded rows.

use dspc::serialize::{
    crc64, decode_flat, decode_index, encode_flat, encode_index, encode_index_v2, CodecError,
};
use dspc::{spc_query, FlatIndex, OrderingStrategy, Rank};
use dspc_graph::{UndirectedGraph, VertexId};

/// Assembles a v1 file for the 3-vertex path `0 - 1 - 2` under the
/// identity order, byte by byte. If this fixture ever fails to decode,
/// the v1 reader changed behavior and existing files would break.
fn golden_v1_bytes() -> Vec<u8> {
    let mut b: Vec<u8> = Vec::new();
    b.extend_from_slice(b"DSPC"); // magic
    b.extend_from_slice(&1u32.to_le_bytes()); // version 1
    b.extend_from_slice(&1u32.to_le_bytes()); // flags: packed entries
    b.extend_from_slice(&3u64.to_le_bytes()); // n = 3
    for v in [0u32, 1, 2] {
        b.extend_from_slice(&v.to_le_bytes()); // identity rank order
    }
    // Packed entry = hub << 39 | dist << 29 | count. Identity order over
    // the path graph gives: L(0) = {(0,0,1)}, L(1) = {(0,1,1), (1,0,1)},
    // L(2) = {(0,2,1), (1,1,1), (2,0,1)}.
    let pack = |hub: u64, dist: u64, count: u64| (hub << 39) | (dist << 29) | count;
    let rows: [&[(u64, u64, u64)]; 3] = [
        &[(0, 0, 1)],
        &[(0, 1, 1), (1, 0, 1)],
        &[(0, 2, 1), (1, 1, 1), (2, 0, 1)],
    ];
    for row in rows {
        b.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for &(h, d, c) in row {
            b.extend_from_slice(&pack(h, d, c).to_le_bytes());
        }
    }
    b
}

#[test]
fn golden_v1_fixture_decodes() {
    let index = decode_index(&golden_v1_bytes()).expect("golden v1 bytes must stay decodable");
    index.check_invariants().unwrap();
    assert_eq!(index.num_vertices(), 3);
    assert_eq!(index.num_entries(), 6);
    assert_eq!(
        spc_query(&index, VertexId(0), VertexId(2)).as_option(),
        Some((2, 1))
    );
    // The encoder still produces these exact bytes for this index.
    let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let rebuilt = dspc::build_index(&g, OrderingStrategy::Identity);
    assert_eq!(
        encode_index(&rebuilt).as_ref(),
        golden_v1_bytes().as_slice()
    );
}

/// The rows of the 3-vertex path `0 - 1 - 2` under the identity order, as
/// `(hub, dist, count)`.
const PATH_ROWS: [&[(u32, u32, u64)]; 3] = [
    &[(0, 0, 1)],
    &[(0, 1, 1), (1, 0, 1)],
    &[(0, 2, 1), (1, 1, 1), (2, 0, 1)],
];

/// Assembles the v2 file of [`PATH_ROWS`] byte by byte, checksum footer
/// included: header and rank permutation, then the length-prefixed
/// offsets, hubs, dists and counts columns, each padded to 8 bytes.
fn golden_v2_bytes() -> Vec<u8> {
    let mut b: Vec<u8> = Vec::new();
    b.extend_from_slice(b"DSPC"); // magic
    b.extend_from_slice(&2u32.to_le_bytes()); // version 2
    b.extend_from_slice(&0u32.to_le_bytes()); // flags
    b.extend_from_slice(&3u64.to_le_bytes()); // n = 3
    for v in [0u32, 1, 2] {
        b.extend_from_slice(&v.to_le_bytes()); // identity rank order
    }
    let mut ends = vec![b.len()]; // 32 bytes: already 8-aligned
    let entries = || PATH_ROWS.iter().flat_map(|row| row.iter());
    let mut u32_column = |b: &mut Vec<u8>, column: Vec<u32>| {
        b.extend_from_slice(&(column.len() as u64).to_le_bytes());
        for x in column {
            b.extend_from_slice(&x.to_le_bytes());
        }
        b.resize(b.len().next_multiple_of(8), 0);
        ends.push(b.len());
    };
    u32_column(&mut b, vec![0, 1, 3, 6]);
    u32_column(&mut b, entries().map(|e| e.0).collect());
    u32_column(&mut b, entries().map(|e| e.1).collect());
    b.extend_from_slice(&6u64.to_le_bytes());
    for e in entries() {
        b.extend_from_slice(&e.2.to_le_bytes());
    }
    ends.push(b.len());
    assert_eq!(ends, [32, 56, 88, 120, 176]);
    let mut start = 0;
    for end in ends {
        let crc = crc64(&b[start..end]);
        b.extend_from_slice(&crc.to_le_bytes());
        start = end;
    }
    b.extend_from_slice(b"DSPCXSUM"); // footer marker
    b
}

#[test]
fn golden_v2_fixture_decodes() {
    let v2 = golden_v2_bytes();
    let flat = decode_flat(&v2).expect("golden v2 bytes must stay decodable");
    let index = decode_index(&v2).expect("golden v2 bytes must stay decodable");
    index.check_invariants().unwrap();
    assert_eq!((flat.num_vertices(), flat.num_entries()), (3, 6));
    for (v, row) in PATH_ROWS.iter().enumerate() {
        let decoded = flat
            .rows()
            .row(v)
            .iter()
            .map(|e| (e.hub.0, e.dist, e.count));
        assert_eq!(decoded.collect::<Vec<_>>(), row.to_vec());
    }
    assert_eq!(
        spc_query(&index, VertexId(0), VertexId(2)).as_option(),
        Some((2, 1))
    );
    // Both encoders still produce these exact bytes for this index.
    let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let rebuilt = dspc::build_index(&g, OrderingStrategy::Identity);
    assert_eq!(encode_index_v2(&rebuilt).as_ref(), v2.as_slice());
    assert_eq!(
        encode_flat(&FlatIndex::freeze(&rebuilt)).as_ref(),
        v2.as_slice()
    );
    assert_eq!(encode_flat(&flat).as_ref(), v2.as_slice());
}

/// v1 files carry no checksums, so damage may decode into a different
/// index — but a damaged length field must come back as an error, never
/// as an arithmetic overflow or an oversized allocation.
#[test]
fn damaged_v1_lengths_never_panic() {
    use dspc::serialize::CodecError;

    let v1 = golden_v1_bytes();
    for at in 0..v1.len() {
        for bit in [0x04u8, 0x40, 0x80] {
            let mut bad = v1.clone();
            bad[at] ^= bit;
            let _ = decode_index(&bad);
        }
    }
    // The top byte of `n` and of the first row length.
    for at in [19, 32 + 3] {
        let mut bad = v1.clone();
        bad[at] ^= 0x80;
        assert_eq!(decode_index(&bad).err(), Some(CodecError::Truncated));
    }
}

/// Neither v1 nor a footer-less v2 file can catch every damage by
/// checksum, so the decoders check each row against the rules of a stored
/// row. A hub past the rank space (which the hub probe would index past)
/// or a row without its self label is rejected, never served.
#[test]
fn rows_breaking_the_index_rules_are_rejected() {
    // Footer-less v2: the last hub, at bytes 84..88, from 2 to 7 (n = 3).
    let mut v2 = golden_v2_bytes();
    v2.truncate(176);
    v2[84..88].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(decode_flat(&v2).err(), Some(CodecError::BadColumns));
    assert_eq!(decode_index(&v2).err(), Some(CodecError::BadColumns));
    // v1: the last packed word, L(2)'s self label (2, 0, 1), gets hub 9.
    let mut v1 = golden_v1_bytes();
    let last = v1.len() - 8;
    v1[last..].copy_from_slice(&((9u64 << 39) | 1).to_le_bytes());
    assert_eq!(decode_index(&v1).err(), Some(CodecError::BadColumns));
    assert_eq!(decode_flat(&v1).err(), Some(CodecError::BadColumns));
}

/// Every single-bit flip of a v1 or a footer-less v2 file either fails to
/// decode or decodes into an index that passes `check_invariants`, and
/// none panics.
#[test]
fn single_bit_flips_never_decode_into_a_broken_index() {
    let mut legacy_v2 = golden_v2_bytes();
    legacy_v2.truncate(176);
    for file in [golden_v1_bytes(), legacy_v2] {
        for at in 0..file.len() {
            for bit in [0x01u8, 0x04, 0x40, 0x80] {
                let mut bad = file.clone();
                bad[at] ^= bit;
                if let Ok(index) = decode_index(&bad) {
                    let verdict = index.check_invariants();
                    assert!(verdict.is_ok(), "bit {bit:#04x} at byte {at}: {verdict:?}");
                }
            }
        }
    }
}

#[test]
fn v1_to_v2_migration_preserves_labels() {
    let v1 = golden_v1_bytes();
    // Migrate: decode the v1 file straight into a flat snapshot, then
    // re-encode it columnar.
    let flat = decode_flat(&v1).expect("v1 input decodes into a flat snapshot");
    let v2 = encode_flat(&flat);
    assert_eq!(
        u32::from_le_bytes(v2[4..8].try_into().unwrap()),
        2,
        "migrated file carries the v2 version tag"
    );
    // Both files describe the same index.
    let from_v1 = decode_index(&v1).unwrap();
    let from_v2 = decode_index(&v2).unwrap();
    for v in 0..3u32 {
        let v = VertexId(v);
        assert_eq!(from_v1.label_set(v), from_v2.label_set(v));
        assert_eq!(from_v1.rank(v), from_v2.rank(v));
    }
}

#[test]
fn both_representations_round_trip_on_a_nontrivial_graph() {
    // Petersen graph: vertex-transitive, diameter 2, plenty of equal
    // shortest paths to exercise count accumulation.
    let edges: [(u32, u32); 15] = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (0, 5),
        (1, 6),
        (2, 7),
        (3, 8),
        (4, 9),
        (5, 7),
        (7, 9),
        (9, 6),
        (6, 8),
        (8, 5),
    ];
    let g = UndirectedGraph::from_edges(10, &edges);
    let index = dspc::build_index(&g, OrderingStrategy::Degree);
    let flat = FlatIndex::freeze(&index);

    // live → v1 → live, live → v2 → live, flat → v2 → flat: all exact.
    let via_v1 = decode_index(&encode_index(&index)).unwrap();
    let via_v2 = decode_index(&encode_index_v2(&index)).unwrap();
    let flat_back = decode_flat(&encode_flat(&flat)).unwrap();
    for s in g.vertices() {
        for t in g.vertices() {
            let want = spc_query(&index, s, t);
            assert_eq!(spc_query(&via_v1, s, t), want);
            assert_eq!(spc_query(&via_v2, s, t), want);
            assert_eq!(flat_back.query(s, t), want);
        }
    }
    for r in 0..10u32 {
        assert_eq!(via_v1.vertex(Rank(r)), index.vertex(Rank(r)));
        assert_eq!(via_v2.vertex(Rank(r)), index.vertex(Rank(r)));
    }
}

/// The v2 checksum footer: every single-byte corruption of a v2 file must
/// fail loudly — never decode to a silently wrong index — and damage is
/// attributed to the section whose checksum caught it.
#[test]
fn v2_corruption_always_fails_loudly() {
    use dspc::serialize::CodecError;

    let g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let flat = FlatIndex::freeze(&dspc::build_index(&g, OrderingStrategy::Degree));
    let v2 = encode_flat(&flat);
    const FOOTER_LEN: usize = 5 * 8 + 8; // five crc64s + trailing magic

    // A truncated file fails loudly, whether the cut lands in the footer…
    for cut in 1..FOOTER_LEN {
        assert!(
            decode_flat(&v2[..v2.len() - cut]).is_err(),
            "file truncated by {cut} bytes must not decode"
        );
    }
    // …or removes it entirely plus some of the counts column.
    assert!(decode_flat(&v2[..v2.len() - FOOTER_LEN - 3]).is_err());

    // Known positions blame the right section: byte 20 is the first rank
    // permutation entry (header section), the byte just before the footer
    // is the last count (counts section).
    let mut bad = v2.to_vec();
    bad[20] ^= 0x01;
    assert_eq!(decode_flat(&bad), Err(CodecError::Corrupt("header")));
    let mut bad = v2.to_vec();
    bad[v2.len() - FOOTER_LEN - 1] ^= 0x80;
    assert_eq!(decode_flat(&bad), Err(CodecError::Corrupt("counts")));
    // Damage to the footer itself (its magic included) is still an error —
    // a bit-flipped marker must not demote the file to unchecked parsing.
    let mut bad = v2.to_vec();
    bad[v2.len() - 1] ^= 0x01;
    assert_eq!(decode_flat(&bad), Err(CodecError::Corrupt("footer")));

    // Exhaustive: flipping a low or a high bit anywhere in the file fails
    // with an error — a damaged length field included, which must not
    // overflow or size an allocation before the checksums are verified.
    for at in 0..v2.len() {
        for bit in [0x04u8, 0x40, 0x80] {
            let mut bad = v2.to_vec();
            bad[at] ^= bit;
            assert!(
                decode_flat(&bad).is_err(),
                "bit {bit:#04x} flip at byte {at} decoded silently"
            );
        }
    }

    // Compatibility floor: a footer-less v2 file (written before checksums
    // existed) still decodes, bit-identical to the checksummed one.
    let legacy = &v2[..v2.len() - FOOTER_LEN];
    let decoded = decode_flat(legacy).expect("footer-less v2 stays decodable");
    for s in g.vertices() {
        for t in g.vertices() {
            assert_eq!(decoded.query(s, t), flat.query(s, t));
        }
    }
}

/// Warm start: `save_flat` → boot an `EpochServer` straight from the file
/// (the loaded columns are published as epoch 0 as-is, and the live engine
/// is reconstructed via `thaw` + `DynamicSpc::from_parts`) → the server
/// must answer identically to a live-built one, both before and after a
/// rotation (i.e. the thawed engine also *maintains* identically).
#[test]
fn warm_start_server_matches_live_built_server() {
    use dspc::dynamic::GraphUpdate;
    use dspc::serialize::{load_flat, save_flat};
    use dspc::{DynamicSpc, ShardedFlatIndex};
    use dspc_graph::generators::random::barabasi_albert;
    use dspc_graph::scratch::ScratchDir;
    use dspc_serve::{EpochServer, ServeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 40u32;
    let g = barabasi_albert(n as usize, 3, &mut StdRng::seed_from_u64(0xB007));
    let live_engine = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    let flat = FlatIndex::freeze(live_engine.index());
    let dir = ScratchDir::new("dspc_warm_start").expect("scratch dir");
    let path = dir.path().join("index.v2");
    save_flat(&flat, &path).expect("write snapshot file");

    // Boot from disk: the loaded columns go straight into serving position
    // (sharded, epoch 0), the engine thaws from the same columns.
    let loaded = load_flat(&path).expect("read snapshot file");
    let warm_engine = DynamicSpc::from_parts(g.clone(), loaded.thaw(), OrderingStrategy::Degree);
    let mut warm = EpochServer::warm_start(
        warm_engine,
        ShardedFlatIndex::from_flat(&loaded, 3),
        ServeConfig { shards: 3 },
    );
    let mut live = EpochServer::new(live_engine, ServeConfig { shards: 3 });

    let mut warm_reader = warm.reader();
    let mut live_reader = live.reader();
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s), VertexId(t));
            // Same epoch stamp (0) and bit-identical answers.
            assert_eq!(warm_reader.query(s, t), live_reader.query(s, t));
        }
    }

    // The warm-started engine keeps maintaining identically: one mixed
    // batch, one rotation, full answer-table agreement at epoch 1.
    let (da, db) = g.edges().next().expect("graph has edges");
    let mut insert = None;
    'outer: for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(VertexId(a), VertexId(b)) {
                insert = Some((VertexId(a), VertexId(b)));
                break 'outer;
            }
        }
    }
    let (ia, ib) = insert.expect("graph is not complete");
    let batch = vec![
        GraphUpdate::DeleteEdge(da, db),
        GraphUpdate::InsertEdge(ia, ib),
    ];
    warm.submit(batch.clone()).expect("unjournaled submit");
    live.submit(batch).expect("unjournaled submit");
    warm.rotate().expect("valid batch");
    live.rotate().expect("valid batch");
    assert_eq!(warm_reader.refresh(), 1);
    assert_eq!(live_reader.refresh(), 1);
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s), VertexId(t));
            assert_eq!(warm_reader.query(s, t), live_reader.query(s, t));
        }
    }
}

/// A thawed engine shares the loaded rows: warm-started from a file, an
/// empty rotation copies no row, and every row it publishes is the very
/// row the file decoded into.
#[test]
fn warm_start_from_a_file_shares_the_loaded_rows() {
    use dspc::serialize::{load_flat, save_flat};
    use dspc::{DynamicSpc, ShardedFlatIndex};
    use dspc_graph::generators::random::barabasi_albert;
    use dspc_graph::scratch::ScratchDir;
    use dspc_serve::{EpochServer, ServeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    let g = barabasi_albert(40, 3, &mut StdRng::seed_from_u64(0x5EED));
    let built = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    let dir = ScratchDir::new("dspc_warm_share").expect("scratch dir");
    let path = dir.path().join("index.v2");
    save_flat(&FlatIndex::freeze(built.index()), &path).expect("write snapshot file");

    let loaded = load_flat(&path).expect("read snapshot file");
    let engine = DynamicSpc::from_parts(g, loaded.thaw(), OrderingStrategy::Degree);
    // Re-bounding the loaded rows over the server's shards copies none.
    let initial = ShardedFlatIndex::from_flat(&loaded, 2);
    assert_eq!(initial.rows_copied(), 0);
    let mut server = EpochServer::warm_start(engine, initial, ServeConfig { shards: 2 });
    let mut reader = server.reader();
    let report = server.rotate().expect("an empty batch applies");
    assert_eq!(report.rows_copied, 0);
    assert_eq!(reader.refresh(), 1);
    let published = reader.snapshot().index().rows();
    for v in 0..loaded.num_vertices() {
        let (row, file) = (published.handle(v), loaded.rows().handle(v));
        assert!(Arc::ptr_eq(row, file), "row {v} was copied");
    }
}
