//! Edge-list I/O in the SNAP text format the paper's datasets ship in.
//!
//! Format: one `u v` pair per line, whitespace separated; lines starting
//! with `#` or `%` are comments (SNAP uses `#`, Konect uses `%`). Vertex ids
//! are arbitrary `u32`s; the reader sizes the graph by the maximum id seen.

#[cfg(test)]
use crate::VertexId;
use crate::{GraphError, Result, UndirectedGraph};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Parses an undirected graph from SNAP-style edge-list text.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<UndirectedGraph> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut any = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, lineno: usize| -> Result<u32> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<u32>().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad vertex id {tok:?}: {e}"),
            })
        };
        let u = parse(it.next(), lineno)?;
        let v = parse(it.next(), lineno)?;
        // Extra columns (weights/timestamps in Konect dumps) are ignored.
        max_id = max_id.max(u).max(v);
        any = true;
        edges.push((u, v));
    }
    let n = if any { max_id as usize + 1 } else { 0 };
    Ok(UndirectedGraph::from_edges(n, &edges))
}

/// Parses an undirected graph from an edge-list string.
pub fn parse_edge_list(text: &str) -> Result<UndirectedGraph> {
    read_edge_list(std::io::Cursor::new(text))
}

/// Loads an undirected graph from an edge-list file.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<UndirectedGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Writes a graph as edge-list text (one `u v` per line, `u < v`).
pub fn write_edge_list<W: Write>(g: &UndirectedGraph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# undirected simple graph: n={} m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Saves a graph to an edge-list file.
pub fn save_edge_list<P: AsRef<Path>>(g: &UndirectedGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let g = parse_edge_list("# comment\n0 1\n1 2\n\n% konect comment\n2 3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn parse_ignores_extra_columns() {
        let g = parse_edge_list("0 1 42 199\n1 2 7\n").unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_dedups_and_symmetrizes() {
        let g = parse_edge_list("0 1\n1 0\n1 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_edge_list("0 x\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse_edge_list("0\n").unwrap_err();
        assert!(err.to_string().contains("expected two"));
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("# nothing\n").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn round_trip() {
        let g = crate::generators::classic::grid_graph(3, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn file_round_trip() {
        let g = crate::generators::classic::cycle_graph(5);
        let dir = crate::scratch::ScratchDir::new("dspc_io_test").unwrap();
        let path = dir.path().join("cycle5.txt");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), 5);
    }
}
