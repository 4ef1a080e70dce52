//! The rules every graph kind shares, each checked once over all three
//! kinds through their public API.

use dspc_graph::{DirectedGraph, GraphError, Result, UndirectedGraph, VertexId, WeightedGraph};

/// The vocabulary the rules need, spelled per kind: `join` inserts an edge
/// (`insert_edge`, `insert_arc`, or a unit-weight `insert_edge`), `joined`
/// asks for it and `drop_vertex` deletes a vertex.
trait Kind: Sized {
    const NAME: &'static str;
    fn empty(n: usize) -> Self;
    fn join(&mut self, u: u32, v: u32) -> Result<()>;
    fn joined(&self, u: u32, v: u32) -> bool;
    fn drop_vertex(&mut self, v: u32) -> Result<()>;
    fn fresh(&mut self) -> VertexId;
    fn alive(&self) -> usize;
    fn check(&self) -> Result<()>;
}

impl Kind for UndirectedGraph {
    const NAME: &'static str = "undirected";
    fn empty(n: usize) -> Self {
        Self::with_vertices(n)
    }
    fn join(&mut self, u: u32, v: u32) -> Result<()> {
        self.insert_edge(VertexId(u), VertexId(v))
    }
    fn joined(&self, u: u32, v: u32) -> bool {
        self.has_edge(VertexId(u), VertexId(v))
    }
    fn drop_vertex(&mut self, v: u32) -> Result<()> {
        self.delete_vertex(VertexId(v)).map(drop)
    }
    fn fresh(&mut self) -> VertexId {
        self.add_vertex()
    }
    fn alive(&self) -> usize {
        self.num_vertices()
    }
    fn check(&self) -> Result<()> {
        self.validate()
    }
}

impl Kind for DirectedGraph {
    const NAME: &'static str = "directed";
    fn empty(n: usize) -> Self {
        Self::with_vertices(n)
    }
    fn join(&mut self, u: u32, v: u32) -> Result<()> {
        self.insert_arc(VertexId(u), VertexId(v))
    }
    fn joined(&self, u: u32, v: u32) -> bool {
        self.has_arc(VertexId(u), VertexId(v))
    }
    fn drop_vertex(&mut self, v: u32) -> Result<()> {
        self.delete_vertex(VertexId(v)).map(drop)
    }
    fn fresh(&mut self) -> VertexId {
        self.add_vertex()
    }
    fn alive(&self) -> usize {
        self.num_vertices()
    }
    fn check(&self) -> Result<()> {
        self.validate()
    }
}

impl Kind for WeightedGraph {
    const NAME: &'static str = "weighted";
    fn empty(n: usize) -> Self {
        Self::with_vertices(n)
    }
    fn join(&mut self, u: u32, v: u32) -> Result<()> {
        self.insert_edge(VertexId(u), VertexId(v), 1)
    }
    fn joined(&self, u: u32, v: u32) -> bool {
        self.has_edge(VertexId(u), VertexId(v))
    }
    fn drop_vertex(&mut self, v: u32) -> Result<()> {
        self.delete_vertex(VertexId(v)).map(drop)
    }
    fn fresh(&mut self) -> VertexId {
        self.add_vertex()
    }
    fn alive(&self) -> usize {
        self.num_vertices()
    }
    fn check(&self) -> Result<()> {
        self.validate()
    }
}

/// Runs `rule` on every kind.
macro_rules! on_every_kind {
    ($rule:ident) => {
        $rule::<UndirectedGraph>();
        $rule::<DirectedGraph>();
        $rule::<WeightedGraph>();
    };
}

fn self_loop<G: Kind>() {
    let mut g = G::empty(1);
    let err = g.join(0, 0);
    assert!(matches!(err, Err(GraphError::SelfLoop(_))), "{}", G::NAME);
}

#[test]
fn self_loop_rejected() {
    on_every_kind!(self_loop);
}

fn unknown_vertex<G: Kind>() {
    let mut g = G::empty(3);
    g.join(0, 1).unwrap();
    for (u, v) in [(0, 5), (5, 0)] {
        let err = g.join(u, v);
        assert!(
            matches!(err, Err(GraphError::UnknownVertex(_))),
            "{}",
            G::NAME
        );
    }
    // A deleted vertex is unknown too.
    g.drop_vertex(2).unwrap();
    let err = g.join(0, 2);
    assert!(
        matches!(err, Err(GraphError::UnknownVertex(_))),
        "{}",
        G::NAME
    );
    assert!(matches!(
        g.drop_vertex(2),
        Err(GraphError::UnknownVertex(_))
    ));
    g.check().unwrap();
}

#[test]
fn unknown_vertex_rejected() {
    on_every_kind!(unknown_vertex);
}

fn fresh_id_after_delete<G: Kind>() {
    let mut g = G::empty(3);
    g.join(0, 1).unwrap();
    g.join(1, 2).unwrap();
    g.drop_vertex(1).unwrap();
    let v = g.fresh();
    assert_eq!(v, VertexId(3), "{}", G::NAME);
    assert_eq!(g.alive(), 3);
    g.join(v.0, 0).unwrap();
    assert!(g.joined(3, 0));
    g.check().unwrap();
}

#[test]
fn add_vertex_after_delete_gets_fresh_id() {
    on_every_kind!(fresh_id_after_delete);
}
