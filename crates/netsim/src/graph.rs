//! The physical network graph.
//!
//! Undirected, latency-weighted. Built once by the generator, then read-only
//! for the lifetime of an experiment, so it is stored in CSR (compressed
//! sparse row) form: one contiguous edge array, one offset array — compact
//! and cache-friendly for the thousands of Dijkstra runs the latency oracle
//! performs.

use std::collections::HashSet;

/// Index of a host in the physical network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PhysNodeId(pub u32);

impl PhysNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Transit/stub role of a physical node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeClass {
    /// Backbone router in transit domain `domain`.
    Transit { domain: u16 },
    /// Edge host in stub domain `domain`, attached (via its stub domain) to
    /// transit node `gateway`.
    Stub { domain: u32, gateway: u32 },
}

impl NodeClass {
    /// Is this a backbone (transit) node?
    #[inline]
    pub fn is_transit(self) -> bool {
        matches!(self, NodeClass::Transit { .. })
    }
}

/// Latency class of a physical link, following the paper's three-way
/// assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkClass {
    TransitTransit,
    StubTransit,
    StubStub,
}

/// Builder-side edge record.
#[derive(Clone, Copy, Debug)]
struct RawEdge {
    a: u32,
    b: u32,
    latency_ms: u32,
    class: LinkClass,
}

/// Mutable construction phase for [`PhysGraph`].
#[derive(Default)]
pub struct PhysGraphBuilder {
    classes: Vec<NodeClass>,
    edges: Vec<RawEdge>,
    /// Normalized `(min, max)` endpoint pairs of `edges`, for O(1)
    /// `has_link` — the generators probe it inside their edge loops, and a
    /// linear scan made 100k-host topologies quadratic to build.
    edge_set: HashSet<(u32, u32)>,
}

impl PhysGraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, class: NodeClass) -> PhysNodeId {
        let id = PhysNodeId(self.classes.len() as u32);
        self.classes.push(class);
        id
    }

    /// Add an undirected link. Duplicate and self links are a generator bug
    /// and rejected with a panic.
    pub fn add_link(&mut self, a: PhysNodeId, b: PhysNodeId, latency_ms: u32, class: LinkClass) {
        assert_ne!(a, b, "self-link {a:?}");
        assert!(a.index() < self.classes.len() && b.index() < self.classes.len());
        self.edge_set.insert(Self::norm(a, b));
        self.edges.push(RawEdge { a: a.0, b: b.0, latency_ms, class });
    }

    #[inline]
    fn norm(a: PhysNodeId, b: PhysNodeId) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Whether a link between `a` and `b` already exists. O(1).
    pub fn has_link(&self, a: PhysNodeId, b: PhysNodeId) -> bool {
        self.edge_set.contains(&Self::norm(a, b))
    }

    /// Freeze into the immutable CSR form.
    pub fn build(self) -> PhysGraph {
        let n = self.classes.len();
        let mut degree = vec![0u32; n];
        for e in &self.edges {
            degree[e.a as usize] += 1;
            degree[e.b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut adj = vec![(0u32, 0u32); self.edges.len() * 2];
        let mut fill = offsets.clone();
        let mut link_classes = Vec::with_capacity(self.edges.len());
        let mut total_link_latency: u64 = 0;
        for e in &self.edges {
            adj[fill[e.a as usize] as usize] = (e.b, e.latency_ms);
            fill[e.a as usize] += 1;
            adj[fill[e.b as usize] as usize] = (e.a, e.latency_ms);
            fill[e.b as usize] += 1;
            link_classes.push(e.class);
            total_link_latency += e.latency_ms as u64;
        }
        let num_links = self.edges.len();
        PhysGraph {
            classes: self.classes.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
            link_classes: link_classes.into_boxed_slice(),
            mean_link_latency: if num_links == 0 {
                0.0
            } else {
                total_link_latency as f64 / num_links as f64
            },
        }
    }
}

/// The frozen physical network.
#[derive(Clone, Debug)]
pub struct PhysGraph {
    classes: Box<[NodeClass]>,
    /// CSR offsets, length `n + 1`.
    offsets: Box<[u32]>,
    /// CSR adjacency: `(neighbor, latency_ms)`.
    adj: Box<[(u32, u32)]>,
    link_classes: Box<[LinkClass]>,
    mean_link_latency: f64,
}

impl PhysGraph {
    /// Number of hosts.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.classes.len()
    }

    /// Number of undirected links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.link_classes.len()
    }

    /// Neighbors of `u` with link latencies in ms.
    #[inline]
    pub fn neighbors(&self, u: PhysNodeId) -> &[(u32, u32)] {
        let i = u.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Transit/stub classification of `u`.
    #[inline]
    pub fn class(&self, u: PhysNodeId) -> NodeClass {
        self.classes[u.index()]
    }

    /// Mean latency over physical links — the denominator of the paper's
    /// *stretch* metric.
    #[inline]
    pub fn mean_link_latency(&self) -> f64 {
        self.mean_link_latency
    }

    /// The transit domain `u` belongs to: its own domain for a transit
    /// node, its gateway's domain for a stub host. The GT-ITM generator
    /// always hangs stub domains off a transit gateway, so this resolves
    /// for every generated node; `None` for a stub whose recorded gateway
    /// is not a transit node of this graph — a hand-built one, or any host
    /// of a flat Waxman graph (which records `u32::MAX`).
    pub fn transit_domain_of(&self, u: PhysNodeId) -> Option<u16> {
        match self.class(u) {
            NodeClass::Transit { domain } => Some(domain),
            NodeClass::Stub { gateway, .. } => match self.classes.get(gateway as usize) {
                Some(&NodeClass::Transit { domain }) => Some(domain),
                _ => None,
            },
        }
    }

    /// Number of distinct transit domains present (max domain id + 1).
    pub fn num_transit_domains(&self) -> usize {
        self.classes
            .iter()
            .filter_map(|c| match c {
                NodeClass::Transit { domain } => Some(*domain as usize + 1),
                NodeClass::Stub { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PhysNodeId> + '_ {
        (0..self.classes.len() as u32).map(PhysNodeId)
    }

    /// Ids of all stub (edge-host) nodes — the population overlay members
    /// are drawn from.
    pub fn stub_nodes(&self) -> Vec<PhysNodeId> {
        self.nodes().filter(|&u| !self.class(u).is_transit()).collect()
    }

    /// Is the graph connected? (BFS from node 0.)
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(PhysNodeId(u)) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Histogram of links by class: `(transit-transit, stub-transit, stub-stub)`.
    pub fn link_class_counts(&self) -> (usize, usize, usize) {
        let mut tt = 0;
        let mut st = 0;
        let mut ss = 0;
        for c in self.link_classes.iter() {
            match c {
                LinkClass::TransitTransit => tt += 1,
                LinkClass::StubTransit => st += 1,
                LinkClass::StubStub => ss += 1,
            }
        }
        (tt, st, ss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> PhysGraph {
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let s0 = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        let s1 = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        b.add_link(t0, s0, 20, LinkClass::StubTransit);
        b.add_link(s0, s1, 5, LinkClass::StubStub);
        b.add_link(s1, t0, 20, LinkClass::StubTransit);
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_links(), 3);
        let mut n0: Vec<_> = g.neighbors(PhysNodeId(0)).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![(1, 20), (2, 20)]);
        let mut n1: Vec<_> = g.neighbors(PhysNodeId(1)).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![(0, 20), (2, 5)]);
    }

    #[test]
    fn mean_link_latency_is_link_average() {
        let g = triangle();
        assert!((g.mean_link_latency() - 45.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_detection() {
        let g = triangle();
        assert!(g.is_connected());

        let mut b = PhysGraphBuilder::new();
        let a = b.add_node(NodeClass::Transit { domain: 0 });
        let c = b.add_node(NodeClass::Transit { domain: 1 });
        let _iso = b.add_node(NodeClass::Transit { domain: 2 });
        b.add_link(a, c, 100, LinkClass::TransitTransit);
        assert!(!b.build().is_connected());
    }

    #[test]
    fn stub_nodes_excludes_transit() {
        let g = triangle();
        let stubs = g.stub_nodes();
        assert_eq!(stubs, vec![PhysNodeId(1), PhysNodeId(2)]);
    }

    #[test]
    fn transit_domain_resolution() {
        let g = triangle();
        assert_eq!(g.transit_domain_of(PhysNodeId(0)), Some(0));
        assert_eq!(g.transit_domain_of(PhysNodeId(1)), Some(0), "stub resolves via gateway");
        assert_eq!(g.num_transit_domains(), 1);

        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let t1 = b.add_node(NodeClass::Transit { domain: 3 });
        b.add_link(t0, t1, 100, LinkClass::TransitTransit);
        let g2 = b.build();
        assert_eq!(g2.num_transit_domains(), 4, "max id + 1, ids need not be dense here");
        assert_eq!(g2.transit_domain_of(t1), Some(3));
    }

    #[test]
    fn link_class_histogram() {
        let g = triangle();
        assert_eq!(g.link_class_counts(), (0, 2, 1));
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_links_rejected() {
        let mut b = PhysGraphBuilder::new();
        let u = b.add_node(NodeClass::Transit { domain: 0 });
        b.add_link(u, u, 1, LinkClass::TransitTransit);
    }

    #[test]
    fn has_link_is_symmetric() {
        let mut b = PhysGraphBuilder::new();
        let u = b.add_node(NodeClass::Transit { domain: 0 });
        let v = b.add_node(NodeClass::Transit { domain: 0 });
        assert!(!b.has_link(u, v));
        b.add_link(u, v, 100, LinkClass::TransitTransit);
        assert!(b.has_link(u, v));
        assert!(b.has_link(v, u));
    }

    #[test]
    fn empty_graph() {
        let g = PhysGraphBuilder::new().build();
        assert!(g.is_connected());
        assert_eq!(g.num_links(), 0);
        assert_eq!(g.mean_link_latency(), 0.0);
    }
}
