//! The row kernel: how one latency `d(u, v)` between members is answered —
//! without a row where the graph allows, and from the whole matrix where
//! it does not.
//!
//! [`generate`](crate::transit_stub::generate) joins every stub domain to
//! its transit node by exactly one stub–transit link. That link is a
//! bridge, so every path leaving a domain crosses it, and the shortest-path
//! latency factors exactly:
//!
//! ```text
//! d(u, v) = up(u) + T[gw(u)][gw(v)] + up(v)     u, v in different domains
//! d(u, v) = shortest path inside the domain       u, v in the same domain
//! ```
//!
//! with `up(h)` the distance from host `h` to its domain's gateway (0 for a
//! transit node, which is its own gateway) and `T` the all-pairs matrix of
//! the transit core over transit–transit links alone. A path between two
//! hosts of one domain never gains by leaving it (it would cross the bridge
//! twice), and a path between transit nodes never gains by entering one.
//!
//! [`Decomposition::build`] **checks that structure on the graph it is
//! given** — it is never assumed from how the graph was made, and there is
//! no setting:
//!
//! * all hosts of a stub domain name the same gateway;
//! * every stub–stub link stays inside one domain;
//! * each domain has exactly one link to a transit node, and that node is
//!   the gateway its hosts name;
//! * the transit core is connected, every member reaches its gateway, and
//!   no sum above can overflow `u32`.
//!
//! When all hold it precomputes `up` (one search per domain, confined to
//! it), `T` (one search per transit node, confined to the core) and one
//! packed record a member: its tag (the stub domain; a transit member's is
//! its own), gateway, `up`, and index among its tag's members. The first
//! line of the identity is then a **point query**: two record loads, one
//! transit cell and two adds, exact, for every pair but two members of one
//! tag. It is bound to its source ([`Points::from`]): the source's record
//! and the offset of its transit row are found once, and each read after
//! that is one record load and one cell. A pair of one tag is answered on the search store by
//! a **meeting search** ([`Decomposition::meet`], out of line and keeping
//! nothing): one Dijkstra from each end, both confined to the domain,
//! stopped once the two frontiers' smallest keys sum to at least the
//! shortest meeting found. On the dense tier such a pair reads a cell of its
//! tag's **block** ([`Blocks`]), `k × k` over the tag's members, filled by
//! one search confined to the domain from each. When any check fails (a
//! Waxman graph, a multi-homed domain, a disconnected graph) there is no
//! point answer, and every tier is the `n × n` matrix
//! ([`Blocks::matrix`]), a row of it one whole-graph [`shortest_paths`]; it
//! is that row which names the offending pair of a disconnected member
//! set. Every search runs the one Dijkstra in [`crate::dijkstra`], or, for
//! the meeting, its two halves.

use crate::dijkstra::{search, shortest_paths, Frontier, UNREACHABLE};
use crate::graph::{NodeClass, PhysGraph, PhysNodeId};
use crate::latency::OracleBuildError;
use crate::oracle::MemberIdx;
use std::cell::RefCell;
use std::cmp::Reverse;

/// "No such node / domain" in the `u32` index arrays below.
const NONE: u32 = u32::MAX;

/// Tag bit of a transit node's entry in [`Decomposition::slot`].
const TRANSIT: u32 = 1 << 31;

/// The transit matrix may hold this many entries per graph node before the
/// decomposition is refused: it keeps the build's memory in proportion to
/// the graph's own on input that is mostly backbone.
const TRANSIT_ENTRIES_PER_NODE: usize = 16;

/// Selects the stub hosts reachable over stub–stub links — which never
/// leave a domain, so excluding transit nodes confines a search to the
/// source's own — each at its index inside that domain.
#[inline]
fn domain_hosts(slot: &[u32]) -> impl Fn(u32) -> Option<usize> + '_ {
    move |v| {
        let s = slot[v as usize];
        (s & TRANSIT == 0).then_some(s as usize)
    }
}

/// Selects the transit core, each node at its transit index.
#[inline]
fn transit_core(slot: &[u32]) -> impl Fn(u32) -> Option<usize> + '_ {
    move |v| {
        let s = slot[v as usize];
        (s & TRANSIT != 0).then_some((s ^ TRANSIT) as usize)
    }
}

/// One member as a point query reads it: sixteen bytes, one cache line.
/// The default record names no member (see [`crate::oracle::Point`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Record {
    /// Its stub domain; a transit member has a tag no other member shares.
    /// Two members of one tag are the pairs the core does not answer.
    tag: u32,
    /// Transit index of its gateway — its own, for a transit member.
    gw: u32,
    /// Distance to that gateway.
    up: u32,
    /// Its index among its tag's members: its row and column in the tag's
    /// block.
    idx: u32,
}

/// What a point query reads: one [`Record`] a member and the row-major
/// `t × t` transit matrix.
pub(crate) struct Points {
    rec: Box<[Record]>,
    transit: Box<[u32]>,
    t: usize,
}

impl Points {
    /// Member `a`'s record.
    #[inline(always)]
    pub(crate) fn record(&self, a: MemberIdx) -> Record {
        self.rec[a]
    }

    /// The point query from member `a`: its record and the offset of its
    /// gateway's row of the transit matrix, found once for any number of
    /// reads.
    #[inline(always)]
    pub(crate) fn from(&self, a: MemberIdx) -> PointsFrom<'_> {
        let ra = self.rec[a];
        PointsFrom { rec: &self.rec, transit: &self.transit, ra, row: ra.gw as usize * self.t }
    }
}

/// [`Points`] bound to one source member.
#[derive(Clone, Copy)]
pub(crate) struct PointsFrom<'a> {
    rec: &'a [Record],
    transit: &'a [u32],
    ra: Record,
    /// Where the source's gateway's row starts in `transit`.
    row: usize,
}

impl PointsFrom<'_> {
    /// `d(members[a], members[b])` when the two have different tags — the
    /// path crosses the core, or joins two transit members: one record load
    /// and one transit cell. `b`'s record when they share one, for a meeting
    /// search or a block to answer.
    #[inline(always)]
    pub(crate) fn point(&self, b: MemberIdx) -> Result<u32, Record> {
        let rb = self.rec[b];
        if rb.tag == self.ra.tag {
            return Err(rb);
        }
        Ok(self.through_core(rb))
    }

    /// [`Self::point`] to the member whose record is `rb`, given that
    /// record: `None` when the two share a tag.
    #[inline(always)]
    pub(crate) fn across(&self, rb: Record) -> Option<u32> {
        (rb.tag != self.ra.tag).then(|| self.through_core(rb))
    }

    /// The source's `up`, the transit cell between the two gateways, and
    /// `rb`'s `up`.
    #[inline(always)]
    fn through_core(&self, rb: Record) -> u32 {
        self.ra.up + self.transit[self.row + rb.gw as usize] + rb.up
    }
}

/// The verified single-homed structure of one graph, and what answers over
/// one member set need of it beside the point query: the search store, or
/// the makings of the dense tier's blocks. All arrays are flat; none is per
/// domain.
pub(crate) struct Decomposition {
    /// Per graph node. A stub host: its index among its domain's hosts. A
    /// transit node: `TRANSIT |` its index into the transit matrix.
    slot: Box<[u32]>,
    /// Domain `d` holds `dom_start[d + 1] - dom_start[d]` hosts.
    dom_start: Box<[u32]>,
    /// Tags below this are stub domains, each at its label; every one from
    /// it up is one transit member's.
    domains: u32,
    /// Members grouped by tag, each at its [`Record::idx`]: tag `x` owns
    /// `tag_members[tag_start[x]..tag_start[x + 1]]`.
    tag_start: Box<[u32]>,
    tag_members: Box<[u32]>,
}
impl Decomposition {
    /// Verify the structure and precompute the point query and the rest,
    /// or `None` when any check in the module docs fails: a graph whose
    /// every tier is the matrix.
    pub(crate) fn build(g: &PhysGraph, members: &[PhysNodeId]) -> Option<(Points, Self)> {
        let n = g.num_nodes();
        if n >= TRANSIT as usize {
            return None;
        }

        // One pass over the nodes and the hosts' links. Transit nodes and
        // each domain's hosts are numbered; a domain's hosts must agree on
        // the gateway, their stub–stub links must stay inside the domain,
        // and the one link that leaves it must go to that gateway (which is
        // thereby an in-range transit node).
        let mut slot = vec![0u32; n];
        let mut transit_nodes: Vec<u32> = Vec::new();
        let mut dom_gw: Vec<u32> = Vec::new();
        let mut dom_start: Vec<u32> = Vec::new(); // sizes first, offsets below
        let mut uplink: Vec<(u32, u32)> = Vec::new(); // (entry host, latency)
        for v in 0..n as u32 {
            let (domain, gateway) = match g.class(PhysNodeId(v)) {
                NodeClass::Transit { .. } => {
                    slot[v as usize] = TRANSIT | transit_nodes.len() as u32;
                    transit_nodes.push(v);
                    continue;
                }
                NodeClass::Stub { domain, gateway } => (domain, gateway),
            };
            let d = domain as usize;
            if d >= n {
                return None; // labels index arrays: keep them graph-sized
            }
            if d >= dom_gw.len() {
                dom_gw.resize(d + 1, NONE);
                dom_start.resize(d + 1, 0);
                uplink.resize(d + 1, (NONE, 0));
            }
            if dom_start[d] == 0 {
                dom_gw[d] = gateway;
            } else if dom_gw[d] != gateway {
                return None;
            }
            slot[v as usize] = dom_start[d];
            dom_start[d] += 1;
            for &(w, latency) in g.neighbors(PhysNodeId(v)) {
                match g.class(PhysNodeId(w)) {
                    NodeClass::Stub { domain: dw, .. } if dw == domain => {}
                    NodeClass::Transit { .. } if w == gateway && uplink[d].0 == NONE => {
                        uplink[d] = (v, latency);
                    }
                    _ => return None,
                }
            }
        }
        let t = transit_nodes.len();
        if t == 0 || t * t > TRANSIT_ENTRIES_PER_NODE * n {
            return None;
        }
        let domains = dom_gw.len();
        let mut hosts = 0u32;
        for s in dom_start.iter_mut() {
            let size = *s;
            *s = hosts;
            hosts += size;
        }
        dom_start.push(hosts);

        // `up`, one search per domain from its entry host.
        let mut frontier = Frontier::new();
        let mut up = vec![UNREACHABLE; hosts as usize];
        for d in 0..domains {
            let (lo, hi) = (dom_start[d] as usize, dom_start[d + 1] as usize);
            if lo == hi {
                continue; // a label no host carries
            }
            let (entry, latency) = uplink[d];
            if entry == NONE {
                return None;
            }
            let local = &mut up[lo..hi];
            search(g, PhysNodeId(entry), local, &mut frontier, domain_hosts(&slot));
            for x in local {
                *x = x.saturating_add(latency);
            }
        }

        // The transit matrix, one search per transit node.
        let mut transit = vec![UNREACHABLE; t * t];
        for (row, &node) in transit.chunks_mut(t).zip(&transit_nodes) {
            search(g, PhysNodeId(node), row, &mut frontier, transit_core(&slot));
        }
        let longest_transit = transit.iter().copied().max().unwrap_or(0);
        if longest_transit == UNREACHABLE {
            return None;
        }

        // The member side: tags are the stub domains' labels, then one more
        // per transit member.
        let mut rec = Vec::with_capacity(members.len());
        let mut tag_size = vec![0u32; domains];
        let mut longest_up = 0u32;
        for &h in members {
            let s = slot[h.index()];
            let (tag, gw, up) = match g.class(h) {
                NodeClass::Transit { .. } => {
                    tag_size.push(0);
                    (tag_size.len() - 1, s ^ TRANSIT, 0)
                }
                NodeClass::Stub { domain, .. } => {
                    let d = domain as usize;
                    let u = up[(dom_start[d] + s) as usize];
                    if u == UNREACHABLE {
                        return None;
                    }
                    longest_up = longest_up.max(u);
                    (d, slot[dom_gw[d] as usize] ^ TRANSIT, u)
                }
            };
            rec.push(Record { tag: tag as u32, gw, up, idx: tag_size[tag] });
            tag_size[tag] += 1;
        }
        if 2 * longest_up as u64 + longest_transit as u64 >= UNREACHABLE as u64 {
            return None;
        }
        let mut tag_start = Vec::with_capacity(tag_size.len() + 1);
        let mut total = 0u32;
        tag_start.push(0);
        for size in tag_size {
            total += size;
            tag_start.push(total);
        }
        let mut tag_members = vec![0u32; members.len()];
        for (j, r) in rec.iter().enumerate() {
            tag_members[(tag_start[r.tag as usize] + r.idx) as usize] = j as u32;
        }

        let points = Points { rec: rec.into(), transit: transit.into(), t };
        let dec = Decomposition {
            slot: slot.into(),
            dom_start: dom_start.into(),
            domains: domains as u32,
            tag_start: tag_start.into(),
            tag_members: tag_members.into(),
        };
        Some((points, dec))
    }

    /// The members of tag `x`, in [`Record::idx`] order.
    fn mates(&self, x: u32) -> &[u32] {
        let x = x as usize;
        &self.tag_members[self.tag_start[x] as usize..self.tag_start[x + 1] as usize]
    }

    /// Hosts of stub domain `d`.
    fn domain_size(&self, d: u32) -> usize {
        (self.dom_start[d as usize + 1] - self.dom_start[d as usize]) as usize
    }

    /// Distances from stub host `src` to the hosts of its own domain `d`,
    /// each at its [`Self::slot`]: the one search confined to a domain that
    /// every block is made by.
    fn domain_search(&self, g: &PhysGraph, src: PhysNodeId, d: u32) -> Vec<u32> {
        let k = self.domain_size(d);
        let mut local = vec![UNREACHABLE; k];
        search(g, src, &mut local, &mut Frontier::with_capacity(k), domain_hosts(&self.slot));
        local
    }

    /// `d(members[a], members[b])` for two members the point query leaves
    /// over (`rb` is `b`'s record): a member with itself, a host listed
    /// twice, or else two hosts of one stub domain — the meeting search
    /// inside it, keeping nothing. `g` and `members` are the ones it was
    /// built over. Out of line: the search store's one path off the point
    /// query.
    #[cold]
    #[inline(never)]
    pub(crate) fn meet(
        &self,
        g: &PhysGraph,
        members: &[PhysNodeId],
        rb: Record,
        a: MemberIdx,
        b: MemberIdx,
    ) -> u32 {
        let (u, v) = (members[a], members[b]);
        if u == v {
            return 0;
        }
        let k = self.domain_size(rb.tag);
        MEETING.with_borrow_mut(|m| m.run(g, domain_hosts(&self.slot), k, u, v))
    }

    /// The dense tier's store beside the point query: for each tag one
    /// `k × k` block over its `k` members — rows by [`Self::domain_search`]
    /// from each, a lone transit member's block its `d(a, a) = 0`.
    pub(crate) fn blocks(&self, g: &PhysGraph, members: &[PhysNodeId]) -> Blocks {
        let tags = self.tag_start.len() as u32 - 1;
        let mut at = Vec::with_capacity(tags as usize);
        let mut cells = Vec::with_capacity((0..tags).map(|x| self.mates(x).len().pow(2)).sum());
        for x in 0..tags {
            let mates = self.mates(x);
            at.push((cells.len(), mates.len()));
            if x >= self.domains {
                cells.push(0);
                continue;
            }
            for &i in mates {
                let local = self.domain_search(g, members[i as usize], x);
                cells.extend(
                    mates.iter().map(|&j| local[self.slot[members[j as usize].index()] as usize]),
                );
            }
        }
        Blocks { at: at.into(), cells: cells.into() }
    }
}

thread_local! {
    /// The meeting search's scratch, one per thread: `d` is `&self` and
    /// runs on every worker of `par::map` at once. It grows to the largest
    /// domain a thread has searched, and then no query allocates.
    static MEETING: RefCell<Meeting> = RefCell::new(Meeting::default());
}

/// One half of a meeting search: a Dijkstra over one domain's hosts, each
/// at its index inside the domain.
#[derive(Default)]
struct Half {
    /// `dist[i]` holds for this query only where `stamp[i]` is its epoch;
    /// anywhere else host `i` is unreached.
    stamp: Vec<u32>,
    dist: Vec<u32>,
    frontier: Frontier,
}

impl Half {
    fn start(&mut self, k: usize, epoch: u32, src: PhysNodeId, at: usize) {
        if self.stamp.len() < k {
            self.stamp.resize(k, 0);
            self.dist.resize(k, 0);
        }
        self.frontier.clear();
        self.stamp[at] = epoch;
        self.dist[at] = 0;
        self.frontier.push(Reverse(src.0 as u64));
    }

    #[inline]
    fn dist(&self, i: usize, epoch: u32) -> u32 {
        if self.stamp[i] == epoch {
            self.dist[i]
        } else {
            UNREACHABLE
        }
    }

    /// The smallest key on the frontier: no host this half has yet to
    /// settle is nearer its source.
    #[inline]
    fn top(&self) -> u32 {
        self.frontier.peek().map_or(UNREACHABLE, |&Reverse(key)| (key >> 32) as u32)
    }
}

/// Both halves, and the epoch that stamps one query's distances: moving it
/// on forgets every distance of the last query without touching them.
#[derive(Default)]
struct Meeting {
    epoch: u32,
    from: Half,
    to: Half,
}

impl Meeting {
    /// The shortest path between `u` and `v` over the `k` hosts `inside`
    /// selects. Each step settles one host of the half with the smaller
    /// frontier; every link it relaxes to a host the other half has reached
    /// is a path, and the shortest of those is the answer once no shorter
    /// one can be left: when the two smallest keys sum to at least it.
    fn run(
        &mut self,
        g: &PhysGraph,
        inside: impl Fn(u32) -> Option<usize>,
        k: usize,
        u: PhysNodeId,
        v: PhysNodeId,
    ) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: no stamp may still name a live epoch.
            self.from.stamp.fill(0);
            self.to.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let at = |h: PhysNodeId| inside(h.0).expect("both ends lie in the searched domain");
        self.from.start(k, epoch, u, at(u));
        self.to.start(k, epoch, v, at(v));
        let mut best = UNREACHABLE;
        loop {
            let (top_f, top_b) = (self.from.top(), self.to.top());
            // An empty half has settled every host it reaches, the other
            // end among them, so `best` is already that end's distance.
            let floor = u64::from(top_f) + u64::from(top_b);
            if top_f == UNREACHABLE || top_b == UNREACHABLE || floor >= u64::from(best) {
                return best;
            }
            let (this, other) = if self.from.frontier.len() <= self.to.frontier.len() {
                (&mut self.from, &self.to)
            } else {
                (&mut self.to, &self.from)
            };
            let Reverse(key) = this.frontier.pop().expect("a half with a top has a frontier");
            let (d, x) = ((key >> 32) as u32, key as u32);
            if d > this.dist[at(PhysNodeId(x))] {
                continue; // stale
            }
            for &(y, w) in g.neighbors(PhysNodeId(x)) {
                let Some(i) = inside(y) else { continue };
                let nd = d + w;
                if nd < this.dist(i, epoch) {
                    this.stamp[i] = epoch;
                    this.dist[i] = nd;
                    this.frontier.push(Reverse((nd as u64) << 32 | y as u64));
                }
                let there = other.dist(i, epoch);
                if there != UNREACHABLE {
                    best = best.min(nd.saturating_add(there));
                }
            }
        }
    }
}

/// The dense tier: every answer in memory. Tag `x` with `k` members has its
/// block at `at[x] = (start, k)`: `cells[start..start + k * k]`, row-major
/// by [`Record::idx`]. On a decomposed graph a tag is a stub domain and no
/// answer is a matrix cell; on a graph the kernel refuses every member has
/// the one tag, whose block is the `n × n` matrix.
pub(crate) struct Blocks {
    at: Box<[(usize, usize)]>,
    cells: Box<[u32]>,
}

impl Blocks {
    /// The dense tier over a graph without the decomposition: one block,
    /// the row-major `n × n` matrix, each row a whole-graph Dijkstra
    /// validated as it is produced — a disconnected pair fails fast inside
    /// the row pass, naming the first member the first source cannot reach
    /// — and written in place: the build's peak is the one matrix. Its
    /// point query gives every member the one tag, so that every read
    /// defers to the matrix.
    pub(crate) fn matrix(
        g: &PhysGraph,
        members: &[PhysNodeId],
    ) -> Result<(Points, Self), OracleBuildError> {
        let n = members.len();
        let mut cells = vec![0u32; n * n];
        for (src, &u) in members.iter().enumerate() {
            let full = shortest_paths(g, u);
            for (j, &v) in members.iter().enumerate() {
                let ms = full[v.index()];
                if ms == UNREACHABLE {
                    return Err(OracleBuildError::Disconnected {
                        from_member: src,
                        from_host: u,
                        to_member: j,
                        to_host: v,
                    });
                }
                cells[src * n + j] = ms;
            }
        }
        let rec = (0..n as u32).map(|idx| Record { tag: 0, gw: 0, up: 0, idx }).collect();
        let points = Points { rec, transit: Box::new([]), t: 0 };
        Ok((points, Blocks { at: Box::new([(0, n)]), cells: cells.into() }))
    }

    /// `d(members[a], members[b])` for two members of one tag, `from` bound
    /// to `a` and `rb` `b`'s record: one cell of the tag's block.
    #[inline(always)]
    pub(crate) fn cell(&self, from: &PointsFrom, rb: Record) -> u32 {
        let ra = from.ra;
        let (start, k) = self.at[ra.tag as usize];
        self.cells[start + ra.idx as usize * k + rb.idx as usize]
    }

    /// Bytes the blocks hold.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.at) + size_of_val(&*self.cells)
    }
}

/// The read path [`Points::from`] replaced, kept as the twin it is tested
/// against: both records and the transit cell read per pair, then a block
/// cell or a meeting search for two members of one tag.
#[cfg(test)]
impl Points {
    /// Bytes the point query holds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rec) + std::mem::size_of_val(&*self.transit)
    }

    fn point_reference(&self, a: MemberIdx, b: MemberIdx) -> Result<u32, (Record, Record)> {
        let (ra, rb) = (self.rec[a], self.rec[b]);
        if ra.tag == rb.tag {
            return Err((ra, rb));
        }
        Ok(ra.up + self.transit[ra.gw as usize * self.t + rb.gw as usize] + rb.up)
    }
}

#[cfg(test)]
impl Blocks {
    pub(crate) fn d_reference(&self, points: &Points, a: MemberIdx, b: MemberIdx) -> u32 {
        points.point_reference(a, b).unwrap_or_else(|(ra, rb)| {
            let (start, k) = self.at[ra.tag as usize];
            self.cells[start + ra.idx as usize * k + rb.idx as usize]
        })
    }
}

#[cfg(test)]
impl Decomposition {
    pub(crate) fn d_reference(
        &self,
        points: &Points,
        g: &PhysGraph,
        members: &[PhysNodeId],
        a: MemberIdx,
        b: MemberIdx,
    ) -> u32 {
        points.point_reference(a, b).unwrap_or_else(|(ra, _)| {
            let (u, v) = (members[a], members[b]);
            if u == v {
                return 0;
            }
            let k = self.domain_size(ra.tag);
            MEETING.with_borrow_mut(|m| m.run(g, domain_hosts(&self.slot), k, u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkClass, PhysGraphBuilder};
    use crate::latency::{OracleConfig, Tier};
    use crate::oracle::LatencyOracle;
    use crate::transit_stub::{generate, TransitStubParams};
    use crate::waxman::{generate_waxman, WaxmanParams};
    use prop_engine::SimRng;

    /// Every latency from `sources` (member indices), on the dense and the
    /// search tier, must equal a whole-graph Dijkstra from the same host,
    /// entry for entry: blocks and the search store where the graph has the
    /// structure, the matrix on both where it does not.
    fn assert_oracles_match(g: &PhysGraph, members: &[PhysNodeId], sources: &[MemberIdx]) {
        let oracles = [OracleConfig::dense(), OracleConfig::cached(1)]
            .map(|cfg| LatencyOracle::try_build_with(g, members.to_vec(), &cfg).unwrap());
        for &s in sources {
            let full = shortest_paths(g, members[s]);
            for (j, &m) in members.iter().enumerate() {
                for o in &oracles {
                    let at = format!("{}: source {s} ({:?}) to {j} ({m:?})", o.tier(), members[s]);
                    assert_eq!(o.d(s, j), full[m.index()], "{at}");
                }
            }
        }
    }

    /// `stubs` sampled stub hosts, ten transit nodes, and ten of the hosts
    /// a second time.
    fn mixed_members(g: &PhysGraph, stubs: usize, rng: &mut SimRng) -> Vec<PhysNodeId> {
        let mut members = rng.sample_distinct(&g.stub_nodes(), stubs);
        members.extend(g.nodes().filter(|&u| g.class(u).is_transit()).take(10));
        members.extend_from_within(..10);
        members
    }

    #[test]
    fn every_generated_transit_stub_graph_is_decomposed() {
        // What the oracle's search store rests on: `generate` hangs each
        // stub domain off its transit node by one link, at every preset and
        // size, so no generated graph falls onto the matrix — an O(n²)
        // build, refused past `Tier::DENSE_MAX_MEMBERS`.
        let presets = [
            ("tiny", TransitStubParams::tiny()),
            ("ts_small", TransitStubParams::ts_small()),
            ("ts_large", TransitStubParams::ts_large()),
            ("scaled(3000)", TransitStubParams::scaled(3000)),
            ("scaled(20_000)", TransitStubParams::scaled(20_000)),
        ];
        for (name, params) in presets {
            for seed in 0..20 {
                let g = generate(&params, &mut SimRng::seed_from(seed));
                let members: Vec<PhysNodeId> = g.nodes().collect();
                let dec = Decomposition::build(&g, &members);
                assert!(dec.is_some(), "{name}, seed {seed}: the structure was not verified");
            }
        }
    }

    #[test]
    fn every_source_on_tiny_topologies() {
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            let g = generate(&TransitStubParams::tiny(), &mut rng);
            // Every node, transit included, and the first five twice.
            let mut members: Vec<PhysNodeId> = g.nodes().collect();
            members.extend_from_within(..5);
            rng.shuffle(&mut members);
            assert!(Decomposition::build(&g, &members).is_some(), "seed {seed}");
            assert_oracles_match(&g, &members, &(0..members.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sampled_sources_on_generated_topologies() {
        let cases = [
            ("ts_large", TransitStubParams::ts_large()),
            ("ts_small", TransitStubParams::ts_small()),
            ("scaled(3000)", TransitStubParams::scaled(3000)),
            ("scaled(10_000)", TransitStubParams::scaled(10_000)),
        ];
        for (name, params) in cases {
            let mut rng = SimRng::seed_from(12);
            let g = generate(&params, &mut rng);
            let members = mixed_members(&g, 300, &mut rng);
            assert!(Decomposition::build(&g, &members).is_some(), "{name}");
            let sources: Vec<MemberIdx> = (0..members.len()).step_by(7).collect();
            assert_oracles_match(&g, &members, &sources);
        }
    }

    /// The point query against whole-graph Dijkstra over every ordered pair
    /// of `mixed_members`, and both stores built on it — the search store
    /// and the dense tier's blocks — over the same pairs. Then every pair
    /// the point query leaves to a meeting search is read again, from every
    /// worker of `par::map` at once, on a fresh search store.
    fn assert_point_matches(name: &str, params: &TransitStubParams, stubs: usize) {
        let mut rng = SimRng::seed_from(27);
        let g = generate(params, &mut rng);
        let members = mixed_members(&g, stubs, &mut rng);
        let (points, _) = Decomposition::build(&g, &members).expect(name);
        let cached = OracleConfig::cached(1);
        let o = LatencyOracle::try_build_with(&g, members.clone(), &cached).unwrap();
        assert_eq!(o.built_tier(), Tier::Search, "{name}");
        let dense =
            LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::dense()).unwrap();
        let mut same_domain = Vec::new();
        for (a, &u) in members.iter().enumerate() {
            let full = shortest_paths(&g, u);
            for (b, &v) in members.iter().enumerate() {
                let want = full[v.index()];
                assert_eq!(dense.d(a, b), want, "{name}: dense d({a}, {b}) = d({u:?}, {v:?})");
                match points.from(a).point(b).ok() {
                    Some(ms) => assert_eq!(ms, want, "{name}: ({a}, {b}) = ({u:?}, {v:?})"),
                    // A transit member's tag is its own: it shares it with itself only.
                    None if a == b && g.class(u).is_transit() => {}
                    None => {
                        // Only two hosts of one stub domain are left to a search.
                        let (
                            NodeClass::Stub { domain: du, .. },
                            NodeClass::Stub { domain: dv, .. },
                        ) = (g.class(u), g.class(v))
                        else {
                            panic!("{name}: no point answer for ({u:?}, {v:?})");
                        };
                        assert_eq!(du, dv, "{name}: no point answer for ({u:?}, {v:?})");
                        same_domain.push((a, b, want));
                    }
                }
                assert_eq!(o.d(a, b), want, "{name}: d({a}, {b}) = d({u:?}, {v:?})");
            }
        }
        // Each member with itself, the ten listed twice with their twins.
        assert!(same_domain.len() >= stubs + 20, "{name}: {} same-domain pairs", same_domain.len());

        let fresh = LatencyOracle::try_build_with(&g, members, &cached).unwrap();
        let wrong: Vec<_> = prop_engine::par::map(&same_domain, |&(a, b, want)| {
            let got = fresh.d(a, b);
            (got != want).then_some((a, b, got, want))
        });
        let wrong: Vec<_> = wrong.into_iter().flatten().collect();
        assert!(wrong.is_empty(), "{name}: (a, b, got, want) {:?}", &wrong[..wrong.len().min(5)]);
    }

    #[test]
    fn point_is_shortest_paths_for_every_pair() {
        assert_point_matches("tiny", &TransitStubParams::tiny(), 40);
        assert_point_matches("ts_large", &TransitStubParams::ts_large(), 300);
        assert_point_matches("ts_small", &TransitStubParams::ts_small(), 300);
        assert_point_matches("scaled(3000)", &TransitStubParams::scaled(3000), 300);
    }

    #[test]
    fn point_is_shortest_paths_for_every_pair_on_scaled_10_000() {
        assert_point_matches("scaled(10_000)", &TransitStubParams::scaled(10_000), 300);
    }

    /// Two transit nodes, domain 0 = {a0 - a1 - a2} under t0, domain 1 =
    /// {b0 - b1} under t1; `edit` may add to it before it is frozen.
    fn two_domains(
        a2_gateway: u32,
        edit: impl FnOnce(&mut PhysGraphBuilder, &[PhysNodeId]),
    ) -> (PhysGraph, Vec<PhysNodeId>) {
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let t1 = b.add_node(NodeClass::Transit { domain: 1 });
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a1 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a2 = b.add_node(NodeClass::Stub { domain: 0, gateway: a2_gateway });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 });
        let b1 = b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 });
        b.add_link(t0, t1, 100, LinkClass::TransitTransit);
        b.add_link(a0, t0, 20, LinkClass::StubTransit);
        b.add_link(a0, a1, 5, LinkClass::StubStub);
        b.add_link(a1, a2, 7, LinkClass::StubStub);
        b.add_link(b0, t1, 30, LinkClass::StubTransit);
        b.add_link(b0, b1, 5, LinkClass::StubStub);
        let nodes = [t0, t1, a0, a1, a2, b0, b1];
        edit(&mut b, &nodes);
        (b.build(), nodes.to_vec())
    }

    #[test]
    fn hand_built_single_homed_graph_is_decomposed() {
        let (g, nodes) = two_domains(0, |_, _| {});
        assert!(Decomposition::build(&g, &nodes).is_some());
        assert_oracles_match(&g, &nodes, &(0..nodes.len()).collect::<Vec<_>>());
    }

    #[test]
    fn domains_of_unequal_size_share_one_cache() {
        // Domain 0 has three hosts and domain 1 two. Both are answered from
        // this thread's one meeting scratch, grown to the larger domain and
        // kept as it is for the smaller: what a query in one leaves behind
        // is stale to the next in the other. The search store answers them
        // the same way.
        let (g, nodes) = two_domains(0, |_, _| {});
        let (a0, a1, a2, b0, b1) = (2, 3, 4, 5, 6);
        let (points, dec) = Decomposition::build(&g, &nodes).unwrap();
        let scratch = || MEETING.with_borrow(|m| (m.from.stamp.len(), m.to.stamp.len()));
        let pairs = [(a0, a2, 12), (b0, b1, 5), (a2, a1, 7), (b1, b0, 5), (a1, a0, 5)];
        let meet = |a, b| {
            let rb = points.from(a).point(b).expect_err("a pair of one domain");
            dec.meet(&g, &nodes, rb, a, b)
        };
        assert_eq!(meet(a0, a2), 12);
        let grown = scratch();
        assert!(grown.0 >= 3 && grown.1 >= 3, "{grown:?}");
        for (a, b, want) in pairs {
            assert_eq!(shortest_paths(&g, nodes[a])[nodes[b].index()], want, "({a}, {b})");
            assert_eq!(meet(a, b), want, "({a}, {b})");
            assert_eq!(scratch(), grown, "({a}, {b})");
        }
        let o = LatencyOracle::try_build_with(&g, nodes, &OracleConfig::cached(1)).unwrap();
        assert_eq!(o.built_tier(), Tier::Search);
        for (a, b, want) in pairs {
            assert_eq!(o.d(a, b), want, "({a}, {b})");
        }
    }

    #[test]
    fn other_structures_are_rejected_and_still_exact() {
        // Every graph the decomposition refuses — Waxman, a multi-homed
        // domain, a domain split across a stub–stub link or across two
        // gateways, no transit node — builds the matrix on every tier,
        // keeps no search store, and answers as whole-graph Dijkstra does.
        let mut rng = SimRng::seed_from(3);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let waxman_members = rng.sample_distinct(&waxman.stub_nodes(), 25);
        let no_transit = {
            let mut b = PhysGraphBuilder::new();
            let u = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
            let v = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
            b.add_link(u, v, 5, LinkClass::StubStub);
            (b.build(), vec![u, v])
        };
        let cases = [
            ("waxman", (waxman, waxman_members)),
            (
                "second uplink to the gateway",
                two_domains(0, |b, n| b.add_link(n[4], n[0], 20, LinkClass::StubTransit)),
            ),
            (
                "second uplink to another transit node",
                two_domains(0, |b, n| b.add_link(n[4], n[1], 20, LinkClass::StubTransit)),
            ),
            (
                "stub-stub link across two domains",
                two_domains(0, |b, n| b.add_link(n[3], n[6], 5, LinkClass::StubStub)),
            ),
            ("hosts of one domain name different gateways", two_domains(1, |_, _| {})),
            ("no transit node", no_transit),
        ];
        let tiers = [OracleConfig::dense(), OracleConfig::cached(1), OracleConfig::default()];
        for (name, (g, members)) in cases {
            assert!(Decomposition::build(&g, &members).is_none(), "{name}");
            for cfg in tiers {
                let o = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap();
                assert_eq!(o.built_tier(), Tier::Dense, "{name}: {cfg:?}");
                assert!(o.cache_stats().is_none(), "{name}: {cfg:?}");
                for (a, &u) in members.iter().enumerate() {
                    let full = shortest_paths(&g, u);
                    for (b, &v) in members.iter().enumerate() {
                        assert_eq!(o.d(a, b), full[v.index()], "{name}, {cfg:?}: ({a}, {b})");
                    }
                }
            }
        }

        // One member past the matrix's limit is refused on every tier by
        // its count, before a row is made: these hosts share no link, so
        // the matrix's first row would have named a disconnected pair — as
        // it does one member fewer.
        let mut b = PhysGraphBuilder::new();
        let members: Vec<_> = (0..=Tier::DENSE_MAX_MEMBERS)
            .map(|_| b.add_node(NodeClass::Stub { domain: 0, gateway: 0 }))
            .collect();
        let g = b.build();
        for cfg in tiers {
            let err = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap_err();
            assert_eq!(err, OracleBuildError::TooManyForMatrix { members: 4_097 }, "{cfg:?}");
        }
        let fewer = members[..Tier::DENSE_MAX_MEMBERS].to_vec();
        let err = LatencyOracle::try_build_with(&g, fewer, &OracleConfig::default()).unwrap_err();
        assert!(matches!(err, OracleBuildError::Disconnected { from_member: 0, .. }), "{err:?}");
    }

    /// Domain 0 with `a2` cut off from `a0 - a1` (and so from everything).
    fn split_domain() -> (PhysGraph, Vec<PhysNodeId>) {
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a1 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a2 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: t0.0 });
        b.add_link(a0, t0, 20, LinkClass::StubTransit);
        b.add_link(a0, a1, 5, LinkClass::StubStub);
        b.add_link(b0, t0, 20, LinkClass::StubTransit);
        (b.build(), vec![a1, b0, a2, a0])
    }

    #[test]
    fn internally_split_domain_names_the_same_pair() {
        let (g, members) = split_domain();
        // What a whole-graph Dijkstra from the first member finds first.
        let full = shortest_paths(&g, members[0]);
        let to = members.iter().position(|m| full[m.index()] == UNREACHABLE).unwrap();
        assert_eq!(to, 2);
        for cfg in [OracleConfig::dense(), OracleConfig::cached(1), OracleConfig::default()] {
            let err = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap_err();
            assert_eq!(
                err,
                OracleBuildError::Disconnected {
                    from_member: 0,
                    from_host: members[0],
                    to_member: to,
                    to_host: members[to],
                }
            );
        }
        // With the cut-off host left out the rest decomposes as usual.
        let reachable = [members[0], members[1], members[3]];
        assert!(Decomposition::build(&g, &reachable).is_some());
        assert_oracles_match(&g, &reachable, &[0, 1, 2]);
    }
}
