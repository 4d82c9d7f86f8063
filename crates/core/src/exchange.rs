//! The peer-exchange operation and the `Var` criterion (Eq. 2, §3.2, §4).
//!
//! Two cooperating peers `u` and `v` evaluate
//!
//! ```text
//! Var = Σ_{i∈N_t0(u)} d(u,i) + Σ_{i∈N_t0(v)} d(v,i)
//!     − Σ_{i∈N_t1(u)} d(u,i) − Σ_{i∈N_t1(v)} d(v,i)
//! ```
//!
//! (t₀ = now, t₁ = the hypothetical post-exchange state) and perform the
//! exchange iff `Var > MIN_VAR`. A useful exact identity, verified by the
//! test-suite: **applying a plan lowers the overlay's total logical link
//! latency by exactly `Var`** — the `d(u,v)` term (if the pair are
//! neighbors) appears on both sides and cancels, and no other edge is
//! touched. This is the §4.2 argument made mechanical.
//!
//! Planning never mutates the overlay; [`apply`] does, and the
//! [`prop_overlay::LogicalGraph`] invariants (no duplicate edges, no
//! self-loops) plus Theorem 1's path-exclusion rule are enforced here.
//!
//! A PROP-O plan classifies the two peers' neighbors by per-slot epoch
//! stamps (one pass over each row, no search and no merge), prices each
//! eligible one once through the two peers' bound [`Source`]s and keeps
//! the `m` best per side against a running threshold. Its [`apply`] moves
//! the `2m` edges in place ([`prop_overlay::LogicalGraph::exchange_neighbors`]):
//! every degree is kept, so no row grows and no counter moves.

use crate::config::Policy;
use crate::neighborq::SlotMarks;
use prop_netsim::Source;
use prop_overlay::walk::WalkPath;
use prop_overlay::{OverlayNet, Slot};
use std::cell::RefCell;

/// What an exchange will do, plus its evaluated benefit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExchangePlan {
    pub u: Slot,
    pub v: Slot,
    /// Eq. 2's Var: total latency saved by performing this plan (ms; may be
    /// negative — the caller compares against `MIN_VAR`).
    pub var: i64,
    pub kind: PlanKind,
}

impl ExchangePlan {
    /// The neighbors whose link changes its far end under this plan: all of
    /// both peers' (`2c`) for PROP-G, the `2m` moved ones for PROP-O. Each
    /// is probed once to evaluate Var and notified once if the plan applies.
    pub fn neighbors_touched(&self, net: &OverlayNet) -> usize {
        match &self.kind {
            PlanKind::SwapAll => net.graph().degree(self.u) + net.graph().degree(self.v),
            PlanKind::Subset { from_u, from_v } => from_u.len() + from_v.len(),
        }
    }
}

/// The two exchange shapes of the PROP family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// PROP-G: exchange all neighbors — swap positions/identifiers.
    SwapAll,
    /// PROP-O: `u` hands `from_u` to `v`, `v` hands `from_v` to `u`
    /// (equal-length, disjoint, off the probe path).
    Subset { from_u: Vec<Slot>, from_v: Vec<Slot> },
}

/// Plan a PROP-G exchange between `u` and `v`: evaluate Var for a full
/// position swap. Always yields a plan (a swap is always *possible*; whether
/// it is *beneficial* is the caller's `Var > MIN_VAR` check).
///
/// One pass over each peer's neighbor row: after the swap, slot `u` hosts
/// `pv` and slot `v` hosts `pu`, so a link of `u`'s saves `d(pu, i) −
/// d(pv, i)` and one of `v`'s the mirror image, every read from one of the
/// two peers' [`Source`]s. The `u`–`v` link, if there is one, is skipped on
/// both sides: its before term on one side is its after term on the other,
/// so the two cancel exactly, whether or not `d` is symmetric.
pub fn plan_propg(net: &OverlayNet, u: Slot, v: Slot) -> ExchangePlan {
    debug_assert_ne!(u, v);
    let oracle = net.oracle();
    let (from_u, from_v) = (oracle.source(net.peer(u)), oracle.source(net.peer(v)));
    let saved = |slot: Slot, own: &Source, cross: &Source, counterpart: Slot| -> i64 {
        let row = net.graph().neighbors(slot);
        row.iter()
            .filter(|&&i| i != counterpart)
            .map(|&i| {
                let p = net.peer(i);
                own.to(p) as i64 - cross.to(p) as i64
            })
            .sum()
    };
    let var = saved(u, &from_u, &from_v, v) + saved(v, &from_v, &from_u, u);
    ExchangePlan { u, v, var, kind: PlanKind::SwapAll }
}

/// Driver-owned buffers for [`plan_exchange_into`]: per-slot marks over the
/// slot table, the two sides' candidate lists and the plan itself, whose
/// `from_u`/`from_v` vectors are refilled in place. Once the lists have
/// reached the overlay's largest degree and the marks its slot count,
/// planning allocates nothing (pinned by the `alloc_regression` test).
/// Sits beside the driver's [`prop_overlay::walk::WalkScratch`].
#[derive(Debug)]
pub struct PlanScratch {
    /// Three epochs a plan: "in `u`'s row", "on the path", "shared".
    marks: SlotMarks,
    /// `(benefit, neighbor)` of every neighbor `u` (resp. `v`) could hand over.
    only_u: Vec<(i64, Slot)>,
    only_v: Vec<(i64, Slot)>,
    plan: ExchangePlan,
}

impl Default for PlanScratch {
    fn default() -> Self {
        PlanScratch {
            marks: SlotMarks::default(),
            only_u: Vec::new(),
            only_v: Vec::new(),
            plan: ExchangePlan { u: Slot(0), v: Slot(0), var: 0, kind: PlanKind::SwapAll },
        }
    }
}

thread_local! {
    /// The scratch of the calls that hand back a plan of their own
    /// ([`plan_exchange`], [`plan_propo`], [`plan_propo_random`]), one per
    /// thread: a fresh one would zero marks over the whole slot table for
    /// every plan.
    static SCRATCH: RefCell<PlanScratch> = RefCell::new(PlanScratch::default());
}

/// The neighbors each end of `walk` could hand to the other under
/// [`plan_propo`]'s two eligibility rules (`u` and `v` are on the path, so
/// the first rule covers them too), each with its benefit: moving `x` from
/// `a` to `b` lowers the total latency by `d(a, x) − d(b, x)`.
///
/// Three fresh epochs of `marks` classify the slots, so no row is searched
/// and none is merged with the other: `u`'s row is stamped "in `u`", then
/// the path nodes "on path" (over the first stamp where a path node is
/// `u`'s neighbor). One pass over `v`'s row turns an "in `u`" slot into
/// "shared" and prices every other slot not on the path from the two
/// peers' [`Source`]s; one pass over `u`'s row prices the slots still "in
/// `u`". Each side's list comes out in ascending slot order.
fn exclusive_neighbors(
    net: &OverlayNet,
    walk: &WalkPath,
    (u, v): (Slot, Slot),
    marks: &mut SlotMarks,
    only_u: &mut Vec<(i64, Slot)>,
    only_v: &mut Vec<(i64, Slot)>,
) {
    let g = net.graph();
    let (row_u, row_v) = (g.neighbors(u), g.neighbors(v));
    let in_u = marks.open(g.num_slots(), 3);
    let (on_path, shared) = (in_u + 1, in_u + 2);
    for &x in row_u {
        marks.set(x, in_u);
    }
    for &s in &walk.path {
        marks.set(s, on_path);
    }

    let oracle = net.oracle();
    let (from_u, from_v) = (oracle.source(net.peer(u)), oracle.source(net.peer(v)));
    only_v.clear();
    for &y in row_v {
        let mark = marks.get(y);
        if mark == in_u {
            marks.set(y, shared);
        } else if mark != on_path {
            let p = net.peer(y);
            only_v.push((from_v.to(p) as i64 - from_u.to(p) as i64, y));
        }
    }
    only_u.clear();
    for &x in row_u {
        if marks.get(x) == in_u {
            let p = net.peer(x);
            only_u.push((from_u.to(p) as i64 - from_v.to(p) as i64, x));
        }
    }
}

/// PROP-O's strict offer order: larger benefit first, lower slot on a tie.
/// Slots are distinct, so the `k` best under it are one fixed sequence.
fn offer_order(p: &(i64, Slot), q: &(i64, Slot)) -> std::cmp::Ordering {
    q.0.cmp(&p.0).then(p.1.cmp(&q.1))
}

/// Bring the `k` best offers (`1 ≤ k ≤ len`) to the front of `side`, in
/// offer order, and return their summed benefit. The first `k` are sorted
/// and the `k`-th best is held in a local; each later offer is compared
/// with it once and, only if it is better, inserted into the prefix in
/// place (the `k`-th falls out) and the local refreshed. `k` is PROP-O's
/// `m`, a handful. What lies past the prefix afterwards is not read.
fn keep_best(side: &mut [(i64, Slot)], k: usize) -> i64 {
    let (best, rest) = side.split_at_mut(k);
    best.sort_unstable_by(offer_order);
    let mut kth = best[k - 1];
    for &offer in rest.iter() {
        if offer_order(&offer, &kth).is_lt() {
            let mut at = k - 1;
            while at > 0 && offer_order(&offer, &best[at - 1]).is_lt() {
                best[at] = best[at - 1];
                at -= 1;
            }
            best[at] = offer;
            kth = best[k - 1];
        }
    }
    best.iter().map(|&(benefit, _)| benefit).sum()
}

/// Plan a PROP-O exchange of (up to) `m` neighbors per side between the walk
/// origin and counterpart.
///
/// Eligibility (Theorem 1 and the degree argument of §3.1):
/// * a neighbor on the probe path is never exchanged (keeps `u`–`v`
///   connected);
/// * a neighbor of *both* peers is never exchanged (the receiving side
///   already has the edge);
/// * the two sides exchange **equal** counts, so every degree is preserved.
///
/// Each side offers its most profitable neighbors (largest
/// `d(self, x) − d(other, x)`). Returns `None` when no pair of eligible
/// neighbors exists.
pub fn plan_propo(net: &OverlayNet, walk: &WalkPath, m: usize) -> Option<ExchangePlan> {
    SCRATCH.with_borrow_mut(|s| plan_propo_into(net, walk, m, s).then(|| s.plan.clone()))
}

/// [`plan_propo`] into `scratch.plan`; `false` when there is no plan.
fn plan_propo_into(net: &OverlayNet, walk: &WalkPath, m: usize, scratch: &mut PlanScratch) -> bool {
    let (Some(&u), Some(&v)) = (walk.path.first(), walk.path.last()) else { return false };
    if u == v || m == 0 {
        return false;
    }
    let PlanScratch { marks, only_u, only_v, plan } = scratch;
    exclusive_neighbors(net, walk, (u, v), marks, only_u, only_v);
    let k = m.min(only_u.len()).min(only_v.len());
    if k == 0 {
        return false;
    }
    let var = keep_best(only_u, k) + keep_best(only_v, k);

    // The last plan's vectors, if it had any, are this one's buffers.
    let (mut from_u, mut from_v) = match std::mem::replace(&mut plan.kind, PlanKind::SwapAll) {
        PlanKind::Subset { from_u, from_v } => (from_u, from_v),
        PlanKind::SwapAll => (Vec::new(), Vec::new()),
    };
    from_u.clear();
    from_u.extend(only_u[..k].iter().map(|&(_, x)| x));
    from_v.clear();
    from_v.extend(only_v[..k].iter().map(|&(_, y)| y));
    *plan = ExchangePlan { u, v, var, kind: PlanKind::Subset { from_u, from_v } };
    true
}

/// PROP-O with *random* (rather than most-profitable) eligible neighbors —
/// the ablation strawman for the "selectively choose neighbors" design
/// decision. Same eligibility rules, same Var accounting; only the pick
/// differs.
pub fn plan_propo_random(
    net: &OverlayNet,
    walk: &WalkPath,
    m: usize,
    rng: &mut prop_engine::SimRng,
) -> Option<ExchangePlan> {
    let u = *walk.path.first()?;
    let v = *walk.path.last()?;
    if u == v || m == 0 {
        return None;
    }
    SCRATCH.with_borrow_mut(|s| {
        let PlanScratch { marks, only_u, only_v, .. } = s;
        exclusive_neighbors(net, walk, (u, v), marks, only_u, only_v);
        let k = m.min(only_u.len()).min(only_v.len());
        if k == 0 {
            return None;
        }
        let mut var = 0;
        let mut pick = |side: &[(i64, Slot)]| -> Vec<Slot> {
            let picked = rng.sample_distinct(side, k);
            var += picked.iter().map(|&(benefit, _)| benefit).sum::<i64>();
            picked.into_iter().map(|(_, x)| x).collect()
        };
        let from_u = pick(only_u);
        let from_v = pick(only_v);
        Some(ExchangePlan { u, v, var, kind: PlanKind::Subset { from_u, from_v } })
    })
}

/// Plan under a [`Policy`]: PROP-G swaps with the walk counterpart, PROP-O
/// exchanges `m` neighbors (`m_default` supplies the resolved `δ(G)` when
/// the policy says `m = None`).
///
/// Plans in the thread's own scratch and hands back a copy of the plan;
/// the driver plans through [`plan_exchange_into`] instead.
pub fn plan_exchange(
    net: &OverlayNet,
    policy: Policy,
    walk: &WalkPath,
    m_default: usize,
) -> Option<ExchangePlan> {
    SCRATCH.with_borrow_mut(|s| plan_exchange_into(net, policy, walk, m_default, s).cloned())
}

/// [`plan_exchange`] into caller-owned buffers: the plan is lent out of
/// `scratch` and stays valid until the next call.
pub fn plan_exchange_into<'s>(
    net: &OverlayNet,
    policy: Policy,
    walk: &WalkPath,
    m_default: usize,
    scratch: &'s mut PlanScratch,
) -> Option<&'s ExchangePlan> {
    let u = *walk.path.first()?;
    let v = *walk.path.last()?;
    if u == v || walk.path.len() < 2 {
        return None;
    }
    match policy {
        Policy::PropG => scratch.plan = plan_propg(net, u, v),
        Policy::PropO { m } => {
            if !plan_propo_into(net, walk, m.unwrap_or(m_default), scratch) {
                return None;
            }
        }
    }
    Some(&scratch.plan)
}

/// The protocol's exchange decision: `Var > MIN_VAR` (Eq. 2), on the
/// oracle's exact latencies. `net` is not read; it stays in the signature
/// `benchmark/src/probes.rs` calls.
pub fn decide(_net: &OverlayNet, plan: &ExchangePlan, min_var: i64) -> bool {
    plan.var > min_var
}

/// Execute a plan. Panics (via the overlay invariants) if the plan is stale
/// — e.g. the graph changed since planning.
pub fn apply(net: &mut OverlayNet, plan: &ExchangePlan) {
    match &plan.kind {
        PlanKind::SwapAll => net.swap_peers(plan.u, plan.v),
        PlanKind::Subset { from_u, from_v } => {
            net.graph_mut().exchange_neighbors(plan.u, plan.v, from_u, from_v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::graph::{LinkClass, NodeClass, PhysGraphBuilder};
    use prop_netsim::{LatencyOracle, OracleConfig};
    use prop_overlay::walk::random_walk;
    use prop_overlay::{LogicalGraph, Placement};
    use std::sync::Arc;

    /// A physical line 0-1-2-…-(n−1) with 10 ms hops: d(i, j) = 10·|i−j|.
    fn line_oracle(n: usize) -> Arc<LatencyOracle> {
        let mut b = PhysGraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(NodeClass::Transit { domain: 0 })).collect();
        for w in ids.windows(2) {
            b.add_link(w[0], w[1], 10, LinkClass::TransitTransit);
        }
        let g = b.build();
        Arc::new(
            LatencyOracle::try_build_with(&g, ids, &OracleConfig::default()).expect("connected"),
        )
    }

    fn net_from(adj: &[(u32, u32)], n: usize) -> OverlayNet {
        let mut g = LogicalGraph::new(n);
        for &(a, b) in adj {
            g.add_edge(Slot(a), Slot(b));
        }
        OverlayNet::new(g, Placement::identity(n), line_oracle(n))
    }

    #[test]
    fn propg_var_is_exact_total_latency_delta() {
        // Overlay: 0-3, 3-1, 1-2, 2-0 (a ring placed badly on the line).
        let mut net = net_from(&[(0, 3), (3, 1), (1, 2), (2, 0)], 4);
        let before = net.total_link_latency();
        let plan = plan_propg(&net, Slot(1), Slot(3));
        apply(&mut net, &plan);
        let after = net.total_link_latency();
        assert_eq!(before as i64 - after as i64, plan.var);
    }

    #[test]
    fn propg_var_positive_for_an_obviously_good_swap() {
        // Peers 0 and 3 on a 4-line; overlay star centered at slot 0 with
        // leaves 2,3 — peer 3 is far from everything. Swapping peers at
        // slots 0 and 3… construct: edges (0,2),(0,3),(1,3).
        let net = net_from(&[(0, 2), (0, 3), (1, 3)], 4);
        // Moving peer 3 next to peer… just assert sign symmetry:
        let p = plan_propg(&net, Slot(0), Slot(3));
        let q = plan_propg(&net, Slot(3), Slot(0));
        assert_eq!(p.var, q.var, "Var is symmetric in the pair");
    }

    #[test]
    fn propg_swap_then_swap_back_is_identity() {
        let mut net = net_from(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let total0 = net.total_link_latency();
        let plan = plan_propg(&net, Slot(0), Slot(2));
        apply(&mut net, &plan);
        let back = plan_propg(&net, Slot(0), Slot(2));
        assert_eq!(back.var, -plan.var);
        apply(&mut net, &back);
        assert_eq!(net.total_link_latency(), total0);
    }

    #[test]
    fn propg_leaves_logical_graph_untouched() {
        let mut net = net_from(&[(0, 1), (1, 2), (2, 3)], 4);
        let edges_before: Vec<_> = net.graph().edges().collect();
        let degseq_before = net.graph().degree_sequence();
        let plan = plan_propg(&net, Slot(0), Slot(3));
        apply(&mut net, &plan);
        assert_eq!(edges_before, net.graph().edges().collect::<Vec<_>>());
        assert_eq!(degseq_before, net.graph().degree_sequence());
    }

    #[test]
    fn propg_handles_adjacent_pair() {
        // u and v are direct neighbors: the d(u,v) term must cancel.
        let mut net = net_from(&[(0, 1), (1, 2), (2, 3), (0, 2)], 4);
        let before = net.total_link_latency();
        let plan = plan_propg(&net, Slot(1), Slot(2));
        apply(&mut net, &plan);
        assert_eq!(before as i64 - net.total_link_latency() as i64, plan.var);
    }

    #[test]
    fn propo_var_is_exact_total_latency_delta() {
        // 8 peers on a line; overlay: ring + chords, walk 0→1→2.
        let mut net = net_from(
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (1, 5)],
            8,
        );
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        if let Some(plan) = plan_propo(&net, &walk, 2) {
            let before = net.total_link_latency();
            apply(&mut net, &plan);
            assert_eq!(before as i64 - net.total_link_latency() as i64, plan.var);
        } else {
            panic!("expected an eligible PROP-O plan");
        }
    }

    #[test]
    fn propo_preserves_every_degree() {
        let mut net = net_from(
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (1, 5)],
            8,
        );
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        let degrees_before: Vec<usize> = (0..8).map(|i| net.graph().degree(Slot(i))).collect();
        let plan = plan_propo(&net, &walk, 2).expect("plan");
        apply(&mut net, &plan);
        let degrees_after: Vec<usize> = (0..8).map(|i| net.graph().degree(Slot(i))).collect();
        assert_eq!(degrees_before, degrees_after, "PROP-O must preserve each node's degree");
    }

    #[test]
    fn propo_never_exchanges_path_nodes() {
        let net = net_from(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (2, 4)], 6);
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        if let Some(plan) = plan_propo(&net, &walk, 4) {
            if let PlanKind::Subset { from_u, from_v } = &plan.kind {
                for s in from_u.iter().chain(from_v) {
                    assert!(!walk.contains(*s), "{s:?} lies on the probe path");
                }
            }
        }
    }

    #[test]
    fn propo_preserves_connectivity() {
        let mut rng = SimRng::seed_from(1);
        // Random connected overlay over 12 line peers, many random walks +
        // exchanges; connectivity must never break (Theorem 1).
        let mut net = net_from(
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 0),
                (0, 6),
                (3, 9),
                (1, 7),
            ],
            12,
        );
        for _ in 0..200 {
            let origin = Slot(rng.range(0..12u32));
            let nbrs = net.graph().neighbors(origin).to_vec();
            let Some(&first) = rng.pick(&nbrs) else { continue };
            let walk = random_walk(net.graph(), origin, first, 2, &mut rng);
            if walk.counterpart(2).is_none() {
                continue;
            }
            if let Some(plan) = plan_propo(&net, &walk, 2) {
                if plan.var > 0 {
                    apply(&mut net, &plan);
                    assert!(net.graph().is_connected(), "Theorem 1 violated");
                }
            }
        }
    }

    #[test]
    fn propo_no_plan_when_everything_shared() {
        // u and v share all neighbors: nothing eligible.
        let net = net_from(&[(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)], 4);
        let walk = WalkPath { path: vec![Slot(0), Slot(1)] };
        assert_eq!(plan_propo(&net, &walk, 2), None);
    }

    #[test]
    fn propo_m_zero_is_no_plan() {
        let net = net_from(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        assert_eq!(plan_propo(&net, &walk, 0), None);
    }

    #[test]
    fn propo_offers_most_profitable_neighbors_first() {
        // Peers on a 10-line. u = slot 0 (peer 0), v = slot 5 (peer 5).
        // u's eligible neighbors: slots 7 (peer 7, far from u, close to v)
        // and 1 (peer 1, close to u). With m = 1, u must offer slot 7.
        let net =
            net_from(&[(0, 7), (0, 1), (5, 6), (5, 9), (0, 5), (1, 2), (6, 7), (8, 9), (2, 3)], 10);
        let walk = WalkPath { path: vec![Slot(0), Slot(5)] };
        let plan = plan_propo(&net, &walk, 1).expect("plan");
        if let PlanKind::Subset { from_u, .. } = &plan.kind {
            assert_eq!(from_u, &vec![Slot(7)], "u should give its farthest useful neighbor");
        } else {
            panic!("wrong kind");
        }
    }

    /// The PROP-G planner the one-pass `plan_propg` replaced, kept as its
    /// differential reference: both peers' neighbor latency sums now, and
    /// both as they would be after the swap, four sums over the two rows.
    fn plan_propg_reference(net: &OverlayNet, u: Slot, v: Slot) -> ExchangePlan {
        let oracle = net.oracle();
        let (pu, pv) = (net.peer(u), net.peer(v));
        let sum_now = |slot: Slot| -> u64 {
            net.graph().neighbors(slot).iter().map(|&i| net.d(slot, i) as u64).sum()
        };
        let sum_after = |slot: Slot, new_occupant, counterpart: Slot, counterpart_peer| -> u64 {
            net.graph()
                .neighbors(slot)
                .iter()
                .map(|&i| {
                    let other = if i == counterpart { counterpart_peer } else { net.peer(i) };
                    oracle.d(new_occupant, other) as u64
                })
                .sum()
        };
        let before = sum_now(u) + sum_now(v);
        let after = sum_after(u, pv, v, pu) + sum_after(v, pu, u, pv);
        ExchangePlan { u, v, var: before as i64 - after as i64, kind: PlanKind::SwapAll }
    }

    /// Differential twin for the one-pass PROP-G planner: on
    /// preferential-attachment overlays, half of them churned, every walk's
    /// two ends (adjacent pairs among them) and as many random pairs plan
    /// the same Var under both planners, and so does the pair reversed.
    /// Checked against dropping the counterpart skip, skipping the
    /// counterpart on one side only, and pricing a link from the wrong peer.
    #[test]
    fn one_pass_propg_matches_the_four_sum_reference() {
        use prop_netsim::{generate, TransitStubParams};
        use prop_overlay::gnutella::{Gnutella, GnutellaParams};
        let (mut cases, mut adjacent, mut gains) = (0, 0, 0);
        for overlay in 0..12u64 {
            let mut rng = SimRng::seed_from(0x35_0000 + overlay);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let n = 18 + 2 * overlay as usize;
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
            if overlay % 2 == 1 {
                for _ in 0..n / 2 {
                    let victim = net.graph().pick_live(&mut rng, None).unwrap();
                    let peer = net.peer(victim);
                    gn.leave(&mut net, victim, &mut rng);
                    gn.join(&mut net, peer, &mut rng);
                }
            }
            let g = net.graph();
            let live: Vec<Slot> = g.live_slots().collect();
            for w in 0..32 {
                let origin = *rng.pick(&live).unwrap();
                let first = *rng.pick(g.neighbors(origin)).unwrap();
                let walk = random_walk(g, origin, first, 1 + (w % 3) as u32, &mut rng);
                let far = *rng.pick(&live).unwrap();
                for (u, v) in [(origin, *walk.path.last().unwrap()), (origin, far)] {
                    if u == v {
                        continue;
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let want = plan_propg_reference(&net, a, b);
                        assert_eq!(
                            plan_propg(&net, a, b),
                            want,
                            "overlay {overlay}: ({a:?}, {b:?})"
                        );
                        gains += usize::from(want.var > 0);
                    }
                    adjacent += usize::from(g.has_edge(u, v));
                    cases += 1;
                }
            }
        }
        assert!(cases >= 600, "only {cases} pairs");
        assert!(adjacent >= 100 && gains >= 100, "{adjacent} adjacent, {gains} gainful");
    }

    /// The planner this module had before the merge pass and the stamps,
    /// kept as the differential reference: filter each row with a
    /// `has_edge` search per neighbor, sort every candidate, keep the first
    /// `m`.
    fn plan_propo_reference(net: &OverlayNet, walk: &WalkPath, m: usize) -> Option<ExchangePlan> {
        let (u, v, mut from_u_all, mut from_v_all) = eligible_reference(net, walk, m)?;
        let order = |p: &(i64, Slot), q: &(i64, Slot)| q.0.cmp(&p.0).then(p.1.cmp(&q.1));
        from_u_all.sort_by(order);
        from_v_all.sort_by(order);
        let k = m.min(from_u_all.len()).min(from_v_all.len());
        let var: i64 = from_u_all[..k].iter().map(|&(b, _)| b).sum::<i64>()
            + from_v_all[..k].iter().map(|&(b, _)| b).sum::<i64>();
        Some(ExchangePlan {
            u,
            v,
            var,
            kind: PlanKind::Subset {
                from_u: from_u_all[..k].iter().map(|&(_, x)| x).collect(),
                from_v: from_v_all[..k].iter().map(|&(_, x)| x).collect(),
            },
        })
    }

    /// `(benefit, neighbor)` per eligible neighbor of one side.
    type Offers = Vec<(i64, Slot)>;

    /// Each end's eligible neighbors with their benefits, in row (ascending
    /// slot) order, by the filter: not the other end, not on the path, not
    /// already the other end's neighbor. `None` where there is no plan.
    fn eligible_reference(
        net: &OverlayNet,
        walk: &WalkPath,
        m: usize,
    ) -> Option<(Slot, Slot, Offers, Offers)> {
        let u = *walk.path.first()?;
        let v = *walk.path.last()?;
        if u == v || m == 0 {
            return None;
        }
        let g = net.graph();
        let eligible = |a: Slot, b: Slot| -> Offers {
            g.neighbors(a)
                .iter()
                .copied()
                .filter(|&x| x != b && !walk.contains(x) && !g.has_edge(b, x))
                .map(|x| (net.d(a, x) as i64 - net.d(b, x) as i64, x))
                .collect()
        };
        let (from_u_all, from_v_all) = (eligible(u, v), eligible(v, u));
        (m.min(from_u_all.len()).min(from_v_all.len()) > 0)
            .then_some((u, v, from_u_all, from_v_all))
    }

    /// A5's random pick over the filtered lists, in the order the filter
    /// yields them: what `plan_propo_random` must draw, pick for pick.
    fn plan_propo_random_reference(
        net: &OverlayNet,
        walk: &WalkPath,
        m: usize,
        rng: &mut SimRng,
    ) -> Option<ExchangePlan> {
        let (u, v, eu, ev) = eligible_reference(net, walk, m)?;
        let k = m.min(eu.len()).min(ev.len());
        let (pu, pv) = (rng.sample_distinct(&eu, k), rng.sample_distinct(&ev, k));
        let var = pu.iter().chain(&pv).map(|&(b, _)| b).sum();
        let slots = |picked: Vec<(i64, Slot)>| picked.into_iter().map(|(_, x)| x).collect();
        Some(ExchangePlan {
            u,
            v,
            var,
            kind: PlanKind::Subset { from_u: slots(pu), from_v: slots(pv) },
        })
    }

    /// Differential twin for the stamp planner + top-`m` selection: on
    /// preferential-attachment overlays, half of them churned, every walk
    /// (hub origins, adjacent `u`–`v`, shared neighbors, path nodes among
    /// the neighbors) plans identically under both planners for every `m`
    /// from 1 past δ(G) to "more than anyone has", through one scratch
    /// reused across all of them, and A5's random pick draws what the
    /// filter-order reference draws from the same stream. Each overlay
    /// starts the scratch's marks a plan or three short of their wrap,
    /// every slot stamped with an epoch the restart reuses, so every
    /// overlay plans across a restart that must clear those stamps.
    /// Checked against the mutations DESIGN §8 lists for the stamps and,
    /// before them, for the merge pass: treating a shared neighbor as
    /// exclusive, dropping the tail of either row, offering path nodes
    /// (all of them, or all but the origin), never inserting a later offer
    /// into the best prefix, inserting it without moving it up, leaving
    /// the first `m` unsorted, breaking ties by higher slot, and not
    /// clearing the scratch between plans.
    #[test]
    fn stamp_planner_matches_the_filter_and_sort_reference() {
        use prop_netsim::{generate, TransitStubParams};
        use prop_overlay::gnutella::{Gnutella, GnutellaParams};
        const OVERLAYS: u64 = 12;
        const WALKS: usize = 32;

        let mut scratch = PlanScratch::default();
        let mut case = 0usize;
        // What the cases covered, so a generator that stops reaching a
        // shape fails here instead of passing vacuously.
        let (mut plans, mut none, mut adjacent, mut shared, mut capped, mut ties, mut wraps) =
            (0, 0, 0, 0, 0, 0, 0);
        for overlay in 0..OVERLAYS {
            let mut rng = SimRng::seed_from(0x21_0000 + overlay);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let n = 18 + 2 * overlay as usize;
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
            if overlay % 2 == 1 {
                // Post-churn: holes in the slot table, cycle-patched rows.
                for _ in 0..n / 2 {
                    let victim = net.graph().pick_live(&mut rng, None).unwrap();
                    let peer = net.peer(victim);
                    gn.leave(&mut net, victim, &mut rng);
                    gn.join(&mut net, peer, &mut rng);
                }
            }
            let g = net.graph();
            // One to three plans short of the wrap, so the restart falls
            // while most slots still carry the stamps it must clear.
            let short = 3 * (overlay % 3) as u16;
            scratch.marks = SlotMarks::worn(g.num_slots(), u16::MAX - 1 - short);
            let mut by_degree: Vec<Slot> = g.live_slots().collect();
            by_degree.sort_by_key(|&s| std::cmp::Reverse(g.degree(s)));
            let delta = g.min_degree().unwrap();
            for w in 0..WALKS {
                // Every other walk starts at one of the four biggest hubs.
                let origin =
                    if w % 2 == 0 { by_degree[w / 2 % 4] } else { *rng.pick(&by_degree).unwrap() };
                let first = *rng.pick(g.neighbors(origin)).unwrap();
                let nhops = 1 + (w % 3) as u32; // 1 hop: u and v adjacent
                let walk = random_walk(g, origin, first, nhops, &mut rng);
                let (u, v) = (walk.path[0], *walk.path.last().unwrap());
                adjacent += g.has_edge(u, v) as usize;
                shared += g.neighbors(u).iter().any(|&x| g.has_edge(v, x)) as usize;
                for m in (1..=delta + 2).chain([g.degree(u) + g.degree(v)]) {
                    let want = plan_propo_reference(&net, &walk, m);
                    let policy = Policy::PropO { m: Some(m) };
                    let epoch = scratch.marks.epoch();
                    let got = plan_exchange_into(&net, policy, &walk, 1, &mut scratch).cloned();
                    wraps += (scratch.marks.epoch() < epoch) as usize;
                    let at = format!("case {case}: overlay {overlay}, walk {:?}, m {m}", walk.path);
                    assert_eq!(got, want, "{at}");
                    assert_eq!(plan_propo(&net, &walk, m), want, "{at} (the thread's scratch)");
                    let mut r1 = rng.fork_indexed("pick", case as u64);
                    let mut r2 = r1.clone();
                    assert_eq!(
                        plan_propo_random(&net, &walk, m, &mut r1),
                        plan_propo_random_reference(&net, &walk, m, &mut r2),
                        "{at} (random pick)"
                    );
                    assert_eq!(r1.range(0..u64::MAX), r2.range(0..u64::MAX), "{at}: streams");
                    match &want {
                        Some(ExchangePlan { kind: PlanKind::Subset { from_u, .. }, .. }) => {
                            plans += 1;
                            capped += (from_u.len() < m) as usize;
                            let benefit = |x: Slot| net.d(u, x) as i64 - net.d(v, x) as i64;
                            ties +=
                                from_u.windows(2).any(|p| benefit(p[0]) == benefit(p[1])) as usize;
                        }
                        _ => none += 1,
                    }
                    case += 1;
                }
            }
        }
        assert!(case >= 256, "only {case} cases");
        for (what, hits) in [
            ("plans", plans),
            ("no plan", none),
            ("adjacent u-v", adjacent),
            ("shared neighbors", shared),
            ("m > eligible", capped),
            ("tied benefits", ties),
        ] {
            assert!(hits >= 8, "{what} reached only {hits} times in {case} cases");
        }
        assert_eq!(wraps, OVERLAYS as usize, "one restart of the marks per overlay");
    }

    #[test]
    fn random_propo_var_is_exact_and_degree_preserving() {
        let mut rng = SimRng::seed_from(5);
        let mut net = net_from(
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (1, 5)],
            8,
        );
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        let degseq = net.graph().degree_sequence();
        let plan = plan_propo_random(&net, &walk, 2, &mut rng).expect("plan");
        let before = net.total_link_latency() as i64;
        apply(&mut net, &plan);
        assert_eq!(before - net.total_link_latency() as i64, plan.var);
        assert_eq!(net.graph().degree_sequence(), degseq);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn random_propo_never_beats_greedy_var() {
        // The greedy pick maximizes Var over the same eligible sets, so for
        // the same m its Var is an upper bound on any random pick's.
        let mut rng = SimRng::seed_from(6);
        let net = net_from(
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 4),
                (1, 5),
                (2, 6),
            ],
            8,
        );
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        let greedy = plan_propo(&net, &walk, 1).expect("greedy plan");
        for _ in 0..20 {
            let random = plan_propo_random(&net, &walk, 1, &mut rng).expect("random plan");
            assert!(random.var <= greedy.var, "random {} > greedy {}", random.var, greedy.var);
        }
    }

    #[test]
    fn decide_is_plain_comparison_on_exact_tiers() {
        // Every tier is exact, so decide must equal `var > min_var` for any
        // threshold, including the extreme i64 values the drivers' tests use.
        let net = net_from(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let plan = plan_propg(&net, Slot(0), Slot(2));
        for min_var in [i64::MIN, -1, 0, 1, plan.var, i64::MAX] {
            assert_eq!(decide(&net, &plan, min_var), plan.var > min_var, "min_var {min_var}");
        }
    }

    #[test]
    fn plan_exchange_dispatches_on_policy() {
        let net = net_from(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4);
        let walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(2)] };
        let g = plan_exchange(&net, Policy::PropG, &walk, 1).unwrap();
        assert_eq!(g.kind, PlanKind::SwapAll);
        assert_eq!((g.u, g.v), (Slot(0), Slot(2)));
        let o = plan_exchange(&net, Policy::PropO { m: Some(1) }, &walk, 9);
        if let Some(p) = o {
            assert!(matches!(p.kind, PlanKind::Subset { .. }));
        }
    }

    #[test]
    fn degenerate_walks_yield_no_plan() {
        let net = net_from(&[(0, 1), (1, 2)], 3);
        let self_walk = WalkPath { path: vec![Slot(0)] };
        assert!(plan_exchange(&net, Policy::PropG, &self_walk, 1).is_none());
        let loop_walk = WalkPath { path: vec![Slot(0), Slot(1), Slot(0)] };
        // path ends where it started: u == v
        assert!(plan_exchange(&net, Policy::PropG, &loop_walk, 1).is_none());
    }
}
