//! # prop-overlay — P2P overlay substrates
//!
//! Every overlay in this workspace is factored into three pieces, which is
//! what lets one protocol implementation (PROP) drive overlays as different
//! as Gnutella and Chord:
//!
//! * [`LogicalGraph`] — the overlay's *logical* wiring: an undirected
//!   adjacency over abstract **slots** ([`Slot`]). For Gnutella the logical
//!   graph is the random peer graph itself; for Chord it is the union of
//!   successor/finger links implied by the identifier ring; for CAN it is
//!   zone adjacency.
//! * [`Placement`] — the bijection between slots and *peers* (physical
//!   hosts, indexed as in [`prop_netsim::LatencyOracle`]). A **PROP-G
//!   exchange is exactly a transposition of this bijection**: the logical
//!   graph is untouched (Theorem 2: the overlay stays isomorphic), only
//!   which host sits at which logical position changes. In a DHT this
//!   corresponds to the two nodes swapping identifiers.
//! * [`OverlayNet`] — glue: logical graph + placement + latency oracle +
//!   per-peer processing delays. Link latency of a logical edge `(a, b)` is
//!   `d(peer(a), peer(b))`; this is the quantity PROP minimizes.
//!
//! On top of the generic pieces sit the concrete systems the paper names:
//! [`gnutella`], [`chord`], [`can`], and [`pastry`], unified for
//! measurement purposes by the [`Lookup`] trait.

pub mod can;
pub mod chord;
pub mod gnutella;
pub mod iso;
pub mod kademlia;
pub mod logical;
pub mod net;
pub mod pastry;
pub mod placement;
pub mod table;
pub mod ultrapeer;
pub mod walk;

pub use logical::{LogicalGraph, Slot};
pub use net::{FloodScratch, OverlayNet};
pub use placement::Placement;
pub use walk::{WalkPath, WalkScratch};

/// A routed lookup's outcome: total latency in ms (links + per-hop
/// processing) and the number of overlay hops taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteOutcome {
    pub latency_ms: u64,
    pub hops: u32,
}

/// Uniform measurement interface over the three overlays: deliver a message
/// from the peer at `src` to the peer at `dst` using the overlay's own
/// routing discipline, and report what it cost.
///
/// `None` means the overlay failed to deliver (e.g. a Gnutella flood whose
/// TTL expired before reaching `dst`).
///
/// `Sync` is a supertrait so runs fanned out over threads
/// (`prop_engine::par::map`) can share one overlay; every overlay here is
/// plain data, so the bound costs nothing.
pub trait Lookup: Sync {
    /// Route from slot `src` to slot `dst` over `net`.
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome>;

    /// [`Lookup::lookup`] with caller-owned flood scratch. Flooding overlays
    /// override this to reuse the scratch's buffers across calls (the
    /// measurement-plane hot path: one scratch per worker, thousands of
    /// lookups each); routed overlays keep the default, which ignores the
    /// scratch. Must return exactly what `lookup` returns.
    fn lookup_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        _scratch: &mut FloodScratch,
    ) -> Option<RouteOutcome> {
        self.lookup(net, src, dst)
    }
}
