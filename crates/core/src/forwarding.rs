//! Object custody and forwarding pointers under PROP-G (§3.2/§4.2).
//!
//! In a DHT, an object lives at the node owning its key. When PROP-G swaps
//! two identifiers, the *keys* follow the identifiers but the *objects*
//! stay on the physical peers ("Peer i … tries to retrieve an object
//! stored at v, it takes it two hops instead of one now"): each exchange
//! partner caches its counterpart's address, so a lookup that terminates
//! at the key's current owner is redirected one extra (direct) hop to the
//! peer actually holding the bits.
//!
//! [`ObjectStore`] models this: it remembers which *peer* held each key at
//! store time. A lookup routes to the key's owner slot as usual; if the
//! occupant changed since the store, the lookup pays one redirect hop
//! `d(current occupant, holder)` — the cached pointer is a direct address,
//! so the chain never exceeds one hop regardless of how many swaps
//! happened in between.
//!
//! The cached pointer covers "lookups in progress during peer-exchange" —
//! it is *transient*. For steady state the key's objects migrate to the
//! identifier's new owner ([`ObjectStore::migrate`]), exactly as a DHT
//! join/leave hands keys over. The tests quantify why that matters: after
//! a *single* exchange the paper's §4.2 claim holds even with pointers
//! (only two slots are displaced), but if pointers were left permanent
//! across a whole optimization run, accumulated displacement would make
//! redirects dominate and cancel the routing gains — measured and recorded
//! in EXPERIMENTS.md. Migration restores the full improvement at a
//! one-time transfer cost per exchange.

use prop_netsim::oracle::MemberIdx;
use prop_overlay::{Lookup, OverlayNet, RouteOutcome, Slot};

/// Which peer held each stored object (indexed by the owner slot at store
/// time — one representative object per slot keeps the model small while
/// exercising every redirect case).
#[derive(Clone, Debug)]
pub struct ObjectStore {
    /// `holder[slot] = peer` that held the object whose key is owned by
    /// `slot` when the store happened.
    holder: Vec<MemberIdx>,
}

impl ObjectStore {
    /// Snapshot custody: every slot's current occupant becomes the holder
    /// of that slot's representative object.
    pub fn snapshot(net: &OverlayNet) -> Self {
        let holder = (0..net.graph().num_slots())
            .map(|i| {
                let s = Slot(i as u32);
                if net.graph().is_alive(s) {
                    net.peer(s)
                } else {
                    usize::MAX
                }
            })
            .collect();
        ObjectStore { holder }
    }

    /// The peer holding the object whose key is owned by `owner_slot`.
    fn holder_of(&self, owner_slot: Slot) -> MemberIdx {
        self.holder[owner_slot.index()]
    }

    /// Look up the object stored under `dst_slot`'s key, starting from
    /// `src`: route with the overlay's own discipline, then follow the
    /// forwarding pointer if the occupant changed since the store.
    ///
    /// Returns the total outcome plus whether a redirect hop was needed.
    pub fn lookup_object(
        &self,
        overlay: &impl Lookup,
        net: &OverlayNet,
        src: Slot,
        dst_slot: Slot,
    ) -> Option<(RouteOutcome, bool)> {
        let routed = overlay.lookup(net, src, dst_slot)?;
        let occupant = net.peer(dst_slot);
        let holder = self.holder_of(dst_slot);
        if occupant == holder {
            return Some((routed, false));
        }
        // One cached-pointer hop: current occupant → actual holder.
        let redirect = net.oracle().d(occupant, holder) as u64;
        Some((
            RouteOutcome { latency_ms: routed.latency_ms + redirect, hops: routed.hops + 1 },
            true,
        ))
    }

    /// Custody migration: the objects under `owner_slot`'s key move to its
    /// current occupant (the post-exchange handover). Returns the transfer
    /// "cost" as the physical distance between old and new holder (a proxy
    /// for transfer time per unit of data), or 0 if nothing moved.
    pub fn migrate(&mut self, net: &OverlayNet, owner_slot: Slot) -> u32 {
        let occupant = net.peer(owner_slot);
        let old = self.holder[owner_slot.index()];
        if old == occupant || old == usize::MAX {
            return 0;
        }
        self.holder[owner_slot.index()] = occupant;
        net.oracle().d(old, occupant)
    }

    /// Migrate every displaced key; returns the summed transfer cost.
    pub fn migrate_all(&mut self, net: &OverlayNet) -> u64 {
        let mut total = 0u64;
        for i in 0..self.holder.len() {
            let s = Slot(i as u32);
            if net.graph().is_alive(s) {
                total += self.migrate(net, s) as u64;
            }
        }
        total
    }

    /// Fraction of slots whose occupant differs from the stored holder —
    /// the redirect probability for a uniform key workload.
    pub fn displacement_ratio(&self, net: &OverlayNet) -> f64 {
        let mut displaced = 0usize;
        let mut live = 0usize;
        for i in 0..self.holder.len() {
            let s = Slot(i as u32);
            if net.graph().is_alive(s) && self.holder[i] != usize::MAX {
                live += 1;
                if net.peer(s) != self.holder[i] {
                    displaced += 1;
                }
            }
        }
        if live == 0 {
            0.0
        } else {
            displaced as f64 / live as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PropConfig, ProtocolSim};
    use prop_engine::{Duration, SimRng};
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::chord::{Chord, ChordParams};
    use std::sync::Arc;

    /// `prop_workloads::LookupGen::uniform_pairs`, inlined to keep this
    /// crate's tests free of a dev-dependency cycle (workloads depends on
    /// prop-core for the traffic-plane contract). Same fork label and draw
    /// order, so the workload is unchanged.
    fn uniform_pairs(rng: &SimRng, live: &[Slot], count: usize) -> Vec<(Slot, Slot)> {
        let mut rng = rng.fork("lookup-gen");
        (0..count)
            .map(|_| {
                let src = *rng.pick(live).unwrap();
                loop {
                    let dst = *rng.pick(live).unwrap();
                    if dst != src {
                        return (src, dst);
                    }
                }
            })
            .collect()
    }

    fn chord_setup(n: usize, seed: u64) -> (Chord, prop_overlay::OverlayNet, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::ts_small(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (ch, net) = Chord::build(ChordParams::default(), oracle, &mut rng);
        (ch, net, rng)
    }

    #[test]
    fn no_redirect_before_any_exchange() {
        let (ch, net, _) = chord_setup(30, 1);
        let store = ObjectStore::snapshot(&net);
        assert_eq!(store.displacement_ratio(&net), 0.0);
        for a in 0..30u32 {
            for b in 0..30u32 {
                let (out, redirected) = store.lookup_object(&ch, &net, Slot(a), Slot(b)).unwrap();
                assert!(!redirected);
                assert_eq!(out, ch.lookup(&net, Slot(a), Slot(b)).unwrap());
            }
        }
    }

    #[test]
    fn swap_displaces_exactly_two_objects() {
        let (ch, mut net, _) = chord_setup(30, 2);
        let store = ObjectStore::snapshot(&net);
        net.swap_peers(Slot(3), Slot(17));
        assert!((store.displacement_ratio(&net) - 2.0 / 30.0).abs() < 1e-12);
        let (_, redirected) = store.lookup_object(&ch, &net, Slot(0), Slot(3)).unwrap();
        assert!(redirected, "object at a swapped slot needs one redirect hop");
        let (_, clean) = store.lookup_object(&ch, &net, Slot(0), Slot(5)).unwrap();
        assert!(!clean);
    }

    #[test]
    fn redirect_is_exactly_one_hop_even_after_many_swaps() {
        let (ch, mut net, mut rng) = chord_setup(30, 3);
        let store = ObjectStore::snapshot(&net);
        for _ in 0..50 {
            let a = Slot(rng.range(0..30u32));
            let b = Slot(rng.range(0..30u32));
            if a != b {
                net.swap_peers(a, b);
            }
        }
        for b in 0..30u32 {
            let base = ch.lookup(&net, Slot(1), Slot(b)).unwrap();
            let (out, redirected) = store.lookup_object(&ch, &net, Slot(1), Slot(b)).unwrap();
            if redirected {
                assert_eq!(out.hops, base.hops + 1, "cached pointer is direct: one hop max");
            } else {
                assert_eq!(out.hops, base.hops);
            }
        }
    }

    #[test]
    fn single_exchange_keeps_average_down_even_with_pointers() {
        // §4.2's per-exchange claim: after ONE accepted exchange, the mean
        // object-lookup latency over all sources and all keys drops even
        // though the two displaced keys pay a redirect.
        let (ch, mut net, _) = chord_setup(60, 4);
        let store = ObjectStore::snapshot(&net);
        let mean = |net: &prop_overlay::OverlayNet| -> f64 {
            let mut total = 0u64;
            let mut cnt = 0u64;
            for a in 0..60u32 {
                for b in 0..60u32 {
                    total += store.lookup_object(&ch, net, Slot(a), Slot(b)).unwrap().0.latency_ms;
                    cnt += 1;
                }
            }
            total as f64 / cnt as f64
        };
        let before = mean(&net);
        // Find a strongly beneficial swap and apply it.
        let mut best: Option<crate::exchange::ExchangePlan> = None;
        for a in 0..60u32 {
            for b in (a + 1)..60u32 {
                let plan = crate::exchange::plan_propg(&net, Slot(a), Slot(b));
                if best.as_ref().is_none_or(|p| plan.var > p.var) {
                    best = Some(plan);
                }
            }
        }
        let plan = best.unwrap();
        assert!(plan.var > 0, "some beneficial swap must exist in a random placement");
        crate::exchange::apply(&mut net, &plan);
        let after = mean(&net);
        assert!(
            after < before,
            "one exchange (redirects included) should lower the mean: {before:.1} → {after:.1}"
        );
    }

    #[test]
    fn permanent_pointers_accumulate_but_migration_restores_gains() {
        // The steady-state tradeoff this module exists to expose: a full
        // PROP-G run displaces most keys, so *permanent* pointers erode the
        // routing gains, while migrating custody keeps them.
        let (ch, net, rng) = chord_setup(120, 5);
        let mut store = ObjectStore::snapshot(&net);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = uniform_pairs(&rng, &live, 1200);

        let mean = |store: &ObjectStore, net: &prop_overlay::OverlayNet| -> f64 {
            let total: u64 = pairs
                .iter()
                .map(|&(a, b)| store.lookup_object(&ch, net, a, b).unwrap().0.latency_ms)
                .sum();
            total as f64 / pairs.len() as f64
        };

        let before = mean(&store, &net);
        let mut rng2 = SimRng::seed_from(99);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng2);
        sim.run_for(Duration::from_minutes(60));
        let net = sim.into_net();
        assert!(store.displacement_ratio(&net) > 0.3, "most of the ring should have moved");

        let with_pointers = mean(&store, &net);
        let transfer_cost = store.migrate_all(&net);
        assert!(transfer_cost > 0);
        assert_eq!(store.displacement_ratio(&net), 0.0);
        let with_migration = mean(&store, &net);

        assert!(
            with_migration < before,
            "after migration the full routing gain shows: {before:.1} → {with_migration:.1}"
        );
        assert!(
            with_migration < with_pointers,
            "migration must beat permanent pointers: {with_migration:.1} vs {with_pointers:.1}"
        );
    }
}
