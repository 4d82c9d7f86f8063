//! `churn_storm` — a flash-crowd traffic script with faults, on the
//! asynchronous driver.
//!
//! The pump of `prop_experiments::traffic::drive`, with the same layer calls
//! in the same order (`run_until` to each event, `gn.leave` + `handle_leave`,
//! `gn.join` + `handle_join`, `par_path_stretch` per window). It uses the
//! layers `driver_sweep` uses, differently: graph *writes* (slot add/remove,
//! CSR patch log, δ(G) histogram, Fenwick index, timer resets) beside the
//! walks and floods that read them, plus `workloads::compile` and the
//! `faults` plane. A read-path gain that taxes mutation shows here.
//!
//! Three things differ from the library pump, all on the harness side (see
//! README "Library defects found while sizing"): pairs with a departed
//! endpoint are dropped before measurement, popularity ranks map to members
//! rather than to initial slots, and victim/source selection is O(1).

use crate::driver::Sim;
use crate::outcome::{Checks, FinalState, Fnv, Outcome};
use crate::substrate::Substrate;
use crate::trace::{Kind, Tracer};
use prop_core::{
    Delivery, FaultCounters, FaultPlane, MsgKind, PropConfig, TrafficEvent, TrafficPlane,
};
use prop_engine::{Duration, SimRng, SimTime};
use prop_faults::{transit_bisection, ComposedPlane, FaultScript};
use prop_metrics::{link_stretch, par_path_stretch};
use prop_netsim::oracle::MemberIdx;
use prop_netsim::{OracleConfig, TransitStubParams};
use prop_overlay::{OverlayNet, Slot};
use prop_workloads::TrafficScript;
use std::cell::Cell;
use std::rc::Rc;

pub struct Params {
    pub topo: TransitStubParams,
    pub n: usize,
    pub horizon: Duration,
    pub window: Duration,
    pub catalog: u32,
    /// Joins and leaves per minute per region.
    pub churn_per_min: f64,
    /// Scripted lookups per minute per region.
    pub lookups_per_min: f64,
}

impl Params {
    pub fn bench() -> Self {
        Params {
            topo: TransitStubParams::ts_large(),
            n: 1000,
            horizon: Duration::from_minutes(40),
            window: Duration::from_minutes(10),
            catalog: 500,
            churn_per_min: 30.0,
            lookups_per_min: 3.0,
        }
    }

    fn traffic(&self) -> TrafficScript {
        let h = self.horizon.as_millis();
        TrafficScript::preset_flash_crowd(
            h / 24,
            h,
            self.catalog,
            self.churn_per_min,
            self.lookups_per_min,
        )
    }

    fn faults(&self) -> FaultScript {
        let h = self.horizon.as_millis();
        FaultScript::new()
            .loss(0, 0.05)
            .duplicate(0, 0.02)
            .reorder(0, 0.05, 200)
            .partition(h / 3, h / 12)
    }
}

/// Counts the messages the driver submits for a ruling.
struct CountingPlane {
    inner: ComposedPlane,
    rulings: Rc<Cell<u64>>,
}

impl FaultPlane for CountingPlane {
    fn deliver(&mut self, now: SimTime, kind: MsgKind, from: usize, to: usize) -> Delivery {
        self.rulings.set(self.rulings.get() + 1);
        self.inner.deliver(now, kind, from, to)
    }

    fn is_up(&mut self, now: SimTime, peer: usize) -> bool {
        self.inner.is_up(now, peer)
    }

    fn link_extra_ms(&mut self, now: SimTime, a: usize, b: usize) -> u64 {
        self.inner.link_extra_ms(now, a, b)
    }

    fn counters(&mut self, now: SimTime) -> FaultCounters {
        self.inner.counters(now)
    }
}

/// Who is present, by home region, with O(1) insert, remove and uniform pick.
struct Population {
    domain_of: Vec<u16>,
    live: Vec<Vec<MemberIdx>>,
    /// A live member's index in its region's `live` list.
    pos: Vec<usize>,
    absent: Vec<Vec<MemberIdx>>,
}

impl Population {
    fn new(domain_of: Vec<u16>, domains: usize) -> Self {
        let mut live = vec![Vec::new(); domains];
        let mut pos = vec![0; domain_of.len()];
        for (m, &d) in domain_of.iter().enumerate() {
            pos[m] = live[d as usize].len();
            live[d as usize].push(m);
        }
        Population { domain_of, live, pos, absent: vec![Vec::new(); domains] }
    }

    fn leave(&mut self, m: MemberIdx) {
        let d = self.domain_of[m] as usize;
        let at = self.pos[m];
        let moved = *self.live[d].last().expect("a live member is listed");
        self.live[d].swap_remove(at);
        if moved != m {
            self.pos[moved] = at;
        }
        self.absent[d].push(m);
    }

    /// A departed member homed in `domain` if there is one, else from the
    /// next region that has any.
    fn rejoin(&mut self, domain: usize) -> Option<MemberIdx> {
        let k = self.absent.len();
        let d = (0..k).map(|i| (domain + i) % k).find(|&d| !self.absent[d].is_empty())?;
        let m = self.absent[d].pop()?;
        self.pos[m] = self.live[d].len();
        self.live[d].push(m);
        Some(m)
    }
}

/// A uniformly random live slot other than `not`, through the graph's
/// rank/select index.
fn any_live_except(net: &OverlayNet, not: Option<Slot>, rng: &mut SimRng) -> Option<Slot> {
    let g = net.graph();
    match not {
        None => g.live_slot_at_rank(rng.pick_rank(g.num_live())?),
        Some(x) => {
            let k = rng.pick_rank(g.num_live().saturating_sub(1))?;
            g.live_slot_at_rank(if k < g.live_rank(x) { k } else { k + 1 })
        }
    }
}

pub fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    tr.clock_start();
    let setup = tr.begin(Kind::Setup);
    let sub = Substrate::build(&p.topo, p.n, seed, &OracleConfig::default(), tr);
    let (gn, net) = sub.gnutella(&mut sub.rng("gnutella"), tr);
    let script = p.traffic();
    let mut plane = tr.span(Kind::TrafficCompile, || prop_workloads::compile(&script, seed));
    let rulings = Rc::new(Cell::new(0u64));
    let fault_plane = tr.span(Kind::FaultCompile, || {
        let sides = transit_bisection(&sub.phys, &sub.oracle);
        CountingPlane {
            inner: prop_faults::compile(&p.faults(), &sides, seed),
            rulings: Rc::clone(&rulings),
        }
    });
    let cfg = PropConfig::prop_o();
    let mut sim_rng = sub.rng("traffic-sim");
    let mut sim = tr.span(Kind::SimNew, || Sim::new(true, net, cfg.clone(), &mut sim_rng));
    sim.set_fault_plane(Box::new(fault_plane));

    let domains = sub.phys.num_transit_domains().clamp(1, u16::MAX as usize);
    let domain_of: Vec<u16> = (0..p.n)
        .map(|m| sub.phys.transit_domain_of(sub.oracle.host(m)).unwrap_or(0) % domains as u16)
        .collect();
    let mut pop = Population::new(domain_of, domains);
    // Popularity rank → the member holding that object, fixed for the run.
    let ranking: Vec<MemberIdx> = {
        let mut members: Vec<MemberIdx> = (0..p.n).collect();
        sub.rng("traffic-ranking").shuffle(&mut members);
        members
    };
    let mut churn_rng = sub.rng("traffic-churn");
    tr.end(setup);
    let setup = tr.clock_split();

    let open = tr.begin(Kind::Run);
    let mut checks = Checks::default();
    // Link stretch over every overlay edge: what PROP-O wins against what the
    // rejoining peers' random wiring loses. (The windows' scripted lookups
    // are measured too, but a few hundred pairs a window is too small a
    // sample to read a trend from.)
    let mut quality = vec![tr.span(Kind::LinkStretch, || link_stretch(sim.net()))];
    let mut path_stretch = Vec::new();
    let mut lookups = 0u64;
    let (mut joins, mut leaves, mut suppressed, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    let mut window_pairs: Vec<(Slot, Slot)> = Vec::new();
    let mut affected: Vec<Slot> = Vec::new();
    let mut t = SimTime::ZERO;
    while t.since(SimTime::ZERO) < p.horizon {
        let deadline = t + p.window;
        while let Some((et, ev)) = plane.next_event(deadline) {
            tr.clock_tick();
            tr.span(Kind::Driver, || sim.run_until(et));
            let glue = tr.begin(Kind::Glue);
            let domain = ev.domain() as usize % domains;
            match ev {
                TrafficEvent::Leave { .. } => {
                    if sim.net().graph().num_live() <= 8 {
                        suppressed += 1;
                        tr.end(glue);
                        continue;
                    }
                    let victim = match churn_rng.pick(&pop.live[domain]) {
                        Some(&m) => sim.net().placement().slot_of(m).expect("live member placed"),
                        None => any_live_except(sim.net(), None, &mut churn_rng)
                            .expect("more than 8 live"),
                    };
                    let member = sim.net().peer(victim);
                    affected.clear();
                    affected.extend_from_slice(sim.net().graph().neighbors(victim));
                    tr.end(glue);
                    tr.span(Kind::ChurnApply, || gn.leave(sim.net_mut(), victim, &mut churn_rng));
                    tr.span(Kind::ChurnHandle, || sim.handle_leave(victim, &affected));
                    pop.leave(member);
                    leaves += 1;
                }
                TrafficEvent::Join { .. } => {
                    let Some(member) = pop.rejoin(domain) else {
                        suppressed += 1;
                        tr.end(glue);
                        continue;
                    };
                    tr.end(glue);
                    let slot = tr
                        .span(Kind::ChurnApply, || gn.join(sim.net_mut(), member, &mut churn_rng));
                    tr.span(Kind::ChurnHandle, || sim.handle_join(slot));
                    joins += 1;
                }
                TrafficEvent::Lookup { rank, .. } => {
                    let holder = ranking[rank as usize % ranking.len()];
                    let src = sim.net().placement().slot_of(holder).and_then(|dst| {
                        let pool = &pop.live[domain];
                        let in_region = match pool.len() {
                            0 => None,
                            1 if pool[0] == holder => None,
                            _ => loop {
                                let m = *churn_rng.pick(pool).expect("non-empty pool");
                                if m != holder {
                                    break sim.net().placement().slot_of(m);
                                }
                            },
                        };
                        in_region
                            .or_else(|| any_live_except(sim.net(), Some(dst), &mut churn_rng))
                            .map(|src| (src, dst))
                    });
                    match src {
                        Some(pair) => window_pairs.push(pair),
                        None => suppressed += 1,
                    }
                    tr.end(glue);
                }
            }
        }
        tr.span(Kind::Driver, || sim.run_until(deadline));
        t = deadline;

        // A pair is recorded when its lookup is scripted and measured at the
        // window's end; an endpoint that left in between has no latency row.
        let glue = tr.begin(Kind::Glue);
        let before = window_pairs.len();
        let g = sim.net().graph();
        window_pairs.retain(|&(a, b)| g.is_alive(a) && g.is_alive(b));
        skipped += (before - window_pairs.len()) as u64;
        tr.end(glue);
        if !window_pairs.is_empty() {
            let s = tr.span(Kind::PathStretch, || par_path_stretch(sim.net(), &gn, &window_pairs));
            lookups += s.delivered + s.failed;
            checks.lookups(s.delivered, s.failed);
            if s.delivered > 0 {
                path_stretch.push(s.mean);
            }
            window_pairs.clear();
        }
        quality.push(tr.span(Kind::LinkStretch, || link_stretch(sim.net())));
        let connected = tr.span(Kind::Connectivity, || sim.net().graph().is_connected());
        checks.expect(connected, "overlay connected at a window's end (Theorem 1)");
        tr.clock_tick();
    }
    let run = tr.clock_split();
    tr.end(open);

    let pr = sim.progress();
    let faults = sim.fault_counters().unwrap_or_default();
    let m_default = sim.m_default();
    let emitted = plane.counters();
    let net = sim.into_net();
    let check = tr.begin(Kind::Check);
    checks.expect(net.placement().is_consistent(), "placement bijective after churn");
    let mut h = Fnv::default();
    for x in [pr.trials, pr.exchanges, joins, leaves, suppressed, skipped, rulings.get()] {
        h.word(x);
    }
    for x in [faults.drops, faults.dup_deliveries, faults.reorders, faults.partition_ms] {
        h.word(x);
    }
    h.net(&net);
    for &q in quality.iter().chain(&path_stretch) {
        h.float(q);
    }
    tr.end(check);

    let counters = vec![
        ("workloads.events".to_string(), emitted.total() as f64),
        ("workloads.churn_applied".to_string(), (joins + leaves) as f64),
        ("workloads.suppressed".to_string(), suppressed as f64),
        ("metrics.pairs_skipped".to_string(), skipped as f64),
        ("faults.rulings".to_string(), rulings.get() as f64),
        ("faults.drop_rate".to_string(), faults.drops as f64 / rulings.get().max(1) as f64),
    ];

    Outcome {
        setup,
        run,
        trials: pr.trials,
        exchanges: pr.exchanges,
        msgs: pr.msgs,
        lookups,
        quality,
        checks,
        digest: h.finish(),
        counters,
        last: FinalState { net, policy: cfg.policy, m_default, variant: None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_moves_members_between_live_and_absent() {
        let mut pop = Population::new(vec![0, 1, 0, 1, 0], 2);
        assert_eq!(pop.live[0], vec![0, 2, 4]);
        pop.leave(0);
        assert_eq!(pop.live[0], vec![4, 2]);
        assert_eq!(pop.pos[4], 0);
        pop.leave(2);
        pop.leave(4);
        assert!(pop.live[0].is_empty());
        // Region 1 has nobody absent: falls through to region 0.
        assert_eq!(pop.rejoin(1), Some(4));
        assert_eq!(pop.rejoin(0), Some(2));
        assert_eq!(pop.live[0], vec![4, 2]);
        assert_eq!(pop.pos[2], 1);
        assert_eq!(pop.rejoin(0), Some(0));
        assert_eq!(pop.rejoin(0), None);
    }
}
