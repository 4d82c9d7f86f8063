//! `driver_sweep` — what `sweep --seeds N` does to the drivers.
//!
//! One substrate, several seed-forked replicas of four driver/overlay
//! variants, no churn, no faults, quality sampled at start and end only.
//! `core` + the `engine` queue + `overlay` walks and exchanges dominate, the
//! oracle is O(1) dense reads and measurement is negligible — the opposite of
//! `fig5_flood`. It covers both drivers and both overlay families, so a
//! change to either driver or either adjacency has a workload that moves.

use crate::driver::Sim;
use crate::outcome::{Checks, FinalState, Fnv, Outcome};
use crate::substrate::Substrate;
use crate::trace::{Kind, Tracer};
use prop_core::{Policy, PropConfig};
use prop_engine::{Duration, SimTime};
use prop_metrics::{link_stretch, par_path_stretch};
use prop_netsim::{OracleConfig, TransitStubParams};
use prop_overlay::chord::Chord;
use prop_overlay::{OverlayNet, Slot};
use prop_workloads::LookupGen;

pub struct Params {
    pub topo: TransitStubParams,
    pub n: usize,
    pub replicas: usize,
    pub horizon: Duration,
    /// Chord path-stretch pairs per measurement.
    pub lookups: usize,
}

impl Params {
    pub fn bench() -> Self {
        Params {
            topo: TransitStubParams::ts_large(),
            n: 1000,
            replicas: 4,
            horizon: Duration::from_minutes(180),
            lookups: 2000,
        }
    }
}

#[derive(Clone, Copy)]
pub struct Variant {
    pub name: &'static str,
    chord: bool,
    policy: Policy,
    asynchronous: bool,
}

pub const VARIANTS: [Variant; 4] = [
    Variant { name: "chord_g", chord: true, policy: Policy::PropG, asynchronous: false },
    Variant { name: "gn_g", chord: false, policy: Policy::PropG, asynchronous: false },
    Variant { name: "gn_o", chord: false, policy: Policy::PropO { m: None }, asynchronous: false },
    Variant {
        name: "gn_o_async",
        chord: false,
        policy: Policy::PropO { m: None },
        asynchronous: true,
    },
];

struct Replica {
    /// Index into [`VARIANTS`].
    variant: usize,
    net: OverlayNet,
    /// Chord replicas measure path stretch over these pairs.
    chord: Option<(Chord, Vec<(Slot, Slot)>)>,
    index: usize,
}

fn slot_degrees(net: &OverlayNet) -> Vec<usize> {
    let g = net.graph();
    (0..g.num_slots() as u32).map(|i| g.degree(Slot(i))).collect()
}

pub fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    tr.clock_start();
    let setup = tr.begin(Kind::Setup);
    let sub = Substrate::build(&p.topo, p.n, seed, &OracleConfig::default(), tr);
    let live = sub.all_slots();
    let mut replicas = Vec::new();
    for k in 0..p.replicas {
        for (vi, variant) in VARIANTS.iter().enumerate() {
            let (net, chord) = if variant.chord {
                let (ch, net) = sub.chord(&mut sub.rng(&format!("sweep-chord-{k}")), tr);
                let pairs = tr.span(Kind::PairGen, || {
                    LookupGen::new(&sub.rng(&format!("sweep-lookups-{k}")))
                        .uniform_pairs(&live, p.lookups)
                });
                (net, Some((ch, pairs)))
            } else {
                // The three Gnutella variants of a replica start from the
                // same overlay: same label, same stream, same wiring.
                let (_, net) = sub.gnutella(&mut sub.rng(&format!("sweep-gnutella-{k}")), tr);
                (net, None)
            };
            replicas.push(Replica { variant: vi, net, chord, index: k });
        }
    }
    tr.end(setup);
    let setup = tr.clock_split();

    let open = tr.begin(Kind::Run);
    let mut checks = Checks::default();
    let mut h = Fnv::default();
    let mut ratio_sum = 0.0;
    let mut lookups = 0u64;
    let mut total = crate::driver::Progress::default();
    // Per variant: driver seconds, trials, exchanges, messages.
    let mut per_variant = [(0.0f64, 0u64, 0u64, 0u64); VARIANTS.len()];
    let mut last = None;
    let count = replicas.len();
    for r in replicas {
        let Replica { variant: vi, net, chord, index } = r;
        let variant = VARIANTS[vi];
        let cfg = PropConfig::paper_defaults(variant.policy);
        let mut sim_rng = sub.rng(&format!("sweep-sim-{index}-{}", variant.name));
        let mut sim = tr
            .span(Kind::SimNew, || Sim::new(variant.asynchronous, net, cfg.clone(), &mut sim_rng));
        let degrees = slot_degrees(sim.net());

        let mut measure = |sim: &Sim, tr: &mut Tracer, checks: &mut Checks| match &chord {
            Some((ch, pairs)) => {
                let s = tr.span(Kind::PathStretch, || par_path_stretch(sim.net(), ch, pairs));
                lookups += s.delivered + s.failed;
                checks.lookups(s.delivered, s.failed);
                s.mean
            }
            None => tr.span(Kind::LinkStretch, || link_stretch(sim.net())),
        };

        let before = measure(&sim, tr, &mut checks);
        let open = tr.begin(Kind::Driver);
        sim.run_until(SimTime::ZERO + p.horizon);
        let driver_s = tr.end(open);
        let after = measure(&sim, tr, &mut checks);
        ratio_sum += after / before;

        let connected = tr.span(Kind::Connectivity, || sim.net().graph().is_connected());
        checks.expect(connected, "overlay connected after the run (Theorem 1)");
        let pr = sim.progress();
        let m_default = sim.m_default();
        let net = sim.into_net();
        let check = tr.begin(Kind::Check);
        // PROP-G trades positions and leaves the logical graph alone;
        // PROP-O moves edges but every node keeps its degree (§3.2).
        checks.expect(
            slot_degrees(&net) == degrees,
            "per-node degrees unchanged on a churn-free run (Theorem 2 / §3.2)",
        );
        for x in [pr.trials, pr.exchanges, pr.msgs] {
            h.word(x);
        }
        h.net(&net);
        h.float(before);
        h.float(after);
        tr.end(check);

        let pv = &mut per_variant[vi];
        pv.0 += driver_s;
        pv.1 += pr.trials;
        pv.2 += pr.exchanges;
        pv.3 += pr.msgs;
        total.trials += pr.trials;
        total.exchanges += pr.exchanges;
        total.msgs += pr.msgs;
        // Probes price a PROP-O trial on a Gnutella overlay: the costlier plan.
        if variant.name == "gn_o" {
            last = Some(FinalState {
                net,
                policy: variant.policy,
                m_default,
                variant: Some(variant.name),
            });
        }
        tr.clock_tick();
    }
    let run = tr.clock_split();
    tr.end(open);

    let mut counters = Vec::new();
    for (v, pv) in VARIANTS.iter().zip(per_variant) {
        let (driver_s, trials, exchanges, msgs) = pv;
        counters.push((format!("core.ns_per_trial.{}", v.name), driver_s * 1e9 / trials as f64));
        counters.push((format!("core.exchange_rate.{}", v.name), exchanges as f64 / trials as f64));
        counters.push((format!("core.msgs_per_trial.{}", v.name), msgs as f64 / trials as f64));
    }

    Outcome {
        setup,
        run,
        trials: total.trials,
        exchanges: total.exchanges,
        msgs: total.msgs,
        lookups,
        // Link stretch (Gnutella) and path stretch (Chord) have different
        // scales, so the series is the mean end/start ratio over replicas.
        quality: vec![1.0, ratio_sum / count as f64],
        checks,
        digest: h.finish(),
        counters,
        last: last.expect("a gn_o replica ran"),
    }
}
