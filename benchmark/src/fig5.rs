//! `fig5_flood` — the paper's Figure 5 pipeline at its largest size.
//!
//! `prop_experiments::fig5::run_curve` call for call: Gnutella overlay,
//! synchronous PROP-G, mean flooded-lookup latency over a fixed pair set
//! sampled every interval. The flood measurement (`metrics` + `overlay`)
//! does nearly all the work and the driver almost none, so a driver
//! optimisation must show no change here and a flood/CSR one must show here.

use crate::outcome::{Checks, FinalState, Fnv, Outcome};
use crate::substrate::Substrate;
use crate::trace::{Kind, Tracer};
use prop_core::{ProbeMode, PropConfig, ProtocolSim};
use prop_engine::Duration;
use prop_metrics::par_avg_lookup_latency;
use prop_netsim::{OracleConfig, TransitStubParams};
use prop_workloads::LookupGen;

pub struct Params {
    pub topo: TransitStubParams,
    pub n: usize,
    pub probe: ProbeMode,
    /// Names the simulation's RNG stream, as the figure's curve label does.
    pub label: String,
    pub horizon: Duration,
    pub sample_every: Duration,
    pub lookups: usize,
}

impl Params {
    pub fn bench() -> Self {
        let n = 1000;
        Params {
            topo: TransitStubParams::ts_large(),
            n,
            probe: ProbeMode::Walk { nhops: 2 },
            label: format!("n={n}, nhops=2"),
            horizon: Duration::from_minutes(120),
            sample_every: Duration::from_minutes(10),
            lookups: 600,
        }
    }

    /// Figure 5(a)'s `nhops = 2` curve as committed in `results/fig5a.json`.
    pub fn reference() -> Self {
        Params { lookups: 2000, ..Self::bench() }
    }
}

pub fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    tr.clock_start();
    let setup = tr.begin(Kind::Setup);
    let sub = Substrate::build(&p.topo, p.n, seed, &OracleConfig::default(), tr);
    let (gn, net) = sub.gnutella(&mut sub.rng("gnutella"), tr);
    let cfg = PropConfig::prop_g().with_probe(p.probe);
    let mut sim_rng = sub.rng(&format!("fig5-sim-{}", p.label));
    let mut sim = tr.span(Kind::SimNew, || ProtocolSim::new(net, cfg.clone(), &mut sim_rng));
    let live = sub.all_slots();
    let pairs = tr.span(Kind::PairGen, || {
        LookupGen::new(&sub.rng("fig5-lookups")).uniform_pairs(&live, p.lookups)
    });
    let degrees = sim.net().graph().degree_sequence();
    tr.end(setup);
    let setup = tr.clock_split();

    let open = tr.begin(Kind::Run);
    let mut checks = Checks::default();
    let mut quality = Vec::new();
    let mut lookups = 0u64;
    let mut elapsed = Duration::ZERO;
    loop {
        let s = tr.span(Kind::LookupLatency, || par_avg_lookup_latency(sim.net(), &gn, &pairs));
        quality.push(s.mean_ms);
        lookups += s.delivered + s.failed;
        checks.lookups(s.delivered, s.failed);
        let connected = tr.span(Kind::Connectivity, || sim.net().graph().is_connected());
        checks.expect(connected, "overlay connected at a sample (Theorem 1)");
        if elapsed >= p.horizon {
            break;
        }
        tr.span(Kind::Driver, || sim.run_for(p.sample_every));
        elapsed = elapsed + p.sample_every;
        tr.clock_tick();
    }
    let run = tr.clock_split();
    tr.end(open);

    let o = sim.overhead();
    let m_default = sim.m_default();
    let net = sim.into_net();
    let check = tr.begin(Kind::Check);
    checks.expect(
        net.graph().degree_sequence() == degrees,
        "degree multiset unchanged under PROP-G (Theorem 2)",
    );
    let mut h = Fnv::default();
    for x in [o.trials, o.exchanges, o.total_msgs()] {
        h.word(x);
    }
    h.net(&net);
    for &q in &quality {
        h.float(q);
    }
    tr.end(check);

    Outcome {
        setup,
        run,
        trials: o.trials,
        exchanges: o.exchanges,
        msgs: o.total_msgs(),
        lookups,
        quality,
        checks,
        digest: h.finish(),
        counters: Vec::new(),
        last: FinalState { net, policy: cfg.policy, m_default, variant: None },
    }
}
