//! Ablations backing the paper's analytical and prose claims.
//!
//! * **A1 — overhead (§4.3)**: per-adjustment message cost is
//!   `nhop + 2c` for PROP-G vs `nhop + 2m` for PROP-O, and the probe rate
//!   decays after warm-up thanks to the Markov timer.
//! * **A2 — dynamics (§5 text)**: under Poisson churn the probe rate spikes
//!   (timers reset) and then recovers; the overlay stays connected and the
//!   stretch stays bounded.
//! * **A3 — combining (§1/§6)**: PROP-G stacks with PNS/PRS-Chord,
//!   PNS-Pastry, and PIS-CAN ("combining it with other recent methods …
//!   further improve\[s\]" the overall performance).
//! * **A4 — selfish strawman (§3.1)**: uncooperative nearest-neighbor
//!   rewiring is worse for system-wide average latency than cooperative
//!   peer-exchange.
//! * **A5 — selection strategy (§3.1)**: greedy most-profitable neighbor
//!   offers vs random eligible ones.
//! * **A6 — warm-up length (§3.2)**: the "MAX_INIT_TRIAL < 10" knee.
//! * **A7 — physical-model robustness**: transit–stub vs flat Waxman.
//! * **A8 — object custody (§3.2/§4.2)**: forwarding pointers vs key
//!   migration after identifier swaps.
//! * **A9 — MIN_VAR sensitivity (§4.2)**.
//! * **A10 — LTM connection-cap sensitivity** (the reproduction's knob).
//! * **A11 — Zipf popularity workload** (the mechanistic Fig. 7).
//! * **A12 — flooding message cost per query** (degree preservation as
//!   bandwidth economics).

use crate::fig7::{hetero_gnutella, to_slot_pairs};
use crate::setup::{msgs_per_trial, Scale, Scenario, Scheme};
use prop_baselines::pis::build_pis_can;
use prop_baselines::pns::{build_pns_chord, build_pns_pastry};
use prop_baselines::{PrsChord, Rewiring};
use prop_core::analysis::{propg_msgs_per_step, propo_msgs_per_step};
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::{json_impl, Duration, SimRng, SimTime};
use prop_metrics::degree::degree_summary;
use prop_metrics::{
    avg_lookup_latency, link_stretch, mean_flood_messages, path_stretch, TimeSeries,
};
use prop_overlay::can::Can;
use prop_overlay::chord::ChordParams;
use prop_overlay::pastry::Pastry;
use prop_overlay::{Lookup, OverlayNet, Slot};
use prop_workloads::churn::{ChurnOp, ChurnReplay, ChurnTrace};
use prop_workloads::{hetero, LookupGen, PopularityProcess};
use std::sync::Arc;

// ---------------------------------------------------------------- A1 ----

/// One scheme's cost line in the A1 report.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    pub label: String,
    pub trials: u64,
    pub exchanges: u64,
    pub total_msgs: u64,
    pub msgs_per_trial: f64,
    /// The §4.3 closed-form prediction for this scheme (`nhop + 2c` or
    /// `nhop + 2m`).
    pub predicted_msgs_per_trial: f64,
}

json_impl!(ToJson for struct OverheadRow {
    label, trials, exchanges, total_msgs, msgs_per_trial, predicted_msgs_per_trial
});

/// A1 output: cost rows plus the probe-rate decay series for PROP-G.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    pub rows: Vec<OverheadRow>,
    /// Probe trials per minute, per sampling window.
    pub probe_rate: TimeSeries,
}

json_impl!(ToJson for struct OverheadReport { rows, probe_rate });

/// A1: measure message overhead per adjustment for PROP-G vs PROP-O.
pub fn overhead(scale: Scale, seed: u64) -> OverheadReport {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let nhops = 2; // the walk length both `PropConfig` presets below use
    let mut rows = Vec::new();
    let mut probe_rate = TimeSeries::new("PROP-G probe rate (trials/min)");

    for (label, cfg) in [
        ("PROP-G".to_string(), PropConfig::prop_g()),
        ("PROP-O (m=δ(G))".to_string(), PropConfig::prop_o()),
    ] {
        let (_, net) = scenario.gnutella();
        let c = net.graph().mean_degree();
        let mut rng = scenario.rng(&format!("a1-{label}"));
        let mut sim = ProtocolSim::new(net, cfg.clone(), &mut rng);
        let is_prop_g = label.starts_with("PROP-G");
        let m = sim.m_default();

        let step = scale.sample_every();
        let mins = step.as_millis() as f64 / 60_000.0;
        let mut last = sim.overhead();
        while sim.now() < SimTime::ZERO + scale.horizon() {
            sim.run_for(step);
            if is_prop_g {
                let window = sim.overhead().since(&last);
                probe_rate.push(sim.now(), window.trials as f64 / mins);
                last = sim.overhead();
            }
        }

        let o = sim.overhead();
        let predicted =
            if is_prop_g { propg_msgs_per_step(nhops, c) } else { propo_msgs_per_step(nhops, m) };
        rows.push(OverheadRow {
            label,
            trials: o.trials,
            exchanges: o.exchanges,
            total_msgs: o.total_msgs(),
            msgs_per_trial: msgs_per_trial(&o),
            predicted_msgs_per_trial: predicted,
        });
    }
    OverheadReport { rows, probe_rate }
}

// ---------------------------------------------------------------- A2 ----

/// A2 output: stretch and probe-rate series across a churn episode.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    pub stretch: TimeSeries,
    pub probe_rate: TimeSeries,
    /// (churn start, churn end) in minutes, for plotting.
    pub churn_window: (f64, f64),
    pub leaves: u64,
    pub joins: u64,
    pub always_connected: bool,
}

json_impl!(ToJson for struct ChurnReport {
    stretch, probe_rate, churn_window, leaves, joins, always_connected
});

/// A2: run PROP-O on Gnutella with a Poisson churn episode mid-run.
pub fn churn(scale: Scale, seed: u64) -> ChurnReport {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let (gn, net) = scenario.gnutella();
    let mut rng = scenario.rng("a2-sim");
    let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    let mut churn_rng = scenario.rng("a2-churn");

    let horizon = scale.horizon();
    let churn_start = SimTime::ZERO + Duration(horizon.as_millis() / 3);
    let churn_len = Duration(horizon.as_millis() / 3);
    // Rate: ~4% of the population churning per minute at Quick scale,
    // ~1% at Paper scale (enough to visibly perturb timers).
    let rate = scale.default_n() as f64 / 100.0;
    let trace = ChurnTrace::poisson(churn_start, churn_len, rate, rate, &mut churn_rng);

    let mut stretch = TimeSeries::new("link stretch under churn");
    let mut probe_rate = TimeSeries::new("probe rate (trials/min)");
    let mut replay = ChurnReplay::new(&trace);
    let mut leaves = 0u64;
    let mut joins = 0u64;
    let mut always_connected = true;

    let step = scale.sample_every();
    let mins = step.as_millis() as f64 / 60_000.0;
    let mut last_overhead = sim.overhead();
    stretch.push(sim.now(), link_stretch(sim.net()));
    while sim.now() < SimTime::ZERO + horizon {
        let deadline = sim.now() + step;
        // Interleave churn events with protocol execution.
        replay.play_until(deadline, &mut sim, &gn, &mut churn_rng, 8, |sim, _, op| {
            match op {
                ChurnOp::Leave => leaves += 1,
                ChurnOp::Join => joins += 1,
            }
            always_connected &= sim.net().graph().is_connected();
        });
        sim.run_until(deadline);
        stretch.push(sim.now(), link_stretch(sim.net()));
        let window = sim.overhead().since(&last_overhead);
        last_overhead = sim.overhead();
        probe_rate.push(sim.now(), window.trials as f64 / mins);
        always_connected &= sim.net().graph().is_connected();
    }

    ChurnReport {
        stretch,
        probe_rate,
        churn_window: (churn_start.as_minutes_f64(), (churn_start + churn_len).as_minutes_f64()),
        leaves,
        joins,
        always_connected,
    }
}

// ---------------------------------------------------------------- A3 ----

/// A3 output: stretch of each stacked configuration.
#[derive(Clone, Debug)]
pub struct CombineRow {
    pub label: String,
    pub stretch_initial: f64,
    pub stretch_final: f64,
}

json_impl!(ToJson for struct CombineRow { label, stretch_initial, stretch_final });

/// A3: PROP-G layered on each DHT and on its proximity-aware variants.
pub fn combine(scale: Scale, seed: u64) -> Vec<CombineRow> {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let pairs = LookupGen::new(&scenario.rng("a3-lookups"))
        .uniform_pairs(&scenario.all_slots(), scale.lookups_per_sample());
    let oracle = || Arc::clone(&scenario.oracle);
    let mut a3 = Combine { scenario: &scenario, scale, pairs: &pairs, rows: Vec::new() };

    let (chord, net) = scenario.chord();
    a3.family("Chord", &chord, net);
    let (pns, net) = build_pns_chord(ChordParams::default(), oracle(), &mut scenario.rng("a3-pns"));
    a3.family("PNS-Chord", &pns, net);
    // PRS is a lookup-time policy over the same Chord; PROP-G stacks too.
    let (chord, net) = scenario.chord();
    a3.family("PRS-Chord", &PrsChord::new(chord), net);

    // Pastry family (PROP-G's generality: a third DHT geometry).
    let (pastry, net) = Pastry::build(oracle(), &mut scenario.rng("a3-pastry"));
    a3.family("Pastry", &pastry, net);
    let (pns, net) = build_pns_pastry(oracle(), &mut scenario.rng("a3-pns-pastry"));
    a3.family("PNS-Pastry", &pns, net);

    let (can, net) = Can::build(oracle(), &mut scenario.rng("a3-can"));
    a3.family("CAN", &can, net);
    let (pis, net) = build_pis_can(oracle(), &mut scenario.rng("a3-pis"));
    a3.family("PIS-CAN", &pis, net);

    a3.rows
}

struct Combine<'a> {
    scenario: &'a Scenario,
    scale: Scale,
    pairs: &'a [(Slot, Slot)],
    rows: Vec<CombineRow>,
}

impl Combine<'_> {
    /// One family: the base overlay's row, then PROP-G stacked on it.
    fn family(&mut self, label: &str, overlay: &impl Lookup, net: OverlayNet) {
        let initial = path_stretch(&net, overlay, self.pairs).mean;
        self.rows.push(CombineRow {
            label: label.into(),
            stretch_initial: initial,
            stretch_final: initial,
        });
        let stacked = format!("{label} + PROP-G");
        let rng_label = format!("a3-sim-{stacked}");
        let net = Scheme::PropG.optimize(self.scenario, net, &rng_label, self.scale.horizon());
        let stretch_final = path_stretch(&net, overlay, self.pairs).mean;
        self.rows.push(CombineRow { label: stacked, stretch_initial: initial, stretch_final });
    }
}

// ---------------------------------------------------------------- A5 ----

/// A5 output: greedy vs random PROP-O neighbor selection.
#[derive(Clone, Debug)]
pub struct SelectionRow {
    pub label: String,
    /// Total link latency after the same number of accepted exchanges.
    pub total_link_latency_final: u64,
    pub exchanges: u64,
    pub trials: u64,
}

json_impl!(ToJson for struct SelectionRow { label, total_link_latency_final, exchanges, trials });

/// A5: the §3.1 "selectively choose neighbors" decision. Both variants run
/// the same number of probe trials with identical walks; greedy offers the
/// most profitable eligible neighbors, random offers arbitrary ones.
pub fn selection_strategy(scale: Scale, seed: u64) -> Vec<SelectionRow> {
    use prop_core::exchange::{self};
    use prop_overlay::walk::random_walk;

    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let n = scale.default_n();
    let trials = match scale {
        Scale::Paper => 40_000,
        Scale::Quick => 6_000,
    };

    let mut rows = Vec::new();
    for greedy in [true, false] {
        let (_, mut net) = scenario.gnutella();
        let m = net.graph().min_degree().unwrap_or(1);
        let mut rng = scenario.rng("a5-walks"); // identical walk stream
        let mut pick_rng = scenario.rng("a5-pick");
        let mut exchanges = 0u64;
        for _ in 0..trials {
            let u = Slot(rng.range(0..n as u32));
            let nbrs = net.graph().neighbors(u).to_vec();
            let Some(&first) = rng.pick(&nbrs) else { continue };
            let walk = random_walk(net.graph(), u, first, 2, &mut rng);
            if walk.counterpart(2).is_none() {
                continue;
            }
            let plan = if greedy {
                exchange::plan_propo(&net, &walk, m)
            } else {
                exchange::plan_propo_random(&net, &walk, m, &mut pick_rng)
            };
            if let Some(plan) = plan {
                if plan.var > 0 {
                    exchange::apply(&mut net, &plan);
                    exchanges += 1;
                }
            }
        }
        rows.push(SelectionRow {
            label: if greedy { "greedy selection (PROP-O)" } else { "random selection" }.into(),
            total_link_latency_final: net.total_link_latency(),
            exchanges,
            trials: trials as u64,
        });
    }
    rows
}

// ---------------------------------------------------------------- A7 ----

/// A7 output: PROP-G robustness to the physical-network model.
#[derive(Clone, Debug)]
pub struct PhysicalModelRow {
    pub label: String,
    pub stretch_initial: f64,
    pub stretch_final: f64,
    pub improvement: f64,
}

json_impl!(ToJson for struct PhysicalModelRow {
    label, stretch_initial, stretch_final, improvement
});

/// A7: does PROP-G's benefit depend on the hierarchical transit–stub
/// structure? Re-run the Fig. 5-style optimization on a flat Waxman random
/// graph of comparable size.
pub fn physical_model(scale: Scale, seed: u64) -> Vec<PhysicalModelRow> {
    use prop_netsim::{generate_waxman, LatencyOracle, WaxmanParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};

    let n = scale.default_n();
    let row = |label: &str, net: OverlayNet, rng: &mut SimRng| {
        let initial = link_stretch(&net);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), rng);
        sim.run_for(scale.horizon());
        let fin = link_stretch(sim.net());
        PhysicalModelRow {
            label: label.to_string(),
            stretch_initial: initial,
            stretch_final: fin,
            improvement: (initial - fin) / initial,
        }
    };

    // Transit–stub reference.
    let scenario = Scenario::build(scale.topology(), n, seed);
    let ts = row(scenario.topology.label(), scenario.gnutella().1, &mut scenario.rng("a7-ts"));

    // Waxman: one stream from the seed through topology, membership, overlay
    // and protocol.
    let params = match scale {
        Scale::Paper => WaxmanParams::comparable_to_ts(),
        Scale::Quick => WaxmanParams { nodes: 400, ..WaxmanParams::comparable_to_ts() },
    };
    let mut rng = SimRng::seed_from(seed);
    let phys = generate_waxman(&params, &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
    let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    vec![ts, row("waxman", net, &mut rng)]
}

// ---------------------------------------------------------------- A8 ----

/// A8 output: object custody under PROP-G identifier swaps.
#[derive(Clone, Debug)]
pub struct CustodyReport {
    /// Mean object-lookup latency before optimization, ms.
    pub baseline_ms: f64,
    /// After optimization, with permanent forwarding pointers.
    pub pointers_ms: f64,
    /// After optimization, with custody migrated to the new ID owners.
    pub migrated_ms: f64,
    /// Fraction of keys displaced by the run.
    pub displacement: f64,
    /// Summed migration "distance" (ms-equivalents of transfer cost).
    pub migration_cost: u64,
}

json_impl!(ToJson for struct CustodyReport {
    baseline_ms, pointers_ms, migrated_ms, displacement, migration_cost
});

/// A8: the §3.2/§4.2 custody question. PROP-G swaps identifiers; keys
/// follow identifiers but stored objects sit on physical peers. Quantify
/// the three regimes on Chord: baseline, permanent redirect pointers, and
/// post-exchange custody migration.
pub fn custody(scale: Scale, seed: u64) -> CustodyReport {
    use prop_core::forwarding::ObjectStore;

    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let (chord, net) = scenario.chord();
    let mut store = ObjectStore::snapshot(&net);
    let live = scenario.all_slots();
    let pairs = LookupGen::new(&scenario.rng("a8-lookups"))
        .uniform_pairs(&live, scale.lookups_per_sample());

    let mean = |store: &ObjectStore, net: &OverlayNet| -> f64 {
        let total: u64 = pairs
            .iter()
            .map(|&(a, b)| store.lookup_object(&chord, net, a, b).unwrap().0.latency_ms)
            .sum();
        total as f64 / pairs.len() as f64
    };

    let baseline_ms = mean(&store, &net);
    let net = Scheme::PropG.optimize(&scenario, net, "a8-sim", scale.horizon());

    let displacement = store.displacement_ratio(&net);
    let pointers_ms = mean(&store, &net);
    let migration_cost = store.migrate_all(&net);
    let migrated_ms = mean(&store, &net);

    CustodyReport { baseline_ms, pointers_ms, migrated_ms, displacement, migration_cost }
}

// ---------------------------------------------------------------- A9 ----

/// A9 output: one row per exchange threshold.
#[derive(Clone, Debug)]
pub struct ThresholdRow {
    pub min_var: i64,
    pub stretch_final: f64,
    pub exchanges: u64,
    pub notify_msgs: u64,
}

json_impl!(ToJson for struct ThresholdRow { min_var, stretch_final, exchanges, notify_msgs });

/// A9: MIN_VAR sensitivity. §4.2 argues any `Var > 0` exchange helps, so
/// the paper sets `MIN_VAR = 0`; raising the bar trades fewer (cheaper)
/// exchanges for a worse final topology.
pub fn threshold_sweep(scale: Scale, seed: u64) -> Vec<ThresholdRow> {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    [0i64, 20, 100, 400, 1600]
        .into_iter()
        .map(|min_var| {
            let (_, net) = scenario.gnutella();
            let mut cfg = PropConfig::prop_g();
            cfg.min_var = min_var;
            let mut rng = scenario.rng(&format!("a9-{min_var}"));
            let mut sim = ProtocolSim::new(net, cfg, &mut rng);
            sim.run_for(scale.horizon());
            let o = sim.overhead();
            ThresholdRow {
                min_var,
                stretch_final: link_stretch(sim.net()),
                exchanges: o.exchanges,
                notify_msgs: o.notify_msgs,
            }
        })
        .collect()
}

// --------------------------------------------------------------- A10 ----

/// A10 output: one row per LTM connection cap.
#[derive(Clone, Debug)]
pub struct LtmCapRow {
    pub max_degree: usize,
    pub mean_degree_final: f64,
    pub mean_link_latency_final: f64,
    /// Mean lookup delay ratio at Fig. 7's two endpoints (fast-lookup
    /// fraction 0 and 1), normalized by the unoptimized overlay.
    pub ratio_frac0: f64,
    pub ratio_frac1: f64,
}

json_impl!(ToJson for struct LtmCapRow {
    max_degree, mean_degree_final, mean_link_latency_final, ratio_frac0, ratio_frac1
});

/// A10: sensitivity of the Fig. 7 LTM comparison to the client connection
/// cap — the one modeling knob this reproduction had to introduce (see
/// EXPERIMENTS.md). Reported so readers can judge the comparison's
/// robustness themselves.
pub fn ltm_cap_sweep(scale: Scale, seed: u64) -> Vec<LtmCapRow> {
    let n = scale.default_n();
    let scenario = Scenario::build(scale.topology(), n, seed);
    let assignment = hetero::hub_correlated(n);
    let is_fast = |s: Slot| assignment.is_fast[s.index()];

    let peer_slots = scenario.all_slots();
    let mut gen = LookupGen::new(&scenario.rng("a10-lookups"));
    let pairs0 = gen.skewed_pairs(&peer_slots, is_fast, 0.0, scale.lookups_per_sample());
    let pairs1 = gen.skewed_pairs(&peer_slots, is_fast, 1.0, scale.lookups_per_sample());

    // Unoptimized baseline. LTM rewires links and never relocates a peer, so
    // the peer-space pairs are slot pairs throughout.
    let (gn, net0) = hetero_gnutella(&scenario, &assignment);
    let base0 = avg_lookup_latency(&net0, &gn, &pairs0).mean_ms;
    let base1 = avg_lookup_latency(&net0, &gn, &pairs1).mean_ms;

    [8usize, 12, 16, 24, usize::MAX]
        .into_iter()
        .map(|cap| {
            let (_, net) = hetero_gnutella(&scenario, &assignment);
            let ltm = Scheme::Rewire(Rewiring::Ltm { max_degree: cap });
            let net = ltm.optimize(&scenario, net, &format!("a10-{cap}"), scale.horizon());
            LtmCapRow {
                max_degree: cap,
                mean_degree_final: net.graph().mean_degree(),
                mean_link_latency_final: net.mean_link_latency(),
                ratio_frac0: avg_lookup_latency(&net, &gn, &pairs0).mean_ms / base0,
                ratio_frac1: avg_lookup_latency(&net, &gn, &pairs1).mean_ms / base1,
            }
        })
        .collect()
}

// --------------------------------------------------------------- A11 ----

/// A11 output: one row per scheme under the Zipf workload.
#[derive(Clone, Debug)]
pub struct ZipfRow {
    pub label: String,
    /// Mean lookup delay under Zipf(α) popularity, normalized by the
    /// unoptimized overlay.
    pub ratio: f64,
}

json_impl!(ToJson for struct ZipfRow { label, ratio });

/// A11: the mechanistic version of Fig. 7's skew knob — object popularity
/// is Zipf(α = 0.9) with the popular objects held by the high-degree fast
/// hubs (popularity rank = join order). Compares the same three schemes
/// under the workload real file-sharing systems see.
pub fn zipf_workload(scale: Scale, seed: u64) -> Vec<ZipfRow> {
    let n = scale.default_n();
    let scenario = Scenario::build(scale.topology(), n, seed);
    let assignment = hetero::hub_correlated(n);

    // Popularity ranking = join order (peer 0 most popular): hubs hold the
    // hot objects.
    let live = scenario.all_slots();
    let popularity = PopularityProcess::constant(live.len() as u32, 0.9);
    let mut rng = scenario.rng("a11-workload").fork("zipf-pairs");
    let pairs = popularity.pairs_at(0, &live, &live, scale.lookups_per_sample(), &mut rng);

    let (gn, net0) = hetero_gnutella(&scenario, &assignment);
    let base = avg_lookup_latency(&net0, &gn, &pairs).mean_ms;

    COMPARED
        .into_iter()
        .map(|(label, scheme)| {
            let (_, net) = hetero_gnutella(&scenario, &assignment);
            let net = scheme.optimize(&scenario, net, &format!("a11-{label}"), scale.horizon());
            // Destinations follow the *peer* (PROP-G relocates peers).
            let mean = avg_lookup_latency(&net, &gn, &to_slot_pairs(&net, &pairs)).mean_ms;
            ZipfRow { label: label.to_string(), ratio: mean / base }
        })
        .collect()
}

/// The three schemes A11 and A12 set side by side, under their row labels.
const COMPARED: [(&str, Scheme); 3] = [
    ("PROP-O", Scheme::PropO { m: None }),
    ("PROP-G", Scheme::PropG),
    ("LTM", Scheme::Rewire(Rewiring::LTM)),
];

// --------------------------------------------------------------- A12 ----

/// A12 output: per-query flooding message cost before/after optimization.
#[derive(Clone, Debug)]
pub struct FloodCostRow {
    pub label: String,
    pub msgs_per_query_initial: f64,
    pub msgs_per_query_final: f64,
    pub mean_degree_final: f64,
}

json_impl!(ToJson for struct FloodCostRow {
    label, msgs_per_query_initial, msgs_per_query_final, mean_degree_final
});

/// A12: flooding economics. A Gnutella query is broadcast through the TTL
/// region, so per-query message cost tracks graph density. PROP preserves
/// it exactly; LTM's added links make every query more expensive.
pub fn flood_cost(scale: Scale, seed: u64) -> Vec<FloodCostRow> {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let sources: Vec<Slot> = scenario.all_slots().into_iter().step_by(7).collect();
    let ttl = 7;

    COMPARED
        .into_iter()
        .map(|(label, scheme)| {
            let (_, net) = scenario.gnutella();
            let initial = mean_flood_messages(&net, &sources, ttl);
            let net = scheme.optimize(&scenario, net, &format!("a12-{label}"), scale.horizon());
            FloodCostRow {
                label: label.to_string(),
                msgs_per_query_initial: initial,
                msgs_per_query_final: mean_flood_messages(&net, &sources, ttl),
                mean_degree_final: net.graph().mean_degree(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- A6 ----

/// A6 output: one row per warm-up length.
#[derive(Clone, Debug)]
pub struct WarmupRow {
    pub max_init_trial: u32,
    /// Stretch at the measurement horizon.
    pub stretch_final: f64,
    /// Probe trials spent getting there (the cost of a longer warm-up).
    pub trials: u64,
}

json_impl!(ToJson for struct WarmupRow { max_init_trial, stretch_final, trials });

/// A6: sweep `MAX_INIT_TRIAL`, backing the paper's "simulations … show
/// this number to be less than ten" — longer warm-ups buy little extra
/// stretch at a real probing cost.
pub fn warmup_sweep(scale: Scale, seed: u64) -> Vec<WarmupRow> {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    [2u32, 5, 10, 20, 40]
        .into_iter()
        .map(|w| {
            let (_, net) = scenario.gnutella();
            let mut cfg = PropConfig::prop_g();
            cfg.max_init_trial = w;
            let mut rng = scenario.rng(&format!("a6-{w}"));
            let mut sim = ProtocolSim::new(net, cfg, &mut rng);
            sim.run_for(scale.horizon());
            WarmupRow {
                max_init_trial: w,
                stretch_final: link_stretch(sim.net()),
                trials: sim.overhead().trials,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- A4 ----

/// A4 output: system-wide comparison of cooperative vs selfish rewiring.
#[derive(Clone, Debug)]
pub struct SelfishRow {
    pub label: String,
    /// System-wide mean logical link latency, ms.
    pub mean_link_latency_final: f64,
    /// Degree-distribution coefficient of variation drift (|after − before|).
    pub degree_cv_drift: f64,
}

json_impl!(ToJson for struct SelfishRow { label, mean_link_latency_final, degree_cv_drift });

/// A4: cooperative PROP-O vs selfish nearest-neighbor rewiring.
pub fn selfish_vs_prop(scale: Scale, seed: u64) -> Vec<SelfishRow> {
    let scenario = Scenario::build(scale.topology(), scale.default_n(), seed);
    let cv0 = degree_summary(scenario.gnutella().1.graph()).cv;
    [
        ("PROP-O (cooperative)", "a4-propo", Scheme::PropO { m: None }),
        ("selfish rewiring", "a4-selfish", Scheme::Rewire(Rewiring::Selfish)),
        ("LTM", "a4-ltm", Scheme::Rewire(Rewiring::LTM)),
    ]
    .into_iter()
    .map(|(label, rng_label, scheme)| {
        let (_, net) = scenario.gnutella();
        let net = scheme.optimize(&scenario, net, rng_label, scale.horizon());
        SelfishRow {
            label: label.into(),
            mean_link_latency_final: net.mean_link_latency(),
            degree_cv_drift: (degree_summary(net.graph()).cv - cv0).abs(),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_prop_o_is_cheaper_per_trial() {
        let r = overhead(Scale::Quick, 50);
        assert_eq!(r.rows.len(), 2);
        let g = &r.rows[0];
        let o = &r.rows[1];
        assert!(g.trials > 0 && o.trials > 0);
        assert!(
            o.msgs_per_trial < g.msgs_per_trial,
            "PROP-O {:.1} should be cheaper than PROP-G {:.1}",
            o.msgs_per_trial,
            g.msgs_per_trial
        );
        assert!(!r.probe_rate.is_empty());
    }

    #[test]
    fn a2_churn_keeps_overlay_healthy() {
        let r = churn(Scale::Quick, 51);
        assert!(r.always_connected, "overlay disconnected during churn");
        assert!(r.leaves > 0 && r.joins > 0);
        // Stretch should remain finite the whole way.
        for &(_, v) in &r.stretch.points {
            assert!(v.is_finite() && v > 0.0);
        }
    }

    #[test]
    fn a5_greedy_selection_beats_random() {
        let rows = selection_strategy(Scale::Quick, 54);
        assert_eq!(rows.len(), 2);
        let greedy = &rows[0];
        let random = &rows[1];
        assert!(greedy.exchanges > 0 && random.exchanges > 0);
        assert!(
            greedy.total_link_latency_final < random.total_link_latency_final,
            "greedy {} should beat random {}",
            greedy.total_link_latency_final,
            random.total_link_latency_final
        );
    }

    #[test]
    fn a6_warmup_has_diminishing_returns() {
        let rows = warmup_sweep(Scale::Quick, 55);
        assert_eq!(rows.len(), 5);
        // Longer warm-ups cost more trials…
        for w in rows.windows(2) {
            assert!(w[1].trials >= w[0].trials, "{:?}", rows);
        }
        // …and every row lands within a tight band of the best stretch
        // (the claim: pushing past ~10 buys almost nothing).
        let best = rows.iter().map(|r| r.stretch_final).fold(f64::MAX, f64::min);
        let at_10 = rows.iter().find(|r| r.max_init_trial == 10).unwrap();
        assert!(
            at_10.stretch_final <= best * 1.15,
            "warm-up 10 ({:.2}) should be near the best ({best:.2})",
            at_10.stretch_final
        );
    }

    #[test]
    fn a9_zero_threshold_is_best() {
        let rows = threshold_sweep(Scale::Quick, 58);
        assert_eq!(rows.len(), 5);
        let zero = &rows[0];
        let strictest = rows.last().unwrap();
        assert!(zero.exchanges > strictest.exchanges);
        assert!(
            zero.stretch_final <= strictest.stretch_final,
            "MIN_VAR=0 ({:.2}) should beat MIN_VAR={} ({:.2})",
            zero.stretch_final,
            strictest.min_var,
            strictest.stretch_final
        );
    }

    #[test]
    fn a10_ltm_cap_drives_density() {
        let rows = ltm_cap_sweep(Scale::Quick, 59);
        assert_eq!(rows.len(), 5);
        // Mean degree grows (weakly) with the cap.
        for w in rows.windows(2) {
            assert!(w[1].mean_degree_final >= w[0].mean_degree_final - 0.5, "{:?}", rows);
        }
        // Every cap still improves over the unoptimized overlay at frac 0.
        for r in &rows {
            assert!(r.ratio_frac0 < 1.0, "{r:?}");
        }
    }

    #[test]
    fn a11_propo_wins_the_zipf_workload() {
        let rows = zipf_workload(Scale::Quick, 61);
        assert_eq!(rows.len(), 3);
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap().ratio;
        // Degree-preserving schemes must improve the hub-bound workload…
        assert!(get("PROP-O") < 1.0, "PROP-O ratio {:.3}", get("PROP-O"));
        assert!(get("LTM") < 1.0, "LTM ratio {:.3}", get("LTM"));
        // …and PROP-O must beat PROP-G, whose position swaps erode the
        // hubs (the Fig. 7 mechanism under a mechanistic workload —
        // PROP-G may even end slightly above 1.0 here).
        assert!(
            get("PROP-O") < get("PROP-G"),
            "PROP-O {:.3} vs PROP-G {:.3}",
            get("PROP-O"),
            get("PROP-G")
        );
    }

    #[test]
    fn a12_prop_preserves_flood_cost_ltm_inflates_it() {
        let rows = flood_cost(Scale::Quick, 62);
        assert_eq!(rows.len(), 3);
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        // PROP-G never touches the graph; PROP-O moves edges but preserves
        // degrees, so flood cost stays within a whisker.
        for l in ["PROP-O", "PROP-G"] {
            let r = get(l);
            let drift = (r.msgs_per_query_final / r.msgs_per_query_initial - 1.0).abs();
            assert!(drift < 0.05, "{l}: flood cost drifted {:.1}%", drift * 100.0);
        }
        let ltm = get("LTM");
        assert!(
            ltm.msgs_per_query_final > ltm.msgs_per_query_initial * 1.1,
            "LTM should inflate flood cost: {:.0} → {:.0}",
            ltm.msgs_per_query_initial,
            ltm.msgs_per_query_final
        );
    }

    #[test]
    fn a8_migration_beats_permanent_pointers() {
        let r = custody(Scale::Quick, 57);
        assert!(r.displacement > 0.1, "displacement {:.2}", r.displacement);
        assert!(r.migrated_ms < r.baseline_ms, "{r:?}");
        assert!(r.migrated_ms < r.pointers_ms, "{r:?}");
        assert!(r.migration_cost > 0);
    }

    #[test]
    fn a7_propg_works_on_flat_waxman_too() {
        let rows = physical_model(Scale::Quick, 56);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.improvement > 0.05, "{}: improvement {:.3}", r.label, r.improvement);
        }
    }

    #[test]
    fn a3_propg_helps_on_top_of_everything() {
        let rows = combine(Scale::Quick, 52);
        assert_eq!(rows.len(), 14);
        for pair in rows.chunks(2) {
            let (base, stacked) = (&pair[0], &pair[1]);
            // On proximity-built tables (PNS), PROP-G's position swaps can
            // slightly perturb the build-time entry choices (they were
            // optimized for the *original* occupants), so those rows get a
            // looser bound; on everything else PROP-G must not hurt.
            let tolerance = if base.label.starts_with("PNS") { 1.15 } else { 1.05 };
            assert!(
                stacked.stretch_final <= base.stretch_final * tolerance,
                "{} ({:.2}) should not be worse than {} ({:.2})",
                stacked.label,
                stacked.stretch_final,
                base.label,
                base.stretch_final
            );
            // And the vanilla overlays must strictly improve.
            if matches!(base.label.as_str(), "Chord" | "Pastry" | "CAN") {
                assert!(
                    stacked.stretch_final < base.stretch_final,
                    "{} should improve on {}",
                    stacked.label,
                    base.label
                );
            }
        }
    }

    #[test]
    fn a4_cooperative_beats_selfish_on_degree_preservation() {
        let rows = selfish_vs_prop(Scale::Quick, 53);
        let propo = &rows[0];
        let selfish = &rows[1];
        assert!(propo.degree_cv_drift < 1e-9, "PROP-O must not drift degrees");
        assert!(selfish.degree_cv_drift > 0.0, "selfish rewiring should drift degrees");
    }
}
