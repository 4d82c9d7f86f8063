//! The §4.3 overhead analysis, checked against a live simulation.
//!
//! The paper gives closed forms for PROP's cost: `nhop + 2c` messages per
//! PROP-G adjustment vs `nhop + 2m` for PROP-O, worst-case probe frequency
//! `1/INIT_TIMER`, and an exponential decay of probing after warm-up.
//! This example runs both protocols and prints model vs measurement side
//! by side — including the steady-state probe rate predicted by the Markov
//! backoff chain.
//!
//! ```text
//! cargo run --release --example overhead_analysis
//! ```

use prop::core::analysis;
use prop::prelude::*;
use std::sync::Arc;

const N: usize = 300;

fn main() {
    let mut rng = SimRng::seed_from(7);
    let phys = generate(&TransitStubParams::ts_large(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, N, &mut rng));

    println!("{:<22} {:>12} {:>12} {:>14}", "scheme", "msgs/trial", "predicted", "exchanges");
    let mut measured_rate = 0.0;
    for (label, cfg) in [("PROP-G", PropConfig::prop_g()), ("PROP-O", PropConfig::prop_o())] {
        let mut rng = SimRng::seed_from(7);
        let (_, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
        let c = net.graph().mean_degree();
        let mut sim = ProtocolSim::new(net, cfg, &mut rng);
        sim.run_for(Duration::from_minutes(120));
        let o = sim.overhead();
        let predicted = if label == "PROP-G" {
            analysis::propg_msgs_per_step(2, c)
        } else {
            analysis::propo_msgs_per_step(2, sim.m_default())
        };
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>14}",
            label,
            o.total_msgs() as f64 / o.trials as f64,
            predicted,
            o.exchanges
        );
        if label == "PROP-G" {
            // Probe rate over the last hour (maintenance regime), per node.
            let late_window = Duration::from_minutes(60);
            let before = sim.overhead();
            sim.run_for(late_window);
            let trials = sim.overhead().since(&before).trials;
            measured_rate = trials as f64 / N as f64 / late_window.as_millis() as f64;
        }
    }

    // Model: per-trial success probability in late maintenance is low;
    // bracket the measurement between q=0 and q=0.2.
    let lo = analysis::steady_state_probe_rate(0.0);
    let hi = analysis::steady_state_probe_rate(0.2);
    let worst = analysis::worst_case_probe_rate();
    println!("\nper-node probe rate (probes/ms):");
    println!("  worst case (warm-up):        {worst:.3e}");
    println!("  Markov model, q ∈ [0, 0.2]:  [{lo:.3e}, {hi:.3e}]");
    println!("  measured (maintenance hour): {measured_rate:.3e}");
    assert!(measured_rate < worst, "maintenance probing must be slower than the warm-up rate");
}
