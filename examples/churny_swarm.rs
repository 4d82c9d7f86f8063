//! Surviving churn: PROP's Markov timers under a join/leave storm.
//!
//! A third of the way through the run, peers start leaving and (re)joining
//! at several events per minute. Watch the probe rate: it has decayed after
//! warm-up, spikes when churn resets the affected timers, then decays
//! again once the storm passes — while the overlay stays connected and the
//! stretch stays near its optimized level.
//!
//! ```text
//! cargo run --release --example churny_swarm
//! ```

use prop::prelude::*;
use prop::workloads::churn::{ChurnReplay, ChurnTrace};
use std::sync::Arc;

const N: usize = 200;

fn main() {
    let mut rng = SimRng::seed_from(99);
    let phys = generate(&TransitStubParams::ts_large(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, N, &mut rng));
    let (gnutella, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);

    let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    let mut churn_rng = SimRng::seed_from(100);

    // Churn storm: minutes 30–60, ~4 leaves + 4 joins per minute.
    let storm_start = SimTime::ZERO + Duration::from_minutes(30);
    let trace =
        ChurnTrace::poisson(storm_start, Duration::from_minutes(30), 4.0, 4.0, &mut churn_rng);
    println!("churn storm: {} events between minute 30 and 60\n", trace.events.len());
    println!(
        "{:>6} {:>10} {:>14} {:>8} {:>10}",
        "min", "stretch", "trials/min", "peers", "connected"
    );

    let mut replay = ChurnReplay::new(&trace);
    let mut last_trials = 0u64;
    while sim.now() < SimTime::ZERO + Duration::from_minutes(90) {
        let deadline = sim.now() + Duration::from_minutes(5);
        // Never fewer than 20 peers.
        replay.play_until(deadline, &mut sim, &gnutella, &mut churn_rng, 20, |_, _, _| {});
        sim.run_until(deadline);
        let trials = sim.overhead().trials;
        let rate = (trials - last_trials) as f64 / 5.0;
        last_trials = trials;
        println!(
            "{:>6} {:>10.2} {:>14.1} {:>8} {:>10}",
            sim.now().as_minutes_f64(),
            sim.net().stretch(),
            rate,
            sim.net().graph().num_live(),
            sim.net().graph().is_connected()
        );
        assert!(sim.net().graph().is_connected(), "churn must never partition the overlay");
    }

    println!(
        "\ntotal: {} trials, {} exchanges, {} peers absent at end",
        sim.overhead().trials,
        sim.overhead().exchanges,
        N - sim.net().graph().num_live()
    );
}
