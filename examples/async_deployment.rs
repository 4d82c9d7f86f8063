//! Deployment realism: probes that take network time.
//!
//! The figure-level simulations treat a probe trial as atomic. A deployed
//! PROP node pays real RTTs for the walk, the address-list exchange, and
//! the hypothetical-neighbor pings — and meanwhile other exchanges land.
//! This example runs the message-level driver
//! (`prop::core::AsyncProtocolSim`) next to the atomic one on the same
//! overlay and shows (a) both converge to the same regime, and (b) the
//! asynchronous world really does abort a fraction of trials because the
//! topology moved mid-probe.
//!
//! ```text
//! cargo run --release --example async_deployment
//! ```

use prop::core::{AsyncProtocolSim, Overhead};
use prop::prelude::*;
use std::sync::Arc;

const N: usize = 250;

fn build(seed: u64) -> (Gnutella, OverlayNet) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::ts_large(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, N, &mut rng));
    Gnutella::build(GnutellaParams::default(), oracle, &mut rng)
}

fn main() {
    let horizon = Duration::from_minutes(120);

    // Atomic driver.
    let (_, net) = build(31);
    let start = net.stretch();
    let mut rng = SimRng::seed_from(32);
    let mut sync_sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    sync_sim.run_for(horizon);
    let sync_stretch = sync_sim.net().stretch();
    let so = sync_sim.overhead();

    // Message-level driver on an identical overlay.
    let (_, net) = build(31);
    let mut rng = SimRng::seed_from(32);
    let mut async_sim = AsyncProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    async_sim.run_for(horizon);
    let async_stretch = async_sim.net().stretch();
    let ao = async_sim.overhead();

    println!("initial stretch: {start:.2}\n");
    println!("{:<28} {:>12} {:>12}", "", "atomic", "message-level");
    println!("{:<28} {:>12.2} {:>12.2}", "final stretch", sync_stretch, async_stretch);
    // One ledger in both modes: a trial is counted at launch and filed
    // under one outcome when it resolves.
    for (label, atomic, message_level) in [
        ("trials", so.trials, ao.trials),
        ("exchanges", so.exchanges, ao.exchanges),
        ("no gain", so.no_gain, ao.no_gain),
        ("stale aborts", so.stale_aborts, ao.stale_aborts),
        ("faulted", so.faulted, ao.faulted),
    ] {
        println!("{label:<28} {atomic:>12} {message_level:>12}");
    }
    let mean_probe_ms = |o: &Overhead| o.probe_time_ms as f64 / o.trials.max(1) as f64;
    println!(
        "{:<28} {:>12.0} {:>12.0}",
        "mean probe duration (ms)",
        mean_probe_ms(&so),
        mean_probe_ms(&ao)
    );

    assert!(sync_stretch < start && async_stretch < start);
    assert_eq!(so.trials, so.exchanges + so.no_gain, "an atomic trial resolves as it launches");
    assert_eq!((so.stale_aborts, so.probe_time_ms), (0, 0), "nothing is in flight in atomic mode");
    println!(
        "\nboth drivers close {:.0}% / {:.0}% of the mismatch; the deployed-world \
         driver aborted {:.1}% of its trials as stale.",
        (start - sync_stretch) / start * 100.0,
        (start - async_stretch) / start * 100.0,
        ao.stale_aborts as f64 / ao.trials.max(1) as f64 * 100.0
    );
}
