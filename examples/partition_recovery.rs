//! A transit-link partition, watched through the exchange rate.
//!
//! A 2,000-member Gnutella overlay optimizes under PROP-G while the fault
//! plane bisects the transit core for 30 seconds: every message between the
//! two halves of the physical network is dropped, then the cut heals. The
//! windowed `Overhead::since` diff shows the exchange rate collapse while
//! the split is live (cross-side trials all fail and feed the Markov
//! backoff) and recover after the heal.
//!
//! PROP runs at the paper's one-minute `INIT_TIMER`: every member makes its
//! first probe at a random offset within the first minute and then one a
//! minute through warm-up. Spread over 2,000 members that is about 165
//! trials in each 5-second window — enough for the rate to read as a
//! curve at this resolution, and fine enough to see a 30-second cut.
//!
//! ```text
//! cargo run --release --example partition_recovery
//! ```

use prop::faults::compile;
use prop::prelude::*;
use std::sync::Arc;

const N: usize = 2000;
const WINDOW_SECS: u64 = 5;
const SPLIT_AT_SECS: u64 = 60;
const SPLIT_LEN_SECS: u64 = 30;
const HORIZON_SECS: u64 = 150;

fn main() {
    let mut rng = SimRng::seed_from(61);
    let phys = generate(&TransitStubParams::ts_large(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, N, &mut rng));
    let sides = transit_bisection(&phys, &oracle);
    let (_, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);

    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);

    let script = FaultScript::new().partition(SPLIT_AT_SECS * 1000, SPLIT_LEN_SECS * 1000);
    sim.set_fault_plane(Box::new(compile(&script, &sides, 61)));

    println!(
        "{N} members, transit core bisected at {SPLIT_AT_SECS}s, heals at {}s\n",
        SPLIT_AT_SECS + SPLIT_LEN_SECS
    );
    println!("{:>6} {:>10} {:>10} {:>10}", "t (s)", "trials", "exchanges", "exch/min");

    let window = Duration::from_secs(WINDOW_SECS);
    let mut last = sim.overhead();
    let mut during = 0u64;
    let mut after = 0u64;
    while sim.now() < SimTime::ZERO + Duration::from_secs(HORIZON_SECS) {
        sim.run_for(window);
        let diff = sim.overhead().since(&last);
        last = sim.overhead();

        let t = sim.now().as_millis() / 1000;
        let split_live = t > SPLIT_AT_SECS && t <= SPLIT_AT_SECS + SPLIT_LEN_SECS;
        let marker = if split_live { "<- partitioned" } else { "" };
        let per_min = diff.exchanges as f64 * 60.0 / WINDOW_SECS as f64;
        println!("{t:>6} {:>10} {:>10} {per_min:>10.0}  {marker}", diff.trials, diff.exchanges);

        if split_live {
            during += diff.exchanges;
        } else if t > SPLIT_AT_SECS + SPLIT_LEN_SECS {
            after += diff.exchanges;
        }
    }

    let counters = sim.fault_counters().expect("plane attached");
    println!(
        "\nplane: {} cross-side drops, {:.0}s of partition enforced",
        counters.drops,
        counters.partition_ms as f64 / 1000.0
    );

    let during_rate = during as f64 / SPLIT_LEN_SECS as f64;
    let after_len = HORIZON_SECS - SPLIT_AT_SECS - SPLIT_LEN_SECS;
    let after_rate = after as f64 / after_len as f64;
    println!("exchange rate during split: {during_rate:.1}/s, after heal: {after_rate:.1}/s");
    assert_eq!(counters.partition_ms, SPLIT_LEN_SECS * 1000);
    assert!(counters.drops > 0, "a live bisection must drop cross-side traffic");
    assert!(after > 0, "cross-side optimization must resume once the cut heals");
}
