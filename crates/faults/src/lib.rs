//! # prop-faults — deterministic fault injection for the PROP drivers
//!
//! The paper's §5 dynamic-environment experiments model peers that fail
//! *cleanly*; real overlays also lose messages, duplicate them, deliver
//! them late, suffer congested links, partition along the transit
//! backbone, and crash mid-handshake. This crate is the plane between the
//! protocol drivers and the simulated network that injects exactly those
//! conditions — reproducibly, from a seed and a declarative script.
//!
//! * [`script`] — [`FaultScript`]: timed fault events (JSON
//!   round-trippable), the shared scenario language of experiments, tests,
//!   and CI.
//! * [`plane`] — the injectors ([`LossInjector`], [`DupInjector`],
//!   [`ReorderInjector`], [`SpikeInjector`], [`PartitionInjector`],
//!   [`CrashInjector`]), their composition ([`ComposedPlane`]), and the
//!   script compiler ([`compile`]).
//! * [`partition`] — [`transit_bisection`]: which peers land on which side
//!   when the transit core splits.
//! * [`harness`] — [`FaultHarness`]: replay any script against **both**
//!   drivers and assert Theorem 1 (connectivity — per side during a split,
//!   globally always) and Theorem 2 (PROP-G isomorphism / PROP-O degree
//!   preservation) at every checkpoint.
//! * [`scenario`] — [`Scenario`]: a JSON bundle composing topology,
//!   population, a [`prop_workloads::TrafficScript`], and a [`FaultScript`]
//!   under one seed — the unit the experiment binaries and the sweep
//!   orchestrator replay.
//!
//! The [`FaultPlane`] trait itself lives in `prop-core` (re-exported here)
//! so the drivers can consult a plane without depending on the injector
//! implementations.
//!
//! Determinism is load-bearing: every injector owns a labelled fork of the
//! seed's RNG, the drivers consult the plane in event order, and composed
//! planes consult *every* child for *every* query — so the same
//! `(seed, script)` replays to bit-identical fault counters and final
//! overlay, which is what the golden-trace tests pin.

pub mod harness;
pub mod partition;
pub mod plane;
pub mod scenario;
pub mod script;

pub use harness::{FaultHarness, HarnessReport, ReplayResult};
pub use partition::{transit_bisection, Side};
pub use plane::{
    compile, ComposedPlane, CrashInjector, DupInjector, LossInjector, PartitionInjector,
    ReorderInjector, SpikeInjector,
};
pub use scenario::Scenario;
pub use script::{FaultEvent, FaultScript};

// The contract the drivers speak, defined next to them in `prop-core`.
pub use prop_core::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
