//! # prop-core — the PROP protocols (the paper's contribution)
//!
//! A family of **Peer-exchange Routing Optimization Protocols** that make a
//! P2P overlay location-aware by letting pairs of peers *swap* parts of
//! their neighborhoods whenever the swap reduces total logical link latency:
//!
//! * **PROP-G** (generic): the two peers exchange *all* neighbors — i.e.
//!   trade logical positions (in a DHT: trade identifiers). The overlay
//!   graph stays isomorphic (Theorem 2) and connected (Theorem 1), so
//!   PROP-G runs unmodified on Gnutella, Chord, CAN, or anything else.
//! * **PROP-O** (optimized): the peers exchange an equal number `m` of
//!   selected neighbors (default `m = δ(G)`), never ones on the probe path
//!   between them. Each node's degree is preserved — powerful nodes keep
//!   their many connections — and the per-exchange cost drops from
//!   `nhop + 2c` to `nhop + 2m` messages.
//!
//! The crate is organized as the paper presents the scheme:
//!
//! * [`config`] — every named constant of §3.2/§5 (`nhops`, `m`,
//!   `MIN_VAR`, `MAX_INIT_TRIAL`, `INIT_TIMER`, …).
//! * [`neighborq`] — the priority queue that biases probing toward active
//!   first hops.
//! * [`exchange`] — `Var` evaluation (Eq. 2) and the exchange operations
//!   themselves, with the connectivity/degree guarantees enforced.
//! * [`protocol`] — one peer's state machine: warm-up then maintenance,
//!   with the Markov backoff timer.
//! * [`sim`] — the event-driven driver that runs a whole overlay of PROP
//!   nodes on the [`prop_engine`] kernel and exposes overhead counters:
//!   one event loop in two timing modes, [`ProtocolSim`] (atomic trials)
//!   and [`AsyncProtocolSim`] (message-level trials).
//! * [`fault`] — the fault-plane contract the driver consults per message
//!   (drop/duplicate/delay verdicts, crash visibility, fault counters);
//!   the concrete injectors and scripted scenarios live in `prop-faults`.
//! * [`traffic`] — the traffic-plane contract: scripted time-varying
//!   workload (joins/leaves/lookups) consumed by the driver through the
//!   [`traffic::ChurnDriver`] surface; the script compiler lives in
//!   `prop-workloads`.

pub mod analysis;
pub mod config;
pub mod exchange;
pub mod fault;
pub mod forwarding;
pub mod neighborq;
pub mod protocol;
pub mod sim;
pub mod traffic;

pub use config::{Policy, ProbeMode, PropConfig};
pub use exchange::{decide, exact_var, plan_exchange, var_terms, ExchangePlan};
pub use fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
pub use sim::{AsyncProtocolSim, AsyncStats, Overhead, PropSim, ProtocolSim};
pub use traffic::{ChurnDriver, TrafficCounters, TrafficEvent, TrafficPlane};
