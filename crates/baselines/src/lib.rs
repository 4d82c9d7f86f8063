//! # prop-baselines — the comparison schemes from the paper's §2/§5
//!
//! PROP is evaluated against the location-aware techniques that preceded it:
//!
//! * [`Rewiring::Ltm`] — **Location-aware Topology Matching** (Liu et al., TPDS '05),
//!   the unstructured-overlay baseline of Fig. 7: peers flood a small-TTL
//!   detector, cut slow redundant links, and connect to closer two-hop
//!   neighbors. Free cut/add means node degrees drift — the property the
//!   paper criticizes and PROP-O fixes.
//! * [`pns`] — **Proximity Neighbor Selection** for Chord and Pastry:
//!   routing entries are chosen among the legal candidates by physical
//!   closeness (protocol-dependent; used in the "combine with PROP-G"
//!   ablation).
//! * [`prs`] — **Proximity Route Selection** for Chord: next hops are
//!   chosen by proximity at lookup time (completing the paper's §2
//!   PNS/PRS/PIS taxonomy).
//! * [`pis`] — **Proximity Identifier Selection** (topologically-aware
//!   CAN, Ratnasamy et al.): landmark-derived join points place physically
//!   close peers in adjacent zones.
//! * [`Rewiring::Selfish`] — the §3.1 strawman: every node greedily replaces
//!   its farthest neighbor with the nearest candidate it can find, without
//!   cooperating — good for the node, not for the system.
//!
//! The two rewiring schemes run on one driver, [`RewiringSim`], a
//! [`prop_core::ChurnDriver`] like PROP's own.

mod ltm;
pub mod pis;
pub mod pns;
pub mod prs;
pub mod rewiring;
mod selfish;

pub use prs::PrsChord;
pub use rewiring::{Rewiring, RewiringSim};
