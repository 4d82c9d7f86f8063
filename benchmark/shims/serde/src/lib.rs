//! Marker stand-ins for serde's traits. The derives expand to nothing, so no
//! kernel type implements them; code that needs real serialization
//! (`prop-experiments`, via `serde_json`) is outside the benchmark's build.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
