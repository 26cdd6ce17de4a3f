//! # kgae-graph
//!
//! Knowledge-graph substrate for accuracy estimation.
//!
//! Implements the paper's KG model (§2.1): a set of `(s, p, o)` triples
//! partitioned into entity clusters by subject, with ground-truth
//! correctness labels. Two storage backends cover the paper's scales:
//!
//! * [`InMemoryKg`] — explicit triples with strings, for user-facing
//!   auditing of real graphs and for the examples;
//! * [`CompactKg`] — offsets + (bitmap | hashed) labels, which holds the
//!   101M-triple SYN 100M dataset in ~40 MB.
//!
//! [`datasets`] provides deterministic statistical twins of the paper's
//! five evaluation datasets (Table 1); [`synthetic`] is the generator
//! behind them, with label models controlling intra-cluster correlation.
//!
//! ```
//! use kgae_graph::prelude::*;
//!
//! let kg = kgae_graph::datasets::nell();
//! assert_eq!(kg.num_triples(), 1_860);
//! assert_eq!(kg.num_clusters(), 817);
//! assert!((kg.true_accuracy() - 0.91).abs() < 1e-3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bitvec;
pub mod compact;
pub mod datasets;
pub mod delta;
pub mod hash;
mod ids;
pub mod kg;
pub mod memory;
pub mod stats;
pub mod stratify;
pub mod synthetic;

pub use bitvec::LabelCache;
pub use compact::{CompactKg, LabelStore};
pub use delta::{AppliedDelta, DeltaError, DeltaKg, StableId};
pub use ids::{ClusterId, TripleId};
pub use kg::{ClusterIndex, GroundTruth, KnowledgeGraph};
pub use memory::{InMemoryKg, InMemoryKgBuilder, Triple};
pub use stratify::{Stratification, StratifyError};

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::compact::CompactKg;
    pub use crate::ids::{ClusterId, TripleId};
    pub use crate::kg::{GroundTruth, KnowledgeGraph};
    pub use crate::memory::InMemoryKg;
}
