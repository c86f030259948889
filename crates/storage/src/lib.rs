//! Main-memory storage substrate.
//!
//! Models the storage side of PRISMA/DB: a catalog holding every base
//! relation column-resident (pivoted once at registration, with cached
//! hash-bucket row lists standing in for the paper's ideal fragmentation,
//! §4.1) plus the statistics the phase-1 optimizer consumes, a
//! shared-nothing collection of node memories holding columnar
//! intermediate *fragments*, a Wisconsin benchmark data generator (the
//! paper's test data), and row-level partitioning functions for the
//! row API and the simulator.

#![warn(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod fragment;
pub mod generator;
pub mod partition;
pub mod registry;
pub mod skew;
pub mod store;
pub mod wisconsin;

pub use catalog::{Catalog, ResidentRelation, TableStats};
pub use columnar::{BucketIndex, ColumnScan, Narrow, Rows, ScanCursor};
pub use fragment::{FragmentedRelation, PartitionScheme};
pub use generator::{PayloadMode, WisconsinGenerator};
pub use partition::{
    hash_key, hash_partition, partition_indices, range_partition, round_robin_partition,
};
pub use registry::{pack_ref, ref_leaf, ref_row, FragmentRegistry};
pub use store::{FragmentStore, StoredFragment};
