//! Tiered storage engine for the [`crate::tsdb`] store.
//!
//! Three tiers per series — hot columnar ring, Gorilla-compressed
//! in-memory blocks, on-disk segment files — with a block-skipping
//! range scan as the single query path. See DESIGN.md §10 for the
//! block format and the seal/demote/compact lifecycle.

pub mod block;
pub mod codec;
pub mod disk;
pub mod tiered;

pub use block::SealedBlock;
pub use codec::{decode_block_into, encode_block, BlockSum, CodecError, MAX_BLOCK_POINTS};
pub use disk::{DiskTier, DiskTierConfig};
pub use tiered::{QueryCoverage, RangeQuery, TierStats, TieredScan, TieringConfig};
