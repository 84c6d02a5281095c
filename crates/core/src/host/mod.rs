//! Host backend: the five algorithms with real parallelism (`rayon`).
//!
//! The mapping from the paper's vector-multiprocessor programming model
//! to a modern multicore is direct: *virtual processors* become rayon
//! tasks, the requirement `m ≫ p` becomes over-decomposition (many more
//! tasks than worker threads), and the paper's explicit pack-based load
//! balancing is subsumed by work stealing. The algorithms are otherwise
//! the same ones the paper implements in §2.

pub mod anderson_miller;
pub mod miller_reif;
pub mod prev;
pub mod reid_miller;
pub mod scratch;
pub mod serial;
pub mod sharded;
pub mod wyllie;

pub use anderson_miller::AndersonMiller;
pub use miller_reif::MillerReif;
pub use reid_miller::ReidMiller;
pub use scratch::RankScratch;
pub use sharded::{
    rank_sharded, rank_sharded_prebuilt_into, scan_sharded, scan_sharded_prebuilt_into,
    ShardedReport,
};
pub use wyllie::Wyllie;
