//! The streaming computation model of the paper, made measurable.
//!
//! Section 1 of Har-Peled et al. fixes the model: *"the sets r₁, …, r_m
//! are stored consecutively in a read-only repository and an algorithm
//! can access the sets only by performing sequential scans of the
//! repository. However, the amount of read-write memory available to the
//! algorithm is limited."* This crate is that model as an executable
//! artifact:
//!
//! * [`SetStream`] wraps a [`SetSystem`](sc_setsystem::SetSystem) so that
//!   the *only* way to read sets is [`SetStream::pass`], which increments
//!   a pass counter. [`ItemStream`] is the same device for arbitrary
//!   item types (geometric shapes in `sc-geometry`, player inputs in
//!   `sc-comm`).
//! * [`SpaceMeter`] measures the algorithm's read-write memory in 64-bit
//!   words. Algorithms charge it for samples, stored projections,
//!   per-element pointers — everything they hold between stream items —
//!   and the meter records the peak. The repository itself and the
//!   emitted solution are free, per the model.
//! * [`StreamingSetCover`] is the trait every algorithm in `sc-core`
//!   implements, and [`run_reported`] executes one, verifies the cover,
//!   and returns a [`RunReport`] with the measured passes / space /
//!   solution size — the three columns of the paper's Figure 1.1.
//!
//! Parallel sub-runs (the "for k ∈ {2^i} do in parallel" of Figure 1.3)
//! are accounted the way the paper accounts them: children forked via
//! [`SetStream::fork`] / [`SpaceMeter::fork`] run sequentially in the
//! simulation, then [`SetStream::absorb_parallel`] adds the *maximum*
//! child pass count and [`SpaceMeter::absorb_parallel`] charges the *sum*
//! of child peaks (parallel executions hold their memory simultaneously).
//!
//! One level above a single algorithm, a serving layer can batch the
//! logical passes of *many independent queries* onto shared physical
//! scans; [`ScanLedger`] is the driver-side account of that sharing —
//! physical scans counted once per walk, logical passes still charged
//! per owner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod item_stream;
mod ledger;
mod report;
mod set_stream;
mod sharded;
mod space;
mod tracked;

pub use harness::{run_budgeted, run_reported, StreamingSetCover};
pub use item_stream::ItemStream;
pub use ledger::ScanLedger;
pub use report::RunReport;
pub use set_stream::SetStream;
pub use sharded::{Claim, FeedCursor, ShardedPass};
pub use space::SpaceMeter;
pub use tracked::Tracked;
