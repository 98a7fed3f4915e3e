//! Streaming set cover algorithms: the paper's contribution and every
//! baseline it compares against.
//!
//! The centrepiece is [`IterSetCover`], the `iterSetCover` algorithm of
//! Figure 1.3: `2/δ` passes, `Õ(mn^δ)` working memory, `O(ρ/δ)`
//! approximation (Theorem 2.8). The [`baselines`] module implements the
//! other rows of Figure 1.1 so the summary table can be regenerated
//! end-to-end:
//!
//! | Row | Type |
//! |-----|------|
//! | greedy, 1 pass, `O(mn)` space | [`baselines::StoreAllGreedy`] |
//! | greedy, ≤ n passes, `O(n)` space | [`baselines::OnePickPerPassGreedy`] |
//! | \[SG09\]-style `O(log n)` passes | [`baselines::ProgressiveGreedy`] |
//! | \[ER14\] one pass, `O(√n)`-approx | [`baselines::EmekRosen`] |
//! | \[CW16\] `p` passes, `(p+1)n^{1/(p+1)}`-approx | [`baselines::ChakrabartiWirth`] |
//! | \[DIMV14\] `O(4^{1/δ})` passes | [`baselines::Dimv14`] |
//! | \[AKL16\] one pass, `Õ(mn/α)` space | [`baselines::OnePassProjection`] |
//!
//! All algorithms implement [`sc_stream::StreamingSetCover`], so
//! [`sc_stream::run_reported`] measures passes, peak words, and solution
//! size uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod iter_set_cover;
pub mod multiplex;
pub mod partial;
mod projstore;
pub mod sampling;

pub use iter_set_cover::{GuessExecutor, IterSetCover, IterSetCoverConfig, IterationTrace};
pub use multiplex::{IterCoverDriver, PartialCoverDriver};
pub use partial::{
    coverage_goal, run_partial, PartialChakrabartiWirth, PartialEmekRosen, PartialIterSetCover,
    PartialProgressiveGreedy, PartialReport, PartialStreamingSetCover,
};
pub use projstore::ProjStore;
