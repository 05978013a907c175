#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! # ppn-baselines
//!
//! The thirteen classic online portfolio-selection baselines the paper
//! compares against (§6.1.1): UBAH, Best, CRP, UP, EG, Anticor, ONS, CWMR,
//! PAMR, OLMAR, RMR and WMAMR — all implementing [`ppn_market::Policy`] so
//! they run under the same backtest harness as the neural strategies.
//!
//! ```
//! use ppn_baselines::standard_suite;
//! use ppn_market::{run_backtest, test_range, Dataset, Preset};
//!
//! let ds = Dataset::load(Preset::CryptoA);
//! for mut policy in standard_suite(&ds, test_range(&ds)) {
//!     let result = run_backtest(&ds, policy.as_mut(), 0.0025, ds.split..ds.split + 50);
//!     assert!(result.metrics.apv > 0.0);
//! }
//! ```

pub mod anticor;
pub mod benchmarks;
pub mod cwmr;
pub mod follow_winner;
pub mod linalg;
pub mod mean_reversion;
pub mod ons;
pub mod simplex;

pub use anticor::Anticor;
pub use benchmarks::{BestStock, Crp, Ubah};
pub use cwmr::Cwmr;
pub use follow_winner::{ExponentialGradient, UniversalPortfolios};
pub use mean_reversion::{Olmar, Pamr, Rmr, Wmamr};
pub use ons::Ons;

use ppn_market::{Dataset, Policy};

/// The full baseline suite with the literature-default hyper-parameters, in
/// the row order of the paper's Table 3. `range` is needed by the hindsight
/// `Best` oracle.
pub fn standard_suite(dataset: &Dataset, range: std::ops::Range<usize>) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Ubah::default()),
        Box::new(BestStock::new(dataset, range)),
        Box::new(Crp),
        Box::new(UniversalPortfolios::new(300, 11)),
        Box::new(ExponentialGradient::new(0.05)),
        Box::new(Anticor::new(10)),
        Box::new(Ons::new(0.01, 1.0)),
        Box::new(Cwmr::new(0.5, 2.0)),
        Box::new(Pamr::new(0.5)),
        Box::new(Olmar::new(10.0, 5)),
        Box::new(Rmr::new(5.0, 5)),
        Box::new(Wmamr::new(0.5, 5)),
    ]
}
