#![forbid(unsafe_code)]
#![deny(missing_docs, unreachable_pub)]
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
//! # ppn-core
//!
//! The paper's primary contribution: the **cost-sensitive Portfolio Policy
//! Network** (PPN) and everything needed to train and evaluate it.
//!
//! * [`ppn::PolicyNet`] — the two-stream architecture of §4 (LSTM sequential
//!   information net ∥ TCCB correlation information net ∥ recursive decision
//!   module) and every ablation variant of Table 4, plus the EIIE baseline.
//! * [`reward`] — the cost-sensitive reward of Eqn. (1) with the λ risk and
//!   γ transaction-cost trade-offs (Theorems 1–2 give its near-optimality).
//! * [`trainer::Trainer`] — direct policy gradient with the online
//!   stochastic batch method and portfolio-vector memory (§5.1, Remark 3).
//! * [`ddpg::DdpgTrainer`] — the PPN-AC actor-critic comparison of §7.2.
//! * [`policy::NetPolicy`] — adapter running trained networks under the
//!   shared `ppn_market` backtest harness.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ppn_core::prelude::*;
//! use ppn_market::{run_backtest, test_range, Dataset, Preset};
//!
//! let ds = Dataset::load(Preset::CryptoA);
//! let train = TrainConfig { steps: 200, ..TrainConfig::default() };
//! let (mut policy, _report) = train_policy(&ds, Variant::Ppn, RewardConfig::default(), train);
//! let result = run_backtest(&ds, &mut policy, 0.0025, test_range(&ds));
//! println!("APV {:.2}", result.metrics.apv);
//! ```

/// Mini-batch sampling over price-relative windows (§5.1).
pub mod batch;
/// Network, reward and training hyper-parameter bundles.
pub mod config;
/// Debug-build numerical contracts (simplex/finite invariants).
pub mod contracts;
/// TCCB correlation information net (§4.2) and its ablations.
pub mod corrnet;
/// PPN-AC actor-critic comparison trainer (§7.2).
pub mod ddpg;
/// Recursive decision module fusing both streams (§4.3).
pub mod decision;
/// Online rolling-retrain policy wrapper (Remark 3).
pub mod online;
/// Checkpoint serialization for trained parameter stores.
pub mod persist;
/// Adapters running trained networks as backtest policies.
pub mod policy;
/// The Portfolio Policy Network and its Table-4 variants.
pub mod ppn;
/// Cost-sensitive reward of Eqn. (1) and its building blocks.
pub mod reward;
/// LSTM sequential information net (§4.1).
pub mod seqnet;
/// Direct policy-gradient trainer with portfolio-vector memory (§5.1).
pub mod trainer;

/// One-stop imports for examples and the experiment harness.
pub mod prelude {
    pub use crate::config::{NetConfig, RewardConfig, TrainConfig};
    pub use crate::ddpg::{DdpgConfig, DdpgTrainer};
    pub use crate::online::OnlineNetPolicy;
    pub use crate::policy::{train_policy, NetPolicy};
    pub use crate::ppn::{PolicyNet, Variant};
    pub use crate::trainer::{TrainReport, Trainer};
}

pub use prelude::*;
