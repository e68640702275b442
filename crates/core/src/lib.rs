//! # webdep-core
//!
//! Core metric suite from *Formalizing Dependence of Web Infrastructure*
//! (SIGCOMM 2025): a statistical toolkit for quantifying **centralization**
//! and **regionalization** of Internet functions.
//!
//! ## Centralization
//!
//! The paper formalizes centralization as the statistical distance of an
//! observed distribution of dependencies from a fully decentralized reference
//! distribution, quantified with Earth Mover's Distance (Wasserstein-1).
//! With the paper's choice of reference (every website has its own provider)
//! and ground distance (normalized vertical difference), the score admits the
//! closed form
//!
//! ```text
//! S = sum_i (a_i / C)^2  -  1 / C
//! ```
//!
//! where `a_i` is the number of websites using provider `i` and
//! `C = sum_i a_i`. See [`centralization`] for the closed form and [`emd`]
//! for the general solver it is validated against.
//!
//! ## Regionalization
//!
//! [`regionalization`] implements the provider-side measures (usage `U`,
//! endemicity `E`, endemicity ratio `E_R`) and [`insularity`] the
//! country-side measure (fraction of websites served from in-country
//! providers).
//!
//! ## Baselines
//!
//! [`topn`] implements the top-N market-share heuristic the paper improves
//! upon, and [`fdiv`] the f-divergence family the paper evaluates and
//! rejects for this task (they saturate on disjoint supports).
//!
//! ## Observability
//!
//! [`metrics`] is not a paper measure: it is the repo's first-party
//! telemetry toolkit — atomic counters, gauges, and fixed-bucket latency
//! histograms behind a registry that renders the Prometheus text format —
//! shared by the measurement pipeline and the query service.
//!
//! ## Quick start
//!
//! ```
//! use webdep_core::prelude::*;
//!
//! // Counts of websites per hosting provider, largest first.
//! let observed = CountDist::from_counts(vec![60, 20, 10, 5, 5]).unwrap();
//! let s = centralization_score(&observed);
//! assert!(s > 0.0 && s < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralization;
pub mod dist;
pub mod emd;
pub mod error;
pub mod fdiv;
pub mod insularity;
pub mod metrics;
pub mod regionalization;
pub mod topn;
pub mod transport;
pub mod weighted;

pub use centralization::{
    centralization_score, centralization_score_counts_ref, hhi, ConcentrationBand,
};
pub use dist::CountDist;
pub use emd::{emd_to_decentralized_counts_ref, EmdWorkspace};
pub use error::MetricError;
pub use transport::TransportWorkspace;

/// Convenience re-exports for the common entry points.
pub mod prelude {
    #[allow(deprecated)]
    pub use crate::centralization::{
        centralization_score, centralization_score_counts, centralization_score_counts_ref, hhi,
        ConcentrationBand,
    };
    pub use crate::dist::CountDist;
    pub use crate::emd::{emd_to_decentralized, DecentralizedReference};
    pub use crate::error::MetricError;
    pub use crate::insularity::{insularity, InsularityInput};
    pub use crate::regionalization::{endemicity, endemicity_ratio, usage, UsageCurve};
    pub use crate::topn::{provider_rank_curve, top_n_share};
}
