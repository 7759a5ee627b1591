//! `xpl-bench` — the experiment harness.
//!
//! One runner per table/figure of the paper's evaluation (§VI), each
//! returning structured results that the `repro` binary renders as the
//! same rows/series the paper reports and serializes to JSON for
//! EXPERIMENTS.md generation.

pub mod ablations;
pub mod churn;
pub mod experiments;
pub mod microbench;
pub mod render;
pub mod serve;
pub mod serve_net;

pub use churn::{run_churn, ChurnConfig, ChurnReport};
pub use experiments::{
    fig3_sizes, fig4a_publish, fig4b_publish, fig5a_breakdown, fig5b_retrieval, table2,
    Fig3Scenario,
};
pub use microbench::{run_microbench, BenchReport};
pub use serve::{run_serve, ServeReport, ServeRunConfig, StoreKind};
pub use serve_net::{run_serve_net, NetServeConfig, NetServeReport, NetTransportKind};
