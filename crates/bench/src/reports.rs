//! One module per paper figure/table.

pub mod ablations;
pub mod artifact;
pub mod check_n_run;
pub mod cluster_scrape;
pub mod fig04_drift;
pub mod fig05_bottleneck;
pub mod fig06_ndp_breakdown;
pub mod fig09_partition;
pub mod fig11_apo;
pub mod fig12_npe;
pub mod fig13_inference;
pub mod fig14_power;
pub mod fig15_training;
pub mod fig16_energy;
pub mod fig17_pipelined;
pub mod fig18_bandwidth;
pub mod fig19_batch;
pub mod fig20_inferentia;
pub mod fig21_cost;
pub mod ftdmp_pipeline;
pub mod gemm_fast;
pub mod gemm_kernel;
pub mod npe_pipeline;
pub mod placement_rebalance;
pub mod rpc_concurrency;
pub mod table1_labels;
pub mod table2_accuracy;
pub mod telemetry_overhead;

/// Renders one report; the flag picks the smaller (noisier) `--fast`
/// configuration.
pub type Run = fn(bool) -> String;

/// Every report in paper order, as `(name, run)`. The `repro` binary runs
/// entries by name.
pub const ALL: &[(&str, Run)] = &[
    ("fig04_drift", fig04_drift::run),
    ("fig05_bottleneck", fig05_bottleneck::run),
    ("fig06_ndp_breakdown", fig06_ndp_breakdown::run),
    ("table1_labels", table1_labels::run),
    ("fig09_partition", fig09_partition::run),
    ("fig11_apo", fig11_apo::run),
    ("fig12_npe", fig12_npe::run),
    ("fig13_inference", fig13_inference::run),
    ("fig14_power", fig14_power::run),
    ("fig15_training", fig15_training::run),
    ("fig16_energy", fig16_energy::run),
    ("fig17_pipelined", fig17_pipelined::run),
    ("table2_accuracy", table2_accuracy::run),
    ("fig18_bandwidth", fig18_bandwidth::run),
    ("fig19_batch", fig19_batch::run),
    ("fig20_inferentia", fig20_inferentia::run),
    ("fig21_cost", fig21_cost::run),
    ("npe_pipeline", npe_pipeline::run),
    ("gemm_kernel", gemm_kernel::run),
    ("gemm_fast", gemm_fast::run),
    ("telemetry_overhead", telemetry_overhead::run),
    ("ftdmp_pipeline", ftdmp_pipeline::run),
    ("rpc_concurrency", rpc_concurrency::run),
    ("placement_rebalance", placement_rebalance::run),
    ("check_n_run", check_n_run::run),
    ("ablations", ablations::run),
    ("artifact", artifact::run),
    ("cluster_scrape", cluster_scrape::run),
];
