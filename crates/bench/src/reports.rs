//! One module per paper figure/table.

pub mod ablations;
pub mod artifact;
pub mod check_n_run;
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

/// Runs every report in paper order, returning `(name, report)` pairs.
pub fn run_all(fast: bool) -> Vec<(&'static str, String)> {
    vec![
        ("fig04_drift", fig04_drift::run(fast)),
        ("fig05_bottleneck", fig05_bottleneck::run(fast)),
        ("fig06_ndp_breakdown", fig06_ndp_breakdown::run(fast)),
        ("table1_labels", table1_labels::run(fast)),
        ("fig09_partition", fig09_partition::run(fast)),
        ("fig11_apo", fig11_apo::run(fast)),
        ("fig12_npe", fig12_npe::run(fast)),
        ("fig13_inference", fig13_inference::run(fast)),
        ("fig14_power", fig14_power::run(fast)),
        ("fig15_training", fig15_training::run(fast)),
        ("fig16_energy", fig16_energy::run(fast)),
        ("fig17_pipelined", fig17_pipelined::run(fast)),
        ("table2_accuracy", table2_accuracy::run(fast)),
        ("fig18_bandwidth", fig18_bandwidth::run(fast)),
        ("fig19_batch", fig19_batch::run(fast)),
        ("fig20_inferentia", fig20_inferentia::run(fast)),
        ("fig21_cost", fig21_cost::run(fast)),
        ("npe_pipeline", npe_pipeline::run(fast)),
        ("gemm_kernel", gemm_kernel::run(fast)),
        ("gemm_fast", gemm_fast::run(fast)),
        ("telemetry_overhead", telemetry_overhead::run(fast)),
        ("ftdmp_pipeline", ftdmp_pipeline::run(fast)),
        ("rpc_concurrency", rpc_concurrency::run(fast)),
        ("placement_rebalance", placement_rebalance::run(fast)),
        ("check_n_run", check_n_run::run(fast)),
        ("ablations", ablations::run(fast)),
        ("artifact", artifact::run(fast)),
    ]
}
