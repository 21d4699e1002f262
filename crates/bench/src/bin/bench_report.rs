//! Measured benchmarks: prints the human-readable reports and writes the
//! machine-readable JSON artifacts (`results/BENCH_npe_pipeline.json`,
//! `results/BENCH_gemm_kernel.json`,
//! `results/BENCH_gemm_fast.json`,
//! `results/BENCH_telemetry_overhead.json`,
//! `results/BENCH_rpc_concurrency.json`,
//! `results/BENCH_placement.json`, and
//! `results/BENCH_ftdmp_pipeline.json`). Pass `--fast` for smaller
//! (noisier) configurations.

use bench::reports::{
    ftdmp_pipeline, gemm_fast, gemm_kernel, npe_pipeline, placement_rebalance, rpc_concurrency,
    telemetry_overhead,
};
use std::fs;

fn main() {
    let fast = bench::fast_flag();
    let out_dir = std::path::Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");

    let params = if fast {
        npe_pipeline::BenchParams::fast()
    } else {
        npe_pipeline::BenchParams::full()
    };
    let m = npe_pipeline::measure_with(&params);
    println!("{}", npe_pipeline::render(&m));
    let path = out_dir.join("BENCH_npe_pipeline.json");
    fs::write(&path, npe_pipeline::to_json(&m)).expect("write benchmark json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        gemm_kernel::BenchParams::fast()
    } else {
        gemm_kernel::BenchParams::full()
    };
    let m = gemm_kernel::measure_with(&params);
    println!("\n{}", gemm_kernel::render(&m));
    let path = out_dir.join("BENCH_gemm_kernel.json");
    fs::write(&path, gemm_kernel::to_json(&m)).expect("write gemm json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        gemm_fast::BenchParams::fast()
    } else {
        gemm_fast::BenchParams::full()
    };
    let m = gemm_fast::measure_with(&params);
    println!("\n{}", gemm_fast::render(&m));
    let json = gemm_fast::to_json(&m);
    telemetry::export::validate_json(&json).expect("gemm fast json well-formed");
    let path = out_dir.join("BENCH_gemm_fast.json");
    fs::write(&path, json).expect("write gemm fast json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        telemetry_overhead::OverheadParams::fast()
    } else {
        telemetry_overhead::OverheadParams::full()
    };
    let m = telemetry_overhead::measure_with(&params);
    println!("\n{}", telemetry_overhead::render(&m));
    let json = telemetry_overhead::to_json(&m);
    telemetry::export::validate_json(&json).expect("overhead json well-formed");
    let path = out_dir.join("BENCH_telemetry_overhead.json");
    fs::write(&path, json).expect("write overhead json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        rpc_concurrency::ConcurrencyParams::fast()
    } else {
        rpc_concurrency::ConcurrencyParams::full()
    };
    let m = rpc_concurrency::measure_with(&params);
    println!("\n{}", rpc_concurrency::render(&m));
    let json = rpc_concurrency::to_json(&m);
    telemetry::export::validate_json(&json).expect("rpc concurrency json well-formed");
    let path = out_dir.join("BENCH_rpc_concurrency.json");
    fs::write(&path, json).expect("write rpc concurrency json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        placement_rebalance::PlacementParams::fast()
    } else {
        placement_rebalance::PlacementParams::full()
    };
    let m = placement_rebalance::measure_with(&params);
    println!("\n{}", placement_rebalance::render(&m));
    let json = placement_rebalance::to_json(&m);
    telemetry::export::validate_json(&json).expect("placement json well-formed");
    let path = out_dir.join("BENCH_placement.json");
    fs::write(&path, json).expect("write placement json");
    println!("\n# wrote {}", path.display());

    let params = if fast {
        ftdmp_pipeline::PipelineParams::fast()
    } else {
        ftdmp_pipeline::PipelineParams::full()
    };
    let m = ftdmp_pipeline::measure_with(&params);
    println!("\n{}", ftdmp_pipeline::render(&m));
    let json = ftdmp_pipeline::to_json(&m);
    telemetry::export::validate_json(&json).expect("ftdmp pipeline json well-formed");
    let path = out_dir.join("BENCH_ftdmp_pipeline.json");
    fs::write(&path, json).expect("write ftdmp pipeline json");
    println!("\n# wrote {}", path.display());
}
