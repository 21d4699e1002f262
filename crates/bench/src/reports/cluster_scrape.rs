//! Cluster-wide telemetry scrape: boots two loopback PipeStore servers,
//! drives one feature-extraction round over the `Cluster` fan-out, and
//! renders the merged, per-peer-labelled scrape as Prometheus text.

use dnn::Mlp;
use ndpipe::rpc::{Cluster, PipeStoreServer, ServerConfig};
use ndpipe::PipeStore;
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the two-store round and returns its exposition. The fleet is the
/// same size in both modes, so `fast` changes nothing.
pub fn run(_fast: bool) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let universe = ClassUniverse::new(16, 8, 4, 0.3, &mut rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..4 {
        for _ in 0..16 {
            rows.push(universe.sample(c, &mut rng));
            labels.push(c);
        }
    }
    let dataset = LabeledDataset::new(rows, labels, 4);
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for (i, shard) in dataset.shards(2).into_iter().enumerate() {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, shard),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind fleet server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    let cluster = Cluster::builder().connect(&addrs).expect("connect cluster");
    let fan = cluster.install_model(&model);
    assert!(
        fan.failures.is_empty(),
        "install failures: {:?}",
        fan.failures
    );
    let fan = cluster.extract_features(0, 1);
    assert!(
        fan.failures.is_empty(),
        "extract failures: {:?}",
        fan.failures
    );
    let metrics = cluster.scrape_metrics().expect("scrape cluster");
    let fan = cluster.shutdown();
    assert!(
        fan.failures.is_empty(),
        "shutdown failures: {:?}",
        fan.failures
    );
    for s in servers {
        s.shutdown().expect("server drain");
    }
    metrics.merged_labelled().to_prometheus()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    #[test]
    fn scrape_labels_both_peers() {
        let text = super::run(true);
        assert!(text.contains("# TYPE ndpipe_rpc_server_requests_total counter"));
        let peers: BTreeSet<&str> = text
            .split("peer=\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(peers.len(), 2, "want two peers, got {peers:?} in:\n{text}");
    }
}
