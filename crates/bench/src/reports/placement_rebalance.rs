//! Placement self-healing: read-failover (reroute) latency and
//! rebalance throughput against real loopback `PipeStoreServer` fleets.
//!
//! Per fleet size the bench replicates a synthetic photo corpus R ways,
//! measures healthy read latency, kills one store *without updating the
//! map* and measures rerouted reads (the stale map still ranks the dead
//! store first for its share of the corpus), then marks the store down
//! and measures the bounded-rate rebalance sweep that re-establishes
//! the replication factor on the survivors.

use crate::util::{fmt, Report};
use ndpipe::rpc::wire::PhotoRecord;
use ndpipe::rpc::{
    Cluster, ConnectOptions, FailurePolicy, PipeStoreServer, RebalanceConfig, ServerConfig,
};
use ndpipe::{PipeStore, PlacementMap};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Workload knobs for the placement measurement.
#[derive(Debug, Clone, Copy)]
pub struct PlacementParams {
    /// Fleet sizes to measure, one sub-report each.
    pub peer_counts: &'static [usize],
    /// Replication factor of the placement map.
    pub replicas: usize,
    /// Photos replicated across each fleet.
    pub photos: u64,
    /// Raw blob bytes per photo.
    pub blob_bytes: usize,
}

impl PlacementParams {
    /// Full configuration: the acceptance setup (4- and 8-store fleets).
    pub fn full() -> Self {
        PlacementParams {
            peer_counts: &[4, 8],
            replicas: 2,
            photos: 64,
            blob_bytes: 32 << 10,
        }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        PlacementParams {
            peer_counts: &[4, 8],
            replicas: 2,
            photos: 24,
            blob_bytes: 8 << 10,
        }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        PlacementParams {
            peer_counts: &[3],
            replicas: 2,
            photos: 8,
            blob_bytes: 1 << 10,
        }
    }
}

/// One fleet size's measurements.
#[derive(Debug, Clone)]
pub struct FleetMeasurement {
    /// Stores in the fleet.
    pub peers: usize,
    /// Reads timed with every replica healthy.
    pub healthy_reads: usize,
    /// Mean healthy read latency, milliseconds.
    pub healthy_mean_ms: f64,
    /// Reads whose first-ranked replica was dead (failover exercised).
    pub reroute_reads: usize,
    /// Mean rerouted read latency, milliseconds.
    pub reroute_mean_ms: f64,
    /// Photos the healing sweep backfilled.
    pub rebalance_photos: u64,
    /// Payload bytes the healing sweep shipped.
    pub rebalance_bytes: u64,
    /// Wall-clock seconds of the healing sweep.
    pub rebalance_secs: f64,
}

impl FleetMeasurement {
    /// Rebalance throughput in MB/s (payload bytes over sweep time).
    pub fn rebalance_mb_per_s(&self) -> f64 {
        if self.rebalance_secs > 0.0 {
            self.rebalance_bytes as f64 / (1024.0 * 1024.0) / self.rebalance_secs
        } else {
            0.0
        }
    }
}

/// Everything the bench measures, ready for rendering.
#[derive(Debug, Clone)]
pub struct PlacementMeasurements {
    /// The workload that was run.
    pub params: PlacementParams,
    /// Per-fleet-size results, in `peer_counts` order.
    pub fleets: Vec<FleetMeasurement>,
}

fn photo(id: u64, blob_bytes: usize) -> PhotoRecord {
    PhotoRecord {
        id,
        class: (id % 8) as u32,
        day: (id % 30) as u32,
        preproc_bytes: 256,
        blob: vec![(id as u8).wrapping_mul(37).wrapping_add(11); blob_bytes],
        sidecar: vec![(id as u8) ^ 0x5a; 64],
    }
}

fn tiny_shard(rng: &mut StdRng) -> LabeledDataset {
    let u = ClassUniverse::new(8, 4, 2, 0.3, rng);
    let rows = vec![u.sample(0, rng), u.sample(1, rng)];
    LabeledDataset::new(rows, vec![0, 1], 2)
}

fn opts() -> ConnectOptions {
    ConnectOptions::new()
        .retries(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(2))
}

fn measure_fleet(peers: usize, p: &PlacementParams) -> FleetMeasurement {
    let mut rng = StdRng::seed_from_u64(48_611 + peers as u64);
    let mut servers = Vec::with_capacity(peers);
    let mut addrs = Vec::with_capacity(peers);
    for i in 0..peers {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, tiny_shard(&mut rng)),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind bench server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    let ids: Vec<u64> = (0..peers as u64).collect();
    let mut map = PlacementMap::new(&ids, p.replicas).expect("placement map");
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(1))
        .connect_options(opts())
        .op_attempts(1)
        .connect(&addrs)
        .expect("connect cluster");
    let fan = cluster.publish_placement(&map);
    assert!(fan.failures.is_empty(), "publish: {:?}", fan.failures);
    for id in 0..p.photos {
        let fan = cluster.put_photo(&map, &photo(id, p.blob_bytes));
        assert!(fan.failures.is_empty(), "put: {:?}", fan.failures);
    }

    // Healthy baseline: every read lands on its first-ranked replica.
    let t0 = Instant::now();
    for id in 0..p.photos {
        cluster.get_photo(&map, id).expect("healthy read");
    }
    let healthy_reads = p.photos as usize;
    let healthy_mean_ms = t0.elapsed().as_secs_f64() * 1e3 / healthy_reads.max(1) as f64;

    // Kill store 0 but leave the map stale: reads whose first-ranked
    // replica is the corpse must fail over — that detour is the
    // reroute latency.
    let victim: Vec<u64> = (0..p.photos)
        .filter(|id| map.replicas_for(*id).first() == Some(&0))
        .collect();
    servers.remove(0).abort().expect("abort victim");
    let t0 = Instant::now();
    for id in &victim {
        cluster.get_photo(&map, *id).expect("rerouted read");
    }
    let reroute_reads = victim.len();
    let reroute_mean_ms = t0.elapsed().as_secs_f64() * 1e3 / reroute_reads.max(1) as f64;

    // Heal: mark the corpse down and re-establish R on the survivors.
    let old = map.clone();
    map.mark_down(0).expect("mark down");
    let report = cluster
        .rebalance(
            &old,
            &map,
            &RebalanceConfig {
                max_bytes_per_wave: 64 << 20,
                wave_pause: Duration::ZERO,
            },
        )
        .expect("rebalance sweep");

    cluster.shutdown();
    for s in servers {
        s.shutdown().expect("server drain");
    }

    FleetMeasurement {
        peers,
        healthy_reads,
        healthy_mean_ms,
        reroute_reads,
        reroute_mean_ms,
        rebalance_photos: report.photos_copied,
        rebalance_bytes: report.bytes_copied,
        rebalance_secs: report.elapsed.as_secs_f64(),
    }
}

/// Runs the measurement at the given workload size.
pub fn measure_with(p: &PlacementParams) -> PlacementMeasurements {
    let fleets = p.peer_counts.iter().map(|&n| measure_fleet(n, p)).collect();
    PlacementMeasurements { params: *p, fleets }
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &PlacementMeasurements) -> String {
    let mut r = Report::new(
        "Placement self-healing",
        "read failover latency and rebalance throughput per fleet size",
    );
    r.note(&format!(
        "R = {}, {} photos x {} B blobs, one store killed per fleet",
        m.params.replicas, m.params.photos, m.params.blob_bytes
    ));
    r.blank();
    r.header(&[
        "peers",
        "healthy reads",
        "healthy ms",
        "reroutes",
        "reroute ms",
        "heal photos",
        "heal bytes",
        "heal s",
        "heal MB/s",
    ]);
    for f in &m.fleets {
        r.row(&[
            f.peers.to_string(),
            f.healthy_reads.to_string(),
            fmt(f.healthy_mean_ms, 4),
            f.reroute_reads.to_string(),
            fmt(f.reroute_mean_ms, 4),
            f.rebalance_photos.to_string(),
            f.rebalance_bytes.to_string(),
            fmt(f.rebalance_secs, 5),
            fmt(f.rebalance_mb_per_s(), 3),
        ]);
    }
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        PlacementParams::fast()
    } else {
        PlacementParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_heals_the_fleet() {
        let m = measure_with(&PlacementParams::tiny());
        assert_eq!(m.fleets.len(), 1);
        let f = &m.fleets[0];
        assert_eq!(f.healthy_reads, 8);
        assert!(f.reroute_reads > 0, "no photo had the corpse as primary");
        assert!(f.rebalance_photos > 0, "kill must trigger backfill");
        assert!(f.rebalance_bytes > 0);
        assert!(f.healthy_mean_ms >= 0.0 && f.reroute_mean_ms > 0.0);

        let text = render(&m);
        assert!(text.contains("Placement self-healing"));
        assert!(text.contains("MB/s"));
    }
}
