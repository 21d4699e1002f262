//! Storage-volume models (st1 HDD arrays, SSDs, RAID-5).

use serde::{Deserialize, Serialize};

/// An analytic block-storage model characterized by sustained sequential
/// read/write throughput. The paper's storage servers use AWS `st1`
/// volumes backed by 16 HDDs in RAID-5; photo workloads are large
/// sequential reads, so a throughput model suffices.
///
/// # Example
///
/// ```
/// use hw::DiskSpec;
///
/// let st1 = DiskSpec::st1_raid5();
/// // Reading a 2.7 MB photo takes a few milliseconds.
/// let t = st1.read_time_secs(2.7e6);
/// assert!(t > 0.0 && t < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Human-readable name.
    pub name: String,
    /// Sustained sequential read, bytes/sec.
    pub read_bps: f64,
    /// Sustained sequential write, bytes/sec.
    pub write_bps: f64,
    /// Average access latency per request, seconds.
    pub latency_secs: f64,
    /// Active power, watts (whole array).
    pub active_watts: f64,
    /// Idle power, watts (whole array).
    pub idle_watts: f64,
}

impl DiskSpec {
    /// A single 7200 RPM data-center HDD.
    pub fn hdd() -> Self {
        DiskSpec {
            name: "HDD 7200rpm".to_string(),
            read_bps: 160.0e6,
            write_bps: 140.0e6,
            latency_secs: 8.0e-3,
            active_watts: 7.0,
            idle_watts: 4.0,
        }
    }

    /// A SATA data-center SSD.
    pub fn ssd() -> Self {
        DiskSpec {
            name: "SATA SSD".to_string(),
            read_bps: 520.0e6,
            write_bps: 480.0e6,
            latency_secs: 80.0e-6,
            active_watts: 5.0,
            idle_watts: 1.5,
        }
    }

    /// The paper's storage volume: AWS `st1` built from 16 HDDs in RAID-5.
    ///
    /// st1's sustained throughput tops out at 500 MB/s, which is what the
    /// photo-read path sees; latency is one HDD seek. st1 is shared EBS
    /// infrastructure, so the power charged to one attachment is an
    /// amortized quarter-share of the backing 16-disk array.
    pub fn st1_raid5() -> Self {
        let hdd = DiskSpec::hdd();
        DiskSpec {
            name: "st1 (16x HDD RAID-5)".to_string(),
            read_bps: 500.0e6,
            write_bps: 400.0e6,
            latency_secs: hdd.latency_secs,
            active_watts: 4.0 * hdd.active_watts,
            idle_watts: 4.0 * hdd.idle_watts,
        }
    }

    /// A RAID-5 array of `n` copies of `disk`. Reads stripe across `n-1`
    /// data disks (one disk's worth of bandwidth is parity).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (RAID-5 needs at least three members).
    pub fn raid5(disk: &DiskSpec, n: usize) -> Self {
        assert!(n >= 3, "RAID-5 needs at least 3 disks");
        DiskSpec {
            name: format!("{}x {} RAID-5", n, disk.name),
            read_bps: disk.read_bps * (n - 1) as f64,
            // RAID-5 small-write penalty folded into a 0.5 factor.
            write_bps: disk.write_bps * (n - 1) as f64 * 0.5,
            latency_secs: disk.latency_secs,
            active_watts: disk.active_watts * n as f64,
            idle_watts: disk.idle_watts * n as f64,
        }
    }

    /// Seconds to sequentially read `bytes` (latency + transfer).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative.
    pub fn read_time_secs(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "bytes must be non-negative");
        self.latency_secs + bytes / self.read_bps
    }

    /// Power drawn at a utilization in `[0, 1]`.
    pub fn power_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.active_watts - self.idle_watts) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid5_scales_reads() {
        let r = DiskSpec::raid5(&DiskSpec::hdd(), 16);
        assert_eq!(r.read_bps, 160.0e6 * 15.0);
        assert!(r.write_bps < r.read_bps);
    }

    #[test]
    #[should_panic(expected = "at least 3 disks")]
    fn raid5_minimum_members() {
        let _ = DiskSpec::raid5(&DiskSpec::hdd(), 2);
    }

    #[test]
    fn st1_matches_aws_ceiling() {
        let st1 = DiskSpec::st1_raid5();
        assert_eq!(st1.read_bps, 500.0e6);
        // 2.7MB photo: ~8ms seek + ~5.4ms transfer.
        let t = st1.read_time_secs(2.7e6);
        assert!((t - 0.0134).abs() < 1e-3, "t {t}");
    }

    #[test]
    fn ssd_is_faster_than_hdd() {
        assert!(DiskSpec::ssd().read_time_secs(1e6) < DiskSpec::hdd().read_time_secs(1e6));
    }

    #[test]
    fn zero_byte_io_costs_latency_only() {
        let d = DiskSpec::ssd();
        assert_eq!(d.read_time_secs(0.0), d.latency_secs);
    }
}
