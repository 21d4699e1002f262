//! Multi-volume object store with write rotation and a key directory.

use crate::volume::Volume;
use crate::StoreError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use telemetry::catalog;

/// Handles into the process-wide telemetry registry, resolved once at
/// open so the per-I/O cost is one atomic add. Gauges are updated by
/// delta (and unwound on drop) so several co-existing stores sum
/// correctly.
#[derive(Debug)]
struct IoMetrics {
    puts: telemetry::Counter,
    gets: telemetry::Counter,
    deletes: telemetry::Counter,
    bytes_written: telemetry::Counter,
    bytes_read: telemetry::Counter,
    compact_reclaimed: telemetry::Counter,
    live_objects: telemetry::Gauge,
    volumes: telemetry::Gauge,
}

impl IoMetrics {
    fn resolve() -> IoMetrics {
        let g = telemetry::global();
        let op = |name: &'static str| g.counter_with(catalog::OBJSTORE_OPS_TOTAL, &[("op", name)]);
        IoMetrics {
            puts: op("put"),
            gets: op("get"),
            deletes: op("delete"),
            bytes_written: g.counter(catalog::OBJSTORE_BYTES_WRITTEN_TOTAL),
            bytes_read: g.counter(catalog::OBJSTORE_BYTES_READ_TOTAL),
            compact_reclaimed: g.counter(catalog::OBJSTORE_COMPACT_RECLAIMED_BYTES_TOTAL),
            live_objects: g.gauge(catalog::OBJSTORE_LIVE_OBJECTS),
            volumes: g.gauge(catalog::OBJSTORE_VOLUMES),
        }
    }
}

/// A directory of volumes: writes go to the active volume and rotate to a
/// fresh one past `volume_limit` bytes; a key directory maps each object
/// to its volume (Haystack's "store" tier without the separate directory
/// service).
#[derive(Debug)]
pub struct ObjectStore {
    dir: PathBuf,
    volumes: Vec<Volume>,
    /// key → index into `volumes`.
    directory: HashMap<u64, usize>,
    volume_limit: u64,
    metrics: IoMetrics,
}

impl Drop for ObjectStore {
    fn drop(&mut self) {
        // Unwind this store's contribution to the shared gauges.
        self.metrics
            .live_objects
            .add(-(self.directory.len() as f64));
        self.metrics.volumes.add(-(self.volumes.len() as f64));
    }
}

impl ObjectStore {
    /// Opens (creating if needed) a store rooted at `dir`, recovering any
    /// existing volumes (`vol-*.log`, in numeric order).
    ///
    /// # Errors
    ///
    /// I/O errors or mid-file corruption in a volume.
    ///
    /// # Panics
    ///
    /// Panics if `volume_limit` is zero.
    pub fn open(dir: impl AsRef<Path>, volume_limit: u64) -> Result<ObjectStore, StoreError> {
        assert!(volume_limit > 0, "volume limit must be positive");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<u32> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_prefix("vol-")?
                    .strip_suffix(".log")?
                    .parse()
                    .ok()
            })
            .collect();
        ids.sort_unstable();
        if ids.is_empty() {
            ids.push(0);
        }
        let mut volumes = Vec::with_capacity(ids.len());
        let mut directory = HashMap::new();
        for id in ids {
            let vol = Volume::open(dir.join(format!("vol-{id}.log")))?;
            let idx = volumes.len();
            for key in vol.keys() {
                directory.insert(key, idx);
            }
            volumes.push(vol);
        }
        let metrics = IoMetrics::resolve();
        metrics.live_objects.add(directory.len() as f64);
        metrics.volumes.add(volumes.len() as f64);
        Ok(ObjectStore {
            dir,
            volumes,
            directory,
            volume_limit,
            metrics,
        })
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Number of volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// Total log bytes across volumes.
    pub fn size_bytes(&self) -> u64 {
        self.volumes.iter().map(Volume::size_bytes).sum()
    }

    /// Stores (or overwrites) `key`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn put(&mut self, key: u64, data: &[u8]) -> Result<(), StoreError> {
        // Rotate first: the tombstone decision below must compare against
        // the volume the new copy will actually land in, or an overwrite
        // that triggers rotation leaves an untombstoned stale copy that
        // resurrects on recovery.
        if self.volumes[self.volumes.len() - 1].size_bytes() >= self.volume_limit {
            let id = self.volumes.len() as u32;
            let vol = Volume::open(self.dir.join(format!("vol-{id}.log")))?;
            self.volumes.push(vol);
            if telemetry::enabled() {
                self.metrics.volumes.add(1.0);
            }
        }
        let active = self.volumes.len() - 1;
        // Overwrites into a different volume must tombstone the old copy
        // so recovery agrees with the directory.
        if let Some(&old) = self.directory.get(&key) {
            if old != active {
                self.volumes[old].delete(key)?;
            }
        }
        self.volumes[active].put(key, data)?;
        let fresh_key = self.directory.insert(key, active).is_none();
        if telemetry::enabled() {
            self.metrics.puts.inc();
            self.metrics.bytes_written.add(data.len() as u64);
            if fresh_key {
                self.metrics.live_objects.add(1.0);
            }
        }
        Ok(())
    }

    /// Fetches `key`'s payload.
    ///
    /// # Errors
    ///
    /// I/O errors or on-disk corruption.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(&idx) = self.directory.get(&key) else {
            return Ok(None);
        };
        let data = self.volumes[idx].get(key)?;
        if telemetry::enabled() {
            self.metrics.gets.inc();
            if let Some(d) = &data {
                self.metrics.bytes_read.add(d.len() as u64);
            }
        }
        Ok(data)
    }

    /// Deletes `key`. Returns whether it existed.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn delete(&mut self, key: u64) -> Result<bool, StoreError> {
        let Some(idx) = self.directory.remove(&key) else {
            return Ok(false);
        };
        self.volumes[idx].delete(key)?;
        if telemetry::enabled() {
            self.metrics.deletes.inc();
            self.metrics.live_objects.add(-1.0);
        }
        Ok(true)
    }

    /// Compacts every volume whose garbage ratio exceeds `threshold`
    /// (0..1). Returns bytes reclaimed.
    ///
    /// # Errors
    ///
    /// I/O errors; volumes compacted before a failure stay compacted.
    pub fn compact(&mut self, threshold: f64) -> Result<u64, StoreError> {
        let mut reclaimed = 0;
        for idx in 0..self.volumes.len() {
            let v = &self.volumes[idx];
            let size = v.size_bytes();
            if size == 0 {
                continue;
            }
            if v.garbage_bytes() as f64 / size as f64 > threshold {
                let before = size;
                self.volumes[idx].compact()?;
                reclaimed += before - self.volumes[idx].size_bytes();
            }
        }
        if telemetry::enabled() {
            self.metrics.compact_reclaimed.add(reclaimed);
        }
        Ok(reclaimed)
    }

    /// Live keys across all volumes, unordered.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory.keys().copied()
    }

    /// Flushes all volumes.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        for v in &mut self.volumes {
            v.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ndpipe-store-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn basic_crud() {
        let dir = temp_dir("crud");
        let _c = Cleanup(dir.clone());
        let mut s = ObjectStore::open(&dir, 1 << 20).expect("open");
        assert!(s.is_empty());
        s.put(1, b"one").expect("put");
        s.put(2, b"two").expect("put");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).expect("get").as_deref(), Some(&b"one"[..]));
        assert!(s.delete(1).expect("delete"));
        assert_eq!(s.get(1).expect("get"), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn rotation_creates_new_volumes() {
        let dir = temp_dir("rot");
        let _c = Cleanup(dir.clone());
        let mut s = ObjectStore::open(&dir, 1024).expect("open");
        for i in 0..30u64 {
            s.put(i, &[0u8; 100]).expect("put");
        }
        assert!(s.volume_count() > 1, "no rotation happened");
        // Everything still readable across volumes.
        for i in 0..30u64 {
            assert!(s.get(i).expect("get").is_some(), "lost key {i}");
        }
    }

    #[test]
    fn reopen_recovers_directory_across_volumes() {
        let dir = temp_dir("reopen");
        let _c = Cleanup(dir.clone());
        {
            let mut s = ObjectStore::open(&dir, 512).expect("open");
            for i in 0..20u64 {
                s.put(i, format!("payload-{i}").as_bytes()).expect("put");
            }
            s.delete(3).expect("delete");
            s.sync().expect("sync");
        }
        let mut s = ObjectStore::open(&dir, 512).expect("reopen");
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(3).expect("get"), None);
        assert_eq!(s.get(7).expect("get").as_deref(), Some(&b"payload-7"[..]));
    }

    #[test]
    fn overwrite_across_volumes_keeps_one_live_copy() {
        let dir = temp_dir("owx");
        let _c = Cleanup(dir.clone());
        {
            let mut s = ObjectStore::open(&dir, 256).expect("open");
            s.put(42, &[1u8; 200]).expect("put v1");
            // Fill to force rotation, then overwrite key 42 in a new volume.
            for i in 100..105u64 {
                s.put(i, &[0u8; 200]).expect("fill");
            }
            s.put(42, b"fresh").expect("put v2");
            assert_eq!(s.get(42).expect("get").as_deref(), Some(&b"fresh"[..]));
        }
        // Recovery must agree (old copy was tombstoned).
        let mut s = ObjectStore::open(&dir, 256).expect("reopen");
        assert_eq!(s.get(42).expect("get").as_deref(), Some(&b"fresh"[..]));
    }

    #[test]
    fn compaction_reclaims_space() {
        let dir = temp_dir("cmp");
        let _c = Cleanup(dir.clone());
        let mut s = ObjectStore::open(&dir, 1 << 16).expect("open");
        for i in 0..100u64 {
            s.put(i, &[7u8; 64]).expect("put");
        }
        for i in 0..90u64 {
            s.delete(i).expect("delete");
        }
        let reclaimed = s.compact(0.3).expect("compact");
        assert!(reclaimed > 0);
        for i in 90..100u64 {
            assert!(s.get(i).expect("get").is_some());
        }
        assert_eq!(s.len(), 10);
    }
}
