//! Photo placement: rendezvous hashing, R-way replication, and the
//! epoch-numbered [`PlacementMap`] the fleet agrees on.
//!
//! NDPipe's premise — many cheap NDP storage nodes holding the photo
//! corpus, running Store-stage extraction where the data lives — only
//! scales if placement is first-class. This module is the pure-logic
//! core: given a set of node ids and a replication factor `R`, it maps
//! every photo id to an *ordered* replica set of `R` nodes via
//! highest-random-weight (HRW / rendezvous) hashing. HRW gives minimal
//! disruption by construction: when a node leaves, only photos whose
//! replica set contained that node move; everything else keeps its
//! exact replica ordering.
//!
//! The map is versioned by a monotone `epoch`. Every mutation that
//! changes placement (`mark_down`, `mark_up`, `join`) bumps the epoch;
//! PipeStores reject installs of maps older than the one they hold, so
//! a delayed publish can never roll the fleet backwards. The map
//! travels over the wire via [`PlacementMap::to_bytes`] /
//! [`PlacementMap::from_bytes`], on the same [`telemetry::codec`] as
//! the rest of [`crate::rpc::wire`].

use std::fmt;
use telemetry::codec::{self, put_u32, put_u64, Reader};

/// Upper bound on the node count a serialized map may claim.
const MAX_NODES: usize = 1 << 20;

/// Serialization format revision for [`PlacementMap::to_bytes`].
const CODEC_VERSION: u32 = 1;

/// Errors from map construction, mutation, or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A map needs at least one node.
    NoNodes,
    /// The replication factor must be at least 1.
    ZeroReplicas,
    /// `replicas` exceeds the number of nodes in the map.
    ReplicasExceedNodes {
        /// Requested replication factor.
        replicas: usize,
        /// Nodes available.
        nodes: usize,
    },
    /// The same node id appeared twice.
    DuplicateNode(u64),
    /// A mutation referenced a node id the map does not contain.
    UnknownNode(u64),
    /// `from_bytes` met a malformed buffer.
    Corrupt(&'static str),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoNodes => write!(f, "placement map needs at least one node"),
            PlacementError::ZeroReplicas => write!(f, "replication factor must be >= 1"),
            PlacementError::ReplicasExceedNodes { replicas, nodes } => write!(
                f,
                "replication factor {replicas} exceeds node count {nodes}"
            ),
            PlacementError::DuplicateNode(id) => write!(f, "duplicate node id {id}"),
            PlacementError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            PlacementError::Corrupt(why) => write!(f, "corrupt placement map: {why}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<codec::Error> for PlacementError {
    fn from(e: codec::Error) -> Self {
        PlacementError::Corrupt(e.0)
    }
}

/// One node in the map: a stable id plus its current liveness flag.
/// Down nodes stay listed (so a rejoin with the same id reclaims the
/// same shard assignments) but never receive placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementNode {
    /// Stable node id; on the tuner side this is the peer index, on the
    /// store side the PipeStore id.
    pub id: u64,
    /// Whether the node currently accepts placements.
    pub up: bool,
}

/// The fleet's placement contract: which `R` nodes hold each photo, in
/// failover order, plus the epoch the contract was published under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    epoch: u64,
    replicas: u32,
    /// Sorted by id, unique.
    nodes: Vec<PlacementNode>,
}

/// SplitMix64 finalizer: cheap, well-mixed, and dependency-free.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// HRW weight of `node` for `key`: each (node, key) pair gets an
/// independent pseudo-random score; the top-R scorers own the key.
fn hrw_score(node: u64, key: u64) -> u64 {
    mix64(key ^ mix64(node.wrapping_mul(0x2545_f491_4f6c_dd1d)))
}

/// Decorrelates training-shard keys from photo keys so a node's shard
/// replicas are not simply the replicas of photo id == node id.
const SHARD_KEY_SALT: u64 = 0x5d4a_9c3b_17e8_62f1;

impl PlacementMap {
    /// Builds an epoch-1 map over `ids` with replication factor
    /// `replicas`. Ids may arrive in any order; duplicates are an error.
    pub fn new(ids: &[u64], replicas: usize) -> Result<Self, PlacementError> {
        if ids.is_empty() {
            return Err(PlacementError::NoNodes);
        }
        if replicas == 0 {
            return Err(PlacementError::ZeroReplicas);
        }
        if replicas > ids.len() {
            return Err(PlacementError::ReplicasExceedNodes {
                replicas,
                nodes: ids.len(),
            });
        }
        let mut sorted: Vec<u64> = ids.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(PlacementError::DuplicateNode(w[0]));
            }
        }
        Ok(PlacementMap {
            epoch: 1,
            replicas: replicas as u32,
            nodes: sorted
                .into_iter()
                .map(|id| PlacementNode { id, up: true })
                .collect(),
        })
    }

    /// The monotone version number of this map.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Configured replication factor.
    pub fn replica_factor(&self) -> usize {
        self.replicas as usize
    }

    /// All nodes (up and down), sorted by id.
    pub fn nodes(&self) -> &[PlacementNode] {
        &self.nodes
    }

    /// Ids of the nodes currently up, ascending.
    pub fn up_nodes(&self) -> Vec<u64> {
        self.nodes.iter().filter(|n| n.up).map(|n| n.id).collect()
    }

    /// Whether `id` is listed and currently up.
    pub fn is_up(&self, id: u64) -> bool {
        self.nodes.iter().any(|n| n.id == id && n.up)
    }

    /// Whether `id` is listed at all.
    pub fn contains(&self, id: u64) -> bool {
        self.nodes.iter().any(|n| n.id == id)
    }

    fn find_mut(&mut self, id: u64) -> Result<&mut PlacementNode, PlacementError> {
        self.nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or(PlacementError::UnknownNode(id))
    }

    /// Marks `id` down and bumps the epoch. Returns `false` (no epoch
    /// bump) when the node was already down.
    pub fn mark_down(&mut self, id: u64) -> Result<bool, PlacementError> {
        let node = self.find_mut(id)?;
        if !node.up {
            return Ok(false);
        }
        node.up = false;
        self.epoch += 1;
        Ok(true)
    }

    /// Marks `id` up again (a restart/rejoin) and bumps the epoch.
    pub fn mark_up(&mut self, id: u64) -> Result<bool, PlacementError> {
        let node = self.find_mut(id)?;
        if node.up {
            return Ok(false);
        }
        node.up = true;
        self.epoch += 1;
        Ok(true)
    }

    /// Adds a brand-new node (up) and bumps the epoch.
    pub fn join(&mut self, id: u64) -> Result<(), PlacementError> {
        if self.contains(id) {
            return Err(PlacementError::DuplicateNode(id));
        }
        let at = self.nodes.partition_point(|n| n.id < id);
        self.nodes.insert(at, PlacementNode { id, up: true });
        self.epoch += 1;
        Ok(())
    }

    /// Top-`want` up nodes by HRW score for `key`, in failover order
    /// (highest score first; ties break toward the lower id).
    fn ranked(&self, key: u64, want: usize, skip: Option<u64>) -> Vec<u64> {
        let mut scored: Vec<(u64, u64)> = self
            .nodes
            .iter()
            .filter(|n| n.up && Some(n.id) != skip)
            .map(|n| (hrw_score(n.id, key), n.id))
            .collect();
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(want);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// The ordered replica set for a photo id: up to `R` live nodes,
    /// first entry is the primary. Shrinks below `R` only when fewer
    /// than `R` nodes are up.
    pub fn replicas_for(&self, photo: u64) -> Vec<u64> {
        self.ranked(photo, self.replicas as usize, None)
    }

    /// Which nodes hold replicas of `node`'s *training shard*. A live
    /// node is always its own shard's primary; the remaining `R - 1`
    /// slots (all `R` when the node is down) go to the top HRW scorers
    /// among the other live nodes, so FT-DMP knows exactly where to
    /// reroute a dead peer's extraction assignment.
    pub fn shard_holders(&self, node: u64) -> Vec<u64> {
        let key = mix64(node ^ SHARD_KEY_SALT);
        if self.is_up(node) {
            let mut holders = vec![node];
            holders.extend(self.ranked(key, (self.replicas as usize).saturating_sub(1), Some(node)));
            holders
        } else {
            self.ranked(key, self.replicas as usize, Some(node))
        }
    }

    /// True when `photo`'s replica set differs between `old` and `new`
    /// — the rebalance predicate: only such photos move.
    pub fn replica_set_changed(old: &PlacementMap, new: &PlacementMap, photo: u64) -> bool {
        old.replicas_for(photo) != new.replicas_for(photo)
    }

    /// Serializes the map: `[u32 codec][u64 epoch][u32 replicas]
    /// [u32 n][(u64 id, u8 up) * n]`, little-endian throughout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.nodes.len() * 9);
        put_u32(&mut out, CODEC_VERSION);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.replicas);
        put_u32(&mut out, self.nodes.len() as u32);
        for n in &self.nodes {
            put_u64(&mut out, n.id);
            out.push(u8::from(n.up));
        }
        out
    }

    /// Decodes [`Self::to_bytes`] with full structural validation: the
    /// node list must be sorted, unique, bounded, and consistent with
    /// the replication factor.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, PlacementError> {
        let mut cur = Reader::new(buf);
        if cur.u32()? != CODEC_VERSION {
            return Err(PlacementError::Corrupt("unknown codec version"));
        }
        let epoch = cur.u64()?;
        let replicas = cur.u32()?;
        let n = cur.count(9)?;
        if replicas == 0 {
            return Err(PlacementError::Corrupt("zero replication factor"));
        }
        if n == 0 || n > MAX_NODES {
            return Err(PlacementError::Corrupt("node count out of range"));
        }
        if replicas as usize > n {
            return Err(PlacementError::Corrupt("replicas exceed node count"));
        }
        let mut nodes = Vec::with_capacity(n);
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let id = cur.u64()?;
            let up = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PlacementError::Corrupt("bad liveness flag")),
            };
            if prev.is_some_and(|p| p >= id) {
                return Err(PlacementError::Corrupt("node ids not strictly ascending"));
            }
            prev = Some(id);
            nodes.push(PlacementNode { id, up });
        }
        cur.finish()?;
        Ok(PlacementMap {
            epoch,
            replicas,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(n: u64, r: usize) -> PlacementMap {
        let ids: Vec<u64> = (0..n).collect();
        PlacementMap::new(&ids, r).expect("valid map")
    }

    #[test]
    fn construction_validates() {
        assert_eq!(PlacementMap::new(&[], 1), Err(PlacementError::NoNodes));
        assert_eq!(
            PlacementMap::new(&[0, 1], 0),
            Err(PlacementError::ZeroReplicas)
        );
        assert_eq!(
            PlacementMap::new(&[0, 1], 3),
            Err(PlacementError::ReplicasExceedNodes {
                replicas: 3,
                nodes: 2
            })
        );
        assert_eq!(
            PlacementMap::new(&[0, 1, 1], 2),
            Err(PlacementError::DuplicateNode(1))
        );
        let m = map(4, 2);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.replica_factor(), 2);
        assert_eq!(m.up_nodes(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn replica_sets_are_ordered_distinct_and_deterministic() {
        let m = map(8, 3);
        for photo in 0..256u64 {
            let a = m.replicas_for(photo);
            let b = m.replicas_for(photo);
            assert_eq!(a, b, "nondeterministic placement for {photo}");
            assert_eq!(a.len(), 3);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica for {photo}: {a:?}");
        }
    }

    #[test]
    fn placement_spreads_load_across_the_fleet() {
        let m = map(8, 2);
        let mut primaries = vec![0usize; 8];
        for photo in 0..4096u64 {
            primaries[m.replicas_for(photo)[0] as usize] += 1;
        }
        for (id, &n) in primaries.iter().enumerate() {
            // Perfect balance is 512; HRW should land well within 2x.
            assert!(
                n > 256 && n < 1024,
                "node {id} owns {n} of 4096 primaries"
            );
        }
    }

    #[test]
    fn hrw_moves_only_affected_photos_on_node_loss() {
        let mut m = map(8, 2);
        let before: Vec<Vec<u64>> = (0..1024u64).map(|p| m.replicas_for(p)).collect();
        assert!(m.mark_down(3).expect("known node"));
        assert_eq!(m.epoch(), 2);
        for (p, old) in before.iter().enumerate() {
            let new = m.replicas_for(p as u64);
            if old.contains(&3) {
                assert!(!new.contains(&3), "photo {p} still placed on a dead node");
            } else {
                // Minimal disruption: untouched replica sets keep their order.
                assert_eq!(old, &new, "photo {p} moved without cause");
            }
        }
    }

    #[test]
    fn mark_down_up_is_epoch_monotone_and_idempotent() {
        let mut m = map(4, 2);
        assert!(m.mark_down(1).expect("known"));
        assert!(!m.mark_down(1).expect("known"), "second down is a no-op");
        assert_eq!(m.epoch(), 2);
        assert!(!m.is_up(1));
        assert!(m.mark_up(1).expect("known"));
        assert_eq!(m.epoch(), 3);
        assert!(m.is_up(1));
        // A rejoin restores the exact pre-failure placement.
        let fresh = map(4, 2);
        for p in 0..512u64 {
            assert_eq!(m.replicas_for(p), fresh.replicas_for(p));
        }
        assert_eq!(
            m.mark_down(99),
            Err(PlacementError::UnknownNode(99))
        );
    }

    #[test]
    fn join_inserts_sorted_and_bumps_epoch() {
        let mut m = PlacementMap::new(&[0, 2], 2).expect("map");
        m.join(1).expect("join");
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.up_nodes(), vec![0, 1, 2]);
        assert_eq!(m.join(1), Err(PlacementError::DuplicateNode(1)));
    }

    #[test]
    fn shard_holders_prefers_the_owner_then_replicas() {
        let mut m = map(6, 2);
        let holders = m.shard_holders(4);
        assert_eq!(holders.len(), 2);
        assert_eq!(holders[0], 4, "a live node is its own shard primary");
        assert_ne!(holders[1], 4);
        // When the owner dies, its shard falls to the same backup first.
        let backup = holders[1];
        m.mark_down(4).expect("known");
        let after = m.shard_holders(4);
        assert_eq!(after.len(), 2);
        assert!(!after.contains(&4));
        assert_eq!(after[0], backup, "backup ordering survives the owner's death");
    }

    #[test]
    fn replica_set_changed_is_the_rebalance_predicate() {
        let old = map(8, 2);
        let mut new = map(8, 2);
        new.mark_down(5).expect("known");
        let mut changed = 0usize;
        for p in 0..1024u64 {
            let c = PlacementMap::replica_set_changed(&old, &new, p);
            assert_eq!(c, old.replicas_for(p).contains(&5));
            changed += usize::from(c);
        }
        // Roughly R/N of photos reference node 5: 2/8 of 1024 ≈ 256.
        assert!(changed > 128 && changed < 512, "changed = {changed}");
    }

    #[test]
    fn bytes_roundtrip_and_reject_corruption() {
        let mut m = map(5, 3);
        m.mark_down(2).expect("known");
        let bytes = m.to_bytes();
        let back = PlacementMap::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(m, back);

        for cut in 0..bytes.len() {
            assert!(
                PlacementMap::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            PlacementMap::from_bytes(&trailing),
            Err(PlacementError::Corrupt("trailing bytes"))
        );
        let mut bad_flag = bytes.clone();
        let last = bad_flag.len() - 1;
        bad_flag[last] = 7;
        assert_eq!(
            PlacementMap::from_bytes(&bad_flag),
            Err(PlacementError::Corrupt("bad liveness flag"))
        );
        let mut bad_codec = bytes;
        bad_codec[0] = 9;
        assert!(PlacementMap::from_bytes(&bad_codec).is_err());
    }

    #[test]
    fn errors_render() {
        let e = PlacementError::ReplicasExceedNodes {
            replicas: 3,
            nodes: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
        assert!(PlacementError::UnknownNode(7).to_string().contains('7'));
    }
}
