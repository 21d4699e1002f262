//! Exhaustive small-scope exploration of `ndpipe::ftdmp::schedule`: no
//! threads, no sockets, no clocks. For every small fleet shape,
//! staleness bound and `can_serve` relation, a DFS walks every reachable
//! state of the schedule under every interleaving of claim / complete /
//! fail / peer-death / train events and checks the invariants the
//! socket driver relies on. States are memoized on what determines the
//! schedule's future (task statuses, live peers, trained runs), so each
//! distinct transition is checked once however many histories reach it.

use dnn::TrainConfig;
use ndpipe::ftdmp::schedule::{Schedule, SliceTask};
use ndpipe::ftdmp::FtdmpConfig;
use std::collections::{BTreeMap, HashSet};
use tensor::Tensor;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Status {
    Queued,
    InFlight(usize),
    Done,
    Orphaned,
}

/// One fleet shape under test. Peer `p` is home to node `p`; `serves`
/// holds the extra `(peer, node)` pairs of the `can_serve` relation.
#[derive(Clone, Debug)]
struct Scope {
    nodes: usize,
    peers: usize,
    n_run: usize,
    n_mb: usize,
    staleness: usize,
    window: usize,
    serves: Vec<(usize, usize)>,
}

impl Scope {
    fn can_serve(&self, peer: usize, node: usize) -> bool {
        peer == node || self.serves.contains(&(peer, node))
    }

    /// The task a `(node, g, mb)` key names in this scope.
    fn task(&self, k: (usize, usize, usize)) -> SliceTask {
        SliceTask {
            node: k.0,
            g: k.1,
            run: k.1 % self.n_run,
            mb: k.2,
            n_mb: self.n_mb,
        }
    }
}

/// The harness's own record of what happened, kept beside the schedule
/// so the schedule's answers can be checked against it.
#[derive(Clone)]
struct World {
    sched: Schedule,
    status: BTreeMap<(usize, usize, usize), Status>,
    live: Vec<bool>,
    trained: usize,
    stolen_claims: usize,
}

fn key(t: &SliceTask) -> (usize, usize, usize) {
    (t.node, t.g, t.mb)
}

/// A one-row feature tensor and label that name the task they came from.
fn payload(t: &SliceTask) -> (Tensor, Vec<usize>) {
    let id = t.node * 100 + t.g * 10 + t.mb;
    (Tensor::from_vec(vec![id as f32], &[1, 1]), vec![id])
}

impl World {
    fn in_flight(&self, peer: usize) -> Vec<(usize, usize, usize)> {
        self.status
            .iter()
            .filter(|(_, s)| **s == Status::InFlight(peer))
            .map(|(k, _)| *k)
            .collect()
    }

    /// What the cluster driver does after any failure: drop the queued
    /// work of nodes no live peer can serve.
    fn sweep(&mut self, scope: &Scope) {
        let live = self.live.clone();
        let servable = |node| (0..scope.peers).any(|p| live[p] && scope.can_serve(p, node));
        for node in self.sched.orphan_unservable(servable) {
            assert!(!servable(node), "{scope:?}: orphaned a servable node");
            for (k, s) in self.status.iter_mut() {
                if k.0 == node && *s == Status::Queued {
                    *s = Status::Orphaned;
                }
            }
        }
    }

    fn memo(&self) -> Vec<u8> {
        let mut m: Vec<u8> = self
            .status
            .values()
            .map(|s| match s {
                Status::Queued => 0,
                Status::Done => 1,
                Status::Orphaned => 2,
                Status::InFlight(p) => 3 + *p as u8,
            })
            .collect();
        m.extend(self.live.iter().map(|&l| l as u8));
        m.push(self.trained as u8);
        m
    }
}

/// Explores every reachable state of `scope`; returns how many.
fn explore(scope: &Scope) -> usize {
    let cfg = FtdmpConfig {
        n_run: scope.n_run,
        epochs_per_run: 1,
        // Two rows per run slice: `n_mb` micro-batches of 2 / n_mb rows.
        micro_batch: 2 / scope.n_mb,
        staleness: scope.staleness,
        train: TrainConfig::default(),
    };
    let lens: BTreeMap<usize, usize> = (0..scope.nodes).map(|n| (n, 2 * scope.n_run)).collect();
    let total_runs = scope.n_run;
    let sched = Schedule::new(&lens, &cfg, 1);
    let total_tasks = scope.nodes * scope.n_run * scope.n_mb;
    assert_eq!(sched.stats().micro_batches, total_tasks);
    let mut status = BTreeMap::new();
    for node in 0..scope.nodes {
        for g in 0..total_runs {
            for mb in 0..scope.n_mb {
                status.insert((node, g, mb), Status::Queued);
            }
        }
    }
    let mut start = World {
        sched,
        status,
        live: vec![true; scope.peers],
        trained: 0,
        stolen_claims: 0,
    };
    start.sweep(scope);

    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut stack = vec![start];
    while let Some(w) = stack.pop() {
        if !seen.insert(w.memo()) {
            continue;
        }
        // The schedule's view of readiness must match the record.
        for g in 0..total_runs {
            let open = w
                .status
                .iter()
                .any(|(k, s)| k.1 == g && matches!(s, Status::Queued | Status::InFlight(_)));
            assert_eq!(w.sched.run_ready(g), !open, "{scope:?}: run_ready({g})");
        }
        let mut progress = 0;

        for p in (0..scope.peers).filter(|&p| w.live[p]) {
            let flying = w.in_flight(p);
            // Claim.
            if flying.len() < scope.window {
                let mut next = w.clone();
                let claim = next
                    .sched
                    .next_for(|node| node == p, |node| scope.can_serve(p, node));
                if let Some((task, stolen)) = claim {
                    assert!(
                        task.g <= w.trained + scope.staleness,
                        "{scope:?}: handed out run {} with {} trained",
                        task.g,
                        w.trained
                    );
                    assert!(scope.can_serve(p, task.node), "{scope:?}: unservable claim");
                    assert_eq!(stolen, task.node != p, "{scope:?}: steal flag");
                    assert_eq!(task, scope.task(key(&task)), "{scope:?}: task shape");
                    let was = next.status.insert(key(&task), Status::InFlight(p));
                    assert_eq!(
                        was,
                        Some(Status::Queued),
                        "{scope:?}: {task:?} handed out twice"
                    );
                    if stolen {
                        next.stolen_claims += 1;
                        let owner_live = w.live.get(task.node).copied().unwrap_or(false);
                        next.sched.record_steal(owner_live);
                    }
                    if scope.staleness == 0 {
                        let runs: HashSet<usize> = next
                            .status
                            .iter()
                            .filter(|(_, s)| matches!(s, Status::InFlight(_)))
                            .map(|(k, _)| k.1)
                            .collect();
                        assert!(
                            runs.len() <= 1,
                            "{scope:?}: S = 0 with runs {runs:?} in flight"
                        );
                    }
                    progress += 1;
                    stack.push(next);
                }
            }
            for &k in &flying {
                // Complete.
                let mut next = w.clone();
                let task = scope.task(k);
                let (features, labels) = payload(&task);
                next.sched.complete(task, features, labels);
                next.status.insert(k, Status::Done);
                progress += 1;
                stack.push(next);
                // Transient failure: the task goes back, the peer lives.
                let mut next = w.clone();
                next.sched.fail(task);
                next.status.insert(k, Status::Queued);
                next.sweep(scope);
                stack.push(next);
            }
            // Death: everything this peer had in flight fails.
            let mut next = w.clone();
            next.live[p] = false;
            for &k in &flying {
                next.sched.fail(scope.task(k));
                next.status.insert(k, Status::Queued);
            }
            next.sweep(scope);
            stack.push(next);
        }

        // Train the next run once it is ready.
        if w.trained < total_runs && w.sched.run_ready(w.trained) {
            let mut next = w.clone();
            let g = w.trained;
            let want: Vec<usize> = w
                .status
                .iter()
                .filter(|(k, s)| k.1 == g && **s == Status::Done)
                .map(|(k, _)| payload(&scope.task(*k)).1[0])
                .collect();
            match next.sched.take_run(g) {
                Some((features, labels)) => {
                    assert_eq!(labels, want, "{scope:?}: gather order of run {g}");
                    let ids: Vec<usize> = features.data().iter().map(|&x| x as usize).collect();
                    assert_eq!(ids, want, "{scope:?}: feature order of run {g}");
                }
                None => assert!(want.is_empty(), "{scope:?}: run {g} lost {want:?}"),
            }
            next.sched.mark_trained(g);
            next.trained += 1;
            progress += 1;
            stack.push(next);
        }

        if w.trained == total_runs {
            assert!(w.sched.exhausted(), "{scope:?}: trained but not exhausted");
            assert!(
                w.status
                    .values()
                    .all(|s| matches!(s, Status::Done | Status::Orphaned)),
                "{scope:?}: finished with open tasks {:?}",
                w.status
            );
            let stats = w.sched.stats();
            let counted = stats.steals + w.sched.reroutes() as usize;
            assert_eq!(counted, w.stolen_claims, "{scope:?}: steals + reroutes");
            if scope.staleness == 0 {
                assert_eq!(stats.stale_steps, 0, "{scope:?}: S = 0 ran ahead");
            }
        } else {
            // No deadlock: short of the end some claim, completion or
            // training step is always possible, and each strictly
            // advances, so every fair run reaches `exhausted()`.
            assert!(progress > 0, "{scope:?}: stuck at {:?}", w.status);
        }
    }
    seen.len()
}

/// Every subset of the off-diagonal `(peer, node)` pairs.
fn relations(peers: usize, nodes: usize) -> Vec<Vec<(usize, usize)>> {
    let pairs: Vec<(usize, usize)> = (0..peers)
        .flat_map(|p| (0..nodes).map(move |n| (p, n)))
        .filter(|(p, n)| p != n)
        .collect();
    (0..1usize << pairs.len())
        .map(|mask| {
            pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &pair)| pair)
                .collect()
        })
        .collect()
}

/// Fleets of up to two nodes and two peers, each peer with the cluster
/// driver's two-deep window, under every `can_serve` relation.
#[test]
fn every_interleaving_on_up_to_two_peers() {
    let mut states = 0;
    for nodes in 1..=2 {
        for peers in 1..=2 {
            for serves in relations(peers, nodes) {
                for (n_run, n_mb) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                    for staleness in 0..=2 {
                        states += explore(&Scope {
                            nodes,
                            peers,
                            n_run,
                            n_mb,
                            staleness,
                            window: 2,
                            serves: serves.clone(),
                        });
                    }
                }
            }
        }
    }
    assert!(states > 10_000, "explored only {states} states");
}

/// Three nodes and three peers (one slot each): every `can_serve`
/// relation at one micro-batch per run, and the empty, ring and full
/// relations at two.
#[test]
fn every_interleaving_on_three_peers() {
    let ring = vec![(0, 1), (1, 2), (2, 0)];
    let full = relations(3, 3).pop().expect("the all-pairs relation");
    let mut scopes = Vec::new();
    for staleness in 0..=2 {
        for serves in relations(3, 3) {
            scopes.push((2, 1, staleness, serves));
        }
        for serves in [Vec::new(), ring.clone(), full.clone()] {
            scopes.push((2, 2, staleness, serves));
        }
    }
    let mut states = 0;
    for (n_run, n_mb, staleness, serves) in scopes {
        states += explore(&Scope {
            nodes: 3,
            peers: 3,
            n_run,
            n_mb,
            staleness,
            window: 1,
            serves,
        });
    }
    assert!(states > 100_000, "explored only {states} states");
}
