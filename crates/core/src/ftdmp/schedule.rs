//! The FT-DMP pipeline schedule as a pure, single-threaded state
//! machine: every scheduling *decision* lives here, and nothing else
//! does — no threads, channels, clocks, sockets or telemetry.
//!
//! A job is `rounds × n_run` *global runs*; global run `g` covers run
//! `g % n_run` of every node's shard, cut into micro-batches
//! ([`slice_bounds`]). Drivers feed events in and act on the decisions
//! that come out:
//!
//! | event in | decision out |
//! |---|---|
//! | [`Schedule::next_for`] (a peer has a free slot) | the next [`SliceTask`] it may extract — own queue first, else the deepest eligible backlog it can serve — or `None` while the staleness gate `g ≤ trained + S` holds everything back |
//! | [`Schedule::complete`] | features land in the run's `(node, micro-batch)` slot |
//! | [`Schedule::fail`] | the task returns to its node's queue, most urgent first |
//! | [`Schedule::orphan_unservable`] | queued work of nodes no live peer can serve is dropped and the nodes are named |
//! | [`Schedule::mark_trained`] | the staleness window advances |
//! | [`Schedule::run_ready`] / [`Schedule::take_run`] | run `g`'s features, stacked in `(node, micro-batch)` order whoever served what |
//!
//! Its one driver, `Cluster::ftdmp_fine_tune_pipelined`, only moves
//! tasks and results between this type and the sockets. The in-process
//! [`super::ftdmp_fine_tune`] does not use it: it is the run-at-a-time
//! barrier the driver must match bit for bit at every `S`.
//!
//! This file is an ndlint no-panic zone: the socket driver's guarantee
//! that a flaky peer never panics the Tuner follows the decisions here.

use super::{FtdmpConfig, ScheduleStats};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use tensor::Tensor;

/// Rows of micro-batch `mb` of `n_mb` within run `run` of `n_run` over a
/// shard of `shard_len` rows. Runs partition `[0, shard_len)` and
/// micro-batches partition their run, both contiguously, so
/// concatenating slices in `(run, mb)` order reproduces the shard.
pub fn slice_bounds(
    shard_len: usize,
    run: usize,
    n_run: usize,
    mb: usize,
    n_mb: usize,
) -> Range<usize> {
    let (n_run, n_mb) = (n_run.max(1), n_mb.max(1));
    let lo = run * shard_len / n_run;
    let hi = (run + 1) * shard_len / n_run;
    lo + mb * (hi - lo) / n_mb..lo + (mb + 1) * (hi - lo) / n_mb
}

/// One micro-batch extraction: micro-batch `mb` of `n_mb` within global
/// run `g`, over node `node`'s shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceTask {
    /// Whose shard to extract.
    pub node: usize,
    /// Global run index (`round * n_run + run`).
    pub g: usize,
    /// Run index within its round (`g % n_run`).
    pub run: usize,
    /// Micro-batch index within the run slice.
    pub mb: usize,
    /// Micro-batches the run slice splits into.
    pub n_mb: usize,
}

/// One finished task's `(features, labels)`.
type Extracted = (Tensor, Vec<usize>);

/// The schedule state; see the module docs for the event table.
#[derive(Debug, Clone)]
pub struct Schedule {
    staleness: usize,
    /// Per-node FIFO of queued tasks, front = lowest `(g, mb)`.
    queues: BTreeMap<usize, VecDeque<SliceTask>>,
    /// Gathered `(features, labels)` per global run, keyed `(node, mb)`.
    slots: Vec<BTreeMap<(usize, usize), Extracted>>,
    /// Queued or in-flight tasks per global run.
    remaining: Vec<usize>,
    /// Global runs the Tuner has finished training.
    trained: usize,
    stats: ScheduleStats,
    reroutes: u64,
}

impl Schedule {
    /// Builds the task table for `rounds` rounds over the shards in
    /// `shard_lens` (node → rows).
    pub fn new(shard_lens: &BTreeMap<usize, usize>, cfg: &FtdmpConfig, rounds: usize) -> Self {
        let total_runs = rounds * cfg.n_run;
        let mut remaining = vec![0usize; total_runs];
        let mut stats = ScheduleStats::default();
        let mut queues = BTreeMap::new();
        for (&node, &n) in shard_lens {
            let mut q = VecDeque::new();
            for (g, rem) in remaining.iter_mut().enumerate() {
                let run = g % cfg.n_run;
                let n_mb = cfg.micro_batches_for(slice_bounds(n, run, cfg.n_run, 0, 1).len());
                q.extend((0..n_mb).map(|mb| SliceTask {
                    node,
                    g,
                    run,
                    mb,
                    n_mb,
                }));
                *rem += n_mb;
                stats.micro_batches += n_mb;
            }
            queues.insert(node, q);
        }
        Schedule {
            staleness: cfg.staleness,
            queues,
            slots: vec![BTreeMap::new(); total_runs],
            remaining,
            trained: 0,
            stats,
            reroutes: 0,
        }
    }

    /// Claims the next task for a peer: the first `is_home` node whose
    /// queue front is inside the staleness window, else (a steal, flag
    /// `true`) the deepest such backlog among nodes it `can_serve`.
    /// `None` while nothing is eligible.
    pub fn next_for(
        &mut self,
        is_home: impl Fn(usize) -> bool,
        can_serve: impl Fn(usize) -> bool,
    ) -> Option<(SliceTask, bool)> {
        let horizon = self.trained + self.staleness;
        let eligible = |q: &VecDeque<SliceTask>| q.front().is_some_and(|t| t.g <= horizon);
        let home = self
            .queues
            .iter()
            .find(|(&node, q)| is_home(node) && eligible(q))
            .map(|(&node, _)| node);
        let (node, stolen) = match home {
            Some(node) => (node, false),
            None => {
                let mut best: Option<(usize, usize)> = None;
                for (&node, q) in &self.queues {
                    let deeper = best.is_none_or(|(len, _)| q.len() > len);
                    if deeper && eligible(q) && can_serve(node) {
                        best = Some((q.len(), node));
                    }
                }
                (best?.1, true)
            }
        };
        let task = self.queues.get_mut(&node)?.pop_front()?;
        if task.g > self.trained {
            self.stats.stale_steps += 1;
        }
        Some((task, stolen))
    }

    /// Classifies a stolen claim: taking work from a live owner is a
    /// steal, standing in for a dead one is a reroute. Only the driver
    /// knows liveness, so it reports back.
    pub fn record_steal(&mut self, owner_live: bool) {
        if owner_live {
            self.stats.steals += 1;
        } else {
            self.reroutes += 1;
        }
    }

    /// Stores a finished task's features.
    pub fn complete(&mut self, task: SliceTask, features: Tensor, labels: Vec<usize>) {
        let Some(slot) = self.slots.get_mut(task.g) else {
            return;
        };
        if slot
            .insert((task.node, task.mb), (features, labels))
            .is_none()
        {
            self.settle(task.g);
        }
    }

    /// Puts a failed task back on its node's queue, keeping the queue
    /// sorted by `(g, mb)` so the front stays the most urgent work.
    pub fn fail(&mut self, task: SliceTask) {
        let q = self.queues.entry(task.node).or_default();
        let pos = q
            .iter()
            .position(|t| (t.g, t.mb) > (task.g, task.mb))
            .unwrap_or(q.len());
        q.insert(pos, task);
    }

    /// Drops the queued work of every node `servable` rejects (completed
    /// and in-flight micro-batches still train) and returns those nodes.
    pub fn orphan_unservable(&mut self, servable: impl Fn(usize) -> bool) -> Vec<usize> {
        let orphaned: Vec<usize> = self
            .queues
            .iter()
            .filter(|(&node, q)| !q.is_empty() && !servable(node))
            .map(|(&node, _)| node)
            .collect();
        for node in &orphaned {
            for t in self.queues.remove(node).unwrap_or_default() {
                self.settle(t.g);
            }
        }
        orphaned
    }

    fn settle(&mut self, g: usize) {
        if let Some(r) = self.remaining.get_mut(g) {
            *r = r.saturating_sub(1);
        }
    }

    /// The Tuner finished training global run `g`.
    pub fn mark_trained(&mut self, g: usize) {
        self.trained = self.trained.max(g + 1);
    }

    /// Whether every task of global run `g` completed or was orphaned.
    pub fn run_ready(&self, g: usize) -> bool {
        self.remaining.get(g).is_none_or(|&r| r == 0)
    }

    /// Global run `g`'s features and labels stacked in `(node,
    /// micro-batch)` order; `None` when nothing survived or the slots
    /// disagree on width.
    pub fn take_run(&mut self, g: usize) -> Option<(Tensor, Vec<usize>)> {
        let gathered = std::mem::take(self.slots.get_mut(g)?);
        let cols = gathered.values().next()?.0.dims().get(1).copied()?;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (features, l) in gathered.into_values() {
            if features.dims() != [l.len(), cols] {
                return None;
            }
            data.extend_from_slice(features.data());
            labels.extend(l);
        }
        Some((Tensor::from_vec(data, &[labels.len(), cols]), labels))
    }

    /// Whether every task of every run completed or was orphaned.
    pub fn exhausted(&self) -> bool {
        self.remaining.iter().all(|&r| r == 0)
    }

    /// Global runs in the job (`rounds × n_run`).
    pub fn total_runs(&self) -> usize {
        self.remaining.len()
    }

    /// Task and steal counters; `bubble_secs` is the driver's to fill
    /// (the schedule has no clock).
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Claims that stood in for a dead owner.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }
}
