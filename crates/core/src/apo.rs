//! APO: Automated model Partitioning and Organization (§5.3, Algorithm 1).
//!
//! APO answers the two deployment questions of NDPipe: *where to cut the
//! model* (`FindBestPoint`) and *how many PipeStores to use*
//! (Algorithm 1). The partition choice trades PipeStore compute against
//! activation-transfer volume; the store count balances the Store- and
//! Tuner-stages of the pipeline so neither idles (minimal `T_diff`).

use cluster::training::{training_report, TrainSetup};
use dnn::ModelProfile;
use hw::{InstanceSpec, LinkSpec};
use simkit::{Resource, SimTime};

/// Inputs of Algorithm 1.
#[derive(Debug, Clone)]
pub struct ApoInput {
    /// DNN model architecture `M`.
    pub model: ModelProfile,
    /// PipeStore hardware (provides `F_P`).
    pub store: InstanceSpec,
    /// Network bandwidth `BW` between PipeStores and Tuner.
    pub link: LinkSpec,
    /// Maximum number of PipeStores to consider (`N_max_ps`).
    pub max_pipestores: usize,
    /// Training-set size, images.
    pub images: u64,
    /// Head-training epochs.
    pub epochs: usize,
    /// Training batch size.
    pub batch: usize,
    /// Pipeline depth `N_run`.
    pub n_run: usize,
}

impl ApoInput {
    /// The paper's deployment defaults for a given model.
    pub fn paper_default(model: ModelProfile) -> Self {
        ApoInput {
            model,
            store: InstanceSpec::pipestore(),
            link: LinkSpec::ethernet_gbps(10.0),
            max_pipestores: 20,
            images: 1_200_000,
            epochs: 20,
            batch: 512,
            n_run: 3,
        }
    }
}

/// One candidate organization evaluated by APO.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Number of PipeStores.
    pub n_pipestores: usize,
    /// Best partition point for this store count.
    pub partition: usize,
    /// Store-stage time `T_ps`, seconds.
    pub t_ps: f64,
    /// Tuner-stage time `T_tuner`, seconds.
    pub t_tuner: f64,
    /// `|T_ps − T_tuner|`.
    pub t_diff: f64,
    /// End-to-end training time, seconds.
    pub total_secs: f64,
}

/// Output of Algorithm 1: the chosen organization plus the full sweep.
#[derive(Debug, Clone)]
pub struct ApoResult {
    /// The best number of PipeStores (`N_best_ps`).
    pub best: Candidate,
    /// Every candidate considered, indexed by store count − 1.
    pub sweep: Vec<Candidate>,
}

/// `FindBestPoint` (§5.3): for a fixed store count, evaluates every
/// partitionable point — stage boundaries only, never inside residual
/// blocks, with the trainable tail pinned to the Tuner to avoid weight
/// synchronization — and returns the point with the shortest estimated
/// training time.
///
/// # Panics
///
/// Panics if `n_pipestores` is zero.
pub fn find_best_point(input: &ApoInput, n_pipestores: usize) -> Candidate {
    assert!(n_pipestores > 0, "need at least one PipeStore");
    let first_trainable = input.model.first_trainable_stage();
    let mut best: Option<Candidate> = None;
    // Partition points 0..=first_trainable keep every trainable stage on
    // the Tuner (the paper's no-sync constraint).
    for k in 0..=first_trainable {
        let setup = TrainSetup {
            model: input.model.clone(),
            images: input.images,
            epochs: input.epochs,
            batch: input.batch,
            n_pipestores,
            partition: k,
            n_run: input.n_run,
            link: input.link.clone(),
            store: input.store.clone(),
        };
        let r = training_report(&setup);
        let cand = Candidate {
            n_pipestores,
            partition: k,
            t_ps: r.store_stage_secs + r.transfer_secs,
            t_tuner: r.tuner_stage_secs + r.weight_sync_secs,
            t_diff: r.stage_imbalance(),
            total_secs: r.total_secs,
        };
        let better = match &best {
            None => true,
            Some(b) => cand.total_secs < b.total_secs,
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("at least one partition point exists")
}

/// Algorithm 1: sweeps `1..=N_max_ps` PipeStores, calling
/// [`find_best_point`] for each, and returns the organization whose
/// pipeline stages are most balanced (minimal `T_diff`).
pub fn best_organization(input: &ApoInput) -> ApoResult {
    assert!(input.max_pipestores > 0, "need at least one PipeStore");
    let sweep: Vec<Candidate> = (1..=input.max_pipestores)
        .map(|n| find_best_point(input, n))
        .collect();
    let best = sweep
        .iter()
        .min_by(|a, b| a.t_diff.partial_cmp(&b.t_diff).expect("finite times"))
        .expect("non-empty sweep")
        .clone();
    ApoResult { best, sweep }
}

/// Inputs of the Pareto-front search: like [`ApoInput`] but over an
/// explicitly *heterogeneous* fleet — candidate organizations use the
/// first `n` entries of `fleet`, so order the list fastest-first to ask
/// "how many stores, which cut, what micro-batch size".
#[derive(Debug, Clone)]
pub struct ParetoInput {
    /// DNN model architecture `M`.
    pub model: ModelProfile,
    /// Candidate PipeStores, possibly heterogeneous (derated stragglers,
    /// Inferentia nodes, …). A point with `n` stores uses `fleet[..n]`.
    pub fleet: Vec<InstanceSpec>,
    /// The Tuner host (timing anchor and cost).
    pub tuner: InstanceSpec,
    /// Network bandwidth `BW` between PipeStores and Tuner.
    pub link: LinkSpec,
    /// Training-set size, images.
    pub images: u64,
    /// Head-training epochs.
    pub epochs: usize,
    /// Training batch size.
    pub batch: usize,
    /// Pipeline depth `N_run`.
    pub n_run: usize,
    /// Largest micro-batch split per run slice to consider (`M`).
    pub max_micro_batches: usize,
}

impl ParetoInput {
    /// The paper's deployment defaults with a homogeneous T4 fleet.
    pub fn paper_default(model: ModelProfile) -> Self {
        ParetoInput::from_apo(&ApoInput::paper_default(model))
    }

    /// Lifts an [`ApoInput`] into the Pareto search: `max_pipestores`
    /// identical stores, micro-batch splits up to 8.
    pub fn from_apo(input: &ApoInput) -> Self {
        ParetoInput {
            model: input.model.clone(),
            fleet: vec![input.store.clone(); input.max_pipestores],
            tuner: InstanceSpec::tuner(),
            link: input.link.clone(),
            images: input.images,
            epochs: input.epochs,
            batch: input.batch,
            n_run: input.n_run,
            max_micro_batches: 8,
        }
    }
}

/// One configuration evaluated by the Pareto search.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Partition point `k` (stages `0..k` run on PipeStores).
    pub partition: usize,
    /// Number of PipeStores (`fleet[..n]`).
    pub n_pipestores: usize,
    /// Micro-batches per run slice (`1` = the run-at-a-time schedule).
    pub micro_batch: usize,
    /// Store-stage time per job, seconds (steal-balanced when `M > 1`).
    pub t_ps: f64,
    /// Tuner-stage time per job, seconds.
    pub t_tuner: f64,
    /// End-to-end training time, seconds.
    pub total_secs: f64,
    /// Fleet + Tuner rental for the job, USD.
    pub cost_usd: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other`: no worse on both objectives
    /// (time, cost) and strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.total_secs <= other.total_secs
            && self.cost_usd <= other.cost_usd
            && (self.total_secs < other.total_secs || self.cost_usd < other.cost_usd)
    }
}

/// Output of the Pareto search: the non-dominated frontier plus the knee.
#[derive(Debug, Clone)]
pub struct ParetoFront {
    /// Non-dominated points, sorted by `total_secs` ascending.
    pub frontier: Vec<ParetoPoint>,
    /// The knee: the frontier point closest (after normalizing both
    /// objectives to `[0, 1]` over the frontier) to the ideal corner.
    pub knee: ParetoPoint,
    /// How many configurations were evaluated in total.
    pub candidates: usize,
}

/// Per-peer streamed store-stage rate in images/sec — the same
/// three-stage min (GPU forward over the prefix, disk read, CPU
/// decompression) the cluster simulator charges, but evaluated against
/// one concrete peer so heterogeneous fleets get per-device rates.
fn store_rate(spec: &InstanceSpec, model: &ModelProfile, partition: usize) -> f64 {
    let prefix_flops = model.flops_before(partition);
    let dnn_factor = spec.gpus.first().map(|g| g.dnn_factor).unwrap_or(0.0);
    let gpu_rate = if prefix_flops > 0.0 {
        if dnn_factor > 0.0 {
            model.effective_flops(dnn_factor) / prefix_flops
        } else {
            0.0
        }
    } else {
        f64::INFINITY
    };
    let disk_rate = spec.disk.read_bps / hw::COMPRESSED_IMAGE_BYTES;
    let decomp_rate = spec.cpu.decompress_bps(2) / hw::COMPRESSED_IMAGE_BYTES;
    gpu_rate.min(disk_rate).min(decomp_rate)
}

/// Evaluates one `(partition, n, micro_batch)` configuration.
///
/// The Tuner-side and transfer terms come straight from
/// [`training_report`] (they do not depend on store hardware when the
/// trainable tail stays on the Tuner), so with a homogeneous fleet and
/// `M = 1` the point reproduces [`find_best_point`]'s arithmetic exactly
/// — the frontier provably contains the single-point answer. The store
/// stage generalizes to heterogeneous devices:
///
/// - `M = 1`: no intra-run stealing is possible (the steal quantum is a
///   whole run slice), so the slowest peer paces the stage.
/// - `M > 1`: idle peers steal micro-batches, so the fleet converges on
///   the steal-balanced aggregate rate, plus one un-stealable tail
///   chunk on the slowest peer and a per-extra-micro-batch dispatch
///   overhead (the RPCs the barrier schedule would not have issued).
fn evaluate_point(input: &ParetoInput, partition: usize, n: usize, m: usize) -> ParetoPoint {
    /// Tuner-side dispatch cost of one extra micro-batch RPC, seconds.
    const MICRO_BATCH_DISPATCH_SECS: f64 = 2e-3;

    let setup = TrainSetup {
        model: input.model.clone(),
        images: input.images,
        epochs: input.epochs,
        batch: input.batch,
        n_pipestores: n,
        partition,
        n_run: input.n_run,
        link: input.link.clone(),
        store: input.fleet[0].clone(),
    };
    let r = training_report(&setup);

    let images = input.images as f64;
    let rates: Vec<f64> = input.fleet[..n]
        .iter()
        .map(|spec| store_rate(spec, &input.model, partition))
        .collect();
    let min_rate = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let sum_rate: f64 = rates.iter().sum();
    let runs = input.n_run as f64;
    let store_secs = if m == 1 {
        // Identical expression to the simulator's homogeneous formula,
        // with the slowest device pacing the whole stage.
        images / (n as f64 * min_rate)
    } else {
        let balanced = images / sum_rate;
        let tail_chunk = images / (n as f64 * runs * m as f64 * min_rate);
        balanced + tail_chunk + (m as f64 - 1.0) * runs * MICRO_BATCH_DISPATCH_SECS
    };

    // The same N_run overlap timeline the simulator runs (Fig 10b).
    let mut store_res = Resource::new("store-stage");
    let mut tuner_res = Resource::new("tuner-stage");
    let per_run_store = SimTime::from_secs((store_secs + r.transfer_secs) / runs);
    let per_run_tuner = SimTime::from_secs((r.tuner_stage_secs + r.weight_sync_secs) / runs);
    let mut end = SimTime::ZERO;
    for _ in 0..input.n_run {
        let s = store_res.serve(SimTime::ZERO, per_run_store);
        let t = tuner_res.serve(s.end, per_run_tuner);
        end = t.end;
    }
    let total_secs = end.as_secs();

    let fleet_cost: f64 = input.fleet[..n]
        .iter()
        .map(|spec| spec.cost.run_cost_usd(total_secs))
        .sum();
    ParetoPoint {
        partition,
        n_pipestores: n,
        micro_batch: m,
        t_ps: store_secs + r.transfer_secs,
        t_tuner: r.tuner_stage_secs + r.weight_sync_secs,
        total_secs,
        cost_usd: fleet_cost + input.tuner.cost.run_cost_usd(total_secs),
    }
}

/// The Pareto-front generalization of Algorithm 1: sweeps partition
/// point × store count × micro-batch size over a (possibly
/// heterogeneous) fleet, scores each configuration on (training time,
/// rental cost), and keeps the non-dominated frontier.
///
/// The default pick is the *knee* — the frontier point closest to the
/// ideal corner after min-max normalizing both objectives — rather than
/// `T_diff` balance, because with two objectives "most balanced" is no
/// longer a total order.
///
/// # Panics
///
/// Panics if the fleet is empty, `max_micro_batches` is zero, or the
/// other counts are zero (same contract as [`training_report`]).
pub fn pareto_front(input: &ParetoInput) -> ParetoFront {
    assert!(!input.fleet.is_empty(), "need at least one PipeStore");
    assert!(input.max_micro_batches > 0, "need at least one micro-batch");
    let first_trainable = input.model.first_trainable_stage();
    let mut points = Vec::new();
    for n in 1..=input.fleet.len() {
        for k in 0..=first_trainable {
            for m in 1..=input.max_micro_batches {
                points.push(evaluate_point(input, k, n, m));
            }
        }
    }
    let candidates = points.len();
    let mut frontier: Vec<ParetoPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.total_secs
            .partial_cmp(&b.total_secs)
            .expect("finite times")
            .then(a.cost_usd.partial_cmp(&b.cost_usd).expect("finite costs"))
    });
    frontier.dedup_by(|a, b| a.total_secs == b.total_secs && a.cost_usd == b.cost_usd);

    let t_min = frontier.first().map(|p| p.total_secs).unwrap_or(0.0);
    let t_max = frontier.last().map(|p| p.total_secs).unwrap_or(0.0);
    let (c_min, c_max) = frontier
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.cost_usd), hi.max(p.cost_usd))
        });
    let t_range = (t_max - t_min).max(f64::EPSILON);
    let c_range = (c_max - c_min).max(f64::EPSILON);
    let knee = frontier
        .iter()
        .min_by(|a, b| {
            let da = ((a.total_secs - t_min) / t_range).hypot((a.cost_usd - c_min) / c_range);
            let db = ((b.total_secs - t_min) / t_range).hypot((b.cost_usd - c_min) / c_range);
            da.partial_cmp(&db).expect("finite distances")
        })
        .expect("non-empty frontier")
        .clone();
    ParetoFront {
        frontier,
        knee,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_point_for_resnet50_is_the_deep_cut() {
        // Fig 9: +Conv5 wins for ResNet50 on 10 Gbps.
        let input = ApoInput::paper_default(ModelProfile::resnet50());
        let c = find_best_point(&input, 4);
        assert_eq!(c.partition, 5, "{c:?}");
    }

    #[test]
    fn best_point_never_offloads_trainable_stages() {
        for model in ModelProfile::zoo() {
            let first_trainable = model.first_trainable_stage();
            let input = ApoInput::paper_default(model);
            for n in [1, 8] {
                let c = find_best_point(&input, n);
                assert!(c.partition <= first_trainable);
            }
        }
    }

    #[test]
    fn algorithm1_balances_the_pipeline() {
        // Fig 11: ResNet50 balances around 8 PipeStores; T_diff at the
        // chosen point is (near) the sweep minimum by construction, and
        // the training-time curve flattens beyond it.
        let input = ApoInput::paper_default(ModelProfile::resnet50());
        let result = best_organization(&input);
        let n = result.best.n_pipestores;
        assert!((4..=14).contains(&n), "APO chose {n}");
        // Beyond the balance point, adding stores barely helps (≤10 %).
        let t_best = result.sweep[n - 1].total_secs;
        let t_max = result.sweep.last().unwrap().total_secs;
        assert!(
            (t_best - t_max) / t_best < 0.35,
            "best {t_best}s vs max {t_max}s"
        );
    }

    #[test]
    fn heavier_models_want_more_stores() {
        let r50 = best_organization(&ApoInput::paper_default(ModelProfile::resnet50()));
        let rx = best_organization(&ApoInput::paper_default(ModelProfile::resnext101()));
        assert!(
            rx.best.n_pipestores >= r50.best.n_pipestores,
            "resnext {} vs resnet {}",
            rx.best.n_pipestores,
            r50.best.n_pipestores
        );
    }

    #[test]
    fn sweep_is_complete_and_ordered() {
        let input = ApoInput {
            max_pipestores: 6,
            ..ApoInput::paper_default(ModelProfile::resnet50())
        };
        let result = best_organization(&input);
        assert_eq!(result.sweep.len(), 6);
        for (i, c) in result.sweep.iter().enumerate() {
            assert_eq!(c.n_pipestores, i + 1);
        }
        // Store-stage time decreases monotonically with more stores.
        for w in result.sweep.windows(2) {
            assert!(w[1].t_ps <= w[0].t_ps + 1e-9);
        }
    }

    use dnn::StageProfile;
    use proptest::prelude::*;

    /// A tiny fully-trainable model: `first_trainable_stage() == 0`, so
    /// the only legal cut keeps everything on the Tuner.
    fn degenerate_profile() -> ModelProfile {
        let stages = vec![
            StageProfile {
                name: "FC1".to_string(),
                flops: 4.0e9,
                output_bytes: 1.0e5,
                param_bytes: 2.0e6,
            },
            StageProfile {
                name: "FC2".to_string(),
                flops: 1.0e9,
                output_bytes: 4.0e3,
                param_bytes: 5.0e5,
            },
        ];
        ModelProfile::new("toy-all-trainable", stages, 800.0, 0.59e6, 2, 1.0e5)
    }

    fn small_pareto_input(model: ModelProfile, fleet: Vec<InstanceSpec>) -> ParetoInput {
        ParetoInput {
            model,
            fleet,
            tuner: InstanceSpec::tuner(),
            link: LinkSpec::ethernet_gbps(10.0),
            images: 120_000,
            epochs: 4,
            batch: 256,
            n_run: 3,
            max_micro_batches: 4,
        }
    }

    #[test]
    fn frontier_contains_the_single_point_answer() {
        // With a homogeneous fleet and M = 1 the Pareto evaluation
        // reuses `training_report` verbatim, so for every store count
        // the frontier must hold a point at least as good (time AND
        // cost) as `find_best_point`'s answer — and Algorithm 1's
        // chosen organization must appear with its exact total.
        let apo = ApoInput {
            max_pipestores: 8,
            ..ApoInput::paper_default(ModelProfile::resnet50())
        };
        let input = ParetoInput::from_apo(&apo);
        let front = pareto_front(&input);
        for n in 1..=apo.max_pipestores {
            let c = find_best_point(&apo, n);
            let fleet_cost: f64 = input.fleet[..n]
                .iter()
                .map(|s| s.cost.run_cost_usd(c.total_secs))
                .sum();
            let cost = fleet_cost + input.tuner.cost.run_cost_usd(c.total_secs);
            assert!(
                front
                    .frontier
                    .iter()
                    .any(|p| p.total_secs <= c.total_secs + 1e-9 && p.cost_usd <= cost + 1e-9),
                "nothing on the frontier covers find_best_point(n={n}): {c:?}"
            );
        }
        let best = best_organization(&apo).best;
        assert!(
            front
                .frontier
                .iter()
                .any(|p| p.n_pipestores == best.n_pipestores
                    && p.partition == best.partition
                    && p.micro_batch == 1
                    && (p.total_secs - best.total_secs).abs() < 1e-9)
                || front.frontier.iter().any(|p| p.dominates(&evaluate_point(
                    &input,
                    best.partition,
                    best.n_pipestores,
                    1
                ))),
            "Algorithm 1's organization fell off the frontier: {best:?}"
        );
    }

    #[test]
    fn one_peer_fleet_still_yields_a_frontier() {
        let input = small_pareto_input(ModelProfile::resnet50(), vec![InstanceSpec::pipestore()]);
        let front = pareto_front(&input);
        assert!(!front.frontier.is_empty());
        assert!(front.frontier.iter().all(|p| p.n_pipestores == 1));
        // A homogeneous (here: single-device) fleet gains nothing from
        // splitting runs — micro-batching only adds dispatch RPCs.
        assert_eq!(front.knee.micro_batch, 1, "{:?}", front.knee);
        assert!(front.frontier.contains(&front.knee));
    }

    #[test]
    fn degenerate_all_trainable_model_pins_the_cut_at_zero() {
        let input = small_pareto_input(degenerate_profile(), vec![InstanceSpec::pipestore(); 3]);
        let front = pareto_front(&input);
        assert!(!front.frontier.is_empty());
        assert!(front.frontier.iter().all(|p| p.partition == 0));
    }

    #[test]
    fn a_straggler_makes_micro_batching_win() {
        // Three healthy stores plus one at quarter speed: at M = 1 the
        // straggler paces the store stage; with stealing enabled the
        // fleet converges on the aggregate rate, so some M > 1 point
        // must beat every M = 1 point at the same store count.
        let fleet = vec![
            InstanceSpec::pipestore(),
            InstanceSpec::pipestore(),
            InstanceSpec::pipestore(),
            InstanceSpec::pipestore_derated(0.25),
        ];
        let input = small_pareto_input(ModelProfile::resnet50(), fleet);
        let k = input.model.first_trainable_stage();
        let barrier = evaluate_point(&input, k, 4, 1);
        let stolen = evaluate_point(&input, k, 4, input.max_micro_batches);
        assert!(
            stolen.total_secs < barrier.total_secs,
            "stealing {:.1}s should beat barrier {:.1}s",
            stolen.total_secs,
            barrier.total_secs
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// No frontier point may dominate another, the knee is on the
        /// frontier, and every enumerated configuration is covered by
        /// (weakly dominated from) the frontier.
        #[test]
        fn frontier_is_non_dominated_and_covering(
            n_fleet in 1usize..5,
            derate_pct in 10u32..100,
            max_mb in 1usize..5,
            n_run in 1usize..4,
            model_idx in 0usize..3,
        ) {
            let model = ModelProfile::zoo().swap_remove(model_idx % ModelProfile::zoo().len());
            let mut fleet = vec![InstanceSpec::pipestore(); n_fleet];
            if let Some(last) = fleet.last_mut() {
                *last = InstanceSpec::pipestore_derated(f64::from(derate_pct) / 100.0);
            }
            let input = ParetoInput {
                max_micro_batches: max_mb,
                n_run,
                ..small_pareto_input(model, fleet)
            };
            let front = pareto_front(&input);
            prop_assert!(!front.frontier.is_empty());
            for (i, p) in front.frontier.iter().enumerate() {
                for (j, q) in front.frontier.iter().enumerate() {
                    if i != j {
                        prop_assert!(!p.dominates(q), "{p:?} dominates {q:?}");
                    }
                }
            }
            prop_assert!(front.frontier.contains(&front.knee));
            // Sorted by time ascending means cost must descend weakly.
            for w in front.frontier.windows(2) {
                prop_assert!(w[0].total_secs <= w[1].total_secs);
                prop_assert!(w[0].cost_usd >= w[1].cost_usd - 1e-12,
                    "frontier not a staircase: {:?}", w);
            }
            // Every configuration is weakly dominated by some frontier point.
            let k_max = input.model.first_trainable_stage();
            for n in 1..=input.fleet.len() {
                for k in 0..=k_max {
                    for m in 1..=input.max_micro_batches {
                        let c = evaluate_point(&input, k, n, m);
                        prop_assert!(front.frontier.iter().any(
                            |p| p.total_secs <= c.total_secs + 1e-9
                                && p.cost_usd <= c.cost_usd + 1e-9));
                    }
                }
            }
        }
    }

    #[test]
    fn slow_links_push_the_cut_deeper_or_equal() {
        // On a 1 Gbps link, transfer dominates; the best cut should be at
        // least as deep as on 40 Gbps.
        let mut slow = ApoInput::paper_default(ModelProfile::inception_v3());
        slow.link = LinkSpec::ethernet_gbps(1.0);
        let mut fast = slow.clone();
        fast.link = LinkSpec::ethernet_gbps(40.0);
        let c_slow = find_best_point(&slow, 4);
        let c_fast = find_best_point(&fast, 4);
        assert!(c_slow.partition >= c_fast.partition);
    }
}
