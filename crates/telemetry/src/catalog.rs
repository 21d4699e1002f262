//! The metric catalog: every metric the workspace registers, declared
//! once with its kind, name and HELP text.
//!
//! [`Registry`](crate::Registry) registers a metric only from one of these
//! defs, so a name cannot drift between call sites, a counter cannot be
//! re-registered as a gauge, and a metric that is not in the catalog does
//! not compile. The tests below hold the catalog to the naming scheme and
//! to DESIGN.md's `### Canonical metric names` table (name, kind and
//! HELP text against the meaning cell), in both directions;
//! the workspace test `every_catalog_metric_is_registered_outside_tests`
//! fails on an entry that no non-test code outside this crate registers.
//! A new metric is one row here, one row there, and a registration site.
//!
//! ```
//! use telemetry::{catalog, Registry};
//!
//! let reg = Registry::new();
//! reg.counter_with(catalog::RPC_SERVER_REQUESTS_TOTAL, &[("op", "describe")]).inc();
//! assert_eq!(reg.snapshot().counter_value("ndpipe_rpc_server_requests_total"), Some(1));
//! ```
//!
//! A raw name does not register, and neither does a def built outside
//! this crate:
//!
//! ```compile_fail
//! let reg = telemetry::Registry::new();
//! reg.counter("ndpipe_rogue_total", "a metric outside the catalog");
//! ```
//!
//! ```compile_fail
//! let rogue = telemetry::catalog::CounterDef::new("ndpipe_rogue_total", "a metric outside the catalog");
//! telemetry::Registry::new().counter(rogue);
//! ```

macro_rules! def_kind {
    ($(#[$doc:meta] $def:ident;)*) => {$(
        #[$doc]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $def {
            pub(crate) name: &'static str,
            pub(crate) help: &'static str,
        }

        impl $def {
            pub(crate) const fn new(name: &'static str, help: &'static str) -> $def {
                $def { name, help }
            }
        }
    )*};
}

def_kind! {
    /// A counter in the catalog.
    CounterDef;
    /// A gauge in the catalog.
    GaugeDef;
    /// A histogram in the catalog.
    HistogramDef;
}

macro_rules! catalog {
    ($($kind:ident $id:ident = $name:literal, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: catalog!(@def $kind) = <catalog!(@def $kind)>::new($name, $help);
        )*

        /// Every catalogued metric as `(const, name, kind, help)`: the
        /// const's identifier in this module, the metric name, one of
        /// `counter`, `gauge` or `histogram`, and the HELP text.
        pub const ALL: &[(&str, &str, &str, &str)] =
            &[$((stringify!($id), $name, stringify!($kind), $help)),*];
    };
    (@def counter) => { CounterDef };
    (@def gauge) => { GaugeDef };
    (@def histogram) => { HistogramDef };
}

catalog! {
    histogram NPE_STAGE_BUSY_SECONDS = "ndpipe_npe_stage_busy_seconds",
        "per-run busy seconds of one NPE stage";
    counter NPE_STAGE_ITEMS_TOTAL = "ndpipe_npe_stage_items_total",
        "items that passed through one NPE stage";
    counter NPE_STAGE_ERRORS_TOTAL = "ndpipe_npe_stage_errors_total",
        "items dropped because a pipeline stage failed (decode error or contained panic)";
    gauge NPE_STAGE_OCCUPANCY = "ndpipe_npe_stage_occupancy",
        "fraction of the last run's wall time the stage was busy";
    counter NPE_BATCHES_TOTAL = "ndpipe_npe_batches_total",
        "batched forward passes issued by the FE stage";
    histogram NPE_RUN_WALL_SECONDS = "ndpipe_npe_run_wall_seconds",
        "end-to-end wall time of one NPE pipeline run";
    gauge NPE_QUEUE_DEPTH_MEAN = "ndpipe_npe_queue_depth_mean",
        "mean sampled depth of an inter-stage queue, last run";
    gauge NPE_QUEUE_DEPTH_MAX = "ndpipe_npe_queue_depth_max",
        "max sampled depth of an inter-stage queue, last run";
    counter STORE_PHOTOS_TOTAL = "ndpipe_store_photos_total",
        "photos ingested by this store";
    counter STORE_SIDECAR_BYTES_TOTAL = "ndpipe_store_sidecar_bytes_total",
        "compressed preprocessed-binary sidecar bytes written";
    counter STORE_PREPROC_BYTES_TOTAL = "ndpipe_store_preproc_bytes_total",
        "uncompressed preprocessed-binary bytes ingested";
    counter FEATURE_CACHE_HITS_TOTAL = "ndpipe_feature_cache_hits_total",
        "FT-DMP feature slices a store served from its cache without a forward";
    counter FEATURE_CACHE_MISSES_TOTAL = "ndpipe_feature_cache_misses_total",
        "FT-DMP feature slices a store extracted through the NPE engine and cached";
    counter RPC_SERVER_REQUESTS_TOTAL = "ndpipe_rpc_server_requests_total",
        "requests handled by this store's RPC server";
    histogram RPC_SERVER_OP_SECONDS = "ndpipe_rpc_server_op_seconds",
        "server-side handling latency per operation";
    counter RPC_SERVER_BYTES_READ_TOTAL = "ndpipe_rpc_server_bytes_read_total",
        "request bytes read off the wire";
    counter RPC_SERVER_BYTES_WRITTEN_TOTAL = "ndpipe_rpc_server_bytes_written_total",
        "reply bytes put on the wire";
    counter RPC_CLIENT_REQUESTS_TOTAL = "ndpipe_rpc_client_requests_total",
        "RPC calls issued by this process";
    histogram RPC_CLIENT_OP_SECONDS = "ndpipe_rpc_client_op_seconds",
        "client-observed round-trip latency per operation";
    counter RPC_CLIENT_BYTES_READ_TOTAL = "ndpipe_rpc_client_bytes_read_total",
        "reply bytes read off the wire";
    counter RPC_CLIENT_BYTES_WRITTEN_TOTAL = "ndpipe_rpc_client_bytes_written_total",
        "request bytes put on the wire";
    counter RPC_CLIENT_CONNECT_RETRIES_TOTAL = "ndpipe_rpc_client_connect_retries_total",
        "connection attempts beyond the first";
    gauge RPC_SESSIONS_ACTIVE = "ndpipe_rpc_sessions_active",
        "live Tuner sessions on this store's RPC server";
    gauge RPC_PENDING_SESSIONS = "ndpipe_rpc_pending_sessions",
        "sessions with at least one request in flight";
    histogram RPC_BATCH_SIZE = "ndpipe_rpc_batch_size",
        "rows per coalesced cross-session inference batch";
    histogram CLUSTER_FANOUT_SECONDS = "ndpipe_cluster_fanout_seconds",
        "wall time of one cluster-wide fan-out (slowest peer)";
    counter MODEL_INSTALL_FALLBACKS_TOTAL = "ndpipe_model_install_fallbacks_total",
        "head-only installs a store refused and the Tuner re-sent in full";
    counter CLUSTER_PEER_FAILURES_TOTAL = "ndpipe_cluster_peer_failures_total",
        "peer operations that failed after retries";
    histogram FTDMP_PHASE_SECONDS = "ndpipe_ftdmp_phase_seconds",
        "wall time of one in-process FT-DMP phase";
    counter FTDMP_ROUNDS_TOTAL = "ndpipe_ftdmp_rounds_total",
        "completed in-process FT-DMP fine-tuning rounds";
    counter FTDMP_FEATURE_BYTES_TOTAL = "ndpipe_ftdmp_feature_bytes_total",
        "feature bytes shipped from PipeStores to the Tuner";
    histogram FTDMP_REMOTE_PHASE_SECONDS = "ndpipe_ftdmp_remote_phase_seconds",
        "wall time of one remote FT-DMP phase";
    counter FTDMP_STEALS_TOTAL = "ndpipe_ftdmp_steals_total",
        "FT-DMP micro-batches re-extracted away from their home store";
    counter FTDMP_STALE_STEPS_TOTAL = "ndpipe_ftdmp_stale_steps_total",
        "FT-DMP micro-batches extracted ahead of the Tuner's training run";
    histogram FTDMP_BUBBLE_SECONDS = "ndpipe_ftdmp_bubble_seconds",
        "seconds the Tuner idled waiting for a run's features";
    counter FTDMP_REMOTE_ROUNDS_TOTAL = "ndpipe_ftdmp_remote_rounds_total",
        "completed remote FT-DMP fine-tuning rounds";
    counter CHECKNRUN_DELTAS_TOTAL = "ndpipe_checknrun_deltas_total",
        "Check-N-Run deltas encoded";
    counter CHECKNRUN_DELTA_BYTES_TOTAL = "ndpipe_checknrun_delta_bytes_total",
        "compressed delta payload bytes encoded";
    counter CHECKNRUN_FULL_MODEL_BYTES_TOTAL = "ndpipe_checknrun_full_model_bytes_total",
        "bytes a full-model distribution would have moved";
    histogram CHECKNRUN_TRAFFIC_REDUCTION = "ndpipe_checknrun_traffic_reduction",
        "full-model bytes over delta bytes, per encoded delta";
    counter ONLINE_REQUESTS_TOTAL = "ndpipe_online_requests_total",
        "uploads served by online inference";
    histogram ONLINE_QUEUE_WAIT_SECONDS = "ndpipe_online_queue_wait_seconds",
        "time an upload waited for its dynamic batch to fire";
    histogram ONLINE_BATCH_SIZE = "ndpipe_online_batch_size",
        "requests served per dynamically formed batch";
    counter ONLINE_COALESCED_TOTAL = "ndpipe_online_coalesced_total",
        "Infer rows served through multi-row coalesced batches";
    counter OBJSTORE_OPS_TOTAL = "ndpipe_objstore_ops_total",
        "object-store operations";
    counter OBJSTORE_BYTES_WRITTEN_TOTAL = "ndpipe_objstore_bytes_written_total",
        "object payload bytes written";
    counter OBJSTORE_BYTES_READ_TOTAL = "ndpipe_objstore_bytes_read_total",
        "object payload bytes read";
    counter OBJSTORE_COMPACT_RECLAIMED_BYTES_TOTAL = "ndpipe_objstore_compact_reclaimed_bytes_total",
        "log bytes reclaimed by compaction";
    gauge OBJSTORE_LIVE_OBJECTS = "ndpipe_objstore_live_objects",
        "live objects across open stores";
    gauge OBJSTORE_VOLUMES = "ndpipe_objstore_volumes",
        "volumes across open stores";
    counter GEMM_FLOPS_TOTAL = "ndpipe_gemm_flops_total",
        "f32 floating-point operations executed by the packed GEMM driver";
    counter GEMM_FAST_FLOPS_TOTAL = "ndpipe_gemm_fast_flops_total",
        "floating-point operations executed by the opt-in fast/int8 kernel families";
    gauge QUANT_ACCURACY_DELTA = "ndpipe_quant_accuracy_delta",
        "largest top-1 accuracy gap between deterministic f32 and int8 feature extraction";
    gauge POOL_QUEUE_DEPTH = "ndpipe_pool_queue_depth",
        "jobs currently queued for helpers in the shared worker pool";
    gauge PLACEMENT_EPOCH = "ndpipe_placement_epoch",
        "epoch of the placement map this store holds";
    counter REBALANCE_BYTES_TOTAL = "ndpipe_rebalance_bytes_total",
        "payload bytes copied to backfilling replicas by rebalance sweeps";
    counter SHARD_REROUTES_TOTAL = "ndpipe_shard_reroutes_total",
        "reads and extractions rerouted from a dead replica to a survivor";
}

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    #[test]
    fn names_follow_the_scheme_and_are_unique() {
        let mut seen = BTreeSet::new();
        for &(_, name, kind, _) in ALL {
            let body = name.strip_prefix("ndpipe_");
            assert!(body.is_some(), "`{name}` must use the `ndpipe_` prefix");
            let snake = name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            assert!(
                snake && !name.contains("__") && !name.ends_with('_'),
                "`{name}` is not snake_case ([a-z0-9_], no doubled/trailing underscore)"
            );
            if kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "counter `{name}` must end in `_total`"
                );
            }
            assert!(seen.insert(name), "`{name}` is declared twice");
        }
    }

    type Row = (String, String, String);

    /// Rows of the markdown table under DESIGN.md's `### Canonical metric
    /// names` heading, shaped `| \`name\` | kind | labels | meaning |`,
    /// as `(name, kind, meaning)`.
    fn design_table(design: &str) -> BTreeSet<Row> {
        let mut in_section = false;
        let mut table = BTreeSet::new();
        for line in design.lines().map(str::trim) {
            if line.starts_with('#') {
                in_section = line == "### Canonical metric names";
                continue;
            }
            if !in_section || !line.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let name = cells[0].trim_matches('`');
            if name.starts_with("ndpipe_") && cells.len() >= 4 {
                table.insert((
                    name.to_string(),
                    cells[1].to_ascii_lowercase(),
                    cells[3].to_string(),
                ));
            }
        }
        table
    }

    #[test]
    fn catalog_matches_the_design_table_in_both_directions() {
        let design = design_table(include_str!("../../../DESIGN.md"));
        assert!(
            !design.is_empty(),
            "DESIGN.md lost its canonical metric table"
        );
        let code: BTreeSet<Row> = ALL
            .iter()
            .map(|&(_, n, k, h)| (n.to_string(), k.to_string(), h.to_string()))
            .collect();
        let missing: Vec<_> = code.difference(&design).collect();
        let unregistered: Vec<_> = design.difference(&code).collect();
        assert!(
            missing.is_empty(),
            "catalogued (name, kind, HELP) not in DESIGN.md: {missing:?}"
        );
        assert!(
            unregistered.is_empty(),
            "DESIGN.md (name, kind, meaning) not catalogued: {unregistered:?}"
        );
    }

    #[test]
    fn design_table_parser_stays_inside_its_section() {
        let md = "\
# DESIGN\n\n### Canonical metric names\n\n\
| name | kind | labels | meaning |\n|---|---|---|---|\n\
| `ndpipe_x_total` | counter | `op` | things |\n\
| `ndpipe_y` | gauge | — | level |\n\n## Next section\n\
| `ndpipe_not_in_table` | counter | — | outside the section |\n";
        let want: BTreeSet<Row> = [
            ("ndpipe_x_total", "counter", "things"),
            ("ndpipe_y", "gauge", "level"),
        ]
        .iter()
        .map(|&(n, k, m)| (n.to_string(), k.to_string(), m.to_string()))
        .collect();
        assert_eq!(design_table(md), want);
    }
}
