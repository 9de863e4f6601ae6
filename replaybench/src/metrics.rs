//! The metric catalogue, and what each run derives from the simulator's reports.

use prefillonly::{RoutingReason, RunReport};

use crate::stats::{fingerprint, nearest_rank};
use crate::workloads::{Prepared, Replay};

/// Every end-to-end metric, in output order, as (name, unit).  The bounds and
/// directions live in `BENCHMARK.json`; the layer each per-layer metric belongs
/// to, and the end-to-end metric it should move, are listed in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("replay_rps", "req/cpu-s"),
    ("replay_seq_rps", "req/cpu-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mean_jct_s", "s"),
    ("sim_p99_jct_s", "s"),
    ("sim_mean_ttft_s", "s"),
    ("sim_p99_ttft_s", "s"),
    ("sim_throughput_rps", "1/s"),
    ("sim_slo_qps", "1/s"),
    ("completed_frac", "share"),
];

/// Every per-layer metric, in output order, as (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.ns_per_arrival", "ns"),
    ("workload.self_share", "share"),
    ("kvcache.hash.blocks", "count"),
    ("kvcache.hash.ns_per_block", "ns"),
    ("kvcache.hash.self_share", "share"),
    ("routing.ns_per_arrival", "ns"),
    ("routing.self_share", "share"),
    ("routing.prefix_hit_share", "share"),
    ("routing.load_fallback_share", "share"),
    ("instance.enqueue.ns", "ns"),
    ("instance.try_start.ns", "ns"),
    ("instance.complete.ns", "ns"),
    ("instance.self_share", "share"),
    ("instance.try_start.calls", "count"),
    ("instance.try_start.start_ratio", "share"),
    ("instance.queue_depth_p99", "count"),
    ("instance.queue_wait_p99_s", "s"),
    ("instance.busy_frac", "share"),
    ("kvcache.hit_token_ratio", "share"),
    ("kvcache.allocations", "count"),
    ("kvcache.committed_blocks", "count"),
    ("kvcache.evicted_blocks", "count"),
    ("kvcache.failed_allocations", "count"),
    ("kvcache.cpu.offloaded_blocks", "count"),
    ("kvcache.cpu.reloaded_blocks", "count"),
    ("kvcache.net.offloaded_blocks", "count"),
    ("kvcache.net.reloaded_blocks", "count"),
    ("kvcache.reload_accept_ratio", "share"),
    ("kvcache.net.spill_pass_ratio", "share"),
    ("handoff.records", "count"),
    ("handoff.bytes", "bytes"),
    ("sim_mean_tpot_s", "s"),
    ("cluster.epochs", "count"),
    ("cluster.overhead_cpu_s", "s"),
    ("trace.overhead_ratio", "share"),
    ("trace.spans", "count"),
    ("trace.full_replay", "flag"),
];

/// A named value headed for the result line.
pub type Values = Vec<(&'static str, f64)>;

/// Every count a replay produces.  Runs of one seed must reproduce each exactly;
/// a difference is a determinism bug, not noise.
pub fn counters(replay: &Replay) -> Vec<(&'static str, u64)> {
    let mut counts = vec![
        (
            "fingerprint",
            fingerprint(replay.reports.iter().flat_map(|r| &r.records)),
        ),
        (
            "records",
            replay.reports.iter().map(|r| r.records.len() as u64).sum(),
        ),
        ("rejected", replay.rejected()),
    ];
    let cache = sum_cache(&replay.reports);
    let offload = sum_offload(&replay.reports);
    counts.extend([
        ("cache.allocations", cache.allocations),
        ("cache.hit_tokens", cache.hit_tokens),
        ("cache.miss_tokens", cache.miss_tokens),
        ("cache.evicted_blocks", cache.evicted_blocks),
        ("cache.committed_blocks", cache.committed_blocks),
        ("cache.failed_allocations", cache.failed_allocations),
        ("offload.offloaded_blocks", offload.offloaded_blocks),
        ("offload.reloaded_blocks", offload.reloaded_blocks),
        ("offload.net_offloaded_blocks", offload.net_offloaded_blocks),
        ("offload.net_filtered_blocks", offload.net_filtered_blocks),
        ("offload.net_reloaded_blocks", offload.net_reloaded_blocks),
        (
            "offload.declined_reload_blocks",
            offload.declined_reload_blocks,
        ),
        ("offload.handoff_records", offload.handoff_records),
        ("offload.handoff_bytes", offload.handoff_bytes),
    ]);
    let busy_ns: u64 = replay
        .clusters
        .iter()
        .flat_map(|c| c.instances())
        .map(|i| (i.stats().busy.as_secs_f64() * 1e9).round() as u64)
        .sum();
    counts.push(("instances.busy_ns", busy_ns));
    counts
}

/// Cache statistics summed over a replay's reports.
pub fn sum_cache(reports: &[RunReport]) -> kvcache::CacheStats {
    let mut total = kvcache::CacheStats::default();
    for r in reports {
        let c = &r.cache;
        total.allocations += c.allocations;
        total.hit_tokens += c.hit_tokens;
        total.miss_tokens += c.miss_tokens;
        total.requests_with_hits += c.requests_with_hits;
        total.evicted_blocks += c.evicted_blocks;
        total.committed_blocks += c.committed_blocks;
        total.failed_allocations += c.failed_allocations;
    }
    total
}

/// Tier and handoff statistics summed over a replay's reports.
pub fn sum_offload(reports: &[RunReport]) -> kvcache::OffloadStats {
    let mut total = kvcache::OffloadStats::default();
    for r in reports {
        total.merge(&r.offload);
    }
    total
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The modelled system's end-to-end metrics: latency and throughput over the
/// reference reports, `sim_slo_qps` from the ladder, and the completed share
/// over every report of the replay.
pub fn simulated(reference: &[RunReport], slo_qps: f64, sent: u64, completed: u64) -> Values {
    let records = || reference.iter().flat_map(|r| &r.records);
    let mut jcts: Vec<f64> = records().map(|r| r.latency().as_secs_f64()).collect();
    let mut ttfts: Vec<f64> = records().map(|r| r.ttft().as_secs_f64()).collect();
    let makespan_s: f64 = reference.iter().map(|r| r.makespan.as_secs_f64()).sum();
    vec![
        ("sim_mean_jct_s", mean(&jcts)),
        (
            "sim_p99_jct_s",
            nearest_rank(&mut jcts, 0.99).unwrap_or(0.0),
        ),
        ("sim_mean_ttft_s", mean(&ttfts)),
        (
            "sim_p99_ttft_s",
            nearest_rank(&mut ttfts, 0.99).unwrap_or(0.0),
        ),
        ("sim_throughput_rps", jcts.len() as f64 / makespan_s),
        ("sim_slo_qps", slo_qps),
        ("completed_frac", share(completed, sent)),
    ]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Per-layer metrics read from the cluster's own reports and statistics.
pub fn from_reports(replay: &Replay, prepared: &Prepared, epochs: u64) -> Values {
    let records = replay.reports.iter().flat_map(|r| &r.records);
    let decisions = records.clone().count() as u64;
    let prefix_hits = records.clone().filter(|r| is_prefix_hit(r.routing)).count() as u64;
    let fallbacks = records
        .filter(|r| r.routing == RoutingReason::LoadFallback)
        .count() as u64;

    let reports = prepared.reference(&replay.reports);
    let mut waits: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.records)
        .map(|r| r.queueing().as_secs_f64())
        .collect();
    let mut busy_s = 0.0;
    let mut capacity_s = 0.0;
    for (report, cluster) in reports.iter().zip(prepared.reference(&replay.clusters)) {
        let instances = cluster.instances();
        busy_s += instances
            .iter()
            .map(|i| i.stats().busy.as_secs_f64())
            .sum::<f64>();
        capacity_s += instances.len() as f64 * report.makespan.as_secs_f64();
    }

    let cache = sum_cache(&replay.reports);
    let o = sum_offload(&replay.reports);
    let reloaded = o.reloaded_blocks + o.net_reloaded_blocks;
    vec![
        ("routing.prefix_hit_share", share(prefix_hits, decisions)),
        ("routing.load_fallback_share", share(fallbacks, decisions)),
        (
            "instance.queue_wait_p99_s",
            nearest_rank(&mut waits, 0.99).unwrap_or(0.0),
        ),
        (
            "instance.busy_frac",
            if capacity_s > 0.0 {
                busy_s / capacity_s
            } else {
                0.0
            },
        ),
        ("kvcache.hit_token_ratio", cache.hit_rate()),
        ("kvcache.allocations", cache.allocations as f64),
        ("kvcache.committed_blocks", cache.committed_blocks as f64),
        ("kvcache.evicted_blocks", cache.evicted_blocks as f64),
        (
            "kvcache.failed_allocations",
            cache.failed_allocations as f64,
        ),
        ("kvcache.cpu.offloaded_blocks", o.offloaded_blocks as f64),
        ("kvcache.cpu.reloaded_blocks", o.reloaded_blocks as f64),
        (
            "kvcache.net.offloaded_blocks",
            o.net_offloaded_blocks as f64,
        ),
        ("kvcache.net.reloaded_blocks", o.net_reloaded_blocks as f64),
        (
            "kvcache.reload_accept_ratio",
            share(reloaded, reloaded + o.declined_reload_blocks),
        ),
        (
            "kvcache.net.spill_pass_ratio",
            share(
                o.net_offloaded_blocks,
                o.net_offloaded_blocks + o.net_filtered_blocks,
            ),
        ),
        ("handoff.records", o.handoff_records as f64),
        ("handoff.bytes", o.handoff_bytes as f64),
        ("sim_mean_tpot_s", {
            let tpots: Vec<f64> = reports.iter().flat_map(|r| r.tpots_secs()).collect();
            mean(&tpots)
        }),
        ("cluster.epochs", epochs as f64),
    ]
}

/// Puts `values` into catalogue order, failing on a missing or unknown name.
pub fn ordered<'a>(
    names: impl Iterator<Item = &'a str>,
    mut values: Values,
) -> Result<Values, String> {
    let mut out = Vec::new();
    for name in names {
        let pos = values
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        out.push(values.swap_remove(pos));
    }
    match values.first() {
        Some((extra, _)) => Err(format!("metric {extra} is not in the catalogue")),
        None => Ok(out),
    }
}

/// Whether a routing decision landed on a slot that already held the request's
/// prefix: a cache-aware hit, or a sticky user's return to its pinned slot.
fn is_prefix_hit(reason: RoutingReason) -> bool {
    matches!(
        reason,
        RoutingReason::DeepestPrefix | RoutingReason::StickyExisting
    )
}
