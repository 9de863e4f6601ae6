//! The three benchmark workloads: what each replays, on which deployment, and the
//! offered-rate ladder its `sim_slo_qps` is read from.
//!
//! All three are open loop in simulated time: arrivals follow a seeded Poisson
//! process and never wait for earlier replies.  The seed is the only input; there
//! is no host-side pacing.

use std::sync::Arc;

use gpu::{GpuKind, HardwareSetup, LinkKind, NetLinkKind};
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineKind, RoutingPolicyKind, RunReport};
use simcore::{SimRng, SimTime};
use workload::{
    assign_poisson_arrivals_with, conversation_trace, ArrivalGranularity, ArrivalPattern,
    ConversationSpec, Dataset, InstanceRole, PostRecommendationSpec, SharedPrefixFleetSpec,
    SharedPrefixFleetStream, SortedTrace,
};

use crate::host::{timed, Timed};

/// Which workload a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Shared-prefix fleet on 64 instances with sticky routing, streamed.
    FleetSticky,
    /// Post-recommendation requests on an L4 pair, over a ladder of rates.
    PaperPostrecLadder,
    /// Multi-turn decode on a 3:1 disaggregated fleet with cache-aware routing and
    /// CPU + net KV tiers.
    TieredDisaggCacheAware,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::FleetSticky,
        Kind::PaperPostrecLadder,
        Kind::TieredDisaggCacheAware,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetSticky => "fleet_sticky",
            Kind::PaperPostrecLadder => "paper_postrec_ladder",
            Kind::TieredDisaggCacheAware => "tiered_disagg_cache_aware",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the KV tiers and the handoff plane are part of the workload.  They
    /// couple the instances, so the traced stepper cannot replay them one by one.
    pub fn uses_tiers(self) -> bool {
        self == Kind::TieredDisaggCacheAware
    }
}

/// Shared-prefix fleet: cohorts of 8 users share a 512-token prefix and every
/// request adds a 128-token suffix; 250 cohorts × 8 users × 50 requests = 100k.
const FLEET_COHORTS: u64 = 250;
/// At 400 req/s, most seeds' P99 JCT fell on one service-time atom (0.156 s) and
/// the rest just above it, so `sim_p99_jct_s` spread 0.25 over 16 seeds.  At
/// 600 req/s the P99 lies in the queueing tail and spread 0.09.
const FLEET_QPS: f64 = 600.0;
const FLEET_INSTANCES: u32 = 64;
/// The fleet's ladder replays 50 cohorts (20k requests) per rung.
const FLEET_LADDER_COHORTS: u64 = 50;
const FLEET_LADDER: [f64; 4] = [400.0, 600.0, 700.0, 800.0];
const FLEET_P99_LIMIT_S: f64 = 0.5;

/// Post-recommendation: Table 1's token shapes over 400 users × 5 posts.
const POSTREC_USERS: u64 = 400;
const POSTREC_POSTS_PER_USER: u64 = 5;
/// Offered rates around the L4 pair's saturation (about 2 req/s for this shape).
const POSTREC_LADDER: [f64; 6] = [1.0, 1.5, 1.75, 2.0, 2.25, 2.5];
const POSTREC_P99_LIMIT_S: f64 = 30.0;
/// Traces at the ladder's lowest rate whose pooled records supply the workload's
/// `sim_*` latency metrics: the lowest rung plus two more arrival draws of the
/// same requests.  One trace's P99 JCT spread 0.15 (IQR/median) over 27 seeds;
/// three pooled, 0.09.
const POSTREC_REFERENCE_TRACES: usize = 3;

/// Multi-turn conversations: 250 sessions × 4 turns = 1,000 requests per trace.
const TIERED_SESSIONS: u64 = 250;
/// A tiered replay runs this many independent traces, each on a fresh
/// deployment.  The replay's host cost grows faster than linearly with trace
/// length (the shared tier, and the probes over it, grow with the trace), and one
/// trace's cost swings by ±20% with its seed.  Independent traces average that
/// out at a linear cost.
const TIERED_TRACES: u64 = 3;
const TIERED_SESSION_QPS: f64 = 0.5;
/// The tiered ladder replays one trace of the workload's shape per rung.  With
/// 100 sessions per rung, where saturation sets in moved so much with the seed
/// that `sim_slo_qps` spread 0.26 over 16 seeds; with 250 it spread 0.15.
const TIERED_LADDER: [f64; 5] = [0.75, 1.0, 1.25, 1.5, 1.75];
/// Unloaded, the P99 JCT sits on a 9–10 s plateau: the few requests that decode
/// alone take about 9 s, while batched decodes finish in 2–5 s.  It falls to
/// about 6 s near 1 session/s, before queueing raises it.  A limit below the
/// plateau (8 s was tried) made the highest rung meeting it flip with the count
/// of lone decoders from seed to seed; 15 s lies above it.
const TIERED_P99_LIMIT_S: f64 = 15.0;
/// A squeezed GPU pool and a small CPU tier, so KV is both spilled down the tiers
/// and read back from them.
const TIERED_MEMORY_UTILIZATION: f64 = 0.70;
const TIERED_CPU_TIER_BYTES: u64 = 1 << 30;
const TIERED_NET_TIER_BYTES: u64 = 64 << 30;
/// Propagation epoch length; the traced stepper batches routing at this cadence.
pub const TIERED_PROPAGATION_MS: u64 = 1_000;

fn l4_fleet(num_gpus: u32) -> HardwareSetup {
    HardwareSetup {
        name: "L4 fleet (PCIe)",
        gpu: GpuKind::L4,
        num_gpus,
        link: LinkKind::PcieGen4,
    }
}

fn fleet_spec(num_cohorts: u64) -> SharedPrefixFleetSpec {
    SharedPrefixFleetSpec {
        num_cohorts,
        users_per_cohort: 8,
        prefix_tokens: 512,
        suffix_tokens: 128,
        requests_per_user: 50,
    }
}

/// Sessions without a shared system prompt: a prompt every session shares makes
/// cache-aware routing herd sessions onto whichever slot holds it on the GPU, and
/// the replay then flips between a calm and a thrashing regime from seed to seed.
fn conversation_spec(num_sessions: u64) -> ConversationSpec {
    ConversationSpec {
        num_sessions,
        turns_per_session: 4,
        system_prompt_tokens: 0,
        first_turn_input_tokens: 2_048,
        turn_input_tokens: 256,
        decode_tokens_per_turn: 128,
        think_time_ms: 6_000,
    }
}

/// Table 1's post-recommendation token shapes (150-token posts, 14k ± 3k-token
/// profiles clamped to [11k, 17k]) over 400 users with 5 posts each.  A rung of
/// 2,000 requests then holds 400 per-user bursts rather than Table 1's 20: with 20
/// bursts the P99 JCT at a fixed rate swings by ±40% from seed to seed.
fn postrec_spec() -> PostRecommendationSpec {
    PostRecommendationSpec {
        num_users: POSTREC_USERS,
        posts_per_user: POSTREC_POSTS_PER_USER,
        ..PostRecommendationSpec::default()
    }
}

/// Seed of a ladder's arrivals.  Every rung reuses it, so the rungs replay one
/// arrival sequence compressed in time (Poisson gaps scale as 1/rate), and P99
/// JCT moves smoothly along the ladder instead of jumping between draws.
fn ladder_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x001A_DDE5
}

/// Rescales a Poisson trace so that it offers exactly `qps`: its last arrival
/// lands at `requests / qps`, where an unscaled draw lands there only in
/// expectation.  Unscaled, the realised rate of 400 user bursts wanders by ±5%
/// from seed to seed, and near saturation that moves mean JCT by twice as much.
fn offer_exactly(mut arrivals: Vec<ArrivalPattern>, qps: f64) -> Vec<ArrivalPattern> {
    let last = arrivals.last().map_or(0.0, |a| a.arrival.as_secs_f64());
    if last > 0.0 {
        let scale = arrivals.len() as f64 / qps / last;
        for arrival in &mut arrivals {
            arrival.arrival = SimTime::from_secs_f64(arrival.arrival.as_secs_f64() * scale);
        }
    }
    arrivals
}

/// The deployment of a workload.
fn config_of(kind: Kind) -> EngineConfig {
    match kind {
        Kind::FleetSticky => EngineConfig::new(
            ModelPreset::Llama31_8b,
            l4_fleet(FLEET_INSTANCES),
            EngineKind::prefillonly_default(),
            640,
        )
        .with_routing(RoutingPolicyKind::StickyUser),
        Kind::PaperPostrecLadder => {
            let spec = postrec_spec();
            EngineConfig::new(
                ModelPreset::Llama31_8b,
                HardwareSetup::l4_pair(),
                EngineKind::prefillonly_default(),
                spec.profile_max_tokens + spec.post_tokens,
            )
        }
        Kind::TieredDisaggCacheAware => {
            let mut config = EngineConfig::new(
                ModelPreset::Llama31_8b,
                l4_fleet(4),
                EngineKind::prefillonly_default(),
                conversation_spec(TIERED_SESSIONS).max_request_tokens(),
            )
            .with_routing(RoutingPolicyKind::CacheAware)
            .with_cpu_offload(TIERED_CPU_TIER_BYTES)
            .with_net_kv(TIERED_NET_TIER_BYTES)
            .with_net_link(NetLinkKind::Rdma100G)
            .with_net_propagation_ms(TIERED_PROPAGATION_MS)
            .with_roles(vec![
                InstanceRole::Prefill,
                InstanceRole::Prefill,
                InstanceRole::Prefill,
                InstanceRole::Decode,
            ]);
            config.memory_utilization = TIERED_MEMORY_UTILIZATION;
            config
        }
    }
}

/// A materialised trace and the rate it was generated at.
pub struct Rung {
    /// Offered rate: requests per second, or sessions per second for the
    /// conversation trace.
    pub qps: f64,
    /// The arrivals.
    pub trace: SortedTrace,
}

/// Materialises the traces of a workload's measured replay (none for the
/// streamed fleet, whose arrivals are generated during the replay).
pub fn materialise(kind: Kind, seed: u64) -> Vec<Rung> {
    match kind {
        Kind::FleetSticky => Vec::new(),
        Kind::PaperPostrecLadder => {
            let dataset =
                Dataset::post_recommendation(&postrec_spec(), &mut SimRng::seed_from_u64(seed));
            // The extra reference traces (the same requests, other arrival
            // draws) come first, so the reference rate's traces are the first
            // reports and the ladder starts at the last of them.
            let reference = (1..POSTREC_REFERENCE_TRACES as u64)
                .map(|trace| (POSTREC_LADDER[0], trace_seed(seed, trace)));
            let ladder = POSTREC_LADDER.iter().map(|&qps| (qps, ladder_seed(seed)));
            reference
                .chain(ladder)
                .map(|(qps, arrival_seed)| {
                    let mut rng = SimRng::seed_from_u64(arrival_seed);
                    let arrivals = assign_poisson_arrivals_with(
                        &dataset,
                        qps,
                        ArrivalGranularity::PerUser,
                        &mut rng,
                    );
                    Rung {
                        qps,
                        trace: SortedTrace::new(offer_exactly(arrivals, qps)),
                    }
                })
                .collect()
        }
        Kind::TieredDisaggCacheAware => (0..TIERED_TRACES)
            .map(|trace| Rung {
                qps: TIERED_SESSION_QPS,
                trace: conversation_trace(
                    &conversation_spec(TIERED_SESSIONS),
                    TIERED_SESSION_QPS,
                    trace_seed(seed, trace),
                ),
            })
            .collect(),
    }
}

/// Seed of a workload's independent trace number `trace`.
fn trace_seed(seed: u64, trace: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(trace)
}

/// The outcome of one whole replay of a workload.
pub struct Replay {
    /// One report per replayed rate.
    pub reports: Vec<RunReport>,
    /// The deployments after the replay, one per report.
    pub clusters: Vec<Cluster>,
    /// Time spent inside the replay calls (`run_*`) only.
    pub timing: Timed,
}

impl Replay {
    /// Requests the instances rejected (sent but never completed).
    pub fn rejected(&self) -> u64 {
        self.clusters
            .iter()
            .flat_map(Cluster::instances)
            .map(|instance| instance.stats().rejected)
            .sum()
    }
}

/// Everything a replay needs, built once per set-up.
pub struct Prepared {
    /// The workload.
    pub kind: Kind,
    /// The deployment.
    pub config: Arc<EngineConfig>,
    /// The workload seed.
    pub seed: u64,
    /// Materialised traces, one per replayed rate (empty for the streamed fleet).
    pub rungs: Vec<Rung>,
}

impl Prepared {
    /// The set-up a user pays once per replay: config validation, `Cluster::new`,
    /// and trace materialisation (for the streamed fleet, building the stream).
    /// The deployment is returned so the caller decides when to drop it.
    pub fn setup(kind: Kind, seed: u64) -> (Prepared, Cluster) {
        let config = Arc::new(config_of(kind));
        config.validate().expect("benchmark deployments are valid");
        let cluster = Cluster::new_shared(Arc::clone(&config));
        let rungs = materialise(kind, seed);
        let prepared = Prepared {
            kind,
            config,
            seed,
            rungs,
        };
        if kind == Kind::FleetSticky {
            drop(prepared.fleet_stream());
        }
        (prepared, cluster)
    }

    /// A fresh deployment.
    pub fn cluster(&self) -> Cluster {
        Cluster::new_shared(Arc::clone(&self.config))
    }

    /// The fleet workload's arrival stream.
    pub fn fleet_stream(&self) -> SharedPrefixFleetStream {
        SharedPrefixFleetStream::new(fleet_spec(FLEET_COHORTS), FLEET_QPS, self.seed)
    }

    /// Requests one replay sends.
    pub fn requests_per_replay(&self) -> u64 {
        match self.kind {
            Kind::FleetSticky => {
                let spec = fleet_spec(FLEET_COHORTS);
                spec.num_cohorts * spec.users_per_cohort * spec.requests_per_user
            }
            _ => self
                .rungs
                .iter()
                .map(|rung| rung.trace.arrivals().len() as u64)
                .sum(),
        }
    }

    /// One whole replay of the workload on fresh deployments, through the
    /// parallel (`run_stream`/`run_sorted`) or the sequential reference path.
    pub fn replay(&self, parallel: bool) -> Replay {
        self.replay_on(parallel, &self.config)
    }

    /// [`Self::replay`] on a variant of the deployment (e.g. with window
    /// sampling on).  Only the replay calls are timed.
    pub fn replay_on(&self, parallel: bool, config: &EngineConfig) -> Replay {
        let config = Arc::new(config.clone());
        let mut replay = Replay {
            reports: Vec::new(),
            clusters: Vec::new(),
            timing: Timed {
                cpu_s: 0.0,
                wall_s: 0.0,
            },
        };
        let mut add = |cluster: Cluster, report: RunReport, t: Timed| {
            replay.timing.cpu_s += t.cpu_s;
            replay.timing.wall_s += t.wall_s;
            replay.clusters.push(cluster);
            replay.reports.push(report);
        };
        match self.kind {
            Kind::FleetSticky => {
                let mut cluster = Cluster::new_shared(Arc::clone(&config));
                let mut stream = self.fleet_stream();
                let (report, t) = timed(|| {
                    if parallel {
                        cluster.run_stream(&mut stream, FLEET_QPS)
                    } else {
                        cluster.run_stream_sequential(&mut stream, FLEET_QPS)
                    }
                });
                add(cluster, report.expect("fleet requests fit"), t);
            }
            _ => {
                for rung in &self.rungs {
                    let mut cluster = Cluster::new_shared(Arc::clone(&config));
                    let (report, t) = timed(|| {
                        if parallel {
                            cluster.run_sorted(&rung.trace, rung.qps)
                        } else {
                            cluster.run_sorted_sequential(&rung.trace, rung.qps)
                        }
                    });
                    add(cluster, report.expect("trace requests fit"), t);
                }
            }
        }
        replay
    }

    /// The deployment with per-boundary window sampling on (counts epochs).
    pub fn windowed_config(&self) -> EngineConfig {
        (*self.config).clone().with_window_metrics()
    }

    /// The reports of a replay that supply the `sim_*` latency metrics: the
    /// reference rate's traces, or every trace of the other two workloads.
    pub fn reference<'a, T>(&self, per_report: &'a [T]) -> &'a [T] {
        match self.kind {
            Kind::PaperPostrecLadder => &per_report[..POSTREC_REFERENCE_TRACES],
            _ => per_report,
        }
    }

    /// The P99 JCT limit of the workload's `sim_slo_qps`.
    pub fn p99_limit_s(&self) -> f64 {
        match self.kind {
            Kind::FleetSticky => FLEET_P99_LIMIT_S,
            Kind::PaperPostrecLadder => POSTREC_P99_LIMIT_S,
            Kind::TieredDisaggCacheAware => TIERED_P99_LIMIT_S,
        }
    }

    /// `(offered rate, P99 JCT)` per rung of the workload's ladder.  The
    /// post-recommendation ladder is the workload's own replay; the other two
    /// replay a trace of the workload's shape at each rung (parallel path): the
    /// fleet a shorter one, 20k requests; the tiered workload one of its traces.
    pub fn ladder(&self, replay: &Replay) -> Vec<(f64, f64)> {
        match self.kind {
            Kind::PaperPostrecLadder => replay.reports[POSTREC_REFERENCE_TRACES - 1..]
                .iter()
                .map(|report| (report.offered_qps, report.p99_latency_secs()))
                .collect(),
            Kind::FleetSticky => FLEET_LADDER
                .iter()
                .map(|&qps| {
                    let mut stream = SharedPrefixFleetStream::new(
                        fleet_spec(FLEET_LADDER_COHORTS),
                        qps,
                        ladder_seed(self.seed),
                    );
                    let report = self.cluster().run_stream(&mut stream, qps);
                    (qps, report.expect("ladder requests fit").p99_latency_secs())
                })
                .collect(),
            Kind::TieredDisaggCacheAware => TIERED_LADDER
                .iter()
                .map(|&qps| {
                    let trace = conversation_trace(
                        &conversation_spec(TIERED_SESSIONS),
                        qps,
                        ladder_seed(self.seed),
                    );
                    let report = self.cluster().run_sorted(&trace, qps);
                    (qps, report.expect("ladder requests fit").p99_latency_secs())
                })
                .collect(),
        }
    }
}
