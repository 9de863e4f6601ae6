//! Golden fingerprints: absolute pins on the replay output of canonical scenarios.
//!
//! The identity tests elsewhere compare replay paths against each other
//! (parallel ≡ sequential ≡ streamed ≡ materialised), so a change that shifts
//! every path the same way passes them.  These tests pin each scenario's output
//! to a committed constant instead: an FNV-1a hash of every record's `Debug`
//! form, followed by the report's makespan, cache and offload statistics and its
//! number of window samples.
//!
//! Every scenario samples window metrics, so the pins also cover which replays
//! record epoch boundaries and which replay as a single window.
//!
//! A deliberate behaviour change updates the constants; the failure message
//! prints the new value of every scenario that moved.

use std::fmt::Write as _;

use gpu::{GpuKind, HardwareSetup, LinkKind, NetLinkKind};
use model::ModelPreset;
use prefillonly::{
    AutoscalerPolicy, Cluster, EngineConfig, EngineKind, RoutingPolicyKind, RunReport,
};
use prefillonly_bench::scenarios;
use simcore::{SimRng, SimTime};
use workload::{
    assign_poisson_arrivals, assign_poisson_arrivals_with, conversation_trace, ArrivalGranularity,
    ArrivalPattern, ConversationSpec, ConversationStream, Dataset, InstanceRole, MembershipChange,
    MembershipEvent, MembershipSchedule, PostRecommendationSpec, SharedPrefixFleetSpec,
    SharedPrefixFleetStream, SortedTrace,
};

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn fingerprint(report: &RunReport) -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for record in &report.records {
        writeln!(hash, "{record:?}").expect("hashing cannot fail");
    }
    write!(
        hash,
        "{:?}|{:?}|{:?}|{}",
        report.makespan,
        report.cache,
        report.offload,
        report.windows.len()
    )
    .expect("hashing cannot fail");
    hash.0
}

/// Collects every scenario's fingerprint and reports all mismatches at once.
#[derive(Default)]
struct Pins {
    mismatches: Vec<String>,
}

impl Pins {
    fn check(&mut self, scenario: &str, report: &RunReport, expected: u64) {
        let actual = fingerprint(report);
        if actual != expected {
            self.mismatches.push(format!(
                "{scenario}: pinned {expected:#018x}, replay gives {actual:#018x}"
            ));
        }
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "golden fingerprints moved:\n{}",
            self.mismatches.join("\n")
        );
    }
}

fn l4_fleet(num_gpus: u32) -> HardwareSetup {
    HardwareSetup {
        name: "L4 fleet (PCIe)",
        gpu: GpuKind::L4,
        num_gpus,
        link: LinkKind::PcieGen4,
    }
}

/// Offered load of the post-recommendation traces: below saturation, so the
/// queues stay short and the replays stay quick.
const POSTREC_QPS: f64 = 10.0;

/// A fig6-shaped post-recommendation trace (per-user bursts on an L4 pair) with
/// short profiles, so 5,000 arrivals replay quickly: more than one 4,096-arrival
/// chunk of the streaming clock, which a single-window replay must not cut.
fn postrec_trace(granularity: ArrivalGranularity) -> (EngineConfig, Vec<ArrivalPattern>) {
    let spec = PostRecommendationSpec {
        num_users: 100,
        posts_per_user: 50,
        post_tokens: 16,
        profile_mean_tokens: 100.0,
        profile_std_tokens: 16.0,
        profile_min_tokens: 60,
        profile_max_tokens: 140,
    };
    let mut rng = SimRng::seed_from_u64(6);
    let dataset = Dataset::post_recommendation(&spec, &mut rng);
    let arrivals = assign_poisson_arrivals_with(&dataset, POSTREC_QPS, granularity, &mut rng);
    assert!(arrivals.len() > 4_096);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    )
    .with_window_metrics();
    (config, arrivals)
}

#[test]
fn postrec_window_replays_under_every_policy() {
    let (config, sorted) = postrec_trace(ArrivalGranularity::PerUser);
    // Reversed, the trace is unsorted and equal arrival times tie-break by the
    // reversed trace index.
    let unsorted: Vec<ArrivalPattern> = sorted.iter().rev().cloned().collect();
    let mut pins = Pins::default();
    for (policy, expected_sorted, expected_unsorted) in [
        (
            RoutingPolicyKind::StickyUser,
            0x9136_8525_ee0b_d1b1,
            0x35ba_4c78_2e77_8221,
        ),
        (
            RoutingPolicyKind::LeastLoaded,
            0xb779_9524_9c79_b11e,
            0xdc99_d73b_f6f9_f83c,
        ),
        (
            RoutingPolicyKind::CacheAware,
            0xfa2e_ac6c_4920_dfd6,
            0xaad3_6819_499d_a5e8,
        ),
    ] {
        let config = config.clone().with_routing(policy);
        for (trace, label, expected) in [
            (&sorted, "sorted", expected_sorted),
            (&unsorted, "unsorted", expected_unsorted),
        ] {
            let parallel = Cluster::new(&config).run(trace, POSTREC_QPS).unwrap();
            pins.check(&format!("{policy:?} run {label}"), &parallel, expected);
            let sequential = Cluster::new(&config)
                .run_sequential(trace, POSTREC_QPS)
                .unwrap();
            pins.check(
                &format!("{policy:?} run_sequential {label}"),
                &sequential,
                expected,
            );
        }
    }
    pins.finish();
}

#[test]
fn sorted_trace_and_fleet_stream_replays() {
    const FLEET: u64 = 0xc406_1070_808f_43c6;
    let mut pins = Pins::default();

    let (config, arrivals) = postrec_trace(ArrivalGranularity::PerRequest);
    let trace = SortedTrace::new(arrivals);
    let mut cluster = Cluster::new(&config);
    // Two windows on one cluster: the second replays against warm caches and
    // the sticky pins the first left behind.
    let first = cluster.run_sorted(&trace, POSTREC_QPS).unwrap();
    pins.check("run_sorted window 0", &first, 0xaeef_ec56_6b43_cdc8);
    let second = cluster.run_sorted(&trace, POSTREC_QPS).unwrap();
    pins.check("run_sorted window 1", &second, 0xd74d_02ec_39b9_bcd6);
    let sequential = Cluster::new(&config)
        .run_sorted_sequential(&trace, POSTREC_QPS)
        .unwrap();
    pins.check(
        "run_sorted_sequential window 0",
        &sequential,
        0xaeef_ec56_6b43_cdc8,
    );

    let spec = SharedPrefixFleetSpec {
        num_cohorts: 50,
        users_per_cohort: 8,
        prefix_tokens: 64,
        suffix_tokens: 32,
        requests_per_user: 50,
    };
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        l4_fleet(64),
        EngineKind::prefillonly_default(),
        96,
    )
    .with_window_metrics();
    let mut stream = SharedPrefixFleetStream::new(spec, 500.0, 11);
    let report = Cluster::new(&config)
        .run_stream(&mut stream, 500.0)
        .unwrap();
    assert_eq!(report.records.len(), 20_000);
    pins.check("fleet run_stream 64 instances", &report, FLEET);
    let mut stream = SharedPrefixFleetStream::new(spec, 500.0, 11);
    let report = Cluster::new(&config)
        .run_stream_sequential(&mut stream, 500.0)
        .unwrap();
    pins.check("fleet run_stream_sequential 64 instances", &report, FLEET);
    pins.finish();
}

/// The offload pressure deployment: a squeezed GPU pool and a CPU tier of
/// `cpu_bytes`, over interleaved per-request arrivals, so user profiles spill
/// between a user's requests and reload on their return.
fn pressure_trace(cpu_bytes: u64) -> (EngineConfig, Vec<ArrivalPattern>) {
    let spec = PostRecommendationSpec {
        num_users: 6,
        posts_per_user: 8,
        profile_mean_tokens: 5_000.0,
        profile_std_tokens: 600.0,
        profile_min_tokens: 4_000,
        profile_max_tokens: 6_000,
        ..PostRecommendationSpec::default()
    };
    let mut rng = SimRng::seed_from_u64(42);
    let dataset = Dataset::post_recommendation(&spec, &mut rng);
    let arrivals =
        assign_poisson_arrivals_with(&dataset, 3.0, ArrivalGranularity::PerRequest, &mut rng);
    let mut config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    config.memory_utilization = 0.70;
    let config = config.with_cpu_offload(cpu_bytes).with_window_metrics();
    (config, arrivals)
}

/// The three-tier pressure deployment: [`pressure_trace`] with a CPU tier of
/// about one profile and a shared network tier, so reused profile blocks
/// cascade CPU → net.
fn three_tier_trace() -> (EngineConfig, Vec<ArrivalPattern>) {
    let (config, arrivals) = pressure_trace(768 << 20);
    (config.with_net_kv(64 << 30), arrivals)
}

#[test]
fn cpu_offload_pressure() {
    const CPU_ONLY: u64 = 0x584a_b064_465e_6301;
    let (config, arrivals) = pressure_trace(64 << 30);
    let mut pins = Pins::default();
    let a = Cluster::new(&config).run(&arrivals, 3.0).unwrap();
    assert!(a.offload.reloaded_blocks > 0);
    pins.check("cpu offload run", &a, CPU_ONLY);
    let b = Cluster::new(&config)
        .run_sequential(&arrivals, 3.0)
        .unwrap();
    pins.check("cpu offload run_sequential", &b, CPU_ONLY);
    pins.finish();
}

#[test]
fn three_tiers_with_and_without_propagation_epochs() {
    let (config, arrivals) = three_tier_trace();
    let mut pins = Pins::default();
    for (delay_ms, expected) in [
        (0, [0x2034_1edb_b810_8344, 0x9550_3af4_0d48_d222]),
        (2_000, [0x8717_7a78_18f4_53d8, 0xc2af_34e7_96a9_f328]),
    ] {
        let config = config
            .clone()
            .with_routing(RoutingPolicyKind::CacheAware)
            .with_net_propagation_ms(delay_ms);
        let mut parallel = Cluster::new(&config);
        let mut sequential = Cluster::new(&config);
        for (window, expected) in expected.into_iter().enumerate() {
            let a = parallel.run(&arrivals, 3.0).unwrap();
            pins.check(
                &format!("three tiers {delay_ms} ms run window {window}"),
                &a,
                expected,
            );
            let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
            pins.check(
                &format!("three tiers {delay_ms} ms run_sequential window {window}"),
                &b,
                expected,
            );
        }
    }
    pins.finish();
}

#[test]
fn adaptive_epochs_over_two_windows() {
    let (config, arrivals) = three_tier_trace();
    // Target 2 arrivals per epoch under ~6 per epoch of load, so the clock
    // halves towards its minimum during the replay.
    let config = config
        .with_routing(RoutingPolicyKind::CacheAware)
        .with_net_propagation_ms(2_000)
        .with_adaptive_epochs(2, 250, 8_000);
    let mut pins = Pins::default();
    let mut parallel = Cluster::new(&config);
    let mut sequential = Cluster::new(&config);
    for (window, expected) in [0x4c69_54fd_f173_a75f, 0x9ba1_bab0_bbad_235c]
        .into_iter()
        .enumerate()
    {
        let a = parallel.run(&arrivals, 3.0).unwrap();
        pins.check(
            &format!("adaptive epochs run window {window}"),
            &a,
            expected,
        );
        let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
        pins.check(
            &format!("adaptive epochs run_sequential window {window}"),
            &b,
            expected,
        );
    }
    pins.finish();
}

#[test]
fn autoscaler_scale_up() {
    const AUTOSCALED: u64 = 0x4538_cfbf_70cd_9c5c;
    let (config, arrivals) = three_tier_trace();
    let config = config
        .with_net_propagation_ms(2_000)
        .with_autoscaler(AutoscalerPolicy {
            scale_up_outstanding_tokens: 1,
            scale_down_outstanding_tokens: 0,
            cooldown_epochs: 1,
            min_instances: 1,
            max_instances: 4,
        });
    let mut pins = Pins::default();
    let mut parallel = Cluster::new(&config);
    let a = parallel.run(&arrivals, 3.0).unwrap();
    assert!(parallel.num_active_instances() > 2);
    pins.check("autoscaler run", &a, AUTOSCALED);
    let mut sequential = Cluster::new(&config);
    let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
    assert_eq!(parallel.membership_log(), sequential.membership_log());
    pins.check("autoscaler run_sequential", &b, AUTOSCALED);
    pins.finish();
}

#[test]
fn single_instance_tensor_parallel() {
    const TENSOR_PARALLEL: u64 = 0x77ad_9d6e_74a7_952b;
    let spec = PostRecommendationSpec {
        num_users: 4,
        posts_per_user: 6,
        post_tokens: 150,
        profile_mean_tokens: 4_000.0,
        profile_std_tokens: 500.0,
        profile_min_tokens: 3_000,
        profile_max_tokens: 5_000,
    };
    let dataset = Dataset::post_recommendation(&spec, &mut SimRng::seed_from_u64(7));
    let arrivals = assign_poisson_arrivals(&dataset, 10.0, &mut SimRng::seed_from_u64(9));
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::TensorParallel,
        6_000,
    )
    .with_window_metrics();
    let mut pins = Pins::default();
    let mut parallel = Cluster::new(&config);
    assert_eq!(parallel.instances().len(), 1);
    let a = parallel.run(&arrivals, 10.0).unwrap();
    pins.check("tensor parallel run", &a, TENSOR_PARALLEL);
    let b = Cluster::new(&config)
        .run_sequential(&arrivals, 10.0)
        .unwrap();
    pins.check("tensor parallel run_sequential", &b, TENSOR_PARALLEL);
    pins.finish();
}

#[test]
fn elastic_join_and_drain() {
    let (config, arrivals) = scenarios::elastic_fleet_handoff();
    let config = config.with_window_metrics();
    let at = |ms: u64| SimTime::from_millis(ms);
    let schedule = MembershipSchedule::new(vec![
        MembershipEvent {
            at: at(scenarios::ELASTIC_DRAIN_AT_MS),
            change: MembershipChange::Drain { spill: true },
        },
        MembershipEvent {
            at: at(scenarios::ELASTIC_JOIN_AT_MS),
            change: MembershipChange::Join {
                attached: true,
                role: InstanceRole::Colocated,
            },
        },
    ]);
    let mut pins = Pins::default();
    for (policy, expected) in [
        (RoutingPolicyKind::StickyUser, 0x2613_ec28_1724_8129),
        (RoutingPolicyKind::CacheAware, 0x49ac_5677_6b31_ac3d),
    ] {
        let config = config.clone().with_routing(policy);
        let mut parallel = Cluster::new(&config);
        parallel.schedule_membership(schedule.clone());
        let a = parallel.run(&arrivals, 3.0).unwrap();
        assert_eq!(parallel.membership_log().len(), 2);
        pins.check(&format!("elastic {policy:?} run"), &a, expected);
        let mut sequential = Cluster::new(&config);
        sequential.schedule_membership(schedule.clone());
        let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
        pins.check(&format!("elastic {policy:?} run_sequential"), &b, expected);
    }
    pins.finish();
}

fn conversation_spec() -> ConversationSpec {
    ConversationSpec {
        num_sessions: 10,
        turns_per_session: 3,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 2_048,
        turn_input_tokens: 256,
        decode_tokens_per_turn: 96,
        think_time_ms: 2_000,
    }
}

#[test]
fn multi_turn_decode() {
    let spec = conversation_spec();
    let mut config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        spec.max_request_tokens(),
    );
    config.memory_utilization = 0.70;
    let config = config
        .with_cpu_offload(768 << 20)
        .with_net_kv(64 << 30)
        .with_routing(RoutingPolicyKind::CacheAware)
        .with_window_metrics();
    let trace = conversation_trace(&spec, 1.0, 5);
    let mut pins = Pins::default();
    // Without propagation epochs the stream is chunked while the materialised
    // trace replays as one window, so the two pin separately; with them both cut
    // the same boundaries.
    for (delay_ms, expected, expected_stream) in [
        (0, 0xc58d_0479_5fdd_e1bc, 0x718c_17c8_7179_997a),
        (2_000, 0x0266_82f7_82b8_9a46, 0x0266_82f7_82b8_9a46),
    ] {
        let config = config.clone().with_net_propagation_ms(delay_ms);
        let a = Cluster::new(&config).run_sorted(&trace, 1.0).unwrap();
        pins.check(&format!("decode {delay_ms} ms run_sorted"), &a, expected);
        let b = Cluster::new(&config)
            .run_sorted_sequential(&trace, 1.0)
            .unwrap();
        pins.check(
            &format!("decode {delay_ms} ms run_sorted_sequential"),
            &b,
            expected,
        );
        let mut stream = ConversationStream::new(spec, 1.0, 5);
        let c = Cluster::new(&config).run_stream(&mut stream, 1.0).unwrap();
        pins.check(
            &format!("decode {delay_ms} ms run_stream"),
            &c,
            expected_stream,
        );
    }
    pins.finish();
}

#[test]
fn disaggregated_three_to_one() {
    const DISAGGREGATED: u64 = 0x98c5_67db_0b11_8cf2;
    let spec = ConversationSpec {
        system_prompt_tokens: 0,
        ..conversation_spec()
    };
    let mut config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        l4_fleet(4),
        EngineKind::prefillonly_default(),
        spec.max_request_tokens(),
    );
    config.memory_utilization = 0.70;
    let config = config
        .with_routing(RoutingPolicyKind::CacheAware)
        .with_cpu_offload(1 << 30)
        .with_net_kv(64 << 30)
        .with_net_link(NetLinkKind::Rdma100G)
        .with_net_propagation_ms(1_000)
        .with_roles(vec![
            InstanceRole::Prefill,
            InstanceRole::Prefill,
            InstanceRole::Prefill,
            InstanceRole::Decode,
        ])
        .with_window_metrics();
    let trace = conversation_trace(&spec, 2.0, 9);
    let mut pins = Pins::default();
    let a = Cluster::new(&config).run_sorted(&trace, 2.0).unwrap();
    assert!(a.offload.handoff_records > 0);
    pins.check("disaggregated 3:1 run_sorted", &a, DISAGGREGATED);
    let b = Cluster::new(&config)
        .run_sorted_sequential(&trace, 2.0)
        .unwrap();
    pins.check("disaggregated 3:1 run_sorted_sequential", &b, DISAGGREGATED);
    let mut stream = ConversationStream::new(spec, 2.0, 9);
    let c = Cluster::new(&config).run_stream(&mut stream, 2.0).unwrap();
    pins.check("disaggregated 3:1 run_stream", &c, DISAGGREGATED);
    pins.finish();
}
