//! Replay benchmark of the PrefillOnly simulator.
//!
//! ```text
//! replaybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: whole replays timed in process
//! CPU time on the parallel and the sequential path, the set-up a user pays per
//! replay, peak memory, and the modelled system's latency and capacity.
//! `--trace 1` measures the per-layer metrics: exact counters from the cluster's
//! reports, and per-call timings from a benchmark-owned traced event loop.
//!
//! Every run checks its outputs (see [`Gate`]) and prints one JSON object as the
//! last line of standard output.  Noise diagnostics go on the line before it and
//! into `replaybench/out/runs.jsonl`.

mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::time::{Duration, Instant};

use host::{timed, Diagnostics};
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{median, slo_rate};
use trace::Layer;
use workloads::{Kind, Prepared, Replay};

/// Set-up repetitions: at least this many, and more while within the budget.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1_000;
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
/// Measured replays per path, at least.
const MIN_REPLAYS: usize = 2;
/// Stepper CPU seconds a per-layer round accumulates at least, so a workload
/// whose driven layers are cheap still gives a readable tracing overhead.
const STEPPER_ROUND_CPU_S: f64 = 1.0;
/// Where run records and span dumps go, relative to the checkout root.
const OUT_DIR: &str = "replaybench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        traced,
    })
}

/// The correctness gate: every check a run makes, and every failure.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks one replay: nothing lost, handoffs one per request, and every
    /// count identical to the first replay of the run (the parallel and the
    /// sequential record streams included).
    fn replay(
        &mut self,
        prepared: &Prepared,
        replay: &Replay,
        first: &mut Option<Vec<(&'static str, u64)>>,
        label: &str,
    ) {
        let sent = prepared.requests_per_replay();
        let completed: u64 = replay.reports.iter().map(|r| r.records.len() as u64).sum();
        let rejected = replay.rejected();
        self.check(sent == completed + rejected, || {
            format!("{label}: sent {sent} != completed {completed} + failed {rejected}")
        });
        if prepared.kind.uses_tiers() {
            let offload = metrics::sum_offload(&replay.reports);
            let handed = replay
                .reports
                .iter()
                .flat_map(|r| &r.records)
                .filter(|r| r.decode_instance.is_some() && r.handoff_bytes > 0)
                .count() as u64;
            self.check(
                offload.handoff_records == sent && handed == sent,
                || {
                    format!(
                        "{label}: {} handoff records and {handed} handed-off records for {sent} requests",
                        offload.handoff_records
                    )
                },
            );
        }
        let counts = metrics::counters(replay);
        match first {
            None => *first = Some(counts),
            Some(expected) => {
                for ((name, want), (_, got)) in expected.iter().zip(&counts) {
                    self.check(want == got, || {
                        format!("determinism bug: {label} {name} = {got}, first replay had {want}")
                    });
                }
            }
        }
    }

    /// Checks one stepper run: its records match the cluster's rung by rung (on
    /// the workloads whose instances it replays, `driven`), and its counts match
    /// the first stepper run's.
    fn stepper(
        &mut self,
        run: &trace::StepperRun,
        driven: bool,
        cluster_prints: &[u64],
        first: &mut Option<trace::StepperCounts>,
    ) {
        let rungs = if driven { cluster_prints.len() } else { 0 };
        self.check(run.records.len() == rungs, || {
            format!(
                "traced stepper produced {} record lists for {rungs} rungs",
                run.records.len()
            )
        });
        for (rung, (records, want)) in run.records.iter().zip(cluster_prints).enumerate() {
            self.check(stats::fingerprint(records) == *want, || {
                format!("traced stepper records differ from the cluster's on rung {rung}")
            });
        }
        match first {
            None => *first = Some(run.counts.clone()),
            Some(expected) => self.check(*expected == run.counts, || {
                format!(
                    "determinism bug: stepper counts {:?} != {expected:?}",
                    run.counts
                )
            }),
        }
    }

    /// Checks the workload's shape: tiers and handoffs active exactly where the
    /// workload means them to be.
    fn shape(&mut self, kind: Kind, replay: &Replay) {
        let o = metrics::sum_offload(&replay.reports);
        let tiers = [
            ("cpu spills", o.offloaded_blocks),
            ("net spills", o.net_offloaded_blocks),
            ("cpu reloads", o.reloaded_blocks),
            ("net reloads", o.net_reloaded_blocks),
            ("handoffs", o.handoff_records),
        ];
        for (what, count) in tiers {
            if kind.uses_tiers() {
                self.check(count > 0, || format!("{}: no {what}", kind.name()));
            } else {
                self.check(count == 0, || format!("{}: {count} {what}", kind.name()));
            }
        }
    }
}

/// What a run reports.
struct Outcome {
    metrics: Values,
    attempted: u64,
    failed: u64,
    diagnostics: Vec<(&'static str, String)>,
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(","))
}

/// The `sim_slo_qps` of a replay; on the post-recommendation ladder, also
/// checks that the ladder straddles its limit.
fn slo_qps(prepared: &Prepared, replay: &Replay, gate: &mut Gate) -> (f64, Vec<(f64, f64)>) {
    let ladder = prepared.ladder(replay);
    let limit = prepared.p99_limit_s();
    if prepared.kind == Kind::PaperPostrecLadder {
        let meets = ladder.iter().any(|&(_, p99)| p99 <= limit);
        let misses = ladder.iter().any(|&(_, p99)| p99 > limit);
        gate.check(meets && misses, || {
            format!("ladder {ladder:?} does not straddle its P99 limit of {limit} s")
        });
    }
    (slo_rate(&ladder, limit), ladder)
}

fn end_to_end(args: &Args, gate: &mut Gate) -> Outcome {
    let setup_started = Instant::now();
    let mut setup_cpu = Vec::new();
    let mut prepared = None;
    while setup_cpu.len() < SETUP_MIN_REPS
        || (setup_started.elapsed() < SETUP_BUDGET && setup_cpu.len() < SETUP_MAX_REPS)
    {
        let ((fresh, _cluster), t) = timed(|| Prepared::setup(args.kind, args.seed));
        setup_cpu.push(t.cpu_s);
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("set up at least once");

    let sent = prepared.requests_per_replay();
    let mut first_counts = None;
    let mut par_rps = Vec::new();
    let mut seq_rps = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference = None;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while par_rps.len() < MIN_REPLAYS || seq_rps.len() < MIN_REPLAYS || started.elapsed() < budget {
        let parallel = par_rps.len() <= seq_rps.len();
        let replay = prepared.replay(parallel);
        let label = if parallel { "parallel" } else { "sequential" };
        gate.replay(&prepared, &replay, &mut first_counts, label);
        attempted += sent;
        failed += replay.rejected();
        let rps = sent as f64 / replay.timing.cpu_s;
        if parallel {
            par_rps.push(rps);
        } else {
            seq_rps.push(rps);
        }
        walls.push(replay.timing.wall_s);
        cpus.push(replay.timing.cpu_s);
        if reference.is_none() {
            reference = Some(replay);
        }
    }
    let replay = reference.expect("replayed at least once");
    gate.shape(args.kind, &replay);
    let (slo, ladder) = slo_qps(&prepared, &replay, gate);
    let completed: u64 = replay.reports.iter().map(|r| r.records.len() as u64).sum();

    let mut values = vec![
        ("replay_rps", median(&par_rps)),
        ("replay_seq_rps", median(&seq_rps)),
        ("setup_s", median(&setup_cpu)),
    ];
    values.extend(metrics::simulated(
        prepared.reference(&replay.reports),
        slo,
        sent,
        completed,
    ));
    values.push(("peak_rss_mb", host::peak_rss_mb()));
    for (name, value) in &values {
        gate.check(value.is_finite() && *value > 0.0, || {
            format!("end-to-end metric {name} = {value} (must be finite and positive)")
        });
    }
    Outcome {
        metrics: values,
        attempted,
        failed,
        diagnostics: vec![
            ("setup_reps", setup_cpu.len().to_string()),
            ("parallel_replays", par_rps.len().to_string()),
            ("sequential_replays", seq_rps.len().to_string()),
            ("replay_cpu_s", json_list(&cpus)),
            ("replay_wall_s", json_list(&walls)),
            ("ladder_p99_s", {
                let flat: Vec<f64> = ladder.iter().flat_map(|&(q, p)| [q, p]).collect();
                json_list(&flat)
            }),
        ],
    }
}

fn per_layer(args: &Args, gate: &mut Gate) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let (prepared, _) = Prepared::setup(args.kind, args.seed);
    let sent = prepared.requests_per_replay();
    let mut first_counts = None;

    let mut first = prepared.replay(true);
    gate.replay(&prepared, &first, &mut first_counts, "parallel");
    gate.shape(args.kind, &first);
    let windowed = prepared.replay_on(true, &prepared.windowed_config());
    gate.replay(&prepared, &windowed, &mut first_counts, "window-sampled");
    let epochs: u64 = windowed
        .reports
        .iter()
        .map(|r| r.windows.len().max(1) as u64)
        .sum();
    let mut attempted = 2 * sent;
    let mut failed = first.rejected() + windowed.rejected();
    drop(windowed);
    let cluster_prints: Vec<u64> = first
        .reports
        .iter()
        .map(|r| stats::fingerprint(&r.records))
        .collect();
    let mut values = metrics::from_reports(&first, &prepared, epochs);

    let driven = !args.kind.uses_tiers();
    let mut warm = first.clusters.pop().expect("one deployment per report");
    let mut cluster_cpu = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut overheads = Vec::new();
    let mut layer_values: Vec<Values> = Vec::new();
    let mut first_stepper = None;
    let mut last_tracer = None;
    while layer_values.is_empty() || started.elapsed() < budget {
        let sequential = prepared.replay(false);
        gate.replay(&prepared, &sequential, &mut first_counts, "sequential");
        attempted += sent;
        failed += sequential.rejected();
        cluster_cpu.push(sequential.timing.cpu_s);
        let mut round_cpu = 0.0;
        let mut replay_cpu = Vec::new();
        let mut layer_shares = Vec::new();
        while round_cpu < STEPPER_ROUND_CPU_S {
            for traced in [false, true] {
                if traced {
                    // Only the last traced run's spans are kept: free the
                    // previous ones before recording new ones.
                    last_tracer = None;
                }
                let run = trace::drive(&prepared, &mut warm, traced);
                gate.stepper(&run, driven, &cluster_prints, &mut first_stepper);
                round_cpu += run.cpu_s;
                if traced {
                    traced_cpu.push(run.replay_cpu_s());
                    let times = run.tracer.layer_times();
                    let layer_ns: u64 = Layer::DRIVEN.iter().map(|&l| times.self_ns(l)).sum();
                    layer_shares.push(layer_ns as f64 / times.replay_self_ns().max(1) as f64);
                    layer_values.push(stepper_layers(&run));
                    last_tracer = Some(run.tracer);
                } else {
                    plain_cpu.push(run.replay_cpu_s());
                    replay_cpu.push(run.replay_cpu_s());
                }
            }
        }
        if driven {
            // Paired within the round, so host-speed drift between rounds cancels.
            overheads.push(sequential.timing.cpu_s - median(&replay_cpu) * median(&layer_shares));
        }
    }
    let counts = first_stepper.expect("driven at least once");
    let tracer = last_tracer.expect("traced at least once");

    for (name, _) in &layer_values[0] {
        let samples: Vec<f64> = layer_values
            .iter()
            .map(|v| v.iter().find(|(n, _)| n == name).expect("same names").1)
            .collect();
        values.push((name, median(&samples)));
    }
    values.extend([
        ("kvcache.hash.blocks", counts.hashed_blocks as f64),
        ("instance.try_start.calls", counts.try_start_calls as f64),
        (
            "instance.try_start.start_ratio",
            if counts.try_start_calls > 0 {
                counts.try_start_starts as f64 / counts.try_start_calls as f64
            } else {
                0.0
            },
        ),
        ("instance.queue_depth_p99", counts.queue_depth_p99 as f64),
        (
            "cluster.overhead_cpu_s",
            if driven { median(&overheads) } else { 0.0 },
        ),
        (
            "trace.overhead_ratio",
            median(&traced_cpu) / median(&plain_cpu) - 1.0,
        ),
        ("trace.spans", tracer.len() as f64),
        ("trace.full_replay", if driven { 1.0 } else { 0.0 }),
    ]);
    if !driven {
        eprintln!(
            "note: {} couples its instances (handoffs, shared tiers, epoch barriers); the traced \
             stepper times intake and route_preview only (route_preview hashes each arrival to \
             probe the warm fleet, so hashing is timed inside it); instance.* and kvcache.hash \
             timings read 0",
            args.kind.name()
        );
    }
    for (name, value) in &values {
        gate.check(value.is_finite(), || {
            format!("per-layer metric {name} = {value}")
        });
    }

    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.kind.name()));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_tsv(&spans_path));
    if let Err(err) = written {
        eprintln!("could not write {}: {err}", spans_path.display());
    }
    Outcome {
        metrics: values,
        attempted,
        failed,
        diagnostics: vec![
            ("traced_runs", layer_values.len().to_string()),
            ("cluster_seq_cpu_s", json_list(&cluster_cpu)),
            ("stepper_replay_cpu_s", json_list(&plain_cpu)),
            ("cluster_overhead_cpu_s", json_list(&overheads)),
            ("traced_stepper_replay_cpu_s", json_list(&traced_cpu)),
            ("spans_file", format!("\"{}\"", spans_path.display())),
        ],
    }
}

/// Per-call timings and self-time shares of one traced stepper run.
fn stepper_layers(run: &trace::StepperRun) -> Values {
    let times = run.tracer.layer_times();
    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let per_call = |layer| per(times.total_ns(layer), times.count(layer));
    let all = times.replay_self_ns().max(1) as f64;
    let share =
        |layers: &[Layer]| layers.iter().map(|&l| times.self_ns(l)).sum::<u64>() as f64 / all;
    vec![
        (
            "workload.ns_per_arrival",
            per(times.total_ns(Layer::Intake), run.counts.arrivals),
        ),
        ("workload.self_share", share(&[Layer::Intake])),
        (
            "kvcache.hash.ns_per_block",
            per(times.total_ns(Layer::Hash), run.counts.hashed_blocks),
        ),
        ("kvcache.hash.self_share", share(&[Layer::Hash])),
        (
            "routing.ns_per_arrival",
            per(times.total_ns(Layer::Route), run.counts.arrivals),
        ),
        ("routing.self_share", share(&[Layer::Route])),
        ("instance.enqueue.ns", per_call(Layer::Enqueue)),
        ("instance.try_start.ns", per_call(Layer::TryStart)),
        ("instance.complete.ns", per_call(Layer::Complete)),
        (
            "instance.self_share",
            share(&[Layer::Enqueue, Layer::TryStart, Layer::Complete]),
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: replaybench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let diag = Diagnostics::start();
    let mut gate = Gate::default();
    let outcome = if args.traced {
        per_layer(&args, &mut gate)
    } else {
        end_to_end(&args, &mut gate)
    };
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics = metrics::ordered(catalogue.iter().map(|(n, _)| *n), outcome.metrics)
        .unwrap_or_else(|err| {
            gate.failures.push(err);
            Vec::new()
        });
    for failure in &gate.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let correct = gate.failures.is_empty();

    let mut diagnostics = vec![
        ("workload", format!("\"{}\"", args.kind.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.traced).to_string()),
        ("wall_s", format!("{:.3}", diag.elapsed_s())),
        ("steal_ticks", diag.steal_ticks().to_string()),
        (
            "available_parallelism",
            host::available_parallelism().to_string(),
        ),
        ("peak_rss_mb", format!("{:.1}", host::peak_rss_mb())),
    ];
    diagnostics.extend(outcome.diagnostics);
    let diagnostics: Vec<String> = diagnostics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let metric_fields: Vec<String> = metrics
        .iter()
        .zip(catalogue)
        .map(|((name, value), (_, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let diagnostics_line = format!("{{\"diagnostics\": {{{}}}}}", diagnostics.join(", "));
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metric_fields.join(", ")
    );
    let record = format!(
        "{{\"diagnostics\": {{{}}}, \"result\": {result_line}}}\n",
        diagnostics.join(", ")
    );
    let stored = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(OUT_DIR).join("runs.jsonl"))?
            .write_all(record.as_bytes())
    });
    if let Err(err) = stored {
        eprintln!("could not store the run record: {err}");
    }
    println!("{diagnostics_line}");
    println!("{result_line}");
    if !correct {
        std::process::exit(1);
    }
}
