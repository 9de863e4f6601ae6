//! The traced per-layer run: the stepper, a benchmark-owned event loop that
//! drives the simulator's layers one call at a time — `ArrivalStream` → `hash_token_blocks` →
//! `Cluster::route_preview` → `EngineInstance::{enqueue, try_start, complete}` —
//! and records a span around every call.
//!
//! Spans live in memory (name, start, end, parent, request id) and are written out
//! once the run ends.  The same loop runs with tracing off to measure the tracing
//! overhead.  On `fleet_sticky` and `paper_postrec_ladder` the loop reproduces
//! the cluster's per-instance event loops exactly, and the run checks that its
//! records match the cluster's.  On `tiered_disagg_cache_aware` the instances are
//! coupled through handoffs, shared tiers and epoch barriers, so the loop drives
//! intake and routing only (against the deployment a cluster replay left warm)
//! and reports no instance timings.  There `route_preview` hashes every arrival
//! itself to probe the warm fleet, so hashing is timed inside the route span.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use kvcache::{hash_token_blocks, TokenBlockHash};
use prefillonly::{
    Cluster, EngineInstance, InstanceProfile, PrefillRequest, RequestRecord, RoutingScratch,
};
use simcore::{EventQueue, SimDuration, SimTime};
use workload::{ArrivalStream, SliceArrivalStream, StreamedArrival};

use crate::workloads::{materialise, Kind, Prepared, TIERED_PROPAGATION_MS};

/// A layer boundary the stepper records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole replay (all rungs).
    Replay,
    /// One routing epoch / stream chunk.
    Epoch,
    /// `workload`: trace materialisation, set-up work the cluster replay does
    /// before it is timed.
    Materialise,
    /// `workload`: arrival intake.
    Intake,
    /// `kvcache`: `hash_token_blocks`.
    Hash,
    /// `core::routing`: `Cluster::route_preview`.
    Route,
    /// `core::instance`: `EngineInstance::enqueue_with_hashes`.
    Enqueue,
    /// `core::instance`: `EngineInstance::try_start`.
    TryStart,
    /// `core::instance`: `EngineInstance::complete`.
    Complete,
}

impl Layer {
    /// The simulator's layers the stepper calls into during a replay.
    pub const DRIVEN: [Layer; 6] = [
        Layer::Intake,
        Layer::Hash,
        Layer::Route,
        Layer::Enqueue,
        Layer::TryStart,
        Layer::Complete,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::Epoch => "epoch",
            Layer::Materialise => "workload.materialise",
            Layer::Intake => "workload.intake",
            Layer::Hash => "kvcache.hash_token_blocks",
            Layer::Route => "routing.route_preview",
            Layer::Enqueue => "instance.enqueue",
            Layer::TryStart => "instance.try_start",
            Layer::Complete => "instance.complete",
        }
    }
}

/// Request id of spans that belong to no single request.
const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.  `parent` is the 1-based index of the enclosing span (0 for
/// none); times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.  When off, every call runs unrecorded.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a leaf span.  `request` maps the result to the span's
    /// request id.
    #[inline]
    fn leaf<T>(
        &mut self,
        layer: Layer,
        parent: u32,
        f: impl FnOnce() -> T,
        request: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            request: request(&out),
            start_ns,
            end_ns,
        });
        out
    }

    /// Opens an enclosing span; returns its id (0 when tracing is off).
    fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            request: NO_REQUEST,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    fn close(&mut self, id: u32) {
        if id > 0 {
            let end_ns = self.now_ns();
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total and self nanoseconds per layer (self = duration minus the part its
    /// child spans cover), plus span counts.
    pub fn layer_times(&self) -> LayerTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut times = LayerTimes::default();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let slot = span.layer as usize;
            let duration = span.end_ns - span.start_ns;
            times.total_ns[slot] += duration;
            times.self_ns[slot] += duration.saturating_sub(children);
            times.count[slot] += 1;
        }
        times
    }

    /// Writes every span as one tab-separated line:
    /// `id parent layer request start_ns end_ns` (`-` for no request).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\trequest\tstart_ns\tend_ns")?;
        for (idx, span) in self.spans.iter().enumerate() {
            write!(out, "{}\t{}\t{}\t", idx + 1, span.parent, span.layer.name())?;
            if span.request == NO_REQUEST {
                write!(out, "-")?;
            } else {
                write!(out, "{}", span.request)?;
            }
            writeln!(out, "\t{}\t{}", span.start_ns, span.end_ns)?;
        }
        out.flush()
    }
}

/// Per-layer span sums of one traced run, indexed by `Layer as usize`.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    total_ns: [u64; 9],
    self_ns: [u64; 9],
    count: [u64; 9],
}

impl LayerTimes {
    /// Summed duration of a layer's spans.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    /// Summed self time of a layer's spans.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Number of spans of a layer.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize]
    }

    /// Self time of every span of the replay: all but trace materialisation,
    /// which the cluster replay does in set-up.
    pub fn replay_self_ns(&self) -> u64 {
        self.self_ns.iter().sum::<u64>() - self.self_ns(Layer::Materialise)
    }
}

/// Work counts of one stepper run: exact, so they must repeat run after run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StepperCounts {
    /// Arrivals taken in.
    pub arrivals: u64,
    /// Blocks hashed by `hash_token_blocks`, by the stepper or, on the coupled
    /// workload, inside `route_preview`.
    pub hashed_blocks: u64,
    /// Routing passes (`route_preview` calls).
    pub route_passes: u64,
    /// `try_start` calls and the ones that started a request.
    pub try_start_calls: u64,
    pub try_start_starts: u64,
    /// P99 of the waiting-queue depth seen at `try_start` calls.
    pub queue_depth_p99: u64,
}

/// One stepper run.
pub struct StepperRun {
    /// Records the driven instances produced, in the cluster's canonical
    /// `(completed, request id)` order, one list per rung; empty when the
    /// workload's instances are not driven.
    pub records: Vec<Vec<RequestRecord>>,
    /// Exact work counts.
    pub counts: StepperCounts,
    /// The spans (empty when tracing was off).
    pub tracer: Tracer,
    /// Process CPU seconds of the whole driven replay.
    pub cpu_s: f64,
    /// The part of `cpu_s` spent materialising traces.
    pub materialise_cpu_s: f64,
}

impl StepperRun {
    /// Process CPU seconds of the replay without trace materialisation, which
    /// the cluster replay does in set-up.  Materialisation also costs more
    /// after a traced run than after an untraced one (the allocator hands it
    /// fresh pages), so the tracing overhead leaves it out too.
    pub fn replay_cpu_s(&self) -> f64 {
        self.cpu_s - self.materialise_cpu_s
    }
}

/// Event of one driven instance's private loop (the cluster's per-instance loop).
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Admit,
    Complete(u64),
}

/// A routed arrival waiting in an instance's partition.
struct Entry {
    request: PrefillRequest,
    hashes: Arc<Vec<TokenBlockHash>>,
}

/// One driven instance: the engine instance, its event queue and this epoch's
/// partition of arrivals.
struct Driven {
    instance: EngineInstance,
    events: EventQueue<Event>,
    partition: Vec<Option<Entry>>,
}

struct Stepper<'a> {
    prepared: &'a Prepared,
    tracer: Tracer,
    counts: StepperCounts,
    depths: Vec<u32>,
    materialise_cpu_s: f64,
}

impl<'a> Stepper<'a> {
    fn intake<S: ArrivalStream + ?Sized>(
        &mut self,
        stream: &mut S,
        parent: u32,
    ) -> Option<StreamedArrival> {
        let next = self.tracer.leaf(
            Layer::Intake,
            parent,
            || stream.next_arrival(),
            |next| next.as_ref().map_or(NO_REQUEST, |a| a.id),
        );
        self.counts.arrivals += u64::from(next.is_some());
        next
    }

    fn hash(&mut self, arrival: &StreamedArrival, parent: u32) -> Arc<Vec<TokenBlockHash>> {
        let block_size = self.prepared.config.block_size;
        let hashes = self.tracer.leaf(
            Layer::Hash,
            parent,
            || {
                Arc::new(hash_token_blocks(
                    &arrival.arrival.template.tokens,
                    block_size,
                ))
            },
            |_| arrival.id,
        );
        self.counts.hashed_blocks += hashes.len() as u64;
        hashes
    }

    fn route(
        &mut self,
        router: &mut Cluster,
        batch: &[StreamedArrival],
        scratch: &mut RoutingScratch,
        parent: u32,
    ) {
        self.tracer.leaf(
            Layer::Route,
            parent,
            || router.route_preview(batch, scratch),
            |_| NO_REQUEST,
        );
        self.counts.route_passes += 1;
    }

    /// Hashes and routes one batch, then hands each arrival to its instance.
    fn dispatch(
        &mut self,
        router: &mut Cluster,
        batch: &[StreamedArrival],
        scratch: &mut RoutingScratch,
        instances: &mut [Driven],
        parent: u32,
    ) {
        let hashes: Vec<_> = batch.iter().map(|a| self.hash(a, parent)).collect();
        self.route(router, batch, scratch, parent);
        for ((streamed, hashes), decision) in batch.iter().zip(hashes).zip(scratch.decisions()) {
            let driven = &mut instances[decision.instance];
            let template = &streamed.arrival.template;
            driven.partition.push(Some(Entry {
                request: PrefillRequest {
                    id: streamed.id,
                    user_id: template.user_id,
                    tokens: Arc::clone(&template.tokens),
                    decode_tokens: template.decode_tokens,
                    allowed_outputs: Vec::new(),
                    arrival: streamed.arrival.arrival,
                    routing: decision.reason,
                },
                hashes,
            }));
            driven.events.push(
                streamed.arrival.arrival,
                Event::Arrival(driven.partition.len() - 1),
            );
        }
    }

    /// The cluster's per-instance loop: runs one instance's events strictly
    /// before `boundary` (all of them when `None`).
    fn simulate(
        &mut self,
        driven: &mut Driven,
        records: &mut Vec<RequestRecord>,
        boundary: Option<SimTime>,
        parent: u32,
    ) {
        while let Some(at) = driven.events.peek_time() {
            if boundary.is_some_and(|b| at >= b) {
                break;
            }
            let scheduled = driven.events.pop().expect("peeked event");
            let now = scheduled.at;
            match scheduled.event {
                Event::Arrival(pos) => {
                    let entry = driven.partition[pos].take().expect("arrives once");
                    let id = entry.request.id;
                    let instance = &mut driven.instance;
                    self.tracer.leaf(
                        Layer::Enqueue,
                        parent,
                        || instance.enqueue_with_hashes(entry.request, Some(entry.hashes), now),
                        |_| id,
                    );
                }
                Event::Admit => {}
                Event::Complete(request_id) => {
                    let instance = &mut driven.instance;
                    let record = self.tracer.leaf(
                        Layer::Complete,
                        parent,
                        || instance.complete(request_id, now),
                        |_| request_id,
                    );
                    records.extend(record);
                }
            }
            self.admit(driven, now, parent);
        }
    }

    /// The cluster's admission pump: start what the policy admits, then wake up
    /// when the first stage frees if work is still waiting.
    fn admit(&mut self, driven: &mut Driven, now: SimTime, parent: u32) {
        loop {
            self.depths.push(driven.instance.queue_len() as u32);
            self.counts.try_start_calls += 1;
            let instance = &mut driven.instance;
            let started = self.tracer.leaf(
                Layer::TryStart,
                parent,
                || instance.try_start(now),
                |started| started.as_ref().map_or(NO_REQUEST, |s| s.request_id),
            );
            let Some(started) = started else { break };
            self.counts.try_start_starts += 1;
            driven
                .events
                .push(started.completion, Event::Complete(started.request_id));
        }
        if driven.instance.queue_len() > 0 {
            let wake = driven.instance.next_admission_time();
            if wake > now {
                driven.events.push(wake, Event::Admit);
            }
        }
    }

    fn fresh_instances(&self) -> Vec<Driven> {
        let config = &self.prepared.config;
        let profile = InstanceProfile::new(config);
        (0..config.num_instances() as usize)
            .map(|id| Driven {
                instance: EngineInstance::with_profile(config, &profile, id),
                events: EventQueue::new(),
                partition: Vec::new(),
            })
            .collect()
    }

    /// Materialises the workload's traces (intake work the cluster replay does
    /// in set-up), keeping its CPU time apart.
    fn materialise(&mut self, replay: u32) -> Vec<crate::workloads::Rung> {
        let cpu = crate::host::process_cpu_s();
        let rungs = self.tracer.leaf(
            Layer::Materialise,
            replay,
            || materialise(self.prepared.kind, self.prepared.seed),
            |_| NO_REQUEST,
        );
        self.materialise_cpu_s += crate::host::process_cpu_s() - cpu;
        rungs
    }

    /// `fleet_sticky`: the streamed replay, chunked exactly as `run_stream`
    /// chunks a replay without propagation epochs.
    fn drive_fleet(&mut self, replay: u32) -> Vec<Vec<RequestRecord>> {
        let mut router = self.prepared.cluster();
        let mut instances = self.fresh_instances();
        let mut stream = self.prepared.fleet_stream();
        let mut scratch = RoutingScratch::new();
        let mut records = Vec::new();
        let mut clock = ChunkClock::new();
        let mut batch: Vec<StreamedArrival> = Vec::new();
        let mut lookahead = self.intake(&mut stream, replay);
        loop {
            let boundary = clock.boundary;
            let epoch = self.tracer.open(Layer::Epoch, replay);
            batch.clear();
            while let Some(streamed) = lookahead.take() {
                if streamed.arrival.arrival >= boundary {
                    lookahead = Some(streamed);
                    break;
                }
                batch.push(streamed);
                lookahead = self.intake(&mut stream, epoch);
            }
            let last = lookahead.is_none();
            for driven in &mut instances {
                driven.partition.clear();
            }
            self.dispatch(&mut router, &batch, &mut scratch, &mut instances, epoch);
            for driven in &mut instances {
                self.simulate(driven, &mut records, (!last).then_some(boundary), epoch);
            }
            self.tracer.close(epoch);
            if last {
                break;
            }
            clock.advance(batch.len() as u64);
        }
        vec![canonical(records)]
    }

    /// `paper_postrec_ladder`: every rung materialised, routed in one window
    /// pass and simulated to completion, exactly as `run_sorted` does.
    fn drive_ladder(&mut self, replay: u32) -> Vec<Vec<RequestRecord>> {
        let rungs = self.materialise(replay);
        let mut out = Vec::new();
        for rung in &rungs {
            let epoch = self.tracer.open(Layer::Epoch, replay);
            let mut router = self.prepared.cluster();
            let mut instances = self.fresh_instances();
            let mut stream = SliceArrivalStream::from_sorted(rung.trace.arrivals());
            let mut batch = Vec::new();
            while let Some(streamed) = self.intake(&mut stream, epoch) {
                batch.push(streamed);
            }
            let mut scratch = RoutingScratch::new();
            self.dispatch(&mut router, &batch, &mut scratch, &mut instances, epoch);
            let mut records = Vec::new();
            for driven in &mut instances {
                self.simulate(driven, &mut records, None, epoch);
            }
            self.tracer.close(epoch);
            out.push(canonical(records));
        }
        out
    }

    /// `tiered_disagg_cache_aware`: intake and routing only, in
    /// propagation-epoch batches, against a deployment a replay left warm.  The
    /// warm fleet holds prefixes, so `route_preview` hashes each arrival's full
    /// blocks to probe it; those blocks are counted here, and their hashing time
    /// is part of the route span.
    fn drive_front(&mut self, warm: &mut Cluster, replay: u32) {
        let rungs = self.materialise(replay);
        let epoch_len = SimDuration::from_millis(TIERED_PROPAGATION_MS);
        let block_size = self.prepared.config.block_size;
        for rung in &rungs {
            let mut stream = SliceArrivalStream::from_sorted(rung.trace.arrivals());
            let mut scratch = RoutingScratch::new();
            let mut batch: Vec<StreamedArrival> = Vec::new();
            let mut boundary = SimTime::ZERO + epoch_len;
            let mut lookahead = self.intake(&mut stream, replay);
            while lookahead.is_some() {
                let epoch = self.tracer.open(Layer::Epoch, replay);
                batch.clear();
                while let Some(streamed) = lookahead.take() {
                    if streamed.arrival.arrival >= boundary {
                        lookahead = Some(streamed);
                        break;
                    }
                    batch.push(streamed);
                    lookahead = self.intake(&mut stream, epoch);
                }
                self.counts.hashed_blocks += batch
                    .iter()
                    .map(|a| (a.arrival.template.tokens.len() / block_size) as u64)
                    .sum::<u64>();
                self.route(warm, &batch, &mut scratch, epoch);
                self.tracer.close(epoch);
                boundary += epoch_len;
            }
        }
    }
}

/// The chunk cadence of `Cluster::run_stream` on a deployment without
/// propagation epochs: chunks start at 1 s and adapt towards 4,096 arrivals
/// (halve above twice that, double below half), within [1 ms, 60 s].
///
/// A copy of the cluster's private epoch clock and chunk constants.  Nothing
/// checks it against them: on `fleet_sticky` the records do not depend on
/// where chunks are cut, so the records check cannot catch a drift.
struct ChunkClock {
    len_ms: u64,
    boundary: SimTime,
}

impl ChunkClock {
    const BASE_MS: u64 = 1_000;
    const TARGET_ARRIVALS: u64 = 4_096;
    const MIN_MS: u64 = 1;
    const MAX_MS: u64 = 60_000;

    fn new() -> ChunkClock {
        ChunkClock {
            len_ms: Self::BASE_MS,
            boundary: SimTime::ZERO + SimDuration::from_millis(Self::BASE_MS),
        }
    }

    fn advance(&mut self, arrivals: u64) {
        if arrivals > Self::TARGET_ARRIVALS * 2 {
            self.len_ms = (self.len_ms / 2).max(Self::MIN_MS);
        } else if arrivals * 2 < Self::TARGET_ARRIVALS {
            self.len_ms = (self.len_ms * 2).min(Self::MAX_MS);
        }
        self.boundary += SimDuration::from_millis(self.len_ms);
    }
}

/// Sorts records into the cluster's canonical report order.
fn canonical(mut records: Vec<RequestRecord>) -> Vec<RequestRecord> {
    records.sort_unstable_by_key(|r| (r.completed, r.request_id));
    records
}

/// Runs the stepper once over the whole workload.  `warm` is the deployment a
/// cluster replay left behind; only the coupled workload routes against it.
pub fn drive(prepared: &Prepared, warm: &mut Cluster, traced: bool) -> StepperRun {
    let mut stepper = Stepper {
        prepared,
        tracer: Tracer::new(traced),
        counts: StepperCounts::default(),
        depths: Vec::new(),
        materialise_cpu_s: 0.0,
    };
    let cpu = crate::host::process_cpu_s();
    let replay = stepper.tracer.open(Layer::Replay, 0);
    let records = match prepared.kind {
        Kind::FleetSticky => stepper.drive_fleet(replay),
        Kind::PaperPostrecLadder => stepper.drive_ladder(replay),
        Kind::TieredDisaggCacheAware => {
            stepper.drive_front(warm, replay);
            Vec::new()
        }
    };
    stepper.tracer.close(replay);
    let cpu_s = crate::host::process_cpu_s() - cpu;
    stepper.counts.queue_depth_p99 =
        crate::stats::nearest_rank(&mut stepper.depths, 0.99).map_or(0, u64::from);
    StepperRun {
        records,
        counts: stepper.counts,
        tracer: stepper.tracer,
        cpu_s,
        materialise_cpu_s: stepper.materialise_cpu_s,
    }
}
