//! The four workloads. Each `run` is one timed iteration: it builds a
//! fresh session, drives the scenario, takes the merged report and tears
//! the session down, calling only the program's public API. Each `check`
//! is the untimed oracle for that iteration.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pasta::core::tool::LaunchCounter;
use pasta::core::{
    EventRecorder, MergedReport, ParallelConfig, Pasta, PastaSession, Tool, ToolCollection,
    UvmSetup,
};
use pasta::dl::parallel::{self, MoeConfig, ParallelReport, Parallelism};
use pasta::dl::serving::{self, ServingConfig, ServingRun};
use pasta::dl::{DType, ModelZoo};
use pasta::sim::{DeviceId, DeviceSpec};
use pasta::tools::{
    BarrierStallTool, HotnessTool, KernelFrequencyTool, MemoryCharacteristicsTool, OpKernelMapTool,
    ServingReport,
};
use pasta::trace::{replay_decoded, Trace, TraceReader, TraceWriter};
use pasta_bench::{fig13, fig14, fig4, fig7, fig9_10, table5, ExpScale};

use crate::layers::{
    admitted_for, CountingRecorder, ShardCounts, SharedLedger, TimedTool, Tracer, CLASS_NAMES,
};

/// Thread budget of every session: two lane workers to match a 2-CPU
/// host, two merge workers, one spine drainer.
const PAR: ParallelConfig = ParallelConfig {
    max_lane_threads: 2,
    max_merge_threads: 2,
    max_drain_threads: 1,
};

/// `serve-oversub` request-trace seed when none is given.
pub const DEFAULT_SERVE_SEED: u64 = 0x5eed_cafe;

/// What the oracle makes of one iteration.
#[derive(Debug, Default)]
pub struct Checked {
    /// Events the program processed in the iteration (live + replayed).
    pub events: u64,
    /// Deterministic counts: must repeat exactly in every iteration.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer values measured outside spans (traced iterations only).
    pub layers: BTreeMap<String, f64>,
}

pub trait Scenario {
    type Out;
    /// Threads the host-speed calibration runs on: the threads that keep
    /// a CPU busy while the scenario runs.
    const CAL_THREADS: usize;
    /// One timed iteration; installs the probes when `tr` is on.
    fn run(&mut self, tr: &Tracer) -> Result<Self::Out, String>;
    /// Computes whatever the oracle compares against (untimed, once).
    fn prepare_oracle(&mut self) -> Result<(), String>;
    /// Checks one iteration against the oracle.
    fn check(&self, out: Self::Out) -> Result<Checked, String>;
}

fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// Traced-run instruments of one iteration.
struct Probe {
    ledger: SharedLedger,
    shards: ShardCounts,
}

impl Probe {
    fn new(tr: &Tracer) -> Option<Probe> {
        tr.on().then(|| Probe {
            ledger: SharedLedger::default(),
            shards: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }
}

fn tool(probe: &Option<Probe>, t: Box<dyn Tool>) -> Box<dyn Tool> {
    match probe {
        Some(p) => TimedTool::wrap(t, &p.ledger),
        None => t,
    }
}

/// Puts a counting recorder on every shard, wrapping any recorder
/// already attached (a trace writer's).
fn attach_counters(probe: &Option<Probe>, session: &PastaSession) {
    if let Some(p) = probe {
        let mut inner: BTreeMap<DeviceId, Box<dyn EventRecorder>> =
            session.detach_event_recorders().into_iter().collect();
        session.attach_event_recorders(|d| CountingRecorder::boxed(d, inner.remove(&d), &p.shards));
    }
}

/// Facts read off a session before it is dropped.
#[derive(Debug, Clone, Copy)]
struct SessionFacts {
    lanes: usize,
    shards: usize,
    high_water: usize,
    quiesce_events: u64,
}

fn add(layers: &mut BTreeMap<String, f64>, key: impl Into<String>, v: f64) {
    *layers.entry(key.into()).or_insert(0.0) += v;
}

/// Pool bound and, when traced, the shard-count and conservation checks.
fn check_session(
    facts: &[SessionFacts],
    probe: Option<Probe>,
    events_processed: u64,
    c: &mut Checked,
) -> Result<(), String> {
    for f in facts {
        if f.high_water > PAR.max_lane_threads {
            return Err(format!(
                "pool high water {} exceeds {} lane threads",
                f.high_water, PAR.max_lane_threads
            ));
        }
    }
    let Some(probe) = probe else {
        return Ok(());
    };
    for f in facts {
        if f.shards != f.lanes {
            return Err(format!(
                "{} hub shards for {} lanes: a tool wrapper declined to fork",
                f.shards, f.lanes
            ));
        }
        let high = c
            .layers
            .entry("lane_exec.pool_high_water".into())
            .or_insert(0.0);
        *high = high.max(f.high_water as f64);
        add(&mut c.layers, "hub.quiesce_events", f.quiesce_events as f64);
    }
    let shards = probe.shards.lock().map_err(err)?;
    let mut per_class = [0u64; 8];
    let mut per_shard = Vec::new();
    for row in shards.values() {
        for (total, n) in per_class.iter_mut().zip(row) {
            *total += n;
        }
        per_shard.push(row.iter().sum::<u64>());
    }
    let counted: u64 = per_shard.iter().sum();
    if counted != events_processed {
        return Err(format!(
            "shard counts sum to {counted}, session processed {events_processed}"
        ));
    }
    for (name, n) in CLASS_NAMES.iter().zip(per_class) {
        add(&mut c.layers, format!("shard.events.{name}"), n as f64);
    }
    let mean = counted as f64 / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    add(
        &mut c.layers,
        "shard.skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );

    let ledger = probe.ledger.lock().map_err(err)?;
    for (name, interest) in &ledger.interest {
        let t = ledger.totals.get(name).copied().unwrap_or_default();
        let admitted = admitted_for(*interest, &per_class);
        if t.events != admitted {
            return Err(format!(
                "tool {name} saw {} events, its classes admitted {admitted}",
                t.events
            ));
        }
        add(
            &mut c.layers,
            format!("tool.{name}.events"),
            t.events as f64,
        );
        add(
            &mut c.layers,
            format!("tool.{name}.dispatch_ms"),
            t.dispatch_ns as f64 / 1e6,
        );
        add(
            &mut c.layers,
            format!("tool.{name}.merge_ms"),
            t.merge_ns as f64 / 1e6,
        );
    }
    Ok(())
}

/// The report-side steps every session workload ends with, through to
/// the session's teardown.
fn finish_session(
    tr: &Tracer,
    session: PastaSession,
    lanes: usize,
) -> (MergedReport, SessionFacts) {
    let quiesce_events = tr.span("hub.quiesce", || session.hub().quiesce());
    let merged = tr.span("merge.report", || session.merged_report());
    let text = tr.span("report.render", || merged.to_string());
    std::hint::black_box(text);
    tr.span("uvm.harvest", || std::hint::black_box(session.uvm_report()));
    let facts = SessionFacts {
        lanes,
        shards: session.hub().shards().len(),
        high_water: session.pool_high_water(),
        quiesce_events,
    };
    tr.span("session.drop", || drop(session));
    (merged, facts)
}

// ---------------------------------------------------------------------------
// moe-ep256
// ---------------------------------------------------------------------------

/// One expert-parallel MoE training iteration over 256 lanes.
pub struct MoeEp256 {
    reference: Option<MergedReport>,
}

const MOE_LANES: u32 = 256;

impl MoeEp256 {
    pub fn new() -> Self {
        MoeEp256 { reference: None }
    }

    fn session(probe: &Option<Probe>) -> Result<PastaSession, String> {
        Pasta::builder()
            .devices(vec![DeviceSpec::a100_80gb(); MOE_LANES as usize])
            .boxed_tool(tool(probe, Box::new(LaunchCounter::default())))
            .boxed_tool(tool(probe, Box::new(KernelFrequencyTool::new())))
            .parallel(PAR)
            .build()
            .map_err(err)
    }
}

pub struct MoeOut {
    merged: MergedReport,
    report: ParallelReport,
    facts: SessionFacts,
    probe: Option<Probe>,
}

impl Scenario for MoeEp256 {
    type Out = MoeOut;
    const CAL_THREADS: usize = PAR.max_lane_threads;

    fn run(&mut self, tr: &Tracer) -> Result<MoeOut, String> {
        let probe = Probe::new(tr);
        let moe = MoeConfig::tiny();
        let mut session = tr.span("profiler.build", || Self::session(&probe))?;
        attach_counters(&probe, &session);
        let report = tr
            .span("run.wall", || {
                session.run_parallel(&devices(MOE_LANES), |lanes| {
                    parallel::train_iter_expert_parallel_with(lanes, 1, &moe)
                })
            })
            .map_err(err)?;
        if probe.is_some() {
            drop(session.detach_event_recorders());
        }
        let (merged, facts) = finish_session(tr, session, MOE_LANES as usize);
        Ok(MoeOut {
            merged,
            report,
            facts,
            probe,
        })
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        let mut session = Self::session(&None)?;
        session
            .run_parallel(&devices(MOE_LANES), |lanes| {
                parallel::train_iter_expert_sequential_reference_with(lanes, 1, &MoeConfig::tiny())
            })
            .map_err(err)?;
        self.reference = Some(session.merged_report());
        Ok(())
    }

    fn check(&self, out: MoeOut) -> Result<Checked, String> {
        if self.reference.as_ref() != Some(&out.merged) {
            return Err("merged report differs from the sequential reference".into());
        }
        let mut c = Checked {
            events: out.merged.events_processed,
            ..Checked::default()
        };
        c.counts
            .insert("events".into(), out.merged.events_processed);
        c.counts
            .insert("launches".into(), out.report.launches.iter().sum());
        check_session(&[out.facts], out.probe, out.merged.events_processed, &mut c)?;
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// megatron2-trace
// ---------------------------------------------------------------------------

const STRATEGIES: [Parallelism; 3] = [
    Parallelism::Data,
    Parallelism::Tensor,
    Parallelism::Pipeline,
];

/// The fine-grained five-tool suite of the trace-replay bench.
fn suite() -> Vec<Box<dyn Tool>> {
    vec![
        Box::new(KernelFrequencyTool::new()),
        Box::new(BarrierStallTool::new()),
        Box::new(HotnessTool::new(64)),
        Box::new(OpKernelMapTool::new()),
        Box::new(MemoryCharacteristicsTool::new()),
    ]
}

fn suite_session(probe: &Option<Probe>) -> Result<PastaSession, String> {
    suite()
        .into_iter()
        .fold(Pasta::builder().a100_x2().parallel(PAR), |b, t| {
            b.boxed_tool(tool(probe, t))
        })
        .build()
        .map_err(err)
}

/// Megatron-345M under DP, TP and PP on two A100s, each captured to a
/// trace, parsed and replayed through a fresh suite.
pub struct Megatron2Trace {
    reference: Vec<MergedReport>,
}

impl Megatron2Trace {
    pub fn new() -> Self {
        Megatron2Trace {
            reference: Vec::new(),
        }
    }
}

pub struct StrategyOut {
    live: MergedReport,
    replayed: MergedReport,
    report: ParallelReport,
    trace: Trace,
    encoded: Trace,
    facts: SessionFacts,
}

pub struct MegatronOut {
    strategies: Vec<StrategyOut>,
    probe: Option<Probe>,
}

impl Scenario for Megatron2Trace {
    type Out = MegatronOut;
    const CAL_THREADS: usize = PAR.max_lane_threads;

    fn run(&mut self, tr: &Tracer) -> Result<MegatronOut, String> {
        let probe = Probe::new(tr);
        let mut strategies = Vec::new();
        for strategy in STRATEGIES {
            let mut session = tr.span("profiler.build", || suite_session(&probe))?;
            let writer = TraceWriter::attach(&session);
            attach_counters(&probe, &session);
            let report = tr
                .span("run.wall", || {
                    session.run_parallel(&devices(2), |lanes| {
                        parallel::train_iter(lanes, strategy, 1)
                    })
                })
                .map_err(err)?;
            let trace = tr.span("trace.finish", || writer.finish(&session));
            let (live, facts) = finish_session(tr, session, 2);
            let reader = tr
                .span("trace.parse", || TraceReader::parse(trace.as_bytes()))
                .map_err(err)?;
            let encoded = tr.span("trace.encode", || {
                Trace::from_shards(
                    reader
                        .shards()
                        .iter()
                        .map(|s| (s.device, s.events.as_slice())),
                    reader.uvm(),
                )
            });
            let replayed = tr
                .span("trace.replay", || {
                    let mut tools = ToolCollection::new();
                    for t in suite() {
                        tools.register(t);
                    }
                    replay_decoded(&reader, &mut tools)
                })
                .map_err(err)?;
            strategies.push(StrategyOut {
                live,
                replayed,
                report,
                trace,
                encoded,
                facts,
            });
        }
        Ok(MegatronOut { strategies, probe })
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        for strategy in STRATEGIES {
            let mut session = suite_session(&None)?;
            session
                .run_parallel(&devices(2), |lanes| {
                    parallel::train_iter_sequential_reference(lanes, strategy, 1)
                })
                .map_err(err)?;
            self.reference.push(session.merged_report());
        }
        Ok(())
    }

    fn check(&self, out: MegatronOut) -> Result<Checked, String> {
        let mut c = Checked::default();
        let mut live_events = 0;
        let mut launches = 0;
        let mut trace_bytes = 0;
        for ((strategy, s), reference) in
            STRATEGIES.iter().zip(&out.strategies).zip(&self.reference)
        {
            let label = strategy.label();
            if &s.live != reference {
                return Err(format!(
                    "{label}: live report differs from the sequential reference"
                ));
            }
            if s.replayed != s.live {
                return Err(format!("{label}: replay differs from the live report"));
            }
            if s.encoded != s.trace {
                return Err(format!(
                    "{label}: re-encoding the decoded stream changed the bytes"
                ));
            }
            live_events += s.live.events_processed;
            launches += s.report.launches.iter().sum::<u64>();
            trace_bytes += s.trace.len() as u64;
        }
        c.events = 2 * live_events;
        c.counts.insert("events".into(), live_events);
        c.counts.insert("launches".into(), launches);
        c.counts.insert("trace_bytes".into(), trace_bytes);
        add(
            &mut c.layers,
            "trace.bytes_per_event",
            trace_bytes as f64 / live_events.max(1) as f64,
        );
        let facts: Vec<SessionFacts> = out.strategies.iter().map(|s| s.facts).collect();
        check_session(&facts, out.probe, live_events, &mut c)?;
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// serve-oversub
// ---------------------------------------------------------------------------

const SERVE_LANES: u32 = 4;

/// The heaviest row of the serving sweep: one request per step on
/// average, the device budget at weights + weights/8.
pub struct ServeOversub {
    cfg: ServingConfig,
    budget: u64,
    reference: Option<(ServingRun, MergedReport)>,
}

impl ServeOversub {
    pub fn new(seed: u64) -> Self {
        let cfg = ServingConfig {
            seed,
            mean_interarrival_steps: 1,
            ..ServingConfig::small()
        };
        let weights = cfg.dims.param_bytes(DType::F32);
        ServeOversub {
            cfg,
            budget: weights + weights / 8,
            reference: None,
        }
    }

    fn session(&self) -> Result<PastaSession, String> {
        Pasta::builder()
            .devices(vec![DeviceSpec::a100_80gb(); SERVE_LANES as usize])
            .uvm(UvmSetup {
                budget_bytes: Some(self.budget),
                ..UvmSetup::default()
            })
            .parallel(PAR)
            .build()
            .map_err(err)
    }
}

pub struct ServeOut {
    run: ServingRun,
    merged: MergedReport,
    facts: SessionFacts,
    probe: Option<Probe>,
}

impl Scenario for ServeOversub {
    type Out = ServeOut;
    const CAL_THREADS: usize = PAR.max_lane_threads;

    fn run(&mut self, tr: &Tracer) -> Result<ServeOut, String> {
        let probe = Probe::new(tr);
        let mut session = tr.span("profiler.build", || self.session())?;
        attach_counters(&probe, &session);
        let cfg = &self.cfg;
        let run = tr
            .span("run.wall", || {
                session.run_parallel(&devices(SERVE_LANES), |lanes| serving::serve(lanes, cfg))
            })
            .map_err(err)?;
        if probe.is_some() {
            drop(session.detach_event_recorders());
        }
        let (merged, facts) = finish_session(tr, session, SERVE_LANES as usize);
        Ok(ServeOut {
            run,
            merged,
            facts,
            probe,
        })
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        let mut session = self.session()?;
        let cfg = &self.cfg;
        let run = session
            .run_parallel(&devices(SERVE_LANES), |lanes| {
                serving::serve_sequential_reference(lanes, cfg)
            })
            .map_err(err)?;
        self.reference = Some((run, session.merged_report()));
        Ok(())
    }

    fn check(&self, out: ServeOut) -> Result<Checked, String> {
        let Some((ref_run, ref_merged)) = &self.reference else {
            return Err("oracle not prepared".into());
        };
        if &out.run != ref_run {
            return Err("serving run differs from the sequential reference".into());
        }
        if &out.merged != ref_merged {
            return Err("merged report differs from the sequential reference".into());
        }
        let served = ServingReport::from_run(&out.run, out.merged.uvm.as_ref());
        let mut c = Checked {
            events: out.merged.events_processed,
            ..Checked::default()
        };
        c.counts
            .insert("events".into(), out.merged.events_processed);
        c.counts.insert("completed".into(), served.completed);
        c.counts
            .insert("kv_pages_allocated".into(), served.kv_pages_allocated);
        c.counts.insert(
            "ttft_p99_virtual_ns".into(),
            served.ttft_p99_ns.unwrap_or(0),
        );
        let stats = out.merged.uvm.as_ref().map(|u| u.stats).unwrap_or_default();
        for (key, v) in [
            ("uvm.fault_groups", stats.fault_groups),
            ("uvm.demand_pages_in", stats.demand_pages_in),
            ("uvm.pages_evicted", stats.pages_evicted),
            ("uvm.peer_pages_in", stats.peer_pages_in),
        ] {
            c.counts.insert(key.into(), v);
            add(&mut c.layers, key, v as f64);
        }
        check_session(&[out.facts], out.probe, out.merged.events_processed, &mut c)?;
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// paper-quick
// ---------------------------------------------------------------------------

/// The figure drivers at quick scale that no other workload covers.
pub struct PaperQuick;

pub struct PaperOut {
    /// `(driver, rendered text)` in run order.
    rendered: Vec<(&'static str, String)>,
    /// Events the drivers' results expose: kernel launches (fig7,
    /// table5) and allocation events (fig14).
    events: u64,
}

/// FNV-1a, 64-bit: a stable digest of rendered text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Scenario for PaperQuick {
    type Out = PaperOut;
    /// The figure drivers run on the measuring thread.
    const CAL_THREADS: usize = 1;

    fn run(&mut self, tr: &Tracer) -> Result<PaperOut, String> {
        let scale = ExpScale::quick();
        let mut rendered = Vec::new();
        let mut events = 0u64;
        tr.span("paper.fig4", || -> Result<(), String> {
            let r = fig4::run(scale).map_err(err)?;
            rendered.push(("fig4", fig4::render(&r)));
            Ok(())
        })?;
        tr.span("paper.fig7", || -> Result<(), String> {
            let r = fig7::run(scale).map_err(err)?;
            events += r.iter().map(|f| f.total).sum::<u64>();
            rendered.push(("fig7", fig7::render(&r)));
            Ok(())
        })?;
        tr.span("paper.table5", || -> Result<(), String> {
            let r = table5::run(scale).map_err(err)?;
            events += r.iter().map(|row| row.kernels).sum::<u64>();
            rendered.push(("table5", table5::render(&r)));
            Ok(())
        })?;
        tr.span("paper.fig9_10", || -> Result<(), String> {
            // fig9_10::run's grid, one `measure` call at a time so each
            // collection variant gets its own span.
            let mut results = Vec::new();
            for model in ModelZoo::all() {
                for (device, spec) in [
                    ("A100", DeviceSpec::a100_80gb()),
                    ("3060", DeviceSpec::rtx_3060()),
                ] {
                    for variant in fig9_10::Variant::all() {
                        let name = match variant {
                            fig9_10::Variant::CsGpu => "paper.fig9.cs-gpu",
                            fig9_10::Variant::CsCpu => "paper.fig9.cs-cpu",
                            fig9_10::Variant::NvbitCpu => "paper.fig9.nvbit-cpu",
                        };
                        let r = tr
                            .span(name, || {
                                fig9_10::measure(model, device, spec.clone(), variant, scale)
                            })
                            .map_err(err)?;
                        results.push(r);
                    }
                }
            }
            rendered.push(("fig9", fig9_10::render_fig9(&results)));
            rendered.push(("fig10", fig9_10::render_fig10(&results)));
            Ok(())
        })?;
        tr.span("paper.fig13", || -> Result<(), String> {
            let r = fig13::run(scale).map_err(err)?;
            rendered.push(("fig13", fig13::render(&r)));
            Ok(())
        })?;
        tr.span("paper.fig14", || -> Result<(), String> {
            let r = fig14::run(scale).map_err(err)?;
            events += (r.nvidia.events + r.amd.events) as u64;
            rendered.push(("fig14", fig14::render(&r)));
            Ok(())
        })?;
        Ok(PaperOut { rendered, events })
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        // The oracle is the digests recorded in the benchmark's baseline.
        Ok(())
    }

    fn check(&self, out: PaperOut) -> Result<Checked, String> {
        let mut c = Checked {
            events: out.events,
            ..Checked::default()
        };
        c.counts.insert("events".into(), out.events);
        for (driver, text) in &out.rendered {
            c.counts
                .insert(format!("digest.{driver}"), fnv1a(text.as_bytes()));
        }
        Ok(c)
    }
}
