//! Event spine suite.
//!
//! There is one spine: a `HubSink` drains its per-class spill buffers
//! into its shard's `EventProcessor` under the shard lock, on the
//! emission path. The oracle throughout is a single-threaded run of the
//! same input stream: racing emitters must merge byte-identically to it,
//! and — for the recorder test — deliver the *exact same event sequence*
//! to each shard's processor, each event exactly once.
//!
//! The one path that does not drain inline is a sink dropped while its
//! thread panics: it parks its partial buffers on the shard, and the next
//! lock or `Hub::quiesce` processes them. The panicking-lane and
//! conservation tests pin that no event is lost or left pending.
//!
//! Run with `--test-threads=1` in CI: the racing tests spawn their own
//! emitter threads and time-share poorly with sibling tests.

use pasta::core::hub::{Hub, HubSink, SharedHub};
use pasta::core::processor::{EventProcessor, EventRecorder};
use pasta::core::report::MergedReport;
use pasta::core::tool::{Interest, LaunchCounter, Tool};
use pasta::core::{Event, EventClass, Pasta, PastaError, PastaSession};
use pasta::prelude::*;
use pasta::sim::instrument::{DeviceTraceSink, TraceCtx};
use pasta::sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, KernelTraceSummary, LaunchId, MemSpace,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Order-independent aggregate of everything the fine path delivers.
#[derive(Debug, Default)]
struct FineAggregator {
    batches: u64,
    records: u64,
    barriers: u64,
    launches: u64,
}

impl Tool for FineAggregator {
    fn name(&self) -> &str {
        "fine-aggregator"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::GlobalAccess { batch, .. } | Event::SharedAccess { batch, .. } => {
                self.batches += 1;
                self.records += batch.records;
            }
            Event::Barrier { count, .. } => self.barriers += count,
            Event::KernelLaunchBegin { .. } => self.launches += 1,
            _ => {}
        }
    }
    fn report(&self) -> pasta::core::ToolReport {
        pasta::core::ToolReport::new(self.name())
            .metric("batches", self.batches as f64)
            .metric("records", self.records as f64)
            .metric("barriers", self.barriers as f64)
            .metric("launches", self.launches as f64)
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::<FineAggregator>::default())
    }
    fn merge(&mut self, other: &dyn Tool) {
        let other = other.as_any().downcast_ref::<FineAggregator>().unwrap();
        self.batches += other.batches;
        self.records += other.records;
        self.barriers += other.barriers;
        self.launches += other.launches;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn sharded_hub(devices: u32) -> SharedHub {
    let shards: Vec<(DeviceId, EventProcessor)> = (0..devices)
        .map(|d| {
            let mut p = EventProcessor::new();
            p.tools.register(Box::<FineAggregator>::default());
            (DeviceId(d), p)
        })
        .collect();
    Arc::new(Hub::sharded(shards).unwrap())
}

fn ctx(device: u32, launch: u64) -> TraceCtx {
    TraceCtx {
        launch: LaunchId(launch),
        device: DeviceId(device),
        stream: 0,
        name: "spine_kernel".into(),
        grid: Dim3::linear(16),
        block: Dim3::linear(64),
    }
}

fn batch(launch: u64, i: u64) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(launch),
        spec_index: 0,
        base: 0x2000 + i * 4096,
        len: 4096,
        records: 16,
        bytes: 4096,
        elem_size: 4,
        kind: AccessKind::Load,
        space: if i.is_multiple_of(4) {
            MemSpace::Shared
        } else {
            MemSpace::Global
        },
        pattern: AccessPattern::Sequential,
    }
}

/// One emitter's deterministic stream into `device`'s shard. Launch ids
/// are unique per (device, emitter) so racing emitters never share one.
fn drive_device(hub: &SharedHub, device: u32, emitter: u64, launches: u64) {
    let mut sink = HubSink::new(Arc::clone(hub));
    for l in 0..launches {
        let launch = u64::from(device) * 10_000 + emitter * 1_000 + l;
        let ctx = ctx(device, launch);
        sink.on_kernel_begin(&ctx);
        for i in 0..200 {
            sink.on_batch(&ctx, &batch(launch, i));
            if i % 25 == 0 {
                sink.on_barriers(&ctx, 2);
            }
        }
        sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
    }
}

/// `emitters` streams per device into a fresh hub — all racing on their
/// own threads, or one after another on this thread.
fn merged_after(devices: u32, emitters: u64, launches: u64, racing: bool) -> MergedReport {
    let hub = sharded_hub(devices);
    if racing {
        std::thread::scope(|scope| {
            for d in 0..devices {
                for e in 0..emitters {
                    let hub = &hub;
                    scope.spawn(move || drive_device(hub, d, e, launches));
                }
            }
        });
    } else {
        for d in 0..devices {
            for e in 0..emitters {
                drive_device(&hub, d, e, launches);
            }
        }
    }
    assert_eq!(hub.quiesce(), 0, "a run without panics parks nothing");
    hub.merged_report()
}

/// Racing emitters — one per device, then two per device contending on
/// each shard lock — merge byte-identically to the single-threaded run of
/// the same streams.
#[test]
fn concurrent_emitters_match_single_threaded_reference() {
    for emitters in [1, 2] {
        let reference = merged_after(2, emitters, 12, false);
        for _ in 0..3 {
            assert_eq!(
                merged_after(2, emitters, 12, true),
                reference,
                "{emitters} racing emitter(s) per device must merge byte-identically"
            );
        }
    }
}

/// A sink dropped mid-launch (kernel-end never arrives) must surface its
/// buffered events — nothing is stranded in the sink.
#[test]
fn drop_mid_stream_events_surface_after_quiesce() {
    let hub = sharded_hub(1);
    {
        let mut sink = HubSink::new(Arc::clone(&hub));
        let ctx = ctx(0, 42);
        sink.on_kernel_begin(&ctx);
        for i in 0..7 {
            sink.on_batch(&ctx, &batch(42, i));
        }
        // Dropped here: partial buffers drain into the shard.
    }
    hub.quiesce();
    let report = hub.merged_report();
    let agg = &report.tools[0];
    assert_eq!(agg.get("launches"), Some(1.0));
    assert_eq!(agg.get("batches"), Some(7.0), "no event lost at drop");
    assert_eq!(hub.quiesce(), 0, "nothing left after the first quiesce");
}

/// Records every event a shard's processor observes, in order.
#[derive(Debug, Default)]
struct CollectingRecorder {
    seen: Arc<Mutex<Vec<Event>>>,
}

impl EventRecorder for CollectingRecorder {
    fn record(&mut self, event: &Event) {
        self.seen.lock().unwrap().push(event.clone());
    }
}

/// Each shard's recorded stream after one emitter per device ran, racing
/// or one after another.
fn recorded_streams(racing: bool) -> Vec<Vec<Event>> {
    let hub = sharded_hub(2);
    let seen: Vec<Arc<Mutex<Vec<Event>>>> = (0..2).map(|_| Arc::default()).collect();
    hub.attach_recorders(|device| {
        Box::new(CollectingRecorder {
            seen: Arc::clone(&seen[device.index()]),
        })
    });
    if racing {
        std::thread::scope(|scope| {
            for d in 0..2 {
                let hub = &hub;
                scope.spawn(move || drive_device(hub, d, 0, 4));
            }
        });
    } else {
        for d in 0..2 {
            drive_device(&hub, d, 0, 4);
        }
    }
    hub.quiesce();
    seen.iter().map(|s| s.lock().unwrap().clone()).collect()
}

/// Trace recorders observe the exact same event sequence per shard — each
/// event exactly once, same order — whether the devices' emitters race or
/// run one after another.
#[test]
fn recorder_sees_identical_stream_under_racing_emitters() {
    let reference = recorded_streams(false);
    assert!(reference.iter().all(|s| !s.is_empty()));
    for _ in 0..3 {
        assert_eq!(
            recorded_streams(true),
            reference,
            "racing emitters must deliver the identical per-shard sequence"
        );
    }
}

/// Replays `script` (launch device, end-parity, ops) through one sink.
/// Launches with odd parity never end — the drop/rebind path has to
/// account for their events.
fn replay_script(hub: &SharedHub, script: &[(u32, u64, Vec<bool>)], launch_base: u64) {
    let mut sink = HubSink::new(Arc::clone(hub));
    for (li, (device, parity, ops)) in script.iter().enumerate() {
        let launch = u64::from(*device) * 10_000 + launch_base + li as u64;
        let c = ctx(*device, launch);
        sink.on_kernel_begin(&c);
        for (i, is_batch) in ops.iter().enumerate() {
            if *is_batch {
                sink.on_batch(&c, &batch(launch, i as u64));
            } else {
                sink.on_barriers(&c, 1 + i as u64 % 3);
            }
        }
        if parity % 2 == 0 {
            sink.on_kernel_end(&c, &KernelTraceSummary::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random launch/batch/barrier scripts split across two racing
    /// emitter threads merge byte-identically to one sink replaying the
    /// whole script on this thread, so no interleaving of flush points,
    /// rebinds and unfinished launches can lose, duplicate or reroute an
    /// event.
    #[test]
    fn random_scripts_merge_identically_across_emitter_threads(
        script in prop::collection::vec(
            (0u32..2, 1u64..12, prop::collection::vec(any::<bool>(), 0..20)),
            1..8,
        )
    ) {
        let (head, tail) = script.split_at(script.len() / 2);
        let reference = sharded_hub(2);
        replay_script(&reference, head, 0);
        replay_script(&reference, tail, 1_000);
        let racing = sharded_hub(2);
        std::thread::scope(|scope| {
            let hub = &racing;
            scope.spawn(move || replay_script(hub, head, 0));
            scope.spawn(move || replay_script(hub, tail, 1_000));
        });
        prop_assert_eq!(racing.quiesce(), 0);
        prop_assert_eq!(racing.merged_report(), reference.merged_report());
    }
}

fn parallel_session(max_lane_threads: usize) -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .tool(LaunchCounter::default())
        .parallel(ParallelConfig {
            max_lane_threads,
            ..ParallelConfig::default()
        })
        .build()
        .expect("session builds")
}

fn run_lanes(session: &mut PastaSession) -> MergedReport {
    let devices = [DeviceId(0), DeviceId(1)];
    session
        .run_parallel_each(&devices, |i, lane| {
            let s = &mut lane.session;
            let t = s.alloc_tensor(&[1 << 16], pasta::dl::dtype::DType::F32)?;
            for _ in 0..(2 + i) {
                let desc = KernelDesc::new("spine_lane", Dim3::linear(8), Dim3::linear(64))
                    .arg(t.ptr, t.bytes)
                    .body(KernelBody::streaming(t.bytes / 2, t.bytes / 2));
                s.launch(desc)?;
            }
            s.free_tensor(&t);
            Ok(())
        })
        .expect("parallel run succeeds");
    session.merged_report()
}

/// `run_parallel_each` lanes racing on two pool workers merge
/// byte-identically to the same lanes run one after another on a
/// single worker.
#[test]
fn run_parallel_each_matches_single_worker_reference() {
    let reference = run_lanes(&mut parallel_session(1));
    let racing = run_lanes(&mut parallel_session(2));
    assert_eq!(racing, reference);
}

/// Batches the panicking lane emits before it dies — fewer than one
/// flush, so all of them are still in the sink's buffers at the panic.
const TAIL_BATCHES: u64 = 37;

fn fine_session() -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .tool(FineAggregator::default())
        .tool(LaunchCounter::default())
        .build()
        .expect("session builds")
}

/// A `run_parallel_each` whose lane 1 opens a launch on its own sink,
/// emits [`TAIL_BATCHES`] batches and panics before kernel end; lane 0
/// does nothing. Returns the salvaged run.
fn run_with_panicking_tail(session: &mut PastaSession) -> pasta::core::SalvagedRun {
    let hub = Arc::clone(session.hub());
    let err = session
        .run_parallel_each(&[DeviceId(0), DeviceId(1)], |i, _lane| {
            if i == 1 {
                let mut sink = HubSink::new(Arc::clone(&hub));
                let c = ctx(1, 77);
                sink.on_kernel_begin(&c);
                for b in 0..TAIL_BATCHES {
                    sink.on_batch(&c, &batch(77, b));
                }
                panic!("fault-injection: lane dies before kernel end");
            }
            Ok(())
        })
        .expect_err("the panicking lane is salvaged");
    let PastaError::Salvaged(salvaged) = err else {
        panic!("expected PastaError::Salvaged, got {err:?}");
    };
    *salvaged
}

/// No lost tail on a panicking lane: the sink dropped mid-unwind parks
/// its unflushed batches, and the salvaged report carries exactly them.
#[test]
fn panicking_lane_keeps_its_unflushed_tail() {
    let mut session = fine_session();
    let salvaged = run_with_panicking_tail(&mut session);
    assert_eq!(salvaged.failures.len(), 1);
    assert_eq!(salvaged.failures[0].device, Some(DeviceId(1)));
    let report = &salvaged.report;
    let agg = report
        .tools
        .iter()
        .find(|r| r.tool == "fine-aggregator")
        .expect("aggregator merged");
    assert_eq!(agg.get("launches"), Some(1.0));
    assert_eq!(
        agg.get("batches"),
        Some(TAIL_BATCHES as f64),
        "every batch the dying lane emitted reaches the salvaged report"
    );
    let (device, shard_tools) = &report.per_device[1];
    assert_eq!(*device, DeviceId(1));
    let on_shard = shard_tools.iter().find(|r| r.tool == "fine-aggregator");
    assert_eq!(
        on_shard.and_then(|r| r.get("batches")),
        Some(TAIL_BATCHES as f64),
        "the tail belongs to the device it was emitted on"
    );
}

/// Counts every event its shard's processor counts, per class.
#[derive(Debug)]
struct ClassCounter {
    counts: Arc<Mutex<HashMap<EventClass, u64>>>,
}

impl EventRecorder for ClassCounter {
    fn record(&mut self, event: &Event) {
        *self
            .counts
            .lock()
            .unwrap()
            .entry(event.class())
            .or_default() += 1;
    }
}

/// Attaches a [`ClassCounter`] to every shard; returns their tallies in
/// ascending device order.
fn count_classes(session: &PastaSession) -> Vec<Arc<Mutex<HashMap<EventClass, u64>>>> {
    let tallies: Vec<Arc<Mutex<HashMap<EventClass, u64>>>> = session
        .hub()
        .shards()
        .iter()
        .map(|_| Arc::default())
        .collect();
    session.hub().attach_recorders(|device| {
        Box::new(ClassCounter {
            counts: Arc::clone(&tallies[device.index()]),
        })
    });
    tallies
}

/// Nothing pending, nothing lost: `quiesce` finds no work left, and every
/// shard's summed class admissions equal its `events_processed`.
fn assert_conserved(
    session: &PastaSession,
    tallies: &[Arc<Mutex<HashMap<EventClass, u64>>>],
    what: &str,
) {
    assert_eq!(session.hub().quiesce(), 0, "{what}: events left pending");
    let mut total = 0;
    for (shard, tally) in session.hub().shards().iter().zip(tallies) {
        let admitted: u64 = tally.lock().unwrap().values().sum();
        total += admitted;
        assert_eq!(
            admitted,
            shard.lock().events_processed(),
            "{what}: class admissions on {} must equal events_processed",
            shard.device()
        );
    }
    assert!(total > 0, "{what}: no events admitted at all");
}

fn launch_probe(s: &mut pasta::dl::Session<'_>) -> Result<(), pasta::sim::AccelError> {
    let t = s.alloc_tensor(&[1 << 12], pasta::dl::dtype::DType::F32)?;
    s.launch(
        KernelDesc::new("conserve", Dim3::linear(4), Dim3::linear(64))
            .arg(t.ptr, t.bytes)
            .body(KernelBody::streaming(t.bytes, t.bytes)),
    )?;
    s.free_tensor(&t);
    Ok(())
}

/// ROADMAP's conservation law, pinned on the one spine after every kind
/// of run: `run`, `run_parallel`, `run_parallel_each`, and a salvaged
/// `run_parallel_each` whose dying lane parked its tail.
#[test]
fn nothing_is_left_pending_after_any_run() {
    let devices = [DeviceId(0), DeviceId(1)];
    let mut session = fine_session();
    let tallies = count_classes(&session);

    let mut sweep = FnWorkload::new("conserve", |cx| {
        launch_probe(cx.session())?;
        Ok(WorkloadStats::new(1))
    });
    session.run(&mut sweep).expect("run succeeds");
    assert_conserved(&session, &tallies, "run");

    session
        .run_parallel(&devices, |lanes| {
            lanes
                .iter_mut()
                .try_for_each(|lane| launch_probe(&mut lane.session))
        })
        .expect("run_parallel succeeds");
    assert_conserved(&session, &tallies, "run_parallel");

    session
        .run_parallel_each(&devices, |_i, lane| launch_probe(&mut lane.session))
        .expect("run_parallel_each succeeds");
    assert_conserved(&session, &tallies, "run_parallel_each");

    run_with_panicking_tail(&mut session);
    assert_conserved(&session, &tallies, "salvaged run");
}
