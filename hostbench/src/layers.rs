//! Outside-in tracing: spans around each call the benchmark makes into a
//! layer, a [`Tool`] wrapper that times dispatch and merge per tool, and
//! an [`EventRecorder`] that counts admitted events per shard and class.
//!
//! Everything here observes the program only through its public traits;
//! with tracing off, [`Tracer::span`] is a plain call and no wrapper or
//! recorder is installed, so the untraced run measures the program as
//! users run it.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pasta::core::{Event, EventClass, EventRecorder, Interest, Tool, ToolReport};
use pasta::sim::{AccessBatch, DeviceId, KernelTraceSummary, LaunchId, Symbol};

/// One recorded span: a call into a layer, made from a benchmark thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: String,
}

thread_local! {
    /// Index of the innermost open span on this thread.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// span open on this thread. With tracing off this is `f()`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                thread: std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_owned(),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[index].end_ns = end_ns;
        out
    }

    /// Number of spans recorded so far: a mark for [`Tracer::totals_since`].
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Total duration per span name over the spans recorded after `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans.lock().expect("span store poisoned")[mark..] {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// Every span recorded, in start order; parents index this list.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Per-tool totals, summed over every instance (shard forks and merge
/// views) and every thread that ran them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToolTotals {
    pub events: u64,
    pub dispatch_ns: u64,
    pub merge_ns: u64,
}

/// Interest and running totals of each wrapped tool, by name.
#[derive(Debug, Default)]
pub struct ToolLedger {
    pub interest: BTreeMap<String, Interest>,
    pub totals: BTreeMap<String, ToolTotals>,
}

pub type SharedLedger = Arc<Mutex<ToolLedger>>;

/// Times every `on_event` and `merge` of the tool it wraps and delegates
/// every other method, `fork` and `as_any` included: a wrapper whose
/// `fork` returned `None` would collapse the session to one shard, and
/// one whose `as_any` did not delegate would break the inner tool's
/// merge downcast. Counters live in the instance (one shard's lock
/// serializes its calls) and are folded into the ledger on drop.
pub struct TimedTool {
    inner: Box<dyn Tool>,
    local: ToolTotals,
    ledger: SharedLedger,
}

impl TimedTool {
    pub fn wrap(inner: Box<dyn Tool>, ledger: &SharedLedger) -> Box<dyn Tool> {
        ledger
            .lock()
            .expect("tool ledger poisoned")
            .interest
            .insert(inner.name().to_owned(), inner.interest());
        Box::new(TimedTool {
            inner,
            local: ToolTotals::default(),
            ledger: Arc::clone(ledger),
        })
    }
}

impl Drop for TimedTool {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned ledger only loses these counts,
        // which the conservation check then reports.
        if let Ok(mut ledger) = self.ledger.lock() {
            let t = ledger
                .totals
                .entry(self.inner.name().to_owned())
                .or_default();
            t.events += self.local.events;
            t.dispatch_ns += self.local.dispatch_ns;
            t.merge_ns += self.local.merge_ns;
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tool for TimedTool {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interest(&self) -> Interest {
        self.inner.interest()
    }

    fn on_event(&mut self, event: &Event) {
        let t = Instant::now();
        self.inner.on_event(event);
        self.local.dispatch_ns += elapsed_ns(t);
        self.local.events += 1;
    }

    fn on_global_access(&mut self, launch: LaunchId, kernel: &Symbol, batch: &AccessBatch) {
        self.inner.on_global_access(launch, kernel, batch);
    }

    fn on_shared_access(&mut self, launch: LaunchId, kernel: &Symbol, batch: &AccessBatch) {
        self.inner.on_shared_access(launch, kernel, batch);
    }

    fn on_kernel_trace(&mut self, launch: LaunchId, kernel: &Symbol, summary: &KernelTraceSummary) {
        self.inner.on_kernel_trace(launch, kernel, summary);
    }

    fn report(&self) -> ToolReport {
        self.inner.report()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        self.inner
            .fork()
            .map(|inner| TimedTool::wrap(inner, &self.ledger))
    }

    fn merge(&mut self, other: &dyn Tool) {
        // `other` is another TimedTool; its `as_any` yields the inner
        // tool, which is what the inner merge downcasts to.
        let t = Instant::now();
        self.inner.merge(other);
        self.local.merge_ns += elapsed_ns(t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Admitted events per shard, by [`EventClass::index`].
pub type ShardCounts = Arc<Mutex<BTreeMap<DeviceId, [u64; 8]>>>;

/// Counts every event a shard processes by class, then hands it to the
/// recorder it wraps (a trace writer's), if any. Counts are folded into
/// the shared map when the recorder is detached and dropped.
#[derive(Debug)]
pub struct CountingRecorder {
    device: DeviceId,
    counts: [u64; 8],
    inner: Option<Box<dyn EventRecorder>>,
    sink: ShardCounts,
}

impl CountingRecorder {
    pub fn boxed(
        device: DeviceId,
        inner: Option<Box<dyn EventRecorder>>,
        sink: &ShardCounts,
    ) -> Box<dyn EventRecorder> {
        Box::new(CountingRecorder {
            device,
            counts: [0; 8],
            inner,
            sink: Arc::clone(sink),
        })
    }
}

impl EventRecorder for CountingRecorder {
    fn record(&mut self, event: &Event) {
        self.counts[event.class().index()] += 1;
        if let Some(inner) = &mut self.inner {
            inner.record(event);
        }
    }
}

impl Drop for CountingRecorder {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            let row = sink.entry(self.device).or_insert([0; 8]);
            for (total, n) in row.iter_mut().zip(self.counts) {
                *total += n;
            }
        }
    }
}

/// Metric-name suffix of each class, in [`EventClass::ALL`] order.
pub const CLASS_NAMES: [&str; 8] = [
    "host_api",
    "kernel",
    "memory",
    "sync",
    "device_access",
    "device_control",
    "framework",
    "annotation",
];

/// Events a tool with `interest` is offered, given per-class admissions.
pub fn admitted_for(interest: Interest, per_class: &[u64; 8]) -> u64 {
    EventClass::ALL
        .iter()
        .filter(|c| interest.wants_class(**c))
        .map(|c| per_class[c.index()])
        .sum()
}
