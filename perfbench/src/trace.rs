//! In-memory span recorder for the traced run.
//!
//! Spans follow the Dapper shape (name, start, end, parent, calling thread)
//! and are recorded only at the two boundaries the benchmark owns: the
//! `KvStore` adapter (engine calls) and the `Device` adapter (storage I/O).
//! When tracing is off the adapters pay one relaxed atomic load per call.
//! Spans stay in memory until the run ends and are summarised by
//! [`SpanSummary`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Which thread of the system issued a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The benchmark's driving thread: the trainer loop in `KgeTrainer::run`.
    Trainer,
    /// The trainer's asynchronous update thread.
    Updater,
    /// A look-ahead prefetch worker of the embedding table.
    Prefetch,
    /// The serving tier's batcher thread (`mlkv-batcher`).
    Batcher,
    /// Any other thread, e.g. an engine batch-executor worker doing I/O.
    Other,
}

impl Role {
    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Role::Trainer => "trainer",
            Role::Updater => "updater",
            Role::Prefetch => "prefetch",
            Role::Batcher => "batcher",
            Role::Other => "other",
        }
    }
}

/// What an engine call does, which names the role of an otherwise anonymous
/// calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A lookup.
    Read,
    /// A mutation.
    Write,
    /// A look-ahead promotion into the engine's memory buffer.
    Promote,
    /// Bookkeeping (length, flush, replication hooks).
    Admin,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `engine.multi_get` or `device.hlog.read`.
    pub name: &'static str,
    /// Role of the calling thread.
    pub role: Role,
    /// Calling thread.
    pub thread: ThreadId,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Keys (engine spans) or requests (device spans) covered.
    pub items: u64,
    /// Bytes moved (device spans).
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The engine span open on this thread: `(id, role)`, id 0 when none.
    static OPEN: Cell<(u64, Role)> = const { Cell::new((0, Role::Other)) };
}

/// Collects spans from every adapter of one run.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    trainer: OnceLock<ThreadId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            trainer: OnceLock::new(),
        }
    }

    /// Turn recording on or off. Spans already open finish under the old
    /// setting.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True while recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Mark the calling thread as the trainer thread.
    pub fn set_trainer_thread(&self) {
        let _ = self.trainer.set(std::thread::current().id());
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    fn engine_role(&self, kind: OpKind) -> Role {
        let thread = std::thread::current();
        if self.trainer.get() == Some(&thread.id()) {
            return Role::Trainer;
        }
        if thread.name() == Some("mlkv-batcher") {
            return Role::Batcher;
        }
        match kind {
            OpKind::Write => Role::Updater,
            OpKind::Read | OpKind::Promote => Role::Prefetch,
            OpKind::Admin => Role::Other,
        }
    }

    /// Run `f` as an engine span named `name` over `items` keys.
    pub fn engine<T>(
        &self,
        name: &'static str,
        kind: OpKind,
        items: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let role = self.engine_role(kind);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = OPEN.with(|open| open.replace((id, role)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.set(outer));
        self.push(Span {
            id,
            parent: outer.0,
            name,
            role,
            thread: std::thread::current().id(),
            start_ns,
            end_ns,
            items: items as u64,
            bytes: 0,
        });
        out
    }

    /// Run `f` as a device span named `name` over `reqs` requests and `bytes`
    /// bytes. Its parent is the engine span open on the same thread, if any.
    pub fn device<T>(
        &self,
        name: &'static str,
        reqs: usize,
        bytes: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let (parent, role) = OPEN.with(Cell::get);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            role,
            thread: std::thread::current().id(),
            start_ns,
            end_ns,
            items: reqs as u64,
            bytes: bytes as u64,
        });
        out
    }
}

/// Aggregate of the spans sharing one name (optionally one role).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Number of spans.
    pub calls: u64,
    /// Sum of `items`.
    pub items: u64,
    /// Sum of `bytes`.
    pub bytes: u64,
    /// Sum of durations, seconds.
    pub busy_s: f64,
    /// Median duration, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile duration, milliseconds.
    pub p99_ms: f64,
}

impl SpanSummary {
    /// Summarise the spans selected by `keep`.
    pub fn of(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Self {
        let mut durations = Vec::new();
        let mut out = SpanSummary::default();
        for span in spans.iter().filter(|s| keep(s)) {
            out.calls += 1;
            out.items += span.items;
            out.bytes += span.bytes;
            durations.push(span.duration_ns() as f64 / 1e6);
        }
        out.busy_s = durations.iter().fold(0.0, |a, d| a + d) / 1e3;
        out.p50_ms = crate::report::percentile(&mut durations, 50.0);
        out.p99_ms = crate::report::percentile(&mut durations, 99.0);
        out
    }

    /// Mean items per call (0 without calls).
    pub fn items_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.items as f64 / self.calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_while_enabled_and_links_device_to_engine_span() {
        let tracer = Tracer::new();
        tracer.set_trainer_thread();
        tracer.engine("engine.multi_get", OpKind::Read, 3, || ());
        assert!(tracer.take().is_empty());

        tracer.set_enabled(true);
        tracer.engine("engine.multi_get", OpKind::Read, 3, || {
            tracer.device("device.hlog.read", 2, 64, || ());
        });
        tracer.device("device.hlog.read", 1, 8, || ());
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        let engine = spans.iter().find(|s| s.name == "engine.multi_get").unwrap();
        assert_eq!(engine.role, Role::Trainer);
        assert_eq!(engine.parent, 0);
        assert_eq!(spans[0].parent, engine.id, "nested device span");
        assert_eq!(spans[0].role, Role::Trainer);
        assert_eq!(spans[2].parent, 0, "device span outside any engine call");
        assert!(engine.start_ns <= spans[0].start_ns && spans[0].end_ns <= engine.end_ns);

        let reads = SpanSummary::of(&spans, |s| s.name == "device.hlog.read");
        assert_eq!((reads.calls, reads.items, reads.bytes), (2, 3, 72));
    }

    #[test]
    fn anonymous_threads_take_their_role_from_the_operation() {
        let tracer = Tracer::new();
        tracer.set_trainer_thread();
        tracer.set_enabled(true);
        std::thread::scope(|s| {
            s.spawn(|| tracer.engine("engine.multi_rmw", OpKind::Write, 1, || ()));
            s.spawn(|| tracer.engine("engine.multi_promote", OpKind::Promote, 1, || ()));
            std::thread::Builder::new()
                .name("mlkv-batcher".into())
                .spawn_scoped(s, || {
                    tracer.engine("engine.multi_get", OpKind::Read, 1, || ())
                })
                .unwrap();
        });
        let mut roles: Vec<_> = tracer.take().iter().map(|s| (s.name, s.role)).collect();
        roles.sort_by_key(|(name, _)| *name);
        assert_eq!(
            roles,
            vec![
                ("engine.multi_get", Role::Batcher),
                ("engine.multi_promote", Role::Prefetch),
                ("engine.multi_rmw", Role::Updater),
            ]
        );
    }
}
