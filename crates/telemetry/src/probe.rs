//! The probe bus: sinks, the bounded ring buffer, and the cloneable
//! [`Telemetry`] handle every instrumented component holds.
//!
//! Design constraint: a *disabled* handle must make `emit` a true
//! no-op — no heap allocation, no locking, no formatting. The handle is
//! therefore an `Option<Arc<..>>`: disabled is `None` and `emit`
//! reduces to one branch over a `Copy` event that was built on the
//! stack.

use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A consumer of telemetry events.
///
/// `Send` because defenses (which hold handles) must be `Send`.
pub trait Probe: Send {
    /// Receives one event. Called under the bus lock; keep it cheap.
    fn record(&mut self, event: Event);

    /// Flushes buffered state (default: nothing).
    fn flush(&mut self) {}
}

/// A probe that discards everything (explicit "disabled" sink for code
/// that wants a `Probe` object rather than a disabled handle).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn record(&mut self, _event: Event) {}
}

/// A probe that only counts events — cheap sanity instrument for tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingProbe {
    /// Events seen.
    pub count: u64,
}

impl Probe for CountingProbe {
    fn record(&mut self, _event: Event) {
        self.count += 1;
    }
}

/// Bounded in-memory event sink.
///
/// Holds the most recent `capacity` events; older events are dropped
/// (and counted) so a multi-million-cycle run cannot blow memory. The
/// storage is a fixed circular buffer — after the initial warm-up it
/// never reallocates.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    events: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            capacity,
            events: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Clears the buffer and the drop counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Probe for RingBuffer {
    fn record(&mut self, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Overwrite the oldest slot.
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// The sink behind an enabled handle.
enum Sink {
    Ring(RingBuffer),
    Custom(Box<dyn Probe>),
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sink::Ring(r) => write!(f, "Ring(len={}, cap={})", r.len(), r.capacity()),
            Sink::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Cloneable telemetry handle.
///
/// Every instrumented component (core, hierarchy, defenses) holds one;
/// clones share the same sink. The default handle is disabled and
/// costs one inlined `is_some` branch per `emit`. The branch has to be
/// inlined for that to hold: with `emit` left as an out-of-line call,
/// building and passing the per-instruction events of a disabled handle
/// took 7–10% of a sampled detailed-core profile.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Sink>>>,
}

/// The enabled half of [`Telemetry::emit`], kept out of line.
#[inline(never)]
fn record(sink: &Mutex<Sink>, event: Event) {
    match &mut *sink.lock().expect("telemetry sink poisoned") {
        Sink::Ring(ring) => ring.record(event),
        Sink::Custom(probe) => probe.record(event),
    }
}

impl Telemetry {
    /// A disabled handle: `emit` is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle backed by a [`RingBuffer`] of `capacity`.
    pub fn ring(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Sink::Ring(RingBuffer::new(capacity))))),
        }
    }

    /// An enabled handle backed by a caller-supplied probe.
    pub fn with_probe(probe: Box<dyn Probe>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Sink::Custom(probe)))),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` if enabled. The disabled path is a single branch
    /// inlined into the caller and performs no heap allocation (events
    /// are `Copy`); the lock-and-record body sits in an outlined helper
    /// so it does not bloat every emit site.
    #[inline(always)]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.inner {
            record(sink, event);
        }
    }

    /// Records the event built by `f` if enabled; `f` is not called on
    /// a disabled handle, so even argument computation is skipped.
    #[inline]
    pub fn emit_with<F: FnOnce() -> Event>(&self, f: F) {
        if self.inner.is_some() {
            self.emit(f());
        }
    }

    /// Retained events, oldest first (empty for disabled or custom-probe
    /// handles).
    pub fn snapshot(&self) -> Vec<Event> {
        match &self.inner {
            Some(sink) => match &*sink.lock().expect("telemetry sink poisoned") {
                Sink::Ring(ring) => ring.snapshot(),
                Sink::Custom(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Events dropped by the ring (0 for disabled/custom handles).
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(sink) => match &*sink.lock().expect("telemetry sink poisoned") {
                Sink::Ring(ring) => ring.dropped(),
                Sink::Custom(_) => 0,
            },
            None => 0,
        }
    }

    /// Retained event count (0 for disabled/custom handles).
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(sink) => match &*sink.lock().expect("telemetry sink poisoned") {
                Sink::Ring(ring) => ring.len(),
                Sink::Custom(_) => 0,
            },
            None => 0,
        }
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the ring (no-op for disabled/custom handles).
    pub fn clear(&self) {
        if let Some(sink) = &self.inner {
            if let Sink::Ring(ring) = &mut *sink.lock().expect("telemetry sink poisoned") {
                ring.clear();
            }
        }
    }

    /// Registers the sink's own accounting into `metrics`: how many
    /// events the ring retained and how many it silently evicted.
    /// Surfacing `telemetry.dropped_events` in every dump means an
    /// undersized ring shows up in the same place its data would have.
    pub fn record_metrics(&self, metrics: &mut crate::metrics::MetricsRegistry) {
        metrics.inc("telemetry.retained_events", self.len() as u64);
        metrics.inc("telemetry.dropped_events", self.dropped());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheLevel, Event};

    fn ev(cycle: u64) -> Event {
        Event::CacheHit {
            cycle,
            level: CacheLevel::L1,
            line: cycle,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingBuffer::new(4);
        for c in 0..10 {
            ring.record(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let cycles: Vec<u64> = ring.snapshot().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_below_capacity_keeps_order() {
        let mut ring = RingBuffer::new(16);
        for c in 0..5 {
            ring.record(ev(c));
        }
        assert_eq!(ring.dropped(), 0);
        let cycles: Vec<u64> = ring.snapshot().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.emit(ev(1));
        t.emit_with(|| unreachable!("closure must not run on disabled handle"));
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::ring(8);
        let clone = t.clone();
        clone.emit(ev(1));
        t.emit(ev(2));
        assert_eq!(t.len(), 2);
        assert_eq!(clone.snapshot().len(), 2);
    }

    #[test]
    fn custom_probe_receives_events() {
        #[derive(Default)]
        struct Seen(Vec<u64>);
        impl Probe for Seen {
            fn record(&mut self, event: Event) {
                self.0.push(event.cycle());
            }
        }
        // Box<dyn Probe> sinks can't be read back through the handle, so
        // verify via a counting side effect instead.
        use std::sync::atomic::{AtomicU64, Ordering};
        static HITS: AtomicU64 = AtomicU64::new(0);
        struct Count;
        impl Probe for Count {
            fn record(&mut self, _e: Event) {
                HITS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let t = Telemetry::with_probe(Box::new(Count));
        t.emit(ev(1));
        t.emit(ev(2));
        assert_eq!(HITS.load(Ordering::Relaxed), 2);
        let _ = Seen::default();
    }

    #[test]
    fn clear_resets_ring() {
        let t = Telemetry::ring(2);
        t.emit(ev(1));
        t.emit(ev(2));
        t.emit(ev(3));
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
