//! The scoped capture: the one recorder every instrumented crate emits
//! into.
//!
//! [`record`] runs a closure with a fresh [`Capture`] installed in the
//! calling thread's slot and returns what the closure recorded: the span
//! [`Timeline`], the simulated-clock cursor, and the typed item streams
//! the closure opened with [`collect`] (the launch traces of
//! `distmsm_gpu_sim::trace`, the comm schedules of
//! `distmsm_comms::schedule::trace`). Streams are opt-in because a launch
//! trace holds every simulated memory access, far more than a timeline
//! export needs.
//!
//! Hooks read only the current thread's slot, so work on other threads —
//! captured or not — never lands in it. A worker thread joins its
//! parent's capture by taking [`current`] on the parent and running under
//! [`enter`]; the engine's scoped slice workers do exactly that.
//!
//! The capture owns the **simulated clock**: a cursor in simulated
//! seconds that sequential top-level operations (the four MSMs of a
//! Groth16 proof, the NTT stage after them) advance, so their spans lay
//! out one after another on the timeline instead of all starting at zero.
//!
//! Every hook is a no-op while the thread has no capture, so hooks can
//! be called unconditionally from instrumented code. The slot is restored
//! when the closure returns or panics, so a nested [`record`] hands the
//! outer capture back; a panicking worker cannot wedge the capture, whose
//! plain-data state is recovered from a poisoned lock.

use crate::span::{CounterSample, Histogram, Instant, Span, Timeline};
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything one [`record`] call captured.
#[derive(Default)]
pub struct Capture {
    /// Spans, instants, counters and histograms, in emission order.
    pub timeline: Timeline,
    /// The simulated-clock cursor, in seconds.
    clock_s: f64,
    /// One `Vec<T>` per item type opened with [`collect`].
    streams: Vec<Box<dyn Any + Send>>,
}

impl Capture {
    /// Removes and returns every item of type `T` submitted during the
    /// capture, in submission order (none unless `T` was collected).
    pub fn take<T: Any>(&mut self) -> Vec<T> {
        self.stream::<T>().map(std::mem::take).unwrap_or_default()
    }

    fn stream<T: Any>(&mut self) -> Option<&mut Vec<T>> {
        self.streams.iter_mut().find_map(|s| s.downcast_mut())
    }
}

/// A live capture, shareable with the worker threads of the work it
/// records.
#[derive(Clone)]
pub struct Handle(Arc<Mutex<Capture>>);

impl Handle {
    fn lock(&self) -> MutexGuard<'_, Capture> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    static SLOT: RefCell<Option<Handle>> = const { RefCell::new(None) }; // det-ok: per-thread capture slot, set only by `enter`
}

/// Runs `f` with a fresh capture installed on this thread and returns its
/// result with everything recorded meanwhile.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Capture) {
    let handle = Handle(Arc::new(Mutex::new(Capture::default())));
    let out = enter(Some(handle.clone()), f);
    let capture = std::mem::take(&mut *handle.lock());
    (out, capture)
}

/// The capture live on this thread, for handing to worker threads.
pub fn current() -> Option<Handle> {
    SLOT.with(|s| s.borrow().clone())
}

/// Runs `f` with `handle` installed on this thread (none: uncaptured),
/// restoring the previous slot afterwards, also when `f` panics.
pub fn enter<R>(handle: Option<Handle>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Handle>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SLOT.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(SLOT.with(|s| s.replace(handle)));
    f()
}

/// Applies `f` to this thread's capture, if it has one.
fn with<R>(f: impl FnOnce(&mut Capture) -> R) -> Option<R> {
    SLOT.with(|s| s.borrow().as_ref().map(|h| f(&mut h.lock())))
}

/// True while this thread records into a capture. Hooks use this to skip
/// argument marshalling when nobody is listening.
pub fn active() -> bool {
    SLOT.with(|s| s.borrow().is_some())
}

/// Current simulated-clock cursor in seconds (`0.0` when inactive).
pub fn clock_s() -> f64 {
    with(|c| c.clock_s).unwrap_or(0.0)
}

/// Advances the simulated clock by `dt_s` seconds. No-op when inactive.
pub fn advance_s(dt_s: f64) {
    with(|c| c.clock_s += dt_s);
}

/// Records a span. No-op when inactive.
pub fn push_span(span: Span) {
    with(|c| c.timeline.spans.push(span));
}

/// Records an instant marker. No-op when inactive.
pub fn push_instant(instant: Instant) {
    with(|c| c.timeline.instants.push(instant));
}

/// Records a counter sample. No-op when inactive.
pub fn push_counter(sample: CounterSample) {
    with(|c| c.timeline.counters.push(sample));
}

/// Records `value` into the histogram named `name`, creating it on first
/// use. No-op when inactive.
pub fn record_histogram(name: &str, value: f64) {
    with(|c| {
        let hs = &mut c.timeline.histograms;
        match hs.iter_mut().find(|h| h.name == name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new(name);
                h.record(value);
                hs.push(h);
            }
        }
    });
}

/// Opens this thread's capture's stream of `T`s, so that [`submit`] keeps
/// them for [`Capture::take`]. No-op when inactive or already open.
pub fn collect<T: Any + Send>() {
    with(|c| {
        if c.stream::<T>().is_none() {
            c.streams.push(Box::new(Vec::<T>::new()));
        }
    });
}

/// True when this thread's capture collects `T`s. Hooks use this to skip
/// building an item nobody keeps.
pub fn collecting<T: Any>() -> bool {
    with(|c| c.stream::<T>().is_some()).unwrap_or(false)
}

/// Appends the item `make` builds from its index in the capture's stream
/// of `T`s (launch traces take it as their launch number). `make` runs
/// only when the capture collects `T`s, under the capture's lock, so it
/// must not call these hooks.
pub fn submit<T: Any + Send>(make: impl FnOnce(u64) -> T) {
    with(|c| c.stream::<T>().map(|s| s.push(make(s.len() as u64))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Lane;

    fn span_at(t0: f64, t1: f64) -> Span {
        Span {
            name: "x".into(),
            cat: "scatter".into(),
            lane: Lane::Device(0),
            t0_s: t0,
            t1_s: t1,
            args: Vec::new(),
        }
    }

    #[test]
    fn uncaptured_thread_drops_everything() {
        assert!(!active());
        push_span(span_at(0.0, 1.0));
        record_histogram("h", 1.0);
        collect::<u32>();
        submit(|_| 7u32);
        advance_s(5.0);
        assert_eq!(clock_s(), 0.0);
        assert!(!collecting::<u32>());
        let ((), c) = record(|| {});
        assert_eq!(c.timeline, Timeline::default());
    }

    #[test]
    fn capture_round_trip_with_clock() {
        let ((), mut c) = record(|| {
            assert!(active());
            assert_eq!(clock_s(), 0.0);
            push_span(span_at(0.0, 2.5));
            advance_s(2.5);
            assert_eq!(clock_s(), 2.5);
            push_span(span_at(2.5, 3.0));
            push_counter(CounterSample {
                name: "bytes".into(),
                lane: Lane::Fabric,
                t_s: 2.5,
                value: 64.0,
            });
            record_histogram("dur", 2.0);
            record_histogram("dur", 4.0);
            submit(|_| -> u32 { unreachable!("not collected yet") });
            collect::<u64>();
            collect::<&str>();
            assert!(collecting::<u64>() && !collecting::<u32>());
            submit(|i| 10 + i);
            submit(|_| "a");
            submit(|i| 10 + i);
        });
        assert!(!active());
        assert_eq!(c.timeline.spans.len(), 2);
        assert_eq!(c.timeline.counters.len(), 1);
        assert_eq!(c.timeline.histograms[0].n, 2);
        assert_eq!(c.take::<u64>(), vec![10, 11]);
        assert_eq!(c.take::<&str>(), vec!["a"]);
        assert!(c.take::<u32>().is_empty());
        // a fresh capture starts clean
        let (open, c) = record(collecting::<u64>);
        assert!(!open && c.timeline.spans.is_empty());
    }

    #[test]
    fn nesting_and_panics_restore_the_outer_capture() {
        let ((), outer) = record(|| {
            push_span(span_at(0.0, 1.0));
            let ((), inner) = record(|| push_span(span_at(1.0, 2.0)));
            assert_eq!(inner.timeline.spans.len(), 1);
            let caught = std::panic::catch_unwind(|| record(|| panic!("workload failed")));
            assert!(caught.is_err());
            push_span(span_at(2.0, 3.0));
        });
        let t0s: Vec<f64> = outer.timeline.spans.iter().map(|s| s.t0_s).collect();
        assert_eq!(t0s, vec![0.0, 2.0]);
        assert!(!active());
    }

    #[test]
    fn workers_join_the_parent_capture_only_when_entered() {
        let ((), mut c) = record(|| {
            collect::<u8>();
            let handle = current();
            std::thread::scope(|scope| {
                scope.spawn(|| submit(|_| 1u8));
                scope.spawn(move || enter(handle, || submit(|_| 2u8)));
            });
        });
        assert_eq!(c.take::<u8>(), vec![2]);
    }
}
