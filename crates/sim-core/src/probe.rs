//! Generic observer/probe infrastructure.
//!
//! A [`ProbeHub`] is a broadcast point the simulator fires typed events
//! through. With no observer attached it is a no-op: [`ProbeHub::emit_with`]
//! takes a closure so the event payload is never even constructed, and the
//! hot-path cost collapses to one `Vec::is_empty` check. Crucially the hub
//! never schedules simulator events or mutates simulator state, so an
//! attached observer cannot perturb results — the same determinism contract
//! as `FaultPlan::none()`.
//!
//! The event type `E` is chosen by the embedding simulator (e.g. gpu-sim's
//! `ProbeEvent`); this module stays fully generic so any discrete-event model
//! built on `sim-core` can reuse it.

use std::sync::{Arc, Mutex};

use crate::time::Cycle;

/// A sink for typed probe events fired by a simulation.
///
/// Observers receive every event by shared reference, in simulation order.
/// They must not assume anything about wall-clock time: `at` is the
/// simulated timestamp of the event.
pub trait Observer<E> {
    /// Called for every event fired through the hub this observer is
    /// attached to.
    fn on_event(&mut self, at: Cycle, event: &E);
}

/// Blanket impl so a harness can keep an `Arc<Mutex<Sampler>>` clone for
/// itself, attach another clone to the simulation, and read the collected
/// data back after the run (the same pattern the old fig10 `SharedTrace`
/// used).
impl<E, T: Observer<E> + ?Sized> Observer<E> for Arc<Mutex<T>> {
    fn on_event(&mut self, at: Cycle, event: &E) {
        self.lock().expect("observer mutex poisoned").on_event(at, event);
    }
}

/// Broadcast hub for probe events of type `E`.
///
/// Cheap to construct and cheap to carry around unattached; the simulator
/// embeds one and fires events through it unconditionally.
pub struct ProbeHub<E> {
    observers: Vec<Box<dyn Observer<E> + Send>>,
}

impl<E> std::fmt::Debug for ProbeHub<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeHub").field("observers", &self.observers.len()).finish()
    }
}

impl<E> Default for ProbeHub<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ProbeHub<E> {
    /// An empty hub with no observers: every emit is a no-op.
    pub fn new() -> Self {
        Self { observers: Vec::new() }
    }

    /// Attach an observer. Events fired after this point are delivered to it
    /// (in attach order, after any previously attached observers).
    pub fn attach(&mut self, observer: Box<dyn Observer<E> + Send>) {
        self.observers.push(observer);
    }

    /// Whether at least one observer is attached. Callers may use this to
    /// skip building expensive snapshot payloads.
    pub fn is_active(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True when no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// Fire an already-constructed event to all observers.
    pub fn emit(&mut self, at: Cycle, event: E) {
        for obs in &mut self.observers {
            obs.on_event(at, &event);
        }
    }

    /// Fire an event constructed lazily — the closure runs only if at least
    /// one observer is attached, so detached hot paths pay nothing beyond
    /// the emptiness check.
    pub fn emit_with(&mut self, at: Cycle, make: impl FnOnce() -> E) {
        if self.observers.is_empty() {
            return;
        }
        let event = make();
        for obs in &mut self.observers {
            obs.on_event(at, &event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[derive(Default)]
    struct Collector {
        seen: Vec<(Cycle, u32)>,
    }

    impl Observer<u32> for Collector {
        fn on_event(&mut self, at: Cycle, event: &u32) {
            self.seen.push((at, *event));
        }
    }

    #[test]
    fn detached_hub_never_builds_the_event() {
        let mut hub: ProbeHub<u32> = ProbeHub::new();
        assert!(!hub.is_active());
        let mut built = false;
        hub.emit_with(Cycle::ZERO, || {
            built = true;
            7
        });
        assert!(!built, "closure must not run with no observers");
    }

    #[test]
    fn attached_observers_see_events_in_order() {
        let shared = Arc::new(Mutex::new(Collector::default()));
        let mut hub: ProbeHub<u32> = ProbeHub::new();
        hub.attach(Box::new(shared.clone()));
        assert!(hub.is_active());
        assert_eq!(hub.len(), 1);
        let t1 = Cycle::ZERO + Duration::from_us(1);
        hub.emit(Cycle::ZERO, 1);
        hub.emit_with(t1, || 2);
        let got = shared.lock().unwrap().seen.clone();
        assert_eq!(got, vec![(Cycle::ZERO, 1), (t1, 2)]);
    }

    #[test]
    fn multiple_observers_all_receive() {
        let a = Arc::new(Mutex::new(Collector::default()));
        let b = Arc::new(Mutex::new(Collector::default()));
        let mut hub: ProbeHub<u32> = ProbeHub::new();
        hub.attach(Box::new(a.clone()));
        hub.attach(Box::new(b.clone()));
        hub.emit(Cycle::ZERO, 42);
        assert_eq!(a.lock().unwrap().seen.len(), 1);
        assert_eq!(b.lock().unwrap().seen.len(), 1);
    }
}
