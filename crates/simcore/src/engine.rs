//! The discrete-event engine.
//!
//! [`Engine<W>`] owns a user-supplied world state `W` and a priority queue of
//! events. Each event is a boxed `FnOnce(&mut W, &mut EventContext<W>)`;
//! firing an event may mutate the world and schedule or cancel further
//! events through the [`EventContext`].
//!
//! # Determinism
//!
//! Events fire in strictly increasing `(time, sequence)` order, where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore fire in the order they were scheduled,
//! independent of hash-map iteration order or allocator behaviour. This is
//! the property that makes whole-cloud experiments bit-reproducible.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Ids are unique for the lifetime of an [`Engine`] and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut EventContext<W>)>;

struct ScheduledEvent<W> {
    at: SimTime,
    seq: u64,
    action: EventFn<W>,
}

// BinaryHeap is a max-heap; reverse the ordering to pop the earliest event.
impl<W> PartialEq for ScheduledEvent<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for ScheduledEvent<W> {}
impl<W> PartialOrd for ScheduledEvent<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for ScheduledEvent<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Handle passed to every firing event, through which the event can read the
/// clock and schedule or cancel follow-up events.
///
/// Scheduling through the context (rather than the engine) is what allows an
/// event to enqueue work while the engine is mid-dispatch.
pub struct EventContext<W> {
    now: SimTime,
    next_seq: u64,
    pending: Vec<ScheduledEvent<W>>,
    cancelled: Vec<EventId>,
    stop_requested: bool,
}

impl<W> fmt::Debug for EventContext<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventContext")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("stop_requested", &self.stop_requested)
            .finish()
    }
}

impl<W> EventContext<W> {
    /// The current instant on the virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `action` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: the engine never rewinds.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut EventContext<W>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(ScheduledEvent {
            at,
            seq,
            action: Box::new(action),
        });
        EventId(seq)
    }

    /// Schedules `action` to fire `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut EventContext<W>) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.push(id);
    }

    /// Asks the engine to stop after the current event returns, leaving any
    /// remaining events unfired.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// A deterministic discrete-event simulation engine over world state `W`.
///
/// # Example
///
/// ```
/// use picloud_simcore::{Engine, SimDuration};
///
/// let mut engine = Engine::new(0u32);
/// for i in 1..=3u32 {
///     engine.schedule_in(SimDuration::from_secs(i as u64), move |count, _| {
///         *count += i;
///     });
/// }
/// engine.run();
/// assert_eq!(*engine.world(), 6);
/// ```
pub struct Engine<W> {
    now: SimTime,
    world: W,
    queue: BinaryHeap<ScheduledEvent<W>>,
    // BTreeSet, not HashSet: sequence numbers are only probed for
    // membership today, but an ordered set keeps any future iteration
    // (draining, debugging dumps) deterministic by construction (D1).
    cancelled: BTreeSet<u64>,
    next_seq: u64,
    events_fired: u64,
    /// The buffers each firing event's [`EventContext`] borrows for what
    /// it schedules and cancels, emptied into the queue and the cancelled
    /// set after the event and kept, so a step allocates nothing once
    /// they have grown.
    pending: Vec<ScheduledEvent<W>>,
    cancelling: Vec<EventId>,
}

impl<W> fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_fired", &self.events_fired)
            .finish()
    }
}

impl<W: Default> Default for Engine<W> {
    fn default() -> Self {
        Engine::new(W::default())
    }
}

impl<W> Engine<W> {
    /// Creates an engine at [`SimTime::ZERO`] owning `world`.
    pub fn new(world: W) -> Self {
        Engine {
            now: SimTime::ZERO,
            world,
            queue: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            next_seq: 0,
            events_fired: 0,
            pending: Vec::new(),
            cancelling: Vec::new(),
        }
    }

    /// The current instant on the virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the engine, returning the final world state.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events still queued (including any already-cancelled ones
    /// that have not yet been skipped).
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued events that will actually fire — [`Engine::queued_len`]
    /// minus the cancelled events awaiting lazy removal.
    pub fn queued_live_len(&self) -> usize {
        self.queue
            .iter()
            .filter(|ev| !self.cancelled.contains(&ev.seq))
            .count()
    }

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Engine::now`].
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut EventContext<W>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(ScheduledEvent {
            at,
            seq,
            action: Box::new(action),
        });
        EventId(seq)
    }

    /// Schedules `action` to fire `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut EventContext<W>) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Cancels a scheduled event; a no-op if it already fired or was
    /// cancelled.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
        self.maybe_compact();
    }

    /// Purges cancelled events from the queue once the cancelled set
    /// outgrows the (lower bound on the) live queue. Cancellation is lazy
    /// — normally a cancelled event is dropped when it reaches the head —
    /// but cancel-heavy fault timelines would otherwise hold dead boxed
    /// closures for the whole run. Clearing the cancelled set afterwards
    /// is sound: any id it held that was not in the queue belongs to an
    /// event that already fired and can never be enqueued again.
    fn maybe_compact(&mut self) {
        if 2 * self.cancelled.len() <= self.queue.len() {
            return;
        }
        let queue = std::mem::take(&mut self.queue);
        let live: Vec<ScheduledEvent<W>> = queue
            .into_iter()
            .filter(|ev| !self.cancelled.contains(&ev.seq))
            .collect();
        self.queue = BinaryHeap::from(live);
        self.cancelled.clear();
    }

    /// Fires the single earliest pending event, advancing the clock to it.
    ///
    /// Returns `false` when the queue is empty (nothing was fired).
    pub fn step(&mut self) -> bool {
        loop {
            let Some(event) = self.queue.pop() else {
                return false;
            };
            if self.cancelled.remove(&event.seq) {
                continue; // skip cancelled events without firing
            }
            debug_assert!(event.at >= self.now, "event queue yielded a past event");
            self.now = event.at;
            let mut ctx = EventContext {
                now: self.now,
                next_seq: self.next_seq,
                pending: std::mem::take(&mut self.pending),
                cancelled: std::mem::take(&mut self.cancelling),
                stop_requested: false,
            };
            (event.action)(&mut self.world, &mut ctx);
            self.next_seq = ctx.next_seq;
            for ev in ctx.pending.drain(..) {
                self.queue.push(ev);
            }
            self.pending = ctx.pending;
            let cancelled_any = !ctx.cancelled.is_empty();
            for id in ctx.cancelled.drain(..) {
                self.cancelled.insert(id.0);
            }
            self.cancelling = ctx.cancelled;
            if cancelled_any {
                self.maybe_compact();
            }
            self.events_fired += 1;
            if ctx.stop_requested {
                self.queue.clear();
                self.cancelled.clear();
            }
            return true;
        }
    }

    /// Runs until the event queue is exhausted (or an event calls
    /// [`EventContext::stop`]). Returns the number of events fired.
    pub fn run(&mut self) -> u64 {
        let before = self.events_fired;
        while self.step() {}
        self.events_fired - before
    }

    /// Runs until the queue is exhausted or the clock would pass `deadline`;
    /// events at exactly `deadline` do fire. The clock is left at
    /// `min(deadline, time of last fired event)`... specifically, it never
    /// advances beyond `deadline`. Returns the number of events fired.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_fired;
        loop {
            // Peek (skipping cancelled events) to avoid firing past the deadline.
            let next_at = loop {
                match self.queue.peek() {
                    None => break None,
                    Some(ev) if self.cancelled.contains(&ev.seq) => {
                        if let Some(ev) = self.queue.pop() {
                            self.cancelled.remove(&ev.seq);
                        }
                    }
                    Some(ev) => break Some(ev.at),
                }
            };
            match next_at {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_fired - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut engine = Engine::new(Vec::<u32>::new());
        engine.schedule_at(SimTime::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        engine.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        engine.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        engine.run();
        assert_eq!(engine.world(), &[1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut engine = Engine::new(Vec::<u32>::new());
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            engine.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        engine.run();
        assert_eq!(engine.world().as_slice(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut engine = Engine::new(0u64);
        fn tick(count: &mut u64, ctx: &mut EventContext<u64>) {
            *count += 1;
            if *count < 10 {
                ctx.schedule_in(SimDuration::from_millis(1), tick);
            }
        }
        engine.schedule_in(SimDuration::from_millis(1), tick);
        engine.run();
        assert_eq!(*engine.world(), 10);
        assert_eq!(engine.now(), SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut engine = Engine::new(0u32);
        let id = engine.schedule_in(SimDuration::from_secs(1), |w: &mut u32, _| *w += 1);
        engine.schedule_in(SimDuration::from_secs(2), |w: &mut u32, _| *w += 10);
        engine.cancel(id);
        engine.run();
        assert_eq!(*engine.world(), 10);
    }

    #[test]
    fn cancel_from_within_event() {
        let mut engine = Engine::new(0u32);
        let victim = engine.schedule_in(SimDuration::from_secs(5), |w: &mut u32, _| *w += 100);
        engine.schedule_in(SimDuration::from_secs(1), move |_, ctx| {
            ctx.cancel(victim);
        });
        engine.run();
        assert_eq!(*engine.world(), 0);
    }

    #[test]
    fn stop_discards_remaining_events() {
        let mut engine = Engine::new(0u32);
        engine.schedule_in(SimDuration::from_secs(1), |w: &mut u32, ctx| {
            *w += 1;
            ctx.stop();
        });
        engine.schedule_in(SimDuration::from_secs(2), |w: &mut u32, _| *w += 100);
        let fired = engine.run();
        assert_eq!(fired, 1);
        assert_eq!(*engine.world(), 1);
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let mut engine = Engine::new(Vec::<u64>::new());
        for s in [1u64, 2, 3, 4] {
            engine.schedule_at(SimTime::from_secs(s), move |w: &mut Vec<u64>, _| w.push(s));
        }
        let fired = engine.run_until(SimTime::from_secs(2));
        assert_eq!(fired, 2);
        assert_eq!(engine.world(), &[1, 2]);
        assert_eq!(engine.now(), SimTime::from_secs(2));
        // Continue to completion.
        engine.run();
        assert_eq!(engine.world(), &[1, 2, 3, 4]);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut engine = Engine::new(0u32);
        let id = engine.schedule_at(SimTime::from_secs(1), |w: &mut u32, _| *w += 1);
        engine.schedule_at(SimTime::from_secs(3), |w: &mut u32, _| *w += 2);
        engine.cancel(id);
        engine.run_until(SimTime::from_secs(2));
        assert_eq!(*engine.world(), 0);
        assert_eq!(engine.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new(());
        engine.schedule_at(SimTime::from_secs(5), |_, _| {});
        engine.run();
        engine.schedule_at(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn queued_live_len_excludes_cancelled() {
        let mut engine = Engine::new(0u32);
        let mut ids = Vec::new();
        for s in 1..=10u64 {
            ids.push(engine.schedule_at(SimTime::from_secs(s), |w: &mut u32, _| *w += 1));
        }
        assert_eq!(engine.queued_len(), 10);
        assert_eq!(engine.queued_live_len(), 10);
        engine.cancel(ids[0]);
        engine.cancel(ids[1]);
        assert_eq!(engine.queued_live_len(), 8);
        assert_eq!(engine.queued_len() - engine.queued_live_len(), {
            // Compaction may already have swept the dead entries out.
            engine.queued_len() - 8
        });
        engine.run();
        assert_eq!(*engine.world(), 8);
        assert_eq!(engine.queued_live_len(), 0);
    }

    #[test]
    fn cancel_heavy_run_compacts_the_queue() {
        // Cancel most of a large queue: the dead boxed closures must be
        // purged well before the clock reaches them, not held for the run.
        let mut engine = Engine::new(0u64);
        let mut ids = Vec::new();
        for s in 0..1000u64 {
            ids.push(engine.schedule_at(SimTime::from_secs(s + 1), |w: &mut u64, _| *w += 1));
        }
        for id in ids.iter().skip(100) {
            engine.cancel(*id);
        }
        assert!(
            engine.queued_len() <= 2 * engine.queued_live_len(),
            "queue still holds {} entries for {} live events",
            engine.queued_len(),
            engine.queued_live_len()
        );
        assert_eq!(engine.queued_live_len(), 100);
        let fired = engine.run();
        assert_eq!(fired, 100);
        assert_eq!(*engine.world(), 100);
    }

    #[test]
    fn compaction_preserves_order_and_late_cancels() {
        // Survivors fire in their original order after a compaction, and
        // cancelling post-compaction still works.
        let mut engine = Engine::new(Vec::<u64>::new());
        let mut ids = Vec::new();
        for s in 1..=50u64 {
            ids.push(
                engine.schedule_at(SimTime::from_secs(s), move |w: &mut Vec<u64>, _| w.push(s)),
            );
        }
        for id in ids.iter().take(40) {
            engine.cancel(*id);
        }
        engine.cancel(ids[44]); // cancel after the sweep
        engine.run();
        assert_eq!(engine.world(), &[41, 42, 43, 44, 46, 47, 48, 49, 50]);
    }

    #[test]
    fn event_ids_are_unique_across_context_and_engine() {
        let mut engine = Engine::new(Vec::<EventId>::new());
        let a = engine.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<EventId>, ctx| {
            let inner = ctx.schedule_in(SimDuration::from_secs(1), |_, _| {});
            w.push(inner);
        });
        engine.run();
        let b = engine.schedule_at(engine.now(), |_, _| {});
        let inner = engine.world()[0];
        assert_ne!(a, inner);
        assert_ne!(a, b);
        assert_ne!(inner, b);
    }
}
