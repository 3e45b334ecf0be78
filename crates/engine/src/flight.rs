//! In-flight work sharing: the engine's two concurrency cores.
//!
//! [`SingleFlight`] guarantees that N concurrent misses on one key run
//! **one** build while the other N−1 park on a ticket and share the
//! result — the heart of [`PlanCache`](crate::PlanCache). [`Combiner`]
//! is leader/follower batching: the first arrival for a group drains
//! everything queued behind it and answers every follower — the heart of
//! the cross-caller `Batcher` in `scheduler.rs`.
//!
//! Both are deliberately *policy-free*: no stats, no clocks, no domain
//! types. Callers inject those through closures (`probe` / `classify` /
//! `publish`, `exec`), which keeps these cores small enough for the
//! `mbt-check` model suite to explore their interleavings exhaustively
//! (`crates/check/tests/models.rs`) while production wires in the real
//! LRU, stats counters, and evaluation sweeps.
//!
//! Panic safety is part of the contract: a builder that unwinds must not
//! strand its followers. [`SingleFlight::run`] installs a drop guard
//! around the build so an unwind removes the ticket and fills the slot
//! with a caller-supplied substitute value before the panic propagates —
//! followers always wake with *something* typed, never hang.
//! [`Combiner::submit`] makes the same promise for batch execution: a
//! leader whose `exec` sweep unwinds answers its drained batch *and*
//! anything queued behind it with the substitute, retires the group, and
//! re-throws to its own caller alone.

use std::collections::HashMap;
use std::hash::Hash;

use mbt_check::sync::{Arc, Condvar, Mutex, PoisonError};

/// Result slot a flight's followers park on.
#[derive(Debug)]
struct Ticket<V> {
    slot: Mutex<Option<V>>,
    done: Condvar,
}

impl<V> Ticket<V> {
    fn new() -> Ticket<V> {
        Ticket {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Publishes `value` and wakes every parked follower.
    fn fill(&self, value: V) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(value);
        self.done.notify_all();
    }
}

/// How a [`SingleFlight::run`] call was satisfied.
#[derive(Debug)]
pub enum Flight<T, V> {
    /// `probe` answered directly — no flight was needed.
    Hit(T),
    /// This caller led the build and produced the value.
    Led(V),
    /// Another caller was already building; this one waited and shares
    /// its result.
    Joined(V),
}

/// Everything a flight key guards, under one lock: the caller's own
/// state `S` (e.g. an LRU map) plus the in-flight ticket table. Probing
/// and the lead/join decision are atomic with respect to each other.
#[derive(Debug)]
struct FlightState<S, K, V> {
    inner: S,
    tickets: HashMap<K, Arc<Ticket<V>>>,
}

/// Keyed single-flight execution around caller state `S`.
///
/// For any key, at most one caller runs the build at a time; concurrent
/// callers for the same key block and receive a clone of the same value.
/// Values are only retained in `S` if the caller's `publish` hook stores
/// them — the ticket itself is dropped when the flight lands, so a
/// value `publish` declines to keep is rebuilt by the next flight.
#[derive(Debug)]
pub struct SingleFlight<S, K, V> {
    state: Mutex<FlightState<S, K, V>>,
}

/// Removes the ticket and substitutes a value if the builder unwinds,
/// so followers are never stranded on a flight whose leader died.
struct AbortGuard<'a, S, K: Eq + Hash, V, F: FnOnce() -> V> {
    flight: &'a SingleFlight<S, K, V>,
    /// Taken by [`AbortGuard::defuse`] on the success path.
    key: Option<K>,
    ticket: &'a Ticket<V>,
    substitute: Option<F>,
}

impl<S, K: Eq + Hash, V, F: FnOnce() -> V> AbortGuard<'_, S, K, V, F> {
    fn defuse(mut self) {
        self.key = None;
    }
}

impl<S, K: Eq + Hash, V, F: FnOnce() -> V> Drop for AbortGuard<'_, S, K, V, F> {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        // The builder is unwinding. Retire the ticket first (the next
        // caller for this key starts a fresh flight), then answer every
        // parked follower with the substitute value.
        {
            let mut st = self.flight.lock_state();
            st.tickets.remove(&key);
        }
        if let Some(substitute) = self.substitute.take() {
            self.ticket.fill(substitute());
        }
    }
}

impl<S, K: Eq + Hash, V> SingleFlight<S, K, V> {
    /// Wraps `inner` with single-flight keyed execution.
    pub fn new(inner: S) -> SingleFlight<S, K, V> {
        SingleFlight {
            state: Mutex::new(FlightState {
                inner,
                tickets: HashMap::new(),
            }),
        }
    }

    fn lock_state(&self) -> mbt_check::sync::MutexGuard<'_, FlightState<S, K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads the caller state under the flight lock.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock_state().inner)
    }
}

impl<S, K: Eq + Hash + Clone, V: Clone> SingleFlight<S, K, V> {
    /// Runs one keyed flight.
    ///
    /// Under the state lock: `probe` may answer directly
    /// ([`Flight::Hit`]); otherwise `classify(leads)` observes — still
    /// under the lock — whether this caller leads the build (`true`) or
    /// joins an in-flight one (`false`).
    ///
    /// The leader then runs `build` **outside** the lock, re-acquires it
    /// to `publish` the value into `S` and retire the ticket, and wakes
    /// the followers. If `build` (or `publish`) unwinds, followers
    /// receive `substitute()` instead and the panic propagates to the
    /// leader's caller only.
    pub fn run<T>(
        &self,
        key: K,
        probe: impl FnOnce(&mut S) -> Option<T>,
        classify: impl FnOnce(bool),
        build: impl FnOnce() -> V,
        substitute: impl FnOnce() -> V,
        publish: impl FnOnce(&mut S, &V),
    ) -> Flight<T, V> {
        let ticket = {
            let mut st = self.lock_state();
            if let Some(hit) = probe(&mut st.inner) {
                return Flight::Hit(hit);
            }
            if let Some(t) = st.tickets.get(&key) {
                classify(false);
                let t = Arc::clone(t);
                drop(st);
                // follower: park on the ticket
                let mut slot = t.slot.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(value) = slot.as_ref() {
                        return Flight::Joined(value.clone());
                    }
                    slot = t.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            }
            classify(true);
            let t = Arc::new(Ticket::new());
            st.tickets.insert(key.clone(), Arc::clone(&t));
            t
        };

        // leader: build outside every lock, guarded against unwinds
        let guard = AbortGuard {
            flight: self,
            key: Some(key),
            ticket: &ticket,
            substitute: Some(substitute),
        };
        let value = build();
        {
            let mut st = self.lock_state();
            publish(&mut st.inner, &value);
            if let Some(key) = guard.key.as_ref() {
                st.tickets.remove(key);
            }
        }
        guard.defuse();
        // wake the followers (outside the state lock; they never hold it)
        ticket.fill(value.clone());
        Flight::Led(value)
    }
}

/// One batching group: whether a leader is draining it, plus the queue.
#[derive(Debug)]
struct Group<P, R> {
    leader: bool,
    pending: Vec<(P, Arc<Ticket<R>>)>,
}

impl<P, R> Default for Group<P, R> {
    fn default() -> Group<P, R> {
        Group {
            leader: false,
            pending: Vec::new(),
        }
    }
}

/// Keyed leader/follower batching.
///
/// The first caller into an idle group becomes its **leader**: it drains
/// whatever has queued, executes the whole batch at once, and answers
/// every participant. While it executes, new arrivals keep queueing —
/// the leader loops until the group runs dry, then retires it, and the
/// next arrival leads a fresh group (leader hand-off).
#[derive(Debug)]
pub struct Combiner<K, P, R> {
    groups: Mutex<HashMap<K, Group<P, R>>>,
}

impl<K, P, R> Default for Combiner<K, P, R> {
    fn default() -> Combiner<K, P, R> {
        Combiner {
            groups: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, P, R> Combiner<K, P, R> {
    /// An empty combiner.
    #[must_use]
    pub fn new() -> Combiner<K, P, R> {
        Combiner::default()
    }

    /// Runs one payload through the combiner, blocking until its result
    /// is computed — by this caller's own drain if it leads, by another
    /// caller's otherwise.
    ///
    /// `exec` maps a drained batch to its results, index-aligned (it
    /// must return exactly one result per payload). `before_first_drain`
    /// runs once if — and only if — this caller became the leader,
    /// before its first drain: the hook for an optional coalescing wait.
    ///
    /// `substitute` is the panic answer: if the leader's `exec` unwinds,
    /// every participant of the drained batch — and anything that queued
    /// behind it — receives `substitute()` instead of hanging, the group
    /// retires, and the panic propagates to the leading caller only. It
    /// also backfills any ticket `exec` under-delivered for (a
    /// `debug_assert` catches that contract break in dev builds).
    pub fn submit(
        &self,
        key: K,
        payload: P,
        before_first_drain: impl FnOnce(),
        exec: impl Fn(Vec<P>) -> Vec<R>,
        substitute: impl Fn() -> R,
    ) -> R {
        let ticket = Arc::new(Ticket::new());
        let drain_key = key.clone();
        let is_leader = {
            let mut groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
            let group = groups.entry(key).or_default();
            group.pending.push((payload, Arc::clone(&ticket)));
            if group.leader {
                false
            } else {
                group.leader = true;
                true
            }
        };
        if is_leader {
            before_first_drain();
            self.drain(&drain_key, &exec, &substitute);
        }
        // park until some drain fills our ticket (possibly our own)
        let mut slot = ticket.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = ticket
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Leader loop: drain and execute batches until the group runs dry,
    /// then retire it so the next arrival leads afresh.
    fn drain(&self, key: &K, exec: &impl Fn(Vec<P>) -> Vec<R>, substitute: &impl Fn() -> R) {
        loop {
            let batch: Vec<(P, Arc<Ticket<R>>)> = {
                let mut groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
                let Some(group) = groups.get_mut(key) else {
                    return; // unreachable: the leader owns the group until it removes it
                };
                if group.pending.is_empty() {
                    groups.remove(key);
                    return;
                }
                std::mem::take(&mut group.pending)
            };
            let (payloads, tickets): (Vec<P>, Vec<Arc<Ticket<R>>>) = batch.into_iter().unzip();
            let results = {
                let guard = DrainGuard {
                    combiner: self,
                    key,
                    batch: &tickets,
                    substitute,
                };
                let results = exec(payloads);
                debug_assert_eq!(
                    results.len(),
                    tickets.len(),
                    "exec must answer every payload"
                );
                guard.defuse();
                results
            };
            let mut results = results.into_iter();
            for ticket in &tickets {
                // an under-delivering exec (a contract break the
                // debug_assert above catches in dev builds) must not
                // strand a follower: backfill with the substitute
                match results.next() {
                    Some(result) => ticket.fill(result),
                    None => ticket.fill(substitute()),
                }
            }
        }
    }
}

/// Answers the drained batch — and everything queued behind it — with the
/// substitute if `exec` unwinds, so no follower is stranded on a group
/// whose leader died mid-sweep.
struct DrainGuard<'a, K: Eq + Hash + Clone, P, R, F: Fn() -> R> {
    combiner: &'a Combiner<K, P, R>,
    key: &'a K,
    /// Tickets of the batch `exec` is running over.
    batch: &'a [Arc<Ticket<R>>],
    substitute: &'a F,
}

impl<K: Eq + Hash + Clone, P, R, F: Fn() -> R> DrainGuard<'_, K, P, R, F> {
    fn defuse(self) {
        std::mem::forget(self);
    }
}

impl<K: Eq + Hash + Clone, P, R, F: Fn() -> R> Drop for DrainGuard<'_, K, P, R, F> {
    fn drop(&mut self) {
        // The leader's exec is unwinding. Retire the group first so the
        // next arrival leads a fresh one, collecting any followers that
        // queued behind the dying batch, then answer everyone.
        let late = {
            let mut groups = self
                .combiner
                .groups
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            groups.remove(self.key).map(|g| g.pending)
        };
        for ticket in self.batch {
            ticket.fill((self.substitute)());
        }
        for (_, ticket) in late.into_iter().flatten() {
            ticket.fill((self.substitute)());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_skips_flight_entirely() {
        let sf: SingleFlight<u32, &str, u32> = SingleFlight::new(7);
        let out = sf.run(
            "k",
            |s| Some(*s),
            |_| unreachable!("probe answered"),
            || unreachable!("probe answered"),
            || unreachable!("probe answered"),
            |_, _| unreachable!("probe answered"),
        );
        assert!(matches!(out, Flight::Hit(7)));
    }

    #[test]
    fn lone_leader_builds_and_publishes() {
        let sf: SingleFlight<Option<u32>, &str, u32> = SingleFlight::new(None);
        let out = sf.run(
            "k",
            |s| *s,
            |leads| assert!(leads),
            || 42,
            || unreachable!("build does not panic"),
            |s, v| *s = Some(*v),
        );
        assert!(matches!(out, Flight::Led(42)));
        assert_eq!(sf.with_state(|s| *s), Some(42));
        // resident now: the next run is a hit
        let again = sf.run(
            "k",
            |s| *s,
            |_| unreachable!("resident"),
            || unreachable!("resident"),
            || unreachable!("resident"),
            |_, _| unreachable!("resident"),
        );
        assert!(matches!(again, Flight::Hit(42)));
    }

    #[test]
    fn panicking_build_substitutes_and_retires_ticket() {
        let sf: SingleFlight<Option<u32>, &str, u32> = SingleFlight::new(None);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sf.run(
                "k",
                |s| *s,
                |_| {},
                || panic!("builder died"),
                || 99,
                |s, v| *s = Some(*v),
            )
        }));
        assert!(attempt.is_err());
        // nothing published, no stale ticket: the next run leads afresh
        let out = sf.run(
            "k",
            |s| *s,
            |leads| assert!(leads),
            || 1,
            || unreachable!(),
            |s, v| *s = Some(*v),
        );
        assert!(matches!(out, Flight::Led(1)));
    }

    #[test]
    fn combiner_single_caller_round_trips() {
        let c: Combiner<u8, u32, u32> = Combiner::new();
        let mut led = false;
        let out = c.submit(
            0,
            5,
            || led = true,
            |batch| batch.into_iter().map(|p| p * 2).collect(),
            || unreachable!("exec does not panic"),
        );
        assert_eq!(out, 10);
        assert!(led);
    }

    #[test]
    fn panicking_exec_answers_followers_and_retires_group() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let c = Arc::new(Combiner::<u8, u32, u32>::new());
        // set inside the main caller's exec — i.e. strictly after its
        // first drain took the batch — so the spawned caller is a
        // *follower* on every schedule (were it free to race, it could
        // lead, panic, retire the group, and leave the main caller's
        // exec waiting for a follower that will never come)
        let leading = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let follower = {
                let c = Arc::clone(&c);
                let leading = Arc::clone(&leading);
                s.spawn(move || {
                    while !leading.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    c.submit(
                        0,
                        7,
                        || {},
                        |_| panic!("follower must not lead this test"),
                        || 99,
                    )
                })
            };
            // lead a batch whose exec dies only after the follower has
            // queued behind it, so the substitute demonstrably answers a
            // parked caller
            let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.submit(
                    0,
                    5,
                    || {},
                    |batch| {
                        assert_eq!(batch, vec![5]);
                        leading.store(true, Ordering::Release);
                        while {
                            let groups = c.groups.lock().unwrap();
                            groups.get(&0).is_none_or(|g| g.pending.is_empty())
                        } {
                            std::thread::yield_now();
                        }
                        panic!("sweep died mid-batch")
                    },
                    || 99,
                )
            }));
            // the panic reached the leading caller alone; the queued
            // follower woke with the typed substitute instead of hanging
            assert!(leader.is_err());
            assert_eq!(follower.join().unwrap(), 99);
        });
        // the group retired: the next caller leads afresh and succeeds
        let out = c.submit(
            0,
            3,
            || {},
            |batch| batch.into_iter().map(|p| p + 1).collect(),
            || unreachable!("healthy exec"),
        );
        assert_eq!(out, 4);
    }

    #[test]
    fn under_delivering_exec_backfills_with_substitute() {
        let c: Combiner<u8, u32, u32> = Combiner::new();
        // exec breaks its contract and returns nothing; release builds
        // must still answer the caller (debug builds assert instead)
        let run = || c.submit(0, 5, || {}, |_| Vec::new(), || 77);
        if cfg!(debug_assertions) {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            assert!(out.is_err(), "debug builds catch the contract break");
        } else {
            assert_eq!(run(), 77);
        }
    }
}
