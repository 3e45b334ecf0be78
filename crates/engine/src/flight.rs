//! In-flight work sharing: the engine's single-flight core.
//!
//! [`SingleFlight`] guarantees that N concurrent misses on one key run
//! **one** build while the other N−1 park on a ticket and share the
//! result — the heart of [`PlanCache`](crate::PlanCache). It is the only
//! place one caller's result is handed to another: query sweeps never
//! leave their caller's thread ([`Engine::query`](crate::Engine::query)
//! is a one-request [`Engine::query_batch`](crate::Engine::query_batch)).
//!
//! The core is deliberately *policy-free*: no stats, no clocks, no
//! domain types. Callers inject those through closures (`probe` /
//! `classify` / `build` / `publish`), which keeps it small enough for the
//! `mbt-check` model suite to explore its interleavings exhaustively
//! (`crates/check/tests/models.rs`) while production wires in the real
//! LRU and stats counters.
//!
//! Panic safety is part of the contract: a builder that unwinds must not
//! strand its followers. [`SingleFlight::run`] installs a drop guard
//! around the build so an unwind removes the ticket and fills the slot
//! with a caller-supplied substitute value before the panic propagates —
//! followers always wake with *something* typed, never hang.

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
}
