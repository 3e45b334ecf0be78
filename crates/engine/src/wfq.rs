//! The weighted-fair admission core: a virtual-time WFQ over per-tenant
//! queues with **direct slot hand-off**.
//!
//! [`FairGate`] is deliberately policy-free — no stats, no `EngineError`,
//! nothing but the queueing protocol — so the interleaving models in
//! `mbt-check` can explore it with a small state space. The engine-facing
//! admit stage (`Engine::admit`) maps its [`Admission`] outcomes to
//! stats counters and typed errors.
//!
//! # Virtual-time tags
//!
//! Admission order follows classic virtual-time weighted fair queueing,
//! in integer arithmetic so comparisons are exact:
//!
//! ```text
//! cost(w)          = VT_SCALE / max(w, 1)
//! start(t)         = max(vtime, last_finish[t])
//! finish           = start(t) + cost(w)        // the waiter's tag
//! last_finish[t]   = finish
//! ```
//!
//! A freed slot goes to the waiter with the smallest `(finish, seq)`
//! across all tenant queue heads; `vtime` then advances to that finish
//! tag. Backlogged tenants therefore admit in proportion to their
//! weights, an idle tenant's first arrival starts at the current virtual
//! time (no credit hoarding), and when the queue drains completely the
//! clock resets to zero so the tags never grow without bound.
//!
//! # No barging
//!
//! The fix for the old gate's starvation bug is structural: `release`
//! decrements `in_flight` and *hands the slot to the scheduled head
//! inside the same critical section* (the head's seq moves to a
//! `granted` set and `in_flight` is re-incremented on its behalf before
//! the lock drops). A newly arriving request can only take the fast path
//! while `queued == 0`, so there is no window — not even a condvar
//! wake-up race — in which a newcomer can observe a free slot that is
//! owed to a waiter.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use mbt_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::tenant::TenantId;

/// Fixed-point scale for the virtual clock: one slot at weight 1 costs
/// `VT_SCALE` ticks, weight `w` costs `VT_SCALE / w`. At 2^20 per slot a
/// `u64` clock lasts ~2^44 admissions between resets.
pub const VT_SCALE: u64 = 1 << 20;

/// What happened to an admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was granted after `waited` in the queue (zero on the fast
    /// path).
    Admitted {
        /// Time spent queued before the grant.
        waited: Duration,
    },
    /// The queue was full; the request was shed without waiting.
    Overloaded {
        /// Requests holding evaluation slots at the time.
        in_flight: usize,
        /// Requests already queued at the time.
        queued: usize,
    },
    /// The request's deadline expired before a slot was granted.
    DeadlineExpired,
}

#[derive(Debug)]
struct Waiter {
    seq: u64,
    finish: u64,
}

#[derive(Debug, Default)]
struct WfqState {
    in_flight: usize,
    queued: usize,
    /// The virtual clock: advances to each dispatched finish tag.
    vtime: u64,
    /// Monotonic arrival counter; total order and tie-break.
    seq: u64,
    /// Per-tenant FIFO of waiters, each carrying its finish tag.
    queues: HashMap<TenantId, VecDeque<Waiter>>,
    /// Finish tag of each tenant's most recent enqueue — the start bound
    /// that keeps one tenant's burst from all stamping the same tag.
    last_finish: HashMap<TenantId, u64>,
    /// Seqs whose slot has been handed over but not yet claimed by the
    /// waking waiter. `in_flight` already counts them.
    granted: HashSet<u64>,
}

impl WfqState {
    /// Stamps and enqueues a waiter, returning its seq.
    fn enqueue(&mut self, tenant: TenantId, weight: u32) -> u64 {
        let cost = VT_SCALE / u64::from(weight.max(1));
        let start = self
            .last_finish
            .get(&tenant)
            .copied()
            .unwrap_or(0)
            .max(self.vtime);
        let finish = start.saturating_add(cost);
        self.last_finish.insert(tenant, finish);
        let seq = self.seq;
        self.seq += 1;
        self.queues
            .entry(tenant)
            .or_default()
            .push_back(Waiter { seq, finish });
        self.queued += 1;
        seq
    }

    /// The tenant whose queue head holds the smallest `(finish, seq)`.
    fn min_head(&self) -> Option<TenantId> {
        self.queues
            .iter()
            .filter_map(|(t, q)| q.front().map(|w| (w.finish, w.seq, *t)))
            .min()
            .map(|(_, _, t)| t)
    }

    /// Hands free slots to scheduled heads until the gate is full or the
    /// queue is empty. Returns whether anything was granted.
    fn dispatch(&mut self, max_in_flight: usize) -> bool {
        let mut granted_any = false;
        while self.in_flight < max_in_flight {
            let Some(tenant) = self.min_head() else { break };
            let Some(queue) = self.queues.get_mut(&tenant) else {
                break;
            };
            let Some(waiter) = queue.pop_front() else {
                break;
            };
            if queue.is_empty() {
                self.queues.remove(&tenant);
            }
            self.queued -= 1;
            self.in_flight += 1; // the slot is the waiter's from here on
            self.vtime = self.vtime.max(waiter.finish);
            self.granted.insert(waiter.seq);
            granted_any = true;
        }
        self.maybe_reset();
        granted_any
    }

    /// Removes a timed-out waiter from its tenant queue.
    fn remove(&mut self, tenant: TenantId, seq: u64) {
        if let Some(queue) = self.queues.get_mut(&tenant) {
            if let Some(at) = queue.iter().position(|w| w.seq == seq) {
                queue.remove(at);
                self.queued -= 1;
                if queue.is_empty() {
                    self.queues.remove(&tenant);
                }
            }
        }
        self.maybe_reset();
    }

    /// Once the queue fully drains, rewind the virtual clock so tags
    /// stay small and a long-idle system looks fresh to every tenant.
    fn maybe_reset(&mut self) {
        if self.queued == 0 {
            self.vtime = 0;
            self.last_finish.clear();
        }
    }
}

/// The policy-free weighted-fair gate. One per engine, entered only by
/// its admit stage.
#[derive(Debug)]
pub struct FairGate {
    max_in_flight: usize,
    max_queued: usize,
    state: Mutex<WfqState>,
    freed: Condvar,
}

impl FairGate {
    /// A gate admitting `max_in_flight` concurrent requests and queueing
    /// at most `max_queued` more (across all tenants).
    #[must_use]
    pub fn new(max_in_flight: usize, max_queued: usize) -> FairGate {
        FairGate {
            max_in_flight: max_in_flight.max(1),
            max_queued,
            state: Mutex::new(WfqState::default()),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WfqState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(in_flight, queued)` right now. Slots already handed to waiters
    /// that have not yet woken count as in flight — they are spoken for.
    pub fn depth(&self) -> (usize, usize) {
        let st = self.lock();
        (st.in_flight, st.queued)
    }

    /// Admits `tenant` at `weight`, blocking in its fair queue while the
    /// gate is full. The caller owns one slot on `Admitted` and must
    /// pair it with exactly one [`FairGate::release`].
    pub fn admit(&self, tenant: TenantId, weight: u32, deadline: Option<Instant>) -> Admission {
        self.admit_observed(tenant, weight, deadline, |_| {})
    }

    /// [`FairGate::admit`] with an enqueue observation hook: if the
    /// request has to queue, `on_enqueue` is called once (under the gate
    /// lock) with the queue depth including it — the wrapper feeds this
    /// to the queue-peak gauge without the core knowing about stats.
    pub fn admit_observed(
        &self,
        tenant: TenantId,
        weight: u32,
        deadline: Option<Instant>,
        on_enqueue: impl FnOnce(usize),
    ) -> Admission {
        let arrived = Instant::now();
        let mut st = self.lock();
        // Fast path only while nobody is queued: every freed slot is
        // handed to a waiter under the lock, so a non-empty queue means
        // the gate is full *including* slots owed to waiters.
        if st.queued == 0 && st.in_flight < self.max_in_flight {
            st.in_flight += 1;
            return Admission::Admitted {
                waited: Duration::ZERO,
            };
        }
        if st.queued >= self.max_queued {
            return Admission::Overloaded {
                in_flight: st.in_flight,
                queued: st.queued,
            };
        }
        let seq = st.enqueue(tenant, weight);
        on_enqueue(st.queued);
        // A release may have raced our enqueue; never leave a free slot
        // idle while we park.
        if st.dispatch(self.max_in_flight) {
            self.freed.notify_all();
        }
        loop {
            if st.granted.remove(&seq) {
                // The slot was handed to us (in_flight already counts
                // it). Even if our deadline lapsed while waking, taking
                // the grant is correct — the engine re-checks deadlines
                // after planning, and declining would strand the slot.
                return Admission::Admitted {
                    waited: arrived.elapsed(),
                };
            }
            match deadline {
                None => {
                    st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.remove(tenant, seq);
                        return Admission::DeadlineExpired;
                    }
                    let (guard, _timed_out) = self
                        .freed
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
    }

    /// Returns a slot. The slot is handed to the scheduled head (if any)
    /// before the lock drops — newcomers can never barge past it.
    pub fn release(&self) {
        let mut st = self.lock();
        st.in_flight = st.in_flight.saturating_sub(1);
        st.dispatch(self.max_in_flight);
        drop(st);
        // Wake every waiter: the granted one claims its slot, and any
        // whose deadline meanwhile expired must notice and shed itself.
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(st: &mut WfqState) -> Vec<TenantId> {
        let mut order = Vec::new();
        while let Some(t) = st.min_head() {
            let q = st.queues.get_mut(&t).unwrap();
            let w = q.pop_front().unwrap();
            if q.is_empty() {
                st.queues.remove(&t);
            }
            st.queued -= 1;
            st.vtime = st.vtime.max(w.finish);
            order.push(t);
        }
        order
    }

    #[test]
    fn tags_interleave_in_weight_proportion() {
        // Tenant A at weight 2, tenant B at weight 1, both fully
        // backlogged: A must admit twice for each B.
        let (a, b) = (TenantId(1), TenantId(2));
        let mut st = WfqState::default();
        for _ in 0..4 {
            st.enqueue(a, 2);
        }
        for _ in 0..2 {
            st.enqueue(b, 1);
        }
        assert_eq!(drain_order(&mut st), vec![a, a, b, a, a, b]);
    }

    #[test]
    fn equal_weights_tie_break_by_arrival() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut st = WfqState::default();
        st.enqueue(a, 1);
        st.enqueue(b, 1);
        st.enqueue(a, 1);
        st.enqueue(b, 1);
        assert_eq!(drain_order(&mut st), vec![a, b, a, b]);
    }

    #[test]
    fn late_arrival_starts_at_current_vtime() {
        // A tenant that sat idle while others drained cannot hoard
        // credit: its first tag starts at the advanced virtual clock.
        let (a, b) = (TenantId(1), TenantId(2));
        let mut st = WfqState::default();
        for _ in 0..3 {
            st.enqueue(a, 1);
        }
        // drain two of A's waiters, advancing vtime to 2 * VT_SCALE
        st.queues.get_mut(&a).unwrap().pop_front();
        st.queues.get_mut(&a).unwrap().pop_front();
        st.queued -= 2;
        st.vtime = 2 * VT_SCALE;
        st.enqueue(b, 1);
        // B's tag is 3 * VT_SCALE — after A's remaining 3 * VT_SCALE
        // head only by tie-break, not a clean sweep of the queue
        assert_eq!(st.queues[&b].front().unwrap().finish, 3 * VT_SCALE);
    }

    #[test]
    fn clock_resets_when_queue_drains() {
        let t = TenantId(9);
        let mut st = WfqState::default();
        st.enqueue(t, 1);
        let _ = st.dispatch(1);
        assert_eq!(st.queued, 0);
        assert_eq!(st.vtime, 0, "drained queue rewinds the clock");
        assert!(st.last_finish.is_empty());
        assert_eq!(st.in_flight, 1);
    }

    #[test]
    fn fast_path_and_overload() {
        let gate = FairGate::new(2, 0);
        assert_eq!(
            gate.admit(TenantId(0), 1, None),
            Admission::Admitted {
                waited: Duration::ZERO
            }
        );
        assert!(matches!(
            gate.admit(TenantId(0), 1, None),
            Admission::Admitted { .. }
        ));
        assert_eq!(
            gate.admit(TenantId(0), 1, None),
            Admission::Overloaded {
                in_flight: 2,
                queued: 0
            }
        );
        gate.release();
        assert_eq!(gate.depth(), (1, 0));
    }

    #[test]
    fn queued_waiter_sheds_on_deadline() {
        let gate = FairGate::new(1, 4);
        assert!(matches!(
            gate.admit(TenantId(0), 1, None),
            Admission::Admitted { .. }
        ));
        let t0 = Instant::now();
        let res = gate.admit(
            TenantId(1),
            1,
            Some(Instant::now() + Duration::from_millis(30)),
        );
        assert_eq!(res, Admission::DeadlineExpired);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(gate.depth(), (1, 0), "the shed waiter left the queue");
    }

    /// The barging regression (ISSUE 10): with a waiter parked and a hot
    /// arrival stream racing it, the freed slot must go to the waiter —
    /// the old gate handed it to whichever newcomer won the lock first.
    #[test]
    fn freed_slot_goes_to_waiter_not_newcomers() {
        let gate = FairGate::new(1, 16);
        assert!(matches!(
            gate.admit(TenantId(0), 1, None),
            Admission::Admitted { .. }
        ));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                gate.admit(
                    TenantId(1),
                    1,
                    Some(Instant::now() + Duration::from_secs(5)),
                )
            });
            // wait until the waiter is parked in the queue
            while gate.depth() != (1, 1) {
                std::thread::yield_now();
            }
            // free the slot; it is handed to the waiter under the lock
            gate.release();
            // a hot stream of newcomers (already past their deadlines, so
            // they cannot block) must all fail to take the waiter's slot
            // — even though the waiter may not have woken yet
            let now = Instant::now();
            let past = now.checked_sub(Duration::from_millis(1)).unwrap_or(now);
            for _ in 0..8 {
                let got = gate.admit(TenantId(2), 1, Some(past));
                assert_eq!(got, Admission::DeadlineExpired, "newcomer barged");
            }
            assert!(matches!(waiter.join().unwrap(), Admission::Admitted { .. }));
        });
        assert_eq!(gate.depth(), (1, 0));
        gate.release();
        assert_eq!(gate.depth(), (0, 0));
    }

    /// Two backlogged tenants with 3:1 weights admit ~3:1 through a
    /// width-1 gate (exact by the tag math; threads only add timing).
    #[test]
    fn backlogged_tenants_admit_by_weight() {
        let gate = FairGate::new(1, 64);
        // the test's own log, outside the model: the facade has no `into_inner`
        let order = std::sync::Mutex::new(Vec::new());
        assert!(matches!(
            gate.admit(TenantId(0), 1, None),
            Admission::Admitted { .. }
        ));
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    if let Admission::Admitted { .. } = gate.admit(TenantId(1), 3, None) {
                        order.lock().unwrap().push(TenantId(1));
                        gate.release();
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    if let Admission::Admitted { .. } = gate.admit(TenantId(2), 1, None) {
                        order.lock().unwrap().push(TenantId(2));
                        gate.release();
                    }
                });
            }
            // park everyone, then open the gate
            while gate.depth().1 < 8 {
                std::thread::yield_now();
            }
            gate.release();
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 8);
        // among the first four admissions, the weight-3 tenant got at
        // least three (exact ratio depends on enqueue arrival order)
        let heavy_early = order[..4].iter().filter(|t| **t == TenantId(1)).count();
        assert!(heavy_early >= 3, "admission order {order:?}");
    }
}
