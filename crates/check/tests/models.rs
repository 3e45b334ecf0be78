//! The model suite: exhaustive interleaving checks of the engine's real
//! concurrency cores, built against the instrumented facade (this test
//! target only compiles with `--features check`, which flips
//! `mbt_check::sync` to the instrumented primitives for every crate in
//! the build graph — including `mbt-obs` and `mbt-engine`).
//!
//! Each test here explores *production* code, not a re-implementation:
//! the seqlock ring is `mbt_obs::Ring`, single-flight is
//! `mbt_engine::SingleFlight` (what `PlanCache` runs on), admission is
//! `mbt_engine::FairGate`. Batching needs no model: a `query_batch`
//! group is swept on its caller's thread, so nothing hands requests
//! between threads. The one local re-implementation — `MiniSeqlock` — exists to prove the checker
//! *catches* a broken ordering, as a fixture.

#![cfg(feature = "check")]

use mbt_check::sync::atomic::{AtomicU64, Ordering};
use mbt_check::sync::Arc;
use mbt_check::{model, sched};
use mbt_engine::{Admission, FairGate, Flight, SingleFlight, TenantId};
use mbt_obs::{Histogram, Ring};

// ---------------------------------------------------------------------
// seqlock ring (mbt_obs::Ring)
// ---------------------------------------------------------------------

/// Tear-freedom: a reader snapshotting while a writer republishes slots
/// never observes a record whose words mix two generations. Writers
/// push `[g, !g]` so any torn mix is self-evident.
#[test]
fn ring_snapshot_never_tears() {
    sched::check(|| {
        let ring = Arc::new(Ring::<2>::new(1));
        let w = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                // two generations race the reader through the same slot
                let _ = ring.push([1, !1u64]);
                let _ = ring.push([2, !2u64]);
            })
        };
        for words in ring.snapshot() {
            assert_eq!(words[1], !words[0], "torn record: {words:?}");
        }
        w.join().unwrap();
    });
}

/// A quiescent ring (writer joined before the read) snapshots every
/// published record exactly, newest generation winning the slot.
#[test]
fn ring_snapshot_after_join_is_complete() {
    sched::check(|| {
        let ring = Arc::new(Ring::<1>::new(1));
        let w = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                let _ = ring.push([7]);
                let _ = ring.push([8]);
            })
        };
        w.join().unwrap();
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1, "capacity-1 ring holds one record");
        assert_eq!(snap[0][0], 8, "newest generation must win the slot");
        assert_eq!(ring.pushed(), 2);
    });
}

// ---------------------------------------------------------------------
// single-flight (mbt_engine::SingleFlight — the PlanCache core)
// ---------------------------------------------------------------------

/// N concurrent cold misses on one key run exactly one build, and every
/// caller ends up with the built value.
#[test]
fn single_flight_runs_one_build() {
    let report = sched::check(|| {
        let sf = Arc::new(SingleFlight::<Option<u64>, u8, u64>::new(None));
        let builds = Arc::new(AtomicU64::new(0));
        let run = |sf: &SingleFlight<Option<u64>, u8, u64>, builds: &AtomicU64| {
            let flight = sf.run(
                0,
                |s| *s,
                |_| {},
                || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    7
                },
                || unreachable!("build does not panic"),
                |s, v| *s = Some(*v),
            );
            match flight {
                Flight::Hit(v) | Flight::Led(v) | Flight::Joined(v) => assert_eq!(v, 7),
            }
        };
        let t = {
            let (sf, builds) = (Arc::clone(&sf), Arc::clone(&builds));
            model::spawn(move || run(&sf, &builds))
        };
        run(&sf, &builds);
        t.join().unwrap();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        assert_eq!(
            sf.with_state(|s| *s),
            Some(7),
            "published for the next probe"
        );
    });
    assert!(report.executions > 1, "must explore real interleavings");
}

/// Builder-panic liveness: a leader whose build panics must answer its
/// followers with the substitute value — no interleaving may leave a
/// follower parked forever (the checker's deadlock detection would flag
/// exactly that) — and must publish nothing.
#[test]
fn single_flight_builder_panic_liveness() {
    sched::check(|| {
        let sf = Arc::new(SingleFlight::<Option<u64>, u8, u64>::new(None));
        let t = {
            let sf = Arc::clone(&sf);
            model::spawn(move || {
                let flight = sf.run(
                    0,
                    |s| *s,
                    |_| {},
                    || panic!("builder dies mid-flight"),
                    || 999,
                    |s, v| *s = Some(*v),
                );
                // reachable only by joining the healthy flight (our own
                // build never returns): the panicking leader must not
                // have published anything we could Hit
                match flight {
                    Flight::Hit(v) | Flight::Joined(v) => assert_eq!(v, 5),
                    Flight::Led(_) => unreachable!("this caller's build panics"),
                }
            })
        };
        let flight = sf.run(0, |s| *s, |_| {}, || 5, || 999, |s, v| *s = Some(*v));
        match flight {
            // led our own healthy build, or joined the dead flight and
            // woke with the substitute — never a hang, never a hit on an
            // unpublished value
            Flight::Led(v) => assert_eq!(v, 5),
            Flight::Joined(v) => assert_eq!(v, 999),
            Flight::Hit(_) => unreachable!("nothing was resident before us"),
        }
        // the child either panicked (its own build) or succeeded (joined
        // ours); both are legitimate modeled outcomes
        let _ = t.join();
    });
}

// ---------------------------------------------------------------------
// weighted-fair admission (mbt_engine::FairGate — the core of the engine's admit stage)
// ---------------------------------------------------------------------

/// Slot exclusivity and hand-off liveness through a width-1 gate: no
/// interleaving may let two callers hold the slot at once (the direct
/// hand-off re-increments `in_flight` on the waiter's behalf before the
/// lock drops), and no waiter may be stranded by a lost grant (the
/// checker's deadlock detection flags exactly that).
#[test]
fn fair_gate_slot_is_exclusive_and_every_waiter_is_served() {
    let report = sched::check(|| {
        let gate = Arc::new(FairGate::new(1, 4));
        let holders = Arc::new(AtomicU64::new(0));
        let run = |gate: &FairGate, holders: &AtomicU64, tenant: u32| {
            assert!(matches!(
                gate.admit(TenantId(tenant), 1, None),
                Admission::Admitted { .. }
            ));
            assert_eq!(
                holders.fetch_add(1, Ordering::Relaxed),
                0,
                "two callers hold the width-1 gate's slot"
            );
            holders.fetch_sub(1, Ordering::Relaxed);
            gate.release();
        };
        let t1 = {
            let (gate, holders) = (Arc::clone(&gate), Arc::clone(&holders));
            model::spawn(move || run(&gate, &holders, 1))
        };
        let t2 = {
            let (gate, holders) = (Arc::clone(&gate), Arc::clone(&holders));
            model::spawn(move || run(&gate, &holders, 2))
        };
        run(&gate, &holders, 3);
        t1.join().unwrap();
        t2.join().unwrap();
        let (in_flight, queued) = gate.depth();
        assert_eq!((in_flight, queued), (0, 0), "every slot was returned");
    });
    assert!(report.executions > 1, "must explore real interleavings");
}

// ---------------------------------------------------------------------
// stats counters (mbt_obs::Histogram)
// ---------------------------------------------------------------------

/// Concurrent recording loses nothing: count and sum are exact once the
/// writers are joined (the engine's stats path relies on plain Relaxed
/// counters being individually atomic).
#[test]
fn histogram_concurrent_records_are_exact() {
    sched::check(|| {
        let h = Arc::new(Histogram::new());
        let t = {
            let h = Arc::clone(&h);
            model::spawn(move || h.record_ns(100))
        };
        h.record_ns(300);
        t.join().unwrap();
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_ns, 400);
        assert_eq!(snap.max_ns, 300);
    });
}

// ---------------------------------------------------------------------
// broken-ordering fixture
// ---------------------------------------------------------------------

/// A deliberately miniature seqlock so the publish ordering can be
/// varied: `publish` must be `Release` for a reader that `Acquire`-loads
/// an even sequence to also observe the data store.
struct MiniSeqlock {
    seq: AtomicU64,
    data: AtomicU64,
}

impl MiniSeqlock {
    fn new() -> MiniSeqlock {
        MiniSeqlock {
            seq: AtomicU64::new(0),
            data: AtomicU64::new(0),
        }
    }

    fn write(&self, value: u64, publish: Ordering) {
        self.seq.store(1, Ordering::Relaxed); // odd: write in flight
        self.data.store(value, Ordering::Relaxed);
        self.seq.store(2, publish);
    }

    fn read(&self) -> Option<u64> {
        if self.seq.load(Ordering::Acquire) == 2 {
            Some(self.data.load(Ordering::Relaxed))
        } else {
            None
        }
    }
}

/// With the correct `Release` publish the protocol explores clean.
#[test]
fn seqlock_release_publish_passes() {
    sched::check(|| {
        let sl = Arc::new(MiniSeqlock::new());
        let w = {
            let sl = Arc::clone(&sl);
            model::spawn(move || sl.write(42, Ordering::Release))
        };
        if let Some(v) = sl.read() {
            assert_eq!(v, 42, "published seq must carry the data with it");
        }
        w.join().unwrap();
    });
}

/// Demoting the seqlock publish store to `Relaxed` is exactly the bug
/// the `// ordering:` audit exists to prevent — the checker must find
/// the interleaving where the reader sees the even sequence but stale
/// data, and its printed schedule must replay to the same failure.
#[test]
fn seqlock_relaxed_publish_caught() {
    let broken = || {
        let sl = Arc::new(MiniSeqlock::new());
        let w = {
            let sl = Arc::clone(&sl);
            model::spawn(move || sl.write(42, Ordering::Relaxed)) // BUG
        };
        if let Some(v) = sl.read() {
            assert_eq!(v, 42, "published seq must carry the data with it");
        }
        w.join().unwrap();
    };
    let failure = sched::explore(&sched::Config::default(), broken)
        .expect_err("relaxed publish must be caught");
    assert!(failure.message.contains("panicked"), "got: {failure}");
    let replayed = sched::replay(&failure.schedule, broken)
        .expect("the printed schedule must reproduce the failure");
    assert_eq!(replayed.message, failure.message);
}
