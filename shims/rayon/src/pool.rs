//! Persistent helper threads behind every multi-worker call.
//!
//! Each thread that makes a parallel call keeps the helpers it has spawned
//! in a thread-local idle list. A call of `w` workers takes `w − 1` of
//! them, spawning only what the list lacks, hands block `t` to helper
//! `t − 1`, runs block 0 itself, and does not return until every helper
//! has reported back: that join-before-return latch is what makes lending
//! the caller's borrowed closure to another thread sound. The helpers then
//! go back on the list.
//!
//! A call made while the list is short — a nested call on the caller,
//! whose own call holds the helpers, or any call on a helper, whose list
//! starts empty — spawns helpers of its own, so no call ever waits for a
//! helper that is waiting for it.
//!
//! Block 0 runs without the caller's `install` override, as the helpers'
//! blocks do, so a nested call sees the default worker count whichever
//! block it is made from, as it did when every block ran on a fresh
//! thread.
//!
//! A helper parks between jobs and a caller parks while it waits for its
//! helpers; a hand-off is one unpark each way. When a thread exits, its
//! idle list drops, and dropping a helper shuts it down and joins it.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Helper states, in `Slot::state`.
const IDLE: u8 = 0;
const JOB: u8 = 1;
const EXIT: u8 = 2;

type Payload = Box<dyn Any + Send>;

/// One block of one call: the caller's closure behind a type-erased
/// pointer, and the function that calls it.
struct Job {
    /// The caller's `&F`, its type and lifetime erased.
    body: *const (),
    // SAFETY: only ever `call::<F>` for the `F` behind `body`.
    call: unsafe fn(*const (), usize),
    block: usize,
}

// SAFETY: `body` is a `&F` with `F: Sync` (see `run`), so calling `F`
// through it from another thread is what `Sync` permits; `run` keeps that
// borrow alive until the helper has finished with it.
unsafe impl Send for Job {}

/// Calls the closure behind `body` on block `t`.
///
/// # Safety
///
/// SAFETY: `body` must come from a `&F` that is still live.
unsafe fn call<F: Fn(usize) + Sync>(body: *const (), t: usize) {
    // SAFETY: the caller guarantees `body` is a live `&F`.
    let f = unsafe { &*body.cast::<F>() };
    f(t);
}

/// What a helper shares with its owner.
struct Slot {
    state: AtomicU8,
    job: Mutex<Option<Job>>,
    panic: Mutex<Option<Payload>>,
    /// The one thread this helper ever serves, unparked when a job ends.
    owner: Thread,
}

/// An idle helper thread, owned by the thread that spawned it.
struct Helper {
    slot: Arc<Slot>,
    thread: Thread,
    handle: Option<JoinHandle<()>>,
}

thread_local! {
    /// This thread's helpers that no call currently holds.
    static IDLE_HELPERS: RefCell<Vec<Helper>> = const { RefCell::new(Vec::new()) };
}

impl Helper {
    fn spawn() -> Helper {
        let slot = Arc::new(Slot {
            state: AtomicU8::new(IDLE),
            job: Mutex::new(None),
            panic: Mutex::new(None),
            owner: thread::current(),
        });
        let shared = Arc::clone(&slot);
        let handle = thread::Builder::new()
            .name("rayon-helper".into())
            .spawn(move || serve(&shared))
            .expect("failed to spawn a rayon helper thread");
        Helper {
            slot,
            thread: handle.thread().clone(),
            handle: Some(handle),
        }
    }

    fn dispatch(&self, job: Job) {
        *lock(&self.slot.job) = Some(job);
        // ordering: Release publishes the job stored above (and the
        // caller's borrowed data it points at) to the helper's Acquire.
        self.slot.state.store(JOB, Ordering::Release);
        self.thread.unpark();
    }
}

impl Drop for Helper {
    /// Shuts the helper down and joins it. Only idle helpers are dropped:
    /// every call waits for its helpers before it lets go of them.
    fn drop(&mut self) {
        // ordering: Release, paired with the helper's Acquire load; EXIT
        // carries no data.
        self.slot.state.store(EXIT, Ordering::Release);
        self.thread.unpark();
        if let Some(handle) = self.handle.take() {
            // `serve` catches every job's panic, so the join cannot fail
            // with a payload worth re-raising (and `drop` must not panic).
            let _ = handle.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // No code panics while holding these locks; a poisoned one still holds
    // consistent data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks until `state` satisfies `done`. `park` may wake spuriously or on
/// a stale unpark; the loop re-checks the state either way.
fn wait(state: &AtomicU8, done: impl Fn(u8) -> bool) -> u8 {
    loop {
        // ordering: Acquire pairs with the Release store that set the
        // state, so the job (helper side) or the finished block's writes
        // (caller side) are visible once `done` holds.
        let s = state.load(Ordering::Acquire);
        if done(s) {
            return s;
        }
        thread::park();
    }
}

/// A helper's loop: wait for a job, run it, report back.
fn serve(slot: &Slot) {
    while wait(&slot.state, |s| s != IDLE) == JOB {
        let job = lock(&slot.job)
            .take()
            .expect("a job is stored before the state says JOB");
        // SAFETY: `job.body` is the `&F` that `job.call` was instantiated
        // for, and the owner stays inside `run` until this helper stores
        // IDLE below, so the borrow is live for the whole call.
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.call)(job.body, job.block);
        }));
        if let Err(payload) = result {
            *lock(&slot.panic) = Some(payload);
        }
        // ordering: Release publishes the block's writes and the panic
        // payload to the owner's Acquire in `wait`. After this store the
        // helper no longer touches the job.
        slot.state.store(IDLE, Ordering::Release);
        slot.owner.unpark();
    }
}

/// Runs `block(t)` for every `t` in `0..workers`, block 0 on the calling
/// thread and the others on its persistent helpers, and returns once every
/// block has finished. A panic in any block is re-raised here after all
/// blocks have finished; the first in block order wins.
pub(crate) fn run<F: Fn(usize) + Sync>(workers: usize, block: &F) {
    let take = |idle: &RefCell<Vec<Helper>>| {
        let mut idle = idle.borrow_mut();
        let keep = idle.len().saturating_sub(workers - 1);
        let mut mine = idle.split_off(keep);
        mine.resize_with(workers - 1, Helper::spawn);
        mine
    };
    // Thread-local storage is gone only for a call made from another
    // thread-local destructor; run it serially.
    let Ok(mut helpers) = IDLE_HELPERS.try_with(take) else {
        (0..workers).for_each(block);
        return;
    };
    // Every helper is in hand before the first job goes out, so nothing
    // between here and the waits below can unwind past a lent closure.
    for (t, helper) in (1..).zip(&helpers) {
        helper.dispatch(Job {
            body: std::ptr::from_ref(block).cast(),
            call: call::<F>,
            block: t,
        });
    }
    // Block 0 sees no `install` override, as a helper's block does.
    let outer = crate::POOL_OVERRIDE.replace(None);
    let mut first_panic = panic::catch_unwind(AssertUnwindSafe(|| block(0))).err();
    crate::POOL_OVERRIDE.set(outer);
    for helper in &helpers {
        wait(&helper.slot.state, |s| s == IDLE);
        if let Some(payload) = lock(&helper.slot.panic).take() {
            first_panic.get_or_insert(payload);
        }
    }
    // If the list is unreachable the helpers drop here, which joins them.
    let _ = IDLE_HELPERS.try_with(|idle| idle.borrow_mut().append(&mut helpers));
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{ThreadPool, ThreadPoolBuilder};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    /// Miri runs each thread hand-off thousands of times slower.
    const CALLS: usize = if cfg!(miri) { 20 } else { 1000 };

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    fn squares(n: usize) -> Vec<usize> {
        (0..n).into_par_iter().map(|i| i * i).collect()
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload.downcast_ref::<&str>().copied().unwrap_or("")
    }

    #[test]
    fn a_panic_in_a_helper_block_reaches_the_caller() {
        pool(2).install(|| {
            let caught = panic::catch_unwind(|| {
                (0..2).into_par_iter().for_each(|i| {
                    assert!(i != 1, "helper block");
                });
            })
            .unwrap_err();
            assert_eq!(message(&*caught), "helper block");
            assert_eq!(squares(100), (0..100).map(|i| i * i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn a_panic_in_the_caller_block_waits_for_the_helpers_then_reaches_the_caller() {
        let helper_done = AtomicBool::new(false);
        pool(2).install(|| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                (0..2).into_par_iter().for_each(|i| {
                    assert!(i != 0, "caller block");
                    thread::sleep(Duration::from_millis(20));
                    helper_done.store(true, Ordering::SeqCst);
                });
            }))
            .unwrap_err();
            assert_eq!(message(&*caught), "caller block");
            assert!(
                helper_done.load(Ordering::SeqCst),
                "the panic left the call before the helper finished its block"
            );
            assert_eq!(squares(100), (0..100).map(|i| i * i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_calls_match_a_serial_run() {
        let nested = |workers: usize| {
            pool(workers).install(|| {
                (0..6usize)
                    .into_par_iter()
                    .map(|i| {
                        (0..40usize)
                            .into_par_iter()
                            .map(|j| {
                                (0..5usize)
                                    .into_par_iter()
                                    .map(|k| i * j + k)
                                    .sum::<usize>()
                            })
                            .collect::<Vec<usize>>()
                    })
                    .collect::<Vec<_>>()
            })
        };
        let serial = nested(1);
        assert_eq!(nested(2), serial);
        assert_eq!(nested(3), serial);
        // the helpers left on the list by the nested calls serve again
        assert_eq!(nested(2), serial);
    }

    #[test]
    fn every_block_sees_the_default_worker_count() {
        let seen: Vec<usize> = pool(3).install(|| {
            (0..3usize)
                .into_par_iter()
                .map(|_| crate::current_num_threads())
                .collect()
        });
        assert_eq!(seen, vec![crate::default_threads(); 3]);
        assert_eq!(pool(3).install(crate::current_num_threads), 3);
    }

    #[test]
    fn racing_callers_each_get_their_own_results() {
        let barrier = Barrier::new(4);
        thread::scope(|s| {
            for caller in 0..4usize {
                let barrier = &barrier;
                s.spawn(move || {
                    pool(2).install(|| {
                        barrier.wait();
                        for round in 0..CALLS / 10 {
                            let got: Vec<usize> = (0..300usize)
                                .into_par_iter()
                                .map(|i| i * caller + round)
                                .collect();
                            let want: Vec<usize> = (0..300).map(|i| i * caller + round).collect();
                            assert_eq!(got, want);
                        }
                    });
                });
            }
        });
    }

    #[test]
    fn more_workers_than_cores_give_the_serial_results() {
        let run = |workers: usize| {
            pool(workers).install(|| {
                let xs: Vec<f64> = (0..1001usize)
                    .into_par_iter()
                    .map(|i| (i as f64).sqrt().sin())
                    .collect();
                let chunk_sums: Vec<f64> = xs.par_chunks(97).map(|c| c.iter().sum()).collect();
                (xs, chunk_sums)
            })
        };
        let one = run(1);
        let over = run(crate::default_threads() + 1);
        assert_eq!(one.0.len(), over.0.len());
        assert!(one
            .0
            .iter()
            .zip(&over.0)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(one
            .1
            .iter()
            .zip(&over.1)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn repeated_calls_reuse_one_helper() {
        pool(2).install(|| {
            let caller = thread::current().id();
            let helpers: Vec<thread::ThreadId> = (0..CALLS)
                .map(|_| {
                    let ids: Vec<thread::ThreadId> = (0..2)
                        .into_par_iter()
                        .map(|_| thread::current().id())
                        .collect();
                    assert_eq!(ids[0], caller, "block 0 runs on the caller");
                    ids[1]
                })
                .collect();
            assert_ne!(helpers[0], caller);
            assert!(
                helpers.iter().all(|&h| h == helpers[0]),
                "a helper was spawned twice"
            );
        });
    }

    /// The helpers of a thread are shut down and joined when it exits.
    /// Each short-lived caller's helper sets up a thread-local whose
    /// destructor, run as the helper exits, counts it out, and records the
    /// helper's kernel thread id. Once a caller is joined its helper must
    /// have been counted out, and at the end no recorded id may still be a
    /// thread of this process. (Other tests of this binary start and stop
    /// threads concurrently, so the process-wide `Threads:` total would
    /// not be a stable baseline.)
    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore = "reads /proc")]
    fn helpers_exit_with_the_thread_that_owns_them() {
        struct CountOut;
        impl Drop for CountOut {
            fn drop(&mut self) {
                // long enough that a detached helper would still be here
                thread::sleep(Duration::from_millis(5));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        thread_local!(static COUNT_OUT: CountOut = const { CountOut });
        let tid = || {
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            link.file_name().unwrap().to_string_lossy().into_owned()
        };
        let mut helper_tids = Vec::new();
        for caller in 0..64 {
            let tids: Vec<String> = thread::spawn(move || {
                pool(2).install(|| {
                    (0..2)
                        .into_par_iter()
                        .map(|t| {
                            if t == 1 {
                                COUNT_OUT.with(|_| ());
                            }
                            tid()
                        })
                        .collect()
                })
            })
            .join()
            .unwrap();
            assert_ne!(tids[0], tids[1]);
            assert_eq!(
                EXITED.load(Ordering::SeqCst),
                caller + 1,
                "a caller exited before its helper"
            );
            helper_tids.push(tids[1].clone());
        }
        let alive: Vec<&String> = helper_tids
            .iter()
            .filter(|t| std::path::Path::new(&format!("/proc/self/task/{t}")).exists())
            .collect();
        assert!(alive.is_empty(), "helpers outlived their caller: {alive:?}");
    }
}
