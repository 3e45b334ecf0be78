//! Model-thread spawn/join (only available under the `check` feature).
//!
//! Mirrors `std::thread`: [`spawn`] starts a model thread (a real OS
//! thread, gated by the scheduler), [`JoinHandle::join`] blocks the
//! calling model thread until it finishes and returns `Err` if it
//! panicked — which makes a *joined* panic a legitimate modeled outcome
//! (e.g. the builder-panic liveness models), while an unjoined panic
//! fails the execution.

use std::sync::{Arc, Mutex, PoisonError};

use crate::sched::{self, ctx, Block};

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
}

/// Spawns a model thread running `f`. Must be called from inside a model
/// (the body of [`crate::sched::check`] or another model thread); spawn
/// synchronizes-with the start of the child, as in std.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let c = ctx().expect("model::spawn called outside a model execution"); // lint: allow(panic, misuse of the checker harness outside a model is a programmer error)
    let tid = c.exec.register_child(c.tid);
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    sched::spawn_model_thread(&c.exec, tid, move || {
        let out = f();
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    // Starting the child is itself a scheduling point: the child may run
    // before the parent's next instruction.
    c.exec.yield_point(c.tid);
    JoinHandle { tid, result }
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish. Returns its value, or `Err` with
    /// the panic message if it panicked.
    pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
        let c = ctx().expect("JoinHandle::join called outside a model execution"); // lint: allow(panic, misuse of the checker harness outside a model is a programmer error)
        while !c.exec.try_reap(self.tid) {
            c.exec.block_on(c.tid, Block::Join(self.tid));
        }
        // join synchronizes-with the end of the thread.
        let mut clock = c.exec.clock(c.tid);
        clock.join(&c.exec.clock(self.tid));
        c.exec.set_clock(c.tid, clock);
        let out = self
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        out.ok_or_else(|| {
            let msg = c.exec.panic_message(self.tid);
            Box::new(msg.unwrap_or_else(|| "model thread produced no value".to_string())) as _
        })
    }
}
