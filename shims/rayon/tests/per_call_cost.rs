//! The fixed cost of one two-worker parallel call over trivial work.
//!
//! Spawning the workers of every call measured 40–100 µs per call; waking
//! a parked persistent helper, and being woken by it, measured 14–19 µs.
//! The 20 µs bound separates the two. This test is a binary of its own so
//! that no sibling test competes for the cores.

use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[test]
fn a_two_worker_call_costs_at_most_20_us() {
    if std::thread::available_parallelism().map_or(1, std::num::NonZero::get) < 2 {
        eprintln!("skipped: fewer than two cores, so no call runs two workers at once");
        return;
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let mut samples: Vec<Duration> = pool.install(|| {
        let call = || {
            (0..2usize).into_par_iter().for_each(|i| {
                black_box(i);
            });
        };
        for _ in 0..100 {
            call();
        }
        (0..2001)
            .map(|_| {
                let t = Instant::now();
                call();
                t.elapsed()
            })
            .collect()
    });
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    eprintln!(
        "two-worker call: median {median:?}, p10 {:?}, p90 {:?}",
        samples[samples.len() / 10],
        samples[samples.len() * 9 / 10]
    );
    assert!(
        median <= Duration::from_micros(20),
        "median two-worker call took {median:?}"
    );
}
