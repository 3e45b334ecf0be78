//! Bounded, lock-free, multi-producer record rings.
//!
//! [`Ring`] stores fixed-width `[u64; W]` records in a power-of-two slot
//! array. Writers claim a ticket with one `fetch_add` and publish through
//! a per-slot sequence word (a seqlock): the slot's `seq` is odd while a
//! write is in flight and settles at `2·ticket + 2` once generation
//! `ticket` is fully stored. A writer that finds its slot odd (a lapped
//! writer still mid-flight) or already past its generation drops the
//! record — the ring favours bounded memory and wait-freedom over
//! completeness, the right trade for diagnostics.
//!
//! Everything is `AtomicU64`: there is no `unsafe`, and readers can never
//! observe torn words — only skip slots that are mid-write.

use mbt_check::sync::atomic::{AtomicU64, Ordering};

use crate::span::{Phase, Recorder, Span};

/// One fixed-width record slot guarded by a sequence word.
#[derive(Debug)]
struct Slot<const W: usize> {
    /// `0` = never written, odd = write in flight, `2g + 2` = holds
    /// generation `g`.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

impl<const W: usize> Slot<W> {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A bounded multi-producer ring of `W`-word records.
#[derive(Debug)]
pub struct Ring<const W: usize> {
    slots: Box<[Slot<W>]>,
    head: AtomicU64,
    read_retries: AtomicU64,
}

impl<const W: usize> Ring<W> {
    /// A ring with `capacity` slots, rounded up to a power of two.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        // lint: allow(alloc, cold path: one-time construction of the fixed slot array)
        let slots: Vec<Slot<W>> = (0..cap).map(|_| Slot::new()).collect();
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
        }
    }

    /// Number of slots (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed, including ones since overwritten and
    /// ones dropped under slot contention.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        // ordering: monotone statistic, no other memory depends on it
        self.head.load(Ordering::Relaxed)
    }

    /// Seqlock validation failures observed by [`snapshot`](Self::snapshot)
    /// (each one re-read the slot; see `SNAPSHOT_RETRIES`).
    #[must_use]
    pub fn read_retries(&self) -> u64 {
        // ordering: monotone statistic, no other memory depends on it
        self.read_retries.load(Ordering::Relaxed)
    }

    /// Appends a record. Wait-free and allocation-free. Returns whether
    /// the record was published (`false` when a lapped writer still held
    /// the slot, in which case the record is dropped).
    pub fn push(&self, words: [u64; W]) -> bool {
        // ordering: ticket allocation is pure arithmetic; the slot CAS
        // below is what synchronizes ownership
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (ticket as usize) & (self.slots.len() - 1);
        let slot = &self.slots[idx];
        let writing = 2 * ticket + 1; // odd: generation `ticket` in flight
                                      // ordering: advisory pre-check only; the CAS re-validates `seen`
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen & 1 == 1 || seen >= writing {
            // mid-flight lapped writer, or a later generation already
            // landed here: drop rather than tear
            return false;
        }
        // ordering: Acquire on success pairs with the previous writer's
        // Release publish, so this writer's word stores cannot be
        // reordered before the prior generation is fully out of flight
        if slot
            .seq
            .compare_exchange(seen, writing, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false; // racing writer won the slot
        }
        for (word, value) in slot.words.iter().zip(words) {
            // ordering: Release pairs with the reader's Acquire word
            // loads. Without it a reader could read this generation's
            // word yet still pass validation against the *previous*
            // generation's seq (no happens-before edge forces its
            // validating re-load to see our odd seq) — mixing words from
            // two generations. Found by the mbt-check model suite
            // (ring_snapshot_never_tears).
            word.store(value, Ordering::Release);
        }
        // ordering: Release publishes the word stores; a reader that
        // acquires this even value observes the complete record
        slot.seq.store(writing + 1, Ordering::Release);
        true
    }

    /// Bounded attempts per slot when the seqlock validation fails
    /// mid-read (a writer republished the slot between the two `seq`
    /// loads). Each failed validation re-reads from the new generation;
    /// after this many failures the slot is skipped — the ring favours a
    /// prompt, possibly incomplete snapshot over an unbounded spin.
    const SNAPSHOT_RETRIES: usize = 4;

    /// A consistent copy of every published record, oldest first.
    /// Allocates (cold path); skips slots that are mid-write, retrying a
    /// slot up to `SNAPSHOT_RETRIES` times when
    /// its seqlock validation fails (counted in
    /// [`read_retries`](Self::read_retries)).
    #[must_use]
    pub fn snapshot(&self) -> Vec<[u64; W]> {
        // lint: allow(alloc, cold path: snapshot copies records out of the ring)
        let mut entries: Vec<(u64, [u64; W])> = Vec::with_capacity(self.slots.len());
        for slot in &*self.slots {
            // ordering: Acquire pairs with the writer's Release publish:
            // an even seq here means the matching word stores are visible
            let mut seq = slot.seq.load(Ordering::Acquire);
            for _attempt in 0..Self::SNAPSHOT_RETRIES {
                if seq == 0 || seq & 1 == 1 {
                    break; // never written, or a write is in flight
                }
                let mut words = [0u64; W];
                for (dst, src) in words.iter_mut().zip(&slot.words) {
                    // ordering: Acquire pairs with the writer's Release
                    // word stores: if this load observes a newer
                    // generation's word, the validating seq re-load
                    // below is forced to observe that generation's odd
                    // seq too, so validation fails and we retry instead
                    // of keeping a mixed record
                    *dst = src.load(Ordering::Acquire);
                }
                // ordering: validation load; equality with the first read
                // proves no writer republished the slot in between
                let seq2 = slot.seq.load(Ordering::Acquire);
                if seq2 == seq {
                    entries.push(((seq - 2) / 2, words));
                    break;
                }
                // A writer landed mid-read: retry from the new generation
                // instead of silently losing the slot.
                // ordering: monotone statistic, no other memory depends on it
                self.read_retries.fetch_add(1, Ordering::Relaxed);
                seq = seq2;
            }
        }
        entries.sort_unstable_by_key(|&(generation, _)| generation);
        // lint: allow(alloc, cold path: snapshot result buffer)
        entries.into_iter().map(|(_, words)| words).collect()
    }
}

/// The default [`Recorder`]: a bounded ring of [`Span`] records, plus a
/// counter of spans dropped under slot contention.
#[derive(Debug)]
pub struct RingRecorder {
    ring: Ring<3>,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// A recorder retaining the most recent `capacity` spans (rounded up
    /// to a power of two).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            ring: Ring::new(capacity),
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans currently resident, oldest first. Allocates (cold path).
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.ring
            .snapshot()
            .into_iter()
            .filter_map(|[phase, start_ns, dur_ns]| {
                Some(Span {
                    phase: Phase::from_index(phase)?,
                    start_ns,
                    dur_ns,
                })
            })
            // lint: allow(alloc, cold path: snapshot result buffer)
            .collect()
    }

    /// Total spans ever recorded (resident, overwritten, or dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// Spans dropped because a lapped writer still held the target slot.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        // ordering: monotone statistic, no other memory depends on it
        self.dropped.load(Ordering::Relaxed)
    }

    /// Seqlock validation failures retried while reading spans out (see
    /// [`Ring::read_retries`]).
    #[must_use]
    pub fn read_retries(&self) -> u64 {
        self.ring.read_retries()
    }
}

impl Recorder for RingRecorder {
    fn record(&self, span: Span) {
        if !self
            .ring
            .push([span.phase.index(), span.start_ns, span.dur_ns])
        {
            // ordering: monotone statistic, no other memory depends on it
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One slow-query record, copied out of the [`SlowLog`] ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowQuery {
    /// Raw dataset id of the offending request.
    pub dataset: u64,
    /// Target points in the request.
    pub points: u64,
    /// End-to-end service time in nanoseconds.
    pub total_ns: u64,
    /// Of which: admission-gate wait in nanoseconds.
    pub wait_ns: u64,
}

/// A bounded log of queries that exceeded the engine's slow threshold.
/// Appending is wait-free and allocation-free; reading allocates.
#[derive(Debug)]
pub struct SlowLog {
    ring: Ring<4>,
}

impl SlowLog {
    /// A log retaining the most recent `capacity` entries (rounded up to
    /// a power of two).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            ring: Ring::new(capacity),
        }
    }

    /// Appends one entry; allocation-free.
    pub fn record(&self, q: SlowQuery) {
        let _ = self.ring.push([q.dataset, q.points, q.total_ns, q.wait_ns]);
    }

    /// Resident entries, oldest first. Allocates (cold path).
    #[must_use]
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|[dataset, points, total_ns, wait_ns]| SlowQuery {
                dataset,
                points,
                total_ns,
                wait_ns,
            })
            // lint: allow(alloc, cold path: snapshot result buffer)
            .collect()
    }

    /// Total entries ever recorded (resident or overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.ring.pushed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_below_capacity() {
        let ring: Ring<2> = Ring::new(8);
        for i in 0..5u64 {
            assert!(ring.push([i, i * 10]));
        }
        let got = ring.snapshot();
        assert_eq!(got, vec![[0, 0], [1, 10], [2, 20], [3, 30], [4, 40]]);
        assert_eq!(ring.pushed(), 5);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let ring: Ring<1> = Ring::new(4);
        for i in 0..11u64 {
            ring.push([i]);
        }
        // capacity 4: generations 7..=10 survive
        assert_eq!(ring.snapshot(), vec![[7], [8], [9], [10]]);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let ring: Ring<1> = Ring::new(5);
        assert_eq!(ring.capacity(), 8);
        assert_eq!(Ring::<1>::new(0).capacity(), 1);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        // Each record is [tag, tag * K]: a torn slot would break the
        // invariant between the two words.
        const K: u64 = 0x9e37_79b9;
        let ring: Arc<Ring<2>> = Arc::new(Ring::new(64));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let tag = t * 1_000_000 + i;
                        ring.push([tag, tag.wrapping_mul(K)]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = ring.snapshot();
        assert!(!snap.is_empty() && snap.len() <= 64);
        for [tag, check] in snap {
            assert_eq!(check, tag.wrapping_mul(K), "torn record for tag {tag}");
        }
        assert_eq!(ring.pushed(), 16_000);
    }

    #[test]
    fn quiescent_snapshot_never_retries() {
        let ring: Ring<2> = Ring::new(4);
        for i in 0..9u64 {
            ring.push([i, i * 3]);
        }
        assert_eq!(ring.snapshot().len(), 4);
        assert_eq!(ring.read_retries(), 0);
    }

    #[test]
    fn recorder_roundtrips_spans() {
        let rec = RingRecorder::new(16);
        rec.record(Span {
            phase: Phase::Sweep,
            start_ns: 5,
            dur_ns: 7,
        });
        rec.record(Span {
            phase: Phase::PlanBuild,
            start_ns: 20,
            dur_ns: 1,
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Sweep);
        assert_eq!(spans[0].start_ns, 5);
        assert_eq!(spans[0].dur_ns, 7);
        assert_eq!(spans[1].phase, Phase::PlanBuild);
        assert_eq!(rec.recorded(), 2);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn slow_log_roundtrips() {
        let log = SlowLog::new(4);
        let q = SlowQuery {
            dataset: 3,
            points: 128,
            total_ns: 5_000_000,
            wait_ns: 1_000,
        };
        log.record(q);
        assert_eq!(log.entries(), vec![q]);
        assert_eq!(log.recorded(), 1);
    }
}
