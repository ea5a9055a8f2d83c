//! The reference kernel: a fixed, seeded timer-queue loop that uses no
//! repository code. Its wall time, taken just before each iteration, is
//! what `wall_rel` divides by, so a host that runs everything slower for a
//! while moves both sides of the ratio.
//!
//! The kernel mimics the shape of the simulator's hot loop — pop the
//! earliest timer, hash, bump a counter in a 256 KiB table, re-arm — and
//! runs it in the same shape of parallelism as the workload's default path:
//! one thread, independent threads (a run pool), or threads that meet at a
//! spin barrier every few microseconds (the partitioned event core).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pending timers in the queue.
const TIMERS: u64 = 4096;
/// Counter-table slots (4 bytes each: 256 KiB).
const TABLE: usize = 1 << 16;
/// Queue operations between barrier crossings in lockstep mode.
const EPOCH_OPS: usize = 64;
/// Spins before a barrier waiter starts yielding its core.
const SPINS_BEFORE_YIELD: u32 = 2048;

/// How the kernel's threads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One thread.
    Solo,
    /// This many threads, independent of each other.
    Pool(usize),
    /// This many threads meeting at a barrier every `EPOCH_OPS` operations.
    Lockstep(usize),
}

/// A reusable spin-then-yield barrier.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        // AcqRel: the last arrival must see every party's arrival before it
        // releases the next generation.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One thread's working set, allocated once so the kernel's memory is a
/// constant the benchmark can take out of the peak-RSS figure.
struct Lane {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u32>,
}

impl Lane {
    fn new() -> Self {
        let mut lane = Lane {
            queue: BinaryHeap::with_capacity(TIMERS as usize + 1),
            table: vec![0; TABLE],
        };
        lane.reset();
        lane
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.queue
            .extend((0..TIMERS).map(|id| Reverse((id * 7919 % TIMERS, id))));
        self.table.fill(0);
    }

    /// Runs `ops` timer-queue operations, crossing `barrier` every
    /// `EPOCH_OPS` when given. Returns a checksum.
    fn run(&mut self, ops: usize, barrier: Option<&SpinBarrier>) -> u64 {
        self.reset();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for op in 0..ops {
            let Reverse((at, id)) = self.queue.pop().expect("the queue never drains");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = ((id ^ x).wrapping_mul(0x0000_0100_0000_01b3) >> 48) as usize % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(1);
            self.queue.push(Reverse((at + 1 + (x & 1023), id)));
            if let Some(barrier) = barrier {
                if op % EPOCH_OPS == EPOCH_OPS - 1 {
                    barrier.wait();
                }
            }
        }
        self.table
            .iter()
            .fold(x, |acc, &c| acc.rotate_left(5) ^ u64::from(c))
    }
}

/// The reference kernel in one shape, with its working sets allocated.
pub struct RefKernel {
    lanes: Vec<Lane>,
    lockstep: bool,
    ops: usize,
}

impl RefKernel {
    /// A kernel of `shape` running `ops` operations per thread.
    pub fn new(shape: Shape, ops: usize) -> Self {
        let (threads, lockstep) = match shape {
            Shape::Solo => (1, false),
            Shape::Pool(n) => (n.max(1), false),
            Shape::Lockstep(n) => (n.max(1), true),
        };
        RefKernel {
            lanes: (0..threads).map(|_| Lane::new()).collect(),
            lockstep,
            ops,
        }
    }

    /// Resident bytes of the working sets, in MiB.
    pub fn footprint_mb(&self) -> f64 {
        let per_lane = TABLE * 4 + (TIMERS as usize + 1) * 16;
        (self.lanes.len() * per_lane) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let barrier = SpinBarrier {
            parties: self.lanes.len(),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        };
        let barrier = self.lockstep.then_some(&barrier);
        let ops = self.ops;
        let start = Instant::now();
        std::thread::scope(|s| {
            let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
            for lane in rest {
                s.spawn(move || black_box(lane.run(ops, barrier)));
            }
            black_box(first.run(ops, barrier));
        });
        start.elapsed().as_secs_f64()
    }
}
