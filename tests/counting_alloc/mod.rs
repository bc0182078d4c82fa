//! A counting global allocator (live bytes, peak live bytes, allocator
//! calls, and a census of live bytes by size class), shared by the
//! footprint gates. Each gate is a test file of its own — so a process of
//! its own — with exactly one `#[test]`: the allocator is process-global,
//! and a second test on another harness thread would be counted into the
//! first one's numbers. The counts are exact for a given build: no clocks,
//! no `/proc`.
//!
//! The census keeps live bytes and allocations per *requested* size class
//! (16-byte classes up to 1 KiB, then powers of two) in fixed arrays of
//! atomics, so the allocator never allocates for itself, and copies the
//! whole histogram whenever `PEAK` rises: [`census_at_peak`] says what the
//! heap held at its peak, class by class, independent of the system
//! allocator's layout (which a process's VmHWM is not).

#![allow(
    unsafe_code,
    reason = "a GlobalAlloc impl cannot be written without unsafe, and these test crates are the \
              only place one lives; so the workspace lint is deny, not forbid"
)]
#![allow(
    dead_code,
    reason = "each gate includes this module and reads the part of it that it needs"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub static LIVE: AtomicU64 = AtomicU64::new(0);
pub static PEAK: AtomicU64 = AtomicU64::new(0);
pub static CALLS: AtomicU64 = AtomicU64::new(0);

/// 16-byte classes up to 1 KiB: 1–16, 17–32, …, 1 009–1 024 B.
const LINEAR: usize = 64;
/// Then one class per power of two: (1, 2] KiB, (2, 4] KiB, …; the last
/// one also holds everything larger.
const POW2: usize = 24;
/// Size classes in the census.
const CLASSES: usize = LINEAR + POW2;

/// Live bytes / allocations by class, now and as copied at the peak.
static BYTES: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static COUNT: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static PEAK_BYTES: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static PEAK_COUNT: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];

/// The census class of a request of `size` bytes.
fn class_of(size: usize) -> usize {
    if size <= 1024 {
        size.saturating_sub(1) / 16
    } else {
        let bits = (usize::BITS - (size - 1).leading_zeros()) as usize;
        (LINEAR + bits - 11).min(CLASSES - 1)
    }
}

/// The smallest and largest request in class `k`.
fn class_range(k: usize) -> (usize, usize) {
    if k < LINEAR {
        (16 * k + 1, 16 * k + 16)
    } else if k == CLASSES - 1 {
        ((1 << (k - LINEAR + 10)) + 1, usize::MAX)
    } else {
        ((1 << (k - LINEAR + 10)) + 1, 1 << (k - LINEAR + 11))
    }
}

/// `System`, counting. Statistics only publish themselves, so `Relaxed`.
struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let k = class_of(bytes);
        BYTES[k].fetch_add(bytes as u64, Relaxed);
        COUNT[k].fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        if PEAK.fetch_max(live, Relaxed) < live {
            copy_census_to_peak();
        }
    }

    fn shrank(bytes: usize) {
        let k = class_of(bytes);
        BYTES[k].fetch_sub(bytes as u64, Relaxed);
        COUNT[k].fetch_sub(1, Relaxed);
        LIVE.fetch_sub(bytes as u64, Relaxed);
    }
}

fn copy_census_to_peak() {
    for k in 0..CLASSES {
        PEAK_BYTES[k].store(BYTES[k].load(Relaxed), Relaxed);
        PEAK_COUNT[k].store(COUNT[k].load(Relaxed), Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        Self::grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        Self::shrank(layout.size());
        Self::grew(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes and allocations per size class.
#[derive(Clone, Copy)]
pub struct Census {
    bytes: [u64; CLASSES],
    count: [u64; CLASSES],
}

fn read(bytes: &[AtomicU64; CLASSES], count: &[AtomicU64; CLASSES]) -> Census {
    Census {
        bytes: std::array::from_fn(|k| bytes[k].load(Relaxed)),
        count: std::array::from_fn(|k| count[k].load(Relaxed)),
    }
}

/// Start a peak: `PEAK` is the live heap now, and so is the census at the
/// peak. Returns the live bytes and the census now, which the peak is read
/// against.
pub fn start_peak() -> (u64, Census) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    copy_census_to_peak();
    (base, read(&BYTES, &COUNT))
}

/// The census as it stood when `PEAK` last rose.
pub fn census_at_peak() -> Census {
    read(&PEAK_BYTES, &PEAK_COUNT)
}

/// One size class of a census read against a base.
#[derive(Debug, Clone, Copy)]
pub struct ClassRow {
    /// Smallest and largest request in the class.
    pub range: (usize, usize),
    /// Allocations more than the base held.
    pub count: i64,
    /// Bytes more than the base held.
    pub bytes: i64,
}

impl Census {
    /// Every class whose live bytes differ from `base`'s, largest first.
    pub fn over(&self, base: &Census) -> Vec<ClassRow> {
        let mut rows: Vec<ClassRow> = (0..CLASSES)
            .map(|k| ClassRow {
                range: class_range(k),
                count: self.count[k] as i64 - base.count[k] as i64,
                bytes: self.bytes[k] as i64 - base.bytes[k] as i64,
            })
            .filter(|row| row.bytes != 0)
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.bytes));
        rows
    }
}

/// What the types whose sizes `const` assertions pin request of the
/// allocator, so a census names them without a backtrace: a class is
/// labelled with every entry that falls in it (other allocations of those
/// sizes share the class). `Packet` (<= 96 B, `netsim/src/packet.rs`) has
/// no allocation of its own: packets live in the slab's one buffer.
const PINNED: [(usize, &str); 7] = [
    // `Mapping` == 24 B (`mptcpsim/src/dsn.rs`); a deque starts at 4.
    (96, "4-`Mapping` deque"),
    // `MptcpReceiverAgent` <= 96 B (`mptcpsim/src/receiver_agent.rs`).
    (96, "boxed receiver agent"),
    // `TcpReceiver` <= 80 B (`tcpsim/src/receiver.rs`), one per subflow.
    (160, "2-`TcpReceiver` vector"),
    // `Sub` <= 184 B (`mptcpsim/src/sender_agent.rs`).
    (184, "1-`Sub` vector"),
    // `Live` <= 232 B (`tcpsim/src/sender.rs`).
    (232, "boxed live sender part"),
    (368, "2-`Sub` vector"),
    // An event-queue entry is 32 B (`netsim/src/sim.rs`), 64 to a chunk.
    (2048, "64-entry wheel chunk"),
];

/// The labels of the class `range`.
fn label(range: (usize, usize)) -> String {
    let names: Vec<&str> = PINNED
        .iter()
        .filter(|(size, _)| (range.0..=range.1).contains(size))
        .map(|&(_, name)| name)
        .collect();
    names.join(", ")
}

/// Print the `top` largest classes of `rows` (a census at a peak read
/// against its base), one line each, prefixed with `gate`.
pub fn print_census(gate: &str, rows: &[ClassRow], top: usize) {
    println!("{gate}: census at the peak, live heap over the base by requested size:");
    for row in rows.iter().take(top) {
        let (lo, hi) = row.range;
        let span = if hi == usize::MAX {
            format!("> {} B", lo - 1)
        } else {
            format!("{lo}–{hi} B")
        };
        println!(
            "{gate}:   {span:>17} {:>7} × {:>10} B  {}",
            row.count,
            row.bytes,
            label(row.range)
        );
    }
}
