//! Deterministic event queue.
//!
//! A discrete-event simulator is only as reproducible as its event ordering.
//! [`EventQueue`] orders events by `(time, sequence)`. By default `sequence`
//! is a monotonically increasing insertion counter: two events scheduled for
//! the same instant pop in the order they were pushed, regardless of the
//! internal data structure. That property is what makes a seeded run
//! bit-identical.
//!
//! Callers that need an ordering independent of *push order* can supply the
//! sequence themselves via [`EventQueue::push_keyed`]. With keys derived
//! from what an event *is* (which link direction, which timer) the pop
//! sequence — and so the whole execution — is a pure function of the event
//! set: the simulator relies on this to schedule a branch's faults after a
//! checkpoint and still replay the run that scheduled them up front.
//! Keyed and counter-sequenced pushes may be mixed, but a caller doing so
//! is responsible for the combined `(time, seq)` ordering making sense; the
//! queue only promises to sort by it.
//! Two *live* entries must never share an equal `(time, key)` pair — the
//! backends do not define a stable order between duplicates (a cancelled
//! duplicate is fine: reaping is order-insensitive).
//!
//! # Engine
//!
//! The production backend is a **hierarchical timing wheel**: 8 levels of
//! 64 slots over a 65 536 ns bottom granule, each level covering a 6-bit
//! digit of the timestamp above the 16 granularity bits (16 + 6 × 8 = 64
//! bits, the full `u64` range). Push and pop are O(1) amortized — an
//! event lands in the slot named by the highest digit in which its time
//! differs from the wheel cursor, and slots are found via per-level
//! occupancy bitmaps. When the cursor reaches a higher-level slot, its
//! entries **cascade** into lower levels; a level-0 slot covers one
//! ~65 µs window, whose entries are sorted by `(time, seq)` into the
//! pending run — exactly the order a binary heap would produce. The
//! coarse granule keeps the microsecond-scale delays that dominate a
//! packet simulation at levels 0–1 instead of cascading through three or
//! four. A slot's bucket is a chain of fixed-size chunks drawn from one
//! pool the wheel owns, and a settled slot's chunks go straight back to
//! it: the queue's memory follows how many events are pending at once,
//! not how full each of the 512 buckets once was. The original
//! `BinaryHeap` implementation survives as a `#[cfg(test)]` backend
//! (`EventQueue::new_reference_heap`): the oracle of this module's
//! differential tests, not a selectable engine.
//!
//! # Cancellation
//!
//! [`EventQueue::push_cancellable`] returns a token that
//! [`EventQueue::cancel`] can later revoke. Cancelled events never pop,
//! never surface through [`EventQueue::peek_time`], and are invisible to
//! [`EventQueue::len`] / [`EventQueue::total_pushed`]: statistics count
//! only events that actually (will) fire. This replaces the "lazy guard"
//! pattern where re-armed timers left stale events to be ignored at fire
//! time; [`EventQueue::total_cancelled`] exposes how many events were
//! revoked so the dead-event fraction can be reported.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event with its scheduled time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion order; breaks ties at equal times.
    pub seq: u64,
    /// The payload handed back to the simulator.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that inside a max-heap the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Internal queue entry: a scheduled event plus its cancellation token
/// (`0` = not cancellable).
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    token: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that inside a max-heap the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits of the timestamp consumed per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level (one 6-bit digit's worth).
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting one digit.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Timestamp bits below the wheel: the bottom level buckets 2^16 ns
/// (~65 µs) per slot — sized so the microsecond-scale delays that dominate
/// a packet simulation land at levels 0-1 (measured fastest among 2^12 to
/// 2^20 on the paper scenarios). Entries within one bottom slot are
/// ordered by the sorted `pending` run when the slot settles.
const GRANULARITY_BITS: u32 = 16;
/// Levels needed to cover the 48 timestamp bits above the granule
/// (48 / 6 = 8).
const LEVELS: usize = (64 - GRANULARITY_BITS as usize).div_ceil(SLOT_BITS as usize);
/// Entries per bucket chunk. A bucket is a chain of these; the partial tail
/// of each occupied bucket is the only slack the wheel carries, so the
/// chunk is small (2 KB of 32-byte simulator entries) next to the hundreds
/// to thousands of entries a busy level-0/1 slot holds.
const CHUNK_ENTRIES: usize = 64;
/// "No chunk": the end of a chain, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// One fixed-capacity piece of a bucket (or of the free list).
#[derive(Debug)]
struct Chunk<E> {
    /// At most [`CHUNK_ENTRIES`], allocated once at that capacity: a chunk
    /// is never pushed beyond it, so it never regrows or copies.
    entries: Vec<Entry<E>>,
    /// The next chunk of the same chain, or [`NIL`].
    next: u32,
}

impl<E: Clone> Clone for Chunk<E> {
    /// `Vec::clone` allocates exactly `len`; a chunk must keep its fixed
    /// capacity, or the copy (a checkpoint) would regrow on its next push.
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(CHUNK_ENTRIES);
        entries.extend_from_slice(&self.entries);
        Chunk {
            entries,
            next: self.next,
        }
    }
}

/// A bucket: the first and last chunk of its chain ([`NIL`] when empty).
/// Pushes append to `last`; settling walks from `first`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    first: u32,
    last: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    first: NIL,
    last: NIL,
};

/// The hierarchical timing wheel backend.
///
/// Invariants (checked by `debug_assert`s):
///
/// * `cur` is the base time of the most recently settled bottom slot — a
///   multiple of the 2^16 ns granule; every wheel-resident entry is in a
///   strictly later bottom slot.
/// * At level `l`, occupied slots all have digit strictly greater than
///   `digit(cur, l)` — an entry's level is the highest digit in which its
///   time differs from `cur`, and there that digit is necessarily larger.
/// * `pending` holds the settled run: entries inside `cur`'s bottom-slot
///   window `[cur, cur + 2^16)`, sorted by `(time, seq)`.
/// * `early` holds entries pushed for times before `cur` (legal for
///   callers outside a monotonic simulator loop); its times precede every
///   pending or wheel-resident time, so it drains before everything else.
/// * Every chunk is on exactly one chain: a bucket's, or the free list's
///   (then it is empty). A bucket's bit in `occupied` is set exactly when
///   its chain is non-empty.
#[derive(Debug, Clone)]
struct Wheel<E> {
    cur: u64,
    /// Per-level slot-occupancy bitmaps (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` buckets, flattened; unsorted within a bucket.
    buckets: Vec<Bucket>,
    /// The one pool every bucket draws its chunks from. A settled bucket's
    /// chunks go back to the free list, whichever level it was at, so the
    /// pool grows to the peak number of entries *pending at once* (plus one
    /// partial chunk per occupied bucket) and no bucket keeps a private
    /// high-water allocation.
    chunks: Vec<Chunk<E>>,
    /// Head of the free list, chained through [`Chunk::next`].
    free: u32,
    pending: VecDeque<Entry<E>>,
    early: BinaryHeap<Entry<E>>,
    /// Entries a cascade moved to a lower level, over the wheel's lifetime:
    /// the work a push does again because its event was far away.
    cascaded: u64,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            cur: 0,
            occupied: [0; LEVELS],
            buckets: vec![EMPTY_BUCKET; LEVELS * SLOTS],
            chunks: Vec::new(),
            free: NIL,
            pending: VecDeque::new(),
            early: BinaryHeap::new(),
            cascaded: 0,
        }
    }

    /// Drop every entry (and the pool); the lifetime counter stays.
    fn clear(&mut self) {
        *self = Wheel {
            cascaded: self.cascaded,
            ..Wheel::new()
        };
    }

    /// The 6-bit digit of `t` at `level` (above the granularity bits).
    fn digit(t: u64, level: usize) -> usize {
        ((t >> (GRANULARITY_BITS as usize + SLOT_BITS as usize * level)) & SLOT_MASK) as usize
    }

    /// The bucket for (`level`, `slot`).
    fn bucket(&mut self, level: usize, slot: usize) -> &mut Bucket {
        &mut self.buckets[level * SLOTS + slot] // simlint: allow(panic-surface, reason = "level < LEVELS and slot < SLOTS by construction; buckets is sized LEVELS*SLOTS at new() and never shrinks")
    }

    /// The chunk at pool index `c`.
    fn chunk(&mut self, c: u32) -> &mut Chunk<E> {
        &mut self.chunks[c as usize] // simlint: allow(panic-surface, reason = "chunk indices are issued by take_chunk and chunks never shrinks; NIL is checked before every lookup")
    }

    /// An empty chunk: the head of the free list, or a new one.
    fn take_chunk(&mut self) -> u32 {
        let c = self.free;
        if c != NIL {
            let chunk = self.chunk(c);
            debug_assert!(chunk.entries.is_empty());
            self.free = std::mem::replace(&mut chunk.next, NIL);
            return c;
        }
        let c = u32::try_from(self.chunks.len())
            .ok()
            .filter(|&c| c != NIL)
            // simlint: allow(unwrap, reason = "2^32 chunks are 2^38 pending entries; aliasing two chains would corrupt the schedule, so fail loudly")
            .expect("wheel chunk pool exceeded u32 indices");
        self.chunks.push(Chunk {
            entries: Vec::with_capacity(CHUNK_ENTRIES),
            next: NIL,
        });
        c
    }

    /// Put a drained chunk on the free list.
    fn release_chunk(&mut self, c: u32) {
        let free = self.free;
        let chunk = self.chunk(c);
        debug_assert!(chunk.entries.is_empty());
        chunk.next = free;
        self.free = c;
    }

    /// Append `e` to the bucket for (`level`, `slot`).
    fn bucket_push(&mut self, level: usize, slot: usize, e: Entry<E>) {
        let last = self.bucket(level, slot).last;
        if last != NIL {
            let tail = &mut self.chunk(last).entries;
            if tail.len() < CHUNK_ENTRIES {
                tail.push(e);
                return;
            }
        }
        let c = self.take_chunk();
        self.chunk(c).entries.push(e);
        if last == NIL {
            *self.bucket(level, slot) = Bucket { first: c, last: c };
        } else {
            self.chunk(last).next = c;
            self.bucket(level, slot).last = c;
        }
    }

    fn push(&mut self, e: Entry<E>) {
        let t = e.time.as_nanos();
        if t < self.cur {
            self.early.push(e);
        } else if t >> GRANULARITY_BITS == self.cur >> GRANULARITY_BITS {
            // Inside the cursor's bottom-slot window: keep the pending run
            // sorted by (time, seq). Appends dominate — a new entry has the
            // largest seq so far, and push times rarely precede the tail.
            let key = (e.time, e.seq);
            if self.pending.back().is_none_or(|b| (b.time, b.seq) < key) {
                self.pending.push_back(e);
            } else {
                let pos = self.pending.partition_point(|x| (x.time, x.seq) < key);
                self.pending.insert(pos, e);
            }
        } else {
            // The highest bit in which t differs from the cursor names the
            // level (6 bits per level above the granule); t's digit there
            // names the slot. That digit is strictly greater than the
            // cursor's (all higher bits agree and t > cur), which is the
            // wheel ordering invariant.
            let high = 63 - (self.cur ^ t).leading_zeros();
            // simlint: allow(panic-surface, reason = "SLOT_BITS is a nonzero constant")
            let level = ((high - GRANULARITY_BITS) / SLOT_BITS) as usize;
            let slot = Self::digit(t, level);
            debug_assert!(slot > Self::digit(self.cur, level));
            if let Some(bits) = self.occupied.get_mut(level) {
                *bits |= 1u64 << slot;
            }
            self.bucket_push(level, slot, e);
        }
    }

    /// Pop the earliest entry if it is due at or before `deadline`:
    /// `early`, then `pending`, then settle the next occupied wheel slot.
    /// One walk answers both "is anything due?" and "what is it?" — the
    /// simulator's run loop asks exactly that once per event.
    fn pop_entry_at_or_before(&mut self, deadline: SimTime) -> Option<Entry<E>> {
        loop {
            if let Some(e) = self.early.peek() {
                return if e.time <= deadline {
                    self.early.pop()
                } else {
                    None
                };
            }
            if let Some(e) = self.pending.front() {
                return if e.time <= deadline {
                    self.pending.pop_front()
                } else {
                    None
                };
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Borrow the entry `pop_entry_at_or_before` would consider next,
    /// settling slots as needed but removing nothing.
    fn peek_entry(&mut self) -> Option<&Entry<E>> {
        if self.early.is_empty() && self.pending.is_empty() && !self.advance() {
            return None;
        }
        // Mirror the pop order: `early` drains before `pending`.
        if self.early.is_empty() {
            self.pending.front()
        } else {
            self.early.peek()
        }
    }

    /// Advance the cursor to the next occupied slot and settle its entries
    /// into `pending`. Returns `false` when the wheel holds no entries.
    ///
    /// Scanning levels lowest-first finds the earliest block: all level-0
    /// entries precede the current 64 ns boundary relative to `cur`, all
    /// level-1 entries lie beyond it, and so on inductively — so the first
    /// set bit above the cursor digit at the lowest occupied level is the
    /// globally earliest pending time.
    fn advance(&mut self) -> bool {
        debug_assert!(self.early.is_empty() && self.pending.is_empty());
        loop {
            let mut found = None;
            for (level, &bits) in self.occupied.iter().enumerate() {
                let cd = Self::digit(self.cur, level);
                // Only slots strictly beyond the cursor digit are live (the
                // invariant guarantees none at or below it).
                let mask = if cd + 1 >= SLOTS {
                    0
                } else {
                    bits & (!0u64 << (cd + 1))
                };
                debug_assert_eq!(bits, mask, "occupancy at or below the cursor digit");
                if mask != 0 {
                    found = Some((level, mask.trailing_zeros() as usize));
                    break;
                }
            }
            let Some((level, slot)) = found else {
                return false;
            };
            if let Some(bits) = self.occupied.get_mut(level) {
                *bits &= !(1u64 << slot);
            }
            let mut next = std::mem::replace(self.bucket(level, slot), EMPTY_BUCKET).first;
            if level == 0 {
                // A bottom slot covers one 2^16 ns window within the
                // cursor's level-1 block: jump there and sort its entries
                // into the (empty) pending run.
                let block = GRANULARITY_BITS + SLOT_BITS;
                let base = ((self.cur >> block) << block) | ((slot as u64) << GRANULARITY_BITS);
                debug_assert!(base > self.cur);
                self.cur = base;
                while next != NIL {
                    let c = next;
                    let chunk = &mut self.chunks[c as usize]; // simlint: allow(panic-surface, reason = "a chain links only indices take_chunk issued; chunks never shrinks")
                    next = chunk.next;
                    self.pending.extend(chunk.entries.drain(..));
                    self.release_chunk(c);
                }
                debug_assert!(self
                    .pending
                    .iter()
                    .all(|e| e.time.as_nanos() >> GRANULARITY_BITS == base >> GRANULARITY_BITS));
                self.pending
                    .make_contiguous()
                    .sort_unstable_by_key(|e| (e.time, e.seq));
            } else {
                // Cascade: jump the cursor to this slot's base time and
                // re-distribute. Every entry shares bits ≥ 16 + 6·(level+1)
                // with the old cursor and has digit `slot` at `level`, so
                // each re-push lands at a strictly lower level (or is
                // sorted into `pending` when inside the base window).
                let upper = GRANULARITY_BITS as usize + SLOT_BITS as usize * (level + 1);
                let base = if upper >= 64 {
                    0
                } else {
                    (self.cur >> upper) << upper
                };
                let shift = GRANULARITY_BITS as usize + SLOT_BITS as usize * level;
                let w = base | ((slot as u64) << shift);
                debug_assert!(w > self.cur);
                self.cur = w;
                while next != NIL {
                    let c = next;
                    // Lift the chunk's storage out while its entries are
                    // re-pushed (a push may take chunks from the pool), then
                    // hand it back and free the chunk before the next one:
                    // a cascade needs one spare chunk per bucket it fills,
                    // not a second copy of the slot.
                    let mut entries = std::mem::take(&mut self.chunk(c).entries);
                    self.cascaded += entries.len() as u64;
                    for e in entries.drain(..) {
                        self.push(e);
                    }
                    let chunk = self.chunk(c);
                    chunk.entries = entries;
                    next = chunk.next;
                    self.release_chunk(c);
                }
            }
            if !self.pending.is_empty() {
                return true;
            }
        }
    }
}

/// Queue backend: the timing wheel, plus (in test builds only) the original
/// binary heap kept as the differential-testing oracle.
#[derive(Debug, Clone)]
enum Backend<E> {
    Wheel(Wheel<E>),
    #[cfg(test)]
    Heap(BinaryHeap<Entry<E>>),
}

impl<E> Backend<E> {
    fn push(&mut self, e: Entry<E>) {
        match self {
            Backend::Wheel(w) => w.push(e),
            #[cfg(test)]
            Backend::Heap(h) => h.push(e),
        }
    }

    fn pop_entry_at_or_before(&mut self, deadline: SimTime) -> Option<Entry<E>> {
        match self {
            Backend::Wheel(w) => w.pop_entry_at_or_before(deadline),
            #[cfg(test)]
            Backend::Heap(h) => {
                if h.peek()?.time <= deadline {
                    h.pop()
                } else {
                    None
                }
            }
        }
    }

    fn peek_entry(&mut self) -> Option<&Entry<E>> {
        match self {
            Backend::Wheel(w) => w.peek_entry(),
            #[cfg(test)]
            Backend::Heap(h) => h.peek(), // min of the inverted-Ord heap
        }
    }

    fn clear(&mut self) {
        match self {
            Backend::Wheel(w) => w.clear(),
            #[cfg(test)]
            Backend::Heap(h) => h.clear(),
        }
    }
}

/// Lifecycle of one cancellation token (see `EventQueue::token_state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenState {
    /// Pushed, not yet popped or cancelled.
    Live,
    /// Cancelled; the entry may still be buried in the backend and is
    /// reaped lazily when it surfaces.
    Cancelled,
    /// Popped (fired) or reaped; terminal.
    Spent,
}

/// A min-queue of timestamped events with FIFO tie-breaking and optional
/// per-event cancellation.
///
/// Cloning (for `E: Clone`) copies the complete queue state — pending
/// entries, cancellation-token table, and lifetime counters — which is what
/// lets a simulator snapshot resume with identical event ordering and
/// identical `total_pushed`/`total_cancelled` statistics.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    /// Events ever pushed, including later-cancelled ones.
    pushed: u64,
    /// Events cancelled before they fired.
    cancelled: u64,
    /// Events handed out by `pop` / `pop_at_or_before`.
    popped: u64,
    /// Events currently scheduled (pushed, not yet popped or cancelled).
    live: u64,
    /// State of the tokens that can still change, indexed by
    /// `token - 1 - token_base` (tokens are issued sequentially from 1; 0
    /// marks non-cancellable entries). A flat byte window: O(1) on the hot
    /// pop/cancel paths. Its front is never `Spent` — a token that fires or
    /// is reaped at the front slides the window past every terminal state
    /// behind it — so the table holds one byte per push since the oldest
    /// token still pending, not per push over the queue's lifetime. A
    /// long-lived pending token only delays the slide.
    token_state: VecDeque<TokenState>,
    /// Tokens that have slid out of `token_state`: all `Spent`.
    token_base: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one queued event occupies: time, sequence key and cancellation
    /// token (8 each) plus the payload. Every push, cascade and settle sort
    /// moves this much, so a caller with a hot queue keeps `E` small and
    /// can pin the total with a `const` assertion.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Create an empty queue (timing-wheel backend).
    pub fn new() -> Self {
        Self::with_backend(Backend::Wheel(Wheel::new()))
    }

    /// Create an empty queue on the original binary-heap backend: the
    /// oracle the timing wheel is tested against.
    #[cfg(test)]
    pub fn new_reference_heap() -> Self {
        Self::with_backend(Backend::Heap(BinaryHeap::new()))
    }

    fn with_backend(backend: Backend<E>) -> Self {
        EventQueue {
            backend,
            next_seq: 0,
            pushed: 0,
            cancelled: 0,
            popped: 0,
            live: 0,
            token_state: VecDeque::new(),
            token_base: 0,
        }
    }

    /// Schedule `event` at `time`. Events at equal times pop in push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_token(time, event, 0);
    }

    /// Schedule `event` at `time` and return a token that [`cancel`]
    /// (`EventQueue::cancel`) accepts. Tokens are unique over the queue's
    /// lifetime and never zero.
    pub fn push_cancellable(&mut self, time: SimTime, event: E) -> u64 {
        let token = self.issue_token();
        self.push_token(time, event, token);
        token
    }

    /// Schedule `event` at `time` with a caller-supplied tie-break key in
    /// place of the insertion counter. Events at equal times pop in key
    /// order, regardless of push order, so the schedule depends only on
    /// which events exist, not on when each was pushed.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.push_entry(time, key, event, 0);
    }

    /// Keyed push (see [`EventQueue::push_keyed`]) that returns a
    /// cancellation token, like [`EventQueue::push_cancellable`].
    pub fn push_keyed_cancellable(&mut self, time: SimTime, key: u64, event: E) -> u64 {
        let token = self.issue_token();
        self.push_entry(time, key, event, token);
        token
    }

    fn issue_token(&mut self) -> u64 {
        self.token_state.push_back(TokenState::Live);
        self.token_base + self.token_state.len() as u64
    }

    /// The state of `token`, unless it is 0 or has slid out of the window
    /// (then it is `Spent`).
    fn token_slot(&mut self, token: u64) -> Option<&mut TokenState> {
        let i = token.checked_sub(1)?.checked_sub(self.token_base)?;
        self.token_state.get_mut(usize::try_from(i).ok()?)
    }

    /// The one liveness rule: does the backend entry carrying `token` fire?
    /// Token 0 (not cancellable) always does; otherwise only a `Live`
    /// token does. A token that has slid out of the window is `Spent`, so
    /// its entry is dead — `peek_time`, `pop` and `pop_at_or_before` all
    /// ask here, and therefore agree on which entry is the front.
    fn fires(&self, token: u64) -> bool {
        let Some(i) = token.checked_sub(1) else {
            return true;
        };
        i.checked_sub(self.token_base)
            .and_then(|i| self.token_state.get(usize::try_from(i).ok()?))
            .is_some_and(|s| *s == TokenState::Live)
    }

    /// Mark the token of an entry that left the backend `Spent` and slide
    /// the window past the terminal prefix.
    fn spend_token(&mut self, token: u64) {
        let Some(s) = self.token_slot(token) else {
            return;
        };
        *s = TokenState::Spent;
        while self.token_state.front() == Some(&TokenState::Spent) {
            self.token_state.pop_front();
            self.token_base += 1;
        }
    }

    fn push_token(&mut self, time: SimTime, event: E, token: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(time, seq, event, token);
    }

    fn push_entry(&mut self, time: SimTime, seq: u64, event: E, token: u64) {
        self.pushed += 1;
        self.live += 1;
        self.backend.push(Entry {
            time,
            seq,
            token,
            event,
        });
    }

    /// Revoke a previously pushed cancellable event. Returns `true` if the
    /// event was still pending (it will now never pop), `false` if it
    /// already popped or was already cancelled.
    pub fn cancel(&mut self, token: u64) -> bool {
        match self.token_slot(token) {
            Some(s @ TokenState::Live) => {
                *s = TokenState::Cancelled;
                self.cancelled += 1;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest live event if it is due at or before
    /// `deadline`; `None` leaves everything later queued. A run loop's
    /// "peek, compare, pop" in one walk of the queue's front.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        loop {
            let e = self.backend.pop_entry_at_or_before(deadline)?;
            if e.token != 0 {
                let fires = self.fires(e.token);
                self.spend_token(e.token);
                if !fires {
                    continue; // cancelled: reap silently
                }
            }
            self.live -= 1;
            self.popped += 1;
            return Some(ScheduledEvent {
                time: e.time,
                seq: e.seq,
                event: e.event,
            });
        }
    }

    /// The time of the earliest live event.
    ///
    /// Takes `&mut self`: the wheel settles slots (and both backends reap
    /// cancelled entries) to find the front, which mutates internal state
    /// but never changes the observable pop sequence.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, token) = {
                let e = self.backend.peek_entry()?;
                (e.time, e.token)
            };
            if self.fires(token) {
                return Some(time);
            }
            // Cancelled: reap the buried entry and look again.
            self.spend_token(token);
            let _ = self.backend.pop_entry_at_or_before(time);
        }
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Events pushed over the queue's lifetime that were not cancelled —
    /// i.e. every event that has fired or will fire. Cancelled events are
    /// invisible to statistics.
    pub fn total_pushed(&self) -> u64 {
        self.pushed - self.cancelled
    }

    /// Events cancelled before firing over the queue's lifetime (the
    /// numerator of the dead-event fraction; the denominator is
    /// `total_pushed() + total_cancelled()`).
    pub fn total_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Events popped over the queue's lifetime (cancelled entries reaped on
    /// the way are not pops).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Entries the timing wheel re-distributed to a lower level over the
    /// queue's lifetime — each is one extra bucket push for an event that
    /// was scheduled far ahead.
    pub fn total_cascaded(&self) -> u64 {
        match &self.backend {
            Backend::Wheel(w) => w.cascaded,
            #[cfg(test)]
            Backend::Heap(_) => 0,
        }
    }

    /// Chunks in the wheel's pool. The pool only grows (until `clear`), so
    /// this is its high-water mark: the most entries ever pending at once, in units of
    /// 64 (plus one partial chunk per bucket occupied at the time).
    pub fn pool_chunks(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.chunks.len(),
            #[cfg(test)]
            Backend::Heap(_) => 0,
        }
    }

    /// Drop all pending events. Lifetime counters are preserved.
    pub fn clear(&mut self) {
        self.backend.clear();
        self.live = 0;
        // Dropped entries can no longer fire or be cancelled: every token
        // issued so far is spent, so the window slides past all of them.
        self.token_base += self.token_state.len() as u64;
        self.token_state = VecDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), "c");
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        q.push(t2, "t2-first");
        q.push(t1, "t1-first");
        q.push(t2, "t2-second");
        q.push(t1, "t1-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec!["t1-first", "t1-second", "t2-first", "t2-second"]
        );
    }

    #[test]
    fn peek_and_len_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.total_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn large_random_order_is_sorted_and_stable() {
        // A miniature deterministic shuffle: push times generated by a
        // multiplicative hash, verify pop order is non-decreasing and that
        // events at equal times preserve push order.
        let mut q = EventQueue::new();
        for i in 0u64..10_000 {
            let t = (i.wrapping_mul(2654435761)) % 64; // many collisions
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<u64> = None;
        while let Some(ev) = q.pop() {
            assert!(ev.time >= last_time);
            if ev.time == last_time {
                if let Some(prev) = last_seq_at_time {
                    assert!(ev.seq > prev, "FIFO violated at equal time");
                }
            }
            last_time = ev.time;
            last_seq_at_time = Some(ev.seq);
        }
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn pushes_before_cursor_still_pop() {
        // After the cursor has advanced, a push for an earlier time (legal
        // for callers outside a monotonic simulator loop) must still pop,
        // and before everything later.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "late");
        assert_eq!(q.pop().map(|e| e.event), Some("late"));
        q.push(SimTime::from_secs(1), "rewind-a");
        q.push(SimTime::from_secs(9), "future");
        q.push(SimTime::from_secs(1), "rewind-b");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop().map(|e| e.event), Some("rewind-a"));
        assert_eq!(q.pop().map(|e| e.event), Some("rewind-b"));
        assert_eq!(q.pop().map(|e| e.event), Some("future"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascade_boundaries_preserve_order() {
        // Times straddling level boundaries (64, 4096, 262144 ns …) force
        // cascades; order must still be exact (time, seq).
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![
            63, 64, 65, 127, 128, 4095, 4096, 4097, 262_143, 262_144, 262_145, 64, 4096,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_nanos(), e.event))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn far_future_times_pop_correctly() {
        // Top-level slots (bits 60..64) and u64::MAX must work.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::MAX), "max");
        q.push(SimTime::from_nanos(1), "soon");
        q.push(SimTime::from_nanos(u64::MAX - 1), "almost");
        q.push(SimTime::from_nanos(1 << 62), "far");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["soon", "far", "almost", "max"]);
    }

    #[test]
    fn cancelled_events_are_invisible_to_stats() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), "keep-1");
        let tok = q.push_cancellable(SimTime::from_micros(1), "dead");
        q.push(SimTime::from_millis(2), "keep-2");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(tok));
        // Cancelled: gone from len/total_pushed, never peeks, never pops.
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_cancelled(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["keep-1", "keep-2"]);
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn cancel_is_single_shot_and_fails_after_pop() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(SimTime::from_millis(1), ());
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok), "double cancel must fail");
        let tok2 = q.push_cancellable(SimTime::from_millis(2), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(tok2), "cancel after pop must fail");
        assert!(q.is_empty());
    }

    #[test]
    fn cancellable_events_pop_normally_when_not_cancelled() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push(t, 0u32);
        let _tok = q.push_cancellable(t, 1u32);
        q.push(t, 2u32);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![0, 1, 2], "tokens must not perturb FIFO order");
    }

    #[test]
    fn keyed_pushes_order_by_key_not_push_order() {
        // Two queues receive the same keyed events in opposite push orders;
        // the pop sequence must be identical (that is the whole point of
        // caller-supplied keys).
        let t = SimTime::from_millis(1);
        let evs = [(7u64, "g"), (1, "a"), (4, "d"), (2, "b")];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        for &(k, e) in &evs {
            fwd.push_keyed(t, k, e);
        }
        for &(k, e) in evs.iter().rev() {
            rev.push_keyed(t, k, e);
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop().map(|e| (e.seq, e.event))).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop().map(|e| (e.seq, e.event))).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![(1, "a"), (2, "b"), (4, "d"), (7, "g")]);
    }

    #[test]
    fn keyed_pushes_order_on_heap_backend_too() {
        let t = SimTime::from_millis(1);
        let mut q = EventQueue::new_reference_heap();
        q.push_keyed(t, 9, "z");
        q.push_keyed(t, 3, "c");
        q.push_keyed(SimTime::from_micros(1), 50, "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["early", "c", "z"]);
    }

    #[test]
    fn keyed_cancellable_pushes_cancel_like_counter_ones() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push_keyed(t, 1, "keep");
        let tok = q.push_keyed_cancellable(t, 0, "dead");
        assert!(q.cancel(tok));
        assert_eq!(q.peek_time(), Some(t));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["keep"]);
        assert_eq!(q.total_pushed(), 1);
        assert_eq!(q.total_cancelled(), 1);
    }

    #[test]
    fn clear_resets_pending_but_keeps_counters() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), ());
        let tok = q.push_cancellable(SimTime::from_millis(2), ());
        q.cancel(tok);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.event), None);
        assert_eq!(q.total_pushed(), 1);
        assert_eq!(q.total_cancelled(), 1);
        // The queue is fully usable after clear.
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn token_window_slides_past_fired_and_reaped_tokens() {
        let mut q = EventQueue::new();
        let tokens: Vec<u64> = (0..1000u64)
            .map(|i| q.push_cancellable(SimTime::from_micros(i), i))
            .collect();
        assert_eq!(tokens, (1..=1000).collect::<Vec<u64>>());
        // Every third one is cancelled; the rest fire.
        for t in tokens.iter().step_by(3) {
            assert!(q.cancel(*t));
        }
        assert_eq!(q.token_state.len(), 1000, "nothing has surfaced yet");
        while q.pop().is_some() {}
        assert_eq!((q.token_state.len(), q.token_base), (0, 1000));
        // Below the window: spent, whatever it was.
        assert!(tokens.iter().all(|&t| !q.cancel(t)));
        assert!(!q.cancel(0));
        // Numbering continues where it left off.
        let next = q.push_cancellable(SimTime::from_secs(1), 0);
        assert_eq!(next, 1001);
        assert!(q.cancel(next));
        assert_eq!((q.total_pushed(), q.total_cancelled()), (666, 335));
    }

    #[test]
    fn a_long_lived_token_delays_the_slide_but_never_breaks_it() {
        let mut q = EventQueue::new();
        let deadline = q.push_cancellable(SimTime::from_secs(3600), 0u64);
        for i in 1..=10_000u64 {
            let t = q.push_cancellable(SimTime::from_micros(i), i);
            if i % 2 == 0 {
                // Reaped by the peek that looks past it.
                q.cancel(t);
                assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
            } else {
                assert_eq!(q.pop().map(|e| e.event), Some(i));
            }
        }
        // The hour-out deadline pins the front; everything behind it is
        // spent but still indexed.
        assert_eq!((q.token_state.len(), q.token_base), (10_001, 0));
        let copy = q.clone();
        assert!(q.cancel(deadline));
        assert_eq!(q.pop().map(|e| e.event), None, "reaped, not fired");
        assert_eq!((q.token_state.len(), q.token_base), (0, 10_001));
        // The clone took the window with it and is independent.
        let mut copy = copy;
        assert_eq!(copy.pop().map(|e| e.event), Some(0));
        assert!(!copy.cancel(deadline));
        assert_eq!((copy.token_state.len(), copy.token_base), (0, 10_001));
    }

    #[test]
    fn clear_spends_every_token() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_millis(1), ());
        let b = q.push_cancellable(SimTime::from_millis(2), ());
        q.clear();
        assert!(!q.cancel(a) && !q.cancel(b));
        assert_eq!((q.token_state.len(), q.token_base), (0, 2));
        let c = q.push_cancellable(SimTime::from_millis(3), ());
        assert_eq!(c, 3);
        assert!(q.cancel(c));
        assert_eq!(q.pop().map(|e| e.event), None);
    }

    #[test]
    fn buckets_share_one_pool_sized_by_what_is_pending() {
        const N: u32 = 10_000;
        let mut q = EventQueue::new();
        let mut peak_after_first = 0;
        // Fill and drain 64 level-1 slots in turn (bits 22..28 name the
        // slot; the entries spread over its 64 bottom slots, so each drain
        // is a cascade and 64 level-0 settles).
        for k in 1..=64u64 {
            for i in 0..N {
                q.push(SimTime::from_nanos((k << 22) + u64::from(i) * 400), i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(order, (0..N).collect::<Vec<u32>>());
            if k == 1 {
                peak_after_first = q.pool_chunks();
            }
        }
        // One slot's worth plus a partial chunk per bottom bucket the
        // cascade fills — and the 63 later slots reused exactly those.
        let one_slot = N as usize / CHUNK_ENTRIES;
        assert!(
            (one_slot..=one_slot + 2 * SLOTS).contains(&peak_after_first),
            "{peak_after_first} chunks for {N} pending entries"
        );
        assert_eq!(
            q.pool_chunks(),
            peak_after_first,
            "a later slot grew the pool"
        );
        // A far-future (level 5) bucket draws from the same pool and hands
        // its chunks back too.
        for i in 0..N {
            q.push(SimTime::from_nanos((9 << 46) + u64::from(i)), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.pool_chunks(), peak_after_first);
    }

    #[test]
    fn a_cloned_part_filled_wheel_pops_the_same_sequence() {
        let mut q = EventQueue::new();
        // Level 0, 1, 2 and 4 buckets with full and partial chunks, a
        // cancelled entry among them, and a cursor that has moved.
        for i in 0..1000u32 {
            let t = match i % 4 {
                0 => 70_000 + u64::from(i),
                1 => (3 << 22) + u64::from(i) * 1_000,
                2 => (5 << 28) + u64::from(i),
                _ => (2 << 40) + u64::from(i) * 77,
            };
            q.push(SimTime::from_nanos(t), i);
        }
        let dead = q.push_cancellable(SimTime::from_nanos(3 << 22), 5000);
        for _ in 0..100 {
            assert!(q.pop().is_some());
        }
        let mut copy = q.clone();
        assert!(q.cancel(dead) && copy.cancel(dead));
        // The copy's chunks keep their fixed capacity: refilling a partial
        // tail must not regrow it.
        for i in 0..200u32 {
            let t = SimTime::from_nanos((3 << 22) + 999_000 + u64::from(i));
            q.push(t, 2000 + i);
            copy.push(t, 2000 + i);
        }
        if let Backend::Wheel(w) = &copy.backend {
            assert!(w
                .chunks
                .iter()
                .all(|c| c.entries.capacity() == CHUNK_ENTRIES));
        }
        loop {
            let a = q.pop().map(|e| (e.time, e.seq, e.event));
            let b = copy.pop().map(|e| (e.time, e.seq, e.event));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.total_pushed(), copy.total_pushed());
    }

    #[test]
    fn peek_and_pop_agree_across_cancel_rearm_and_pop() {
        use crate::rng::{SimRng, SplitMix64};
        for mut q in [EventQueue::new(), EventQueue::new_reference_heap()] {
            let mut rng = SplitMix64::new(0xfeed);
            let mut now = 0u64;
            // Four re-armable timers (0 = never armed) over a stream of
            // plain events; re-arming cancels, so fronts are often dead.
            let mut timers = [0u64; 4];
            for i in 0..20_000u32 {
                match rng.next_below(10) {
                    0..=2 => {
                        let at = now + rng.next_range(1, 300_000);
                        q.push(SimTime::from_nanos(at), i);
                    }
                    3..=5 => {
                        let t = rng.next_below(4) as usize;
                        q.cancel(timers[t]);
                        let at = now + rng.next_range(1, 5_000_000);
                        timers[t] = q.push_cancellable(SimTime::from_nanos(at), i);
                    }
                    6 => {
                        q.cancel(timers[rng.next_below(4) as usize]);
                    }
                    7 => {
                        // A deadline pop takes the front exactly when the
                        // front is due.
                        let deadline = SimTime::from_nanos(now + rng.next_range(0, 200_000));
                        let front = q.peek_time();
                        let got = q.pop_at_or_before(deadline).map(|e| e.time);
                        assert_eq!(got, front.filter(|t| *t <= deadline));
                        now = got.map_or(now, SimTime::as_nanos);
                    }
                    _ => {
                        let front = q.peek_time();
                        let got = q.pop().map(|e| e.time);
                        assert_eq!(front, got, "peek disagrees with pop");
                        now = got.map_or(now, SimTime::as_nanos);
                    }
                }
            }
            while let Some(front) = q.peek_time() {
                assert_eq!(q.pop().map(|e| e.time), Some(front));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn an_entry_whose_token_left_the_window_is_dead_to_peek_and_pop_alike() {
        for mut q in [EventQueue::new(), EventQueue::new_reference_heap()] {
            q.push_cancellable(SimTime::from_millis(1), "stale");
            q.push(SimTime::from_millis(2), "live");
            // Forge what no sequence of calls produces: the window has slid
            // past a token whose entry is still buried. Every reader must
            // apply the same rule to it (out of the window = spent = dead).
            q.token_state.clear();
            q.token_base = 1;
            let (mut popped, mut bounded) = (q.clone(), q.clone());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
            assert_eq!(popped.pop().map(|e| e.event), Some("live"));
            let due = bounded.pop_at_or_before(SimTime::from_millis(5));
            assert_eq!(due.map(|e| e.event), Some("live"));
        }
    }

    /// Shape a raw u64 into an "interesting" time: same-slot collisions,
    /// cascade boundaries, mid-range values, and far-future overflow times.
    fn shape_time(raw: u64) -> u64 {
        match raw % 4 {
            0 => raw % 64,                     // level-0 collisions
            1 => (raw % 3) * 4096 + (raw % 3), // cascade boundaries
            2 => raw % (1 << 40),              // mid range
            _ => u64::MAX - (raw % 1024),      // far future / top level
        }
    }

    /// Run `f` on both backends; they must agree on its result and on
    /// every counter afterwards.
    fn on_both<R: PartialEq + std::fmt::Debug>(
        wheel: &mut EventQueue<u32>,
        heap: &mut EventQueue<u32>,
        f: impl Fn(&mut EventQueue<u32>) -> R,
    ) -> R {
        let (a, b) = (f(wheel), f(heap));
        assert_eq!(a, b, "backends disagree on an operation's result");
        assert_eq!(
            (wheel.len(), wheel.total_pushed(), wheel.total_cancelled()),
            (heap.len(), heap.total_pushed(), heap.total_cancelled()),
        );
        a
    }

    #[test]
    fn simulator_shaped_stream_replays_identically() {
        // What a packet simulation feeds the queue, replayed on both
        // backends: per-link-direction TxDone/Arrive pushes under canonical
        // `[class:3][entity:25][local:36]` keys at ns-to-ms gaps ahead of a
        // monotonic clock (a few fixed packet sizes and link delays, so
        // equal-time ties between keys are common and arrive in arbitrary
        // key order), per-agent RTO timers re-armed (cancel + keyed
        // cancellable push) often enough that ~6 % of everything pushed dies
        // unfired, and a few live deadlines minutes to hours out that sit at
        // wheel levels 3-5 and cascade down when the queue drains.
        use crate::rng::{SimRng, SplitMix64};
        const OPS: usize = 120_000;
        const DIRS: usize = 12;
        const AGENTS: usize = 4;
        let key =
            |class: u64, entity: usize, local: u64| (class << 61) | ((entity as u64) << 36) | local;
        // `run_until`'s step: peek, then pop.
        let step = |q: &mut EventQueue<u32>| {
            let front = q.peek_time();
            let e = q.pop().map(|e| (e.time, e.seq, e.event));
            assert_eq!(front, e.map(|e| e.0), "peek disagrees with pop");
            e
        };

        let mut rng = SplitMix64::new(0x5eed);
        let (mut wheel, mut heap) = (EventQueue::new(), EventQueue::new_reference_heap());
        let mut now = 0u64;
        let mut epoch = [0u64; DIRS];
        let mut arrivals = [0u64; DIRS];
        // Each agent's pending RTO token (0 = never armed: cancel refuses).
        let mut rto = [0u64; AGENTS];
        let mut far_future = 0u64;

        for i in 0..OPS {
            let dir = rng.next_below(DIRS as u64) as usize;
            match rng.next_below(100) {
                0..=47 => {
                    if let Some((t, _, _)) = on_both(&mut wheel, &mut heap, step) {
                        now = t.as_nanos();
                    }
                }
                48..=73 => {
                    // Serialization of a 40 / 540 / 1500 B packet at 100 Mbps.
                    epoch[dir] += 1;
                    let tx = [3_200, 43_200, 120_000][rng.next_below(3) as usize];
                    let at = SimTime::from_nanos(now + tx);
                    let k = key(2, dir, epoch[dir]);
                    on_both(&mut wheel, &mut heap, |q| q.push_keyed(at, k, 2));
                }
                74..=96 => {
                    // Propagation over a 50 us / 1 ms / 5 ms / 10 ms link.
                    arrivals[dir] += 1;
                    let delay = [50_000, 1_000_000, 5_000_000, 10_000_000][dir % 4];
                    let at = SimTime::from_nanos(now + delay);
                    let k = key(3, dir, arrivals[dir]);
                    on_both(&mut wheel, &mut heap, |q| q.push_keyed(at, k, 3));
                }
                _ if i % 40 == 0 => {
                    // Keepalive-style deadline 1 min .. 3 h out, never
                    // cancelled: it waits at wheel levels 3-5 for the drain.
                    far_future += 1;
                    let after = rng.next_range(60_000_000_000, 10_800_000_000_000);
                    let at = SimTime::from_nanos(now + after);
                    let k = key(4, AGENTS, far_future);
                    on_both(&mut wheel, &mut heap, |q| q.push_keyed(at, k, 5));
                }
                _ => {
                    // RTO re-arm, 200 ms .. 1 s out.
                    let agent = dir % AGENTS;
                    let at = SimTime::from_nanos(now + rng.next_range(200_000_000, 1_000_000_000));
                    let (k, old) = (key(4, agent, 0), rto[agent]);
                    rto[agent] = on_both(&mut wheel, &mut heap, |q| {
                        q.cancel(old);
                        q.push_keyed_cancellable(at, k, 4)
                    });
                }
            }
        }
        assert!(far_future >= 3, "stream holds live far-future deadlines");
        let dead = wheel.total_cancelled() as f64
            / (wheel.total_pushed() + wheel.total_cancelled()) as f64;
        assert!(
            (0.05..0.07).contains(&dead),
            "dead fraction {dead:.3} is no longer simulator-like"
        );
        // Drain: the far-future deadlines cascade down through the levels.
        while on_both(&mut wheel, &mut heap, step).is_some() {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The differential harness: drive the wheel and the reference heap
        // with an identical random workload of pushes, cancellable pushes,
        // cancels, pops, and peeks; every observable must match exactly.
        #[test]
        fn wheel_matches_reference_heap(
            ops in proptest::collection::vec((0u64..6, any::<u64>()), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = EventQueue::new_reference_heap();
            let mut tokens: Vec<u64> = Vec::new();
            let mut idx = 0u64;
            for (op, raw) in ops {
                idx += 1;
                match op {
                    // Pushes twice as likely as the other operations so the
                    // queues actually fill up.
                    0 | 1 => {
                        let t = SimTime::from_nanos(shape_time(raw));
                        wheel.push(t, idx);
                        heap.push(t, idx);
                    }
                    2 => {
                        let t = SimTime::from_nanos(shape_time(raw));
                        let a = wheel.push_cancellable(t, idx);
                        let b = heap.push_cancellable(t, idx);
                        prop_assert_eq!(a, b, "token allocation diverged");
                        tokens.push(a);
                    }
                    3 => {
                        if !tokens.is_empty() {
                            let tok = tokens[raw as usize % tokens.len()];
                            prop_assert_eq!(wheel.cancel(tok), heap.cancel(tok));
                        }
                    }
                    4 => {
                        let a = wheel.pop().map(|e| (e.time, e.seq, e.event));
                        let b = heap.pop().map(|e| (e.time, e.seq, e.event));
                        prop_assert_eq!(a, b, "pop diverged");
                    }
                    _ => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.total_pushed(), heap.total_pushed());
                prop_assert_eq!(wheel.total_cancelled(), heap.total_cancelled());
            }
            // Drain both queues; pop order must be identical to the end.
            loop {
                let a = wheel.pop().map(|e| (e.time, e.seq, e.event));
                let b = heap.pop().map(|e| (e.time, e.seq, e.event));
                prop_assert_eq!(&a, &b, "drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }

        // Monotonic-time workload (the simulator's actual pattern): pops
        // interleaved with pushes at or after the current front.
        #[test]
        fn wheel_matches_heap_monotonic(
            ops in proptest::collection::vec((0u64..3, 0u64..10_000), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = EventQueue::new_reference_heap();
            let mut now = 0u64;
            let mut idx = 0u64;
            for (op, dt) in ops {
                idx += 1;
                match op {
                    0 | 1 => {
                        let t = SimTime::from_nanos(now + dt);
                        wheel.push(t, idx);
                        heap.push(t, idx);
                    }
                    _ => {
                        let a = wheel.pop().map(|e| (e.time, e.seq, e.event));
                        let b = heap.pop().map(|e| (e.time, e.seq, e.event));
                        prop_assert_eq!(&a, &b);
                        if let Some((t, _, _)) = a {
                            now = t.as_nanos();
                        }
                    }
                }
            }
            loop {
                let a = wheel.pop().map(|e| (e.time, e.seq, e.event));
                let b = heap.pop().map(|e| (e.time, e.seq, e.event));
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
