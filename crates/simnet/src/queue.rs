//! The scheduler event queue: the sharded **timer wheel**.
//!
//! The simulator's event loop is a total order over `(time, seq)` keys —
//! `seq` is assigned monotonically at push, so the pop order is a pure
//! function of those keys and record/replay stays bit-exact regardless of
//! which [`EventQueue`] implementation produced it.
//!
//! [`TimerWheel`] is the production engine. Near-future events (the
//! common case: message delays and wrapper timeouts are a handful of
//! ticks) land in one of 4096 time-sharded slots indexed by
//! `time mod 4096`; each slot is an intrusive list through a pooled node
//! arena, staged into a reusable bucket sorted by `seq` once, when its
//! tick is *opened*, and then drained as a batch. Far-future events
//! (≥ 4096 ticks out) overflow into an indexed min-heap and migrate into
//! the wheel as the horizon advances. Push is O(1) for in-window events;
//! pop is amortized O(1) plus a 64-word bitmap scan to find the next
//! occupied slot. Its oracle, one global min-heap over all `(time, seq)`
//! keys, is `graybox_oracles::queue::HeapQueue`; the randomized twin
//! suite `tests/queue_twin.rs` pops both in lockstep.
//!
//! Events are stored as [`PackedEvent`]s (12 bytes of POD); variable-size
//! client payloads live in a slab owned by the simulation, so a queue
//! entry is always `Copy` and bucket sorting never moves heap data.

use std::fmt;

/// Number of slots in the wheel's bounded horizon (one virtual tick per
/// slot). Must be a power of two and a multiple of 64.
const SLOTS: usize = 4096;
const SLOTS_U64: u64 = SLOTS as u64;
const SLOT_MASK: u64 = SLOTS_U64 - 1;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;

fn slot_of(time: u64) -> usize {
    usize::try_from(time & SLOT_MASK).expect("slot index fits usize")
}

/// Discriminant of a [`PackedEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvTag {
    /// Deliver the head envelope of the channel at arena index `a`.
    Deliver,
    /// Fire timer tag `b` on process `a`.
    Timer,
    /// Dispatch the client payload in slab slot `b` to process `a`.
    Client,
    /// Run `on_start` of process `a`.
    Start,
}

/// A scheduler event packed into 12 bytes of plain data.
///
/// Deliveries carry the channel's arena index, timers the `(pid, tag)`
/// pair, client events the `(pid, payload-slab-slot)` pair;
/// the payloads themselves never enter the queue, so entries stay `Copy`
/// and a million pending events cost ~32 MB instead of owning a million
/// heap allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedEvent {
    pub(crate) tag: EvTag,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl PackedEvent {
    /// `chan` is the sender-resolved [`ChannelStore`] arena index, so
    /// delivery pops the FIFO head without a hash lookup.
    ///
    /// [`ChannelStore`]: crate::chanmap
    pub(crate) fn deliver(chan: u32) -> Self {
        PackedEvent {
            tag: EvTag::Deliver,
            a: chan,
            b: 0,
        }
    }

    /// A timer event for process `pid` with timer tag `tag`. Public so
    /// external harnesses (the workspace bench) can drive the queues
    /// directly through [`EventQueue`]; the simulation constructs these
    /// itself.
    pub fn timer(pid: u32, tag: u32) -> Self {
        PackedEvent {
            tag: EvTag::Timer,
            a: pid,
            b: tag,
        }
    }

    pub(crate) fn client(pid: u32, slot: u32) -> Self {
        PackedEvent {
            tag: EvTag::Client,
            a: pid,
            b: slot,
        }
    }

    pub(crate) fn start(pid: u32) -> Self {
        PackedEvent {
            tag: EvTag::Start,
            a: pid,
            b: 0,
        }
    }
}

/// The scheduler-queue interface of [`crate::Simulation`].
///
/// # Contract
///
/// `seq` values must be strictly increasing across `push` calls (the
/// simulation assigns them from a monotonic counter). [`TimerWheel`]
/// relies on this to keep an already-sorted open bucket sorted when new
/// same-tick events are appended mid-drain; a plain heap does not need
/// it. Pops return the pending entry with the smallest `(time, seq)` key.
pub trait EventQueue: fmt::Debug + Default {
    /// Enqueues `event` at `(time, seq)`.
    fn push(&mut self, time: u64, seq: u64, event: PackedEvent);
    /// Removes and returns the entry with the smallest `(time, seq)`.
    fn pop(&mut self) -> Option<(u64, u64, PackedEvent)>;
    /// Like [`EventQueue::pop`], but leaves the queue untouched (and
    /// returns `None`) when the earliest pending time is after `limit`.
    /// The bounded event loops use this instead of a peek-then-pop pair;
    /// [`TimerWheel`] overrides it to do a single slot scan per event.
    fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u64, PackedEvent)> {
        match self.peek_time() {
            Some(time) if time <= limit => self.pop(),
            _ => None,
        }
    }
    /// Time of the entry the next [`EventQueue::pop`] would return.
    fn peek_time(&self) -> Option<u64>;
    /// Number of pending entries.
    fn len(&self) -> usize;
    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    event: PackedEvent,
}

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A hand-rolled binary min-heap over `(time, seq)` keys — the overdue
/// and overflow levels of the wheel.
#[derive(Debug, Default)]
struct MinHeap {
    items: Vec<Entry>,
}

impl MinHeap {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn peek(&self) -> Option<&Entry> {
        self.items.first()
    }

    fn push(&mut self, entry: Entry) {
        self.items.push(entry);
        let mut child = self.items.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if self.items[parent].key() <= self.items[child].key() {
                break;
            }
            self.items.swap(parent, child);
            child = parent;
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.items.is_empty() {
            return None;
        }
        let top = self.items.swap_remove(0);
        let len = self.items.len();
        let mut parent = 0;
        loop {
            let left = 2 * parent + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let smaller = if right < len && self.items[right].key() < self.items[left].key() {
                right
            } else {
                left
            };
            if self.items[parent].key() <= self.items[smaller].key() {
                break;
            }
            self.items.swap(parent, smaller);
            parent = smaller;
        }
        Some(top)
    }
}

#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    seq: u64,
    event: PackedEvent,
}

/// One pending entry in the wheel's node pool. `next` links the entries
/// of a slot (in push order) — or the free list once recycled.
#[derive(Debug, Clone, Copy)]
struct WheelNode {
    seq: u64,
    event: PackedEvent,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// The production scheduler: a 4096-slot timer wheel with an overdue
/// min-heap below the horizon and an overflow min-heap above it.
///
/// # Structure
///
/// The wheel covers the bounded horizon `[wheel_time, wheel_time + 4096)`
/// where `wheel_time` is the time of the slot currently (or most
/// recently) being drained. Each slot is an intrusive linked list
/// through a shared node pool (no per-slot allocations — a fresh wheel
/// costs three flat arrays, and slot churn never touches the allocator);
/// a 4096-bit occupancy bitmap finds the next non-empty slot with a
/// rotated 64-word scan. The slot being drained is staged into a single
/// reusable `open_bucket`, sorted by `seq` once per tick.
///
/// * Pushes inside the horizon append to their slot list: O(1).
/// * Pushes at or beyond the horizon go to the **overflow** min-heap and
///   migrate into the wheel before any later slot is opened.
/// * Pushes *behind* `wheel_time` (client events scheduled in the past)
///   go to the **overdue** min-heap, which always pops first — its times
///   are strictly below every other pending time.
///
/// # Determinism
///
/// Pop order must equal the global `(time, seq)` order exactly. Within a
/// slot this is `seq` order, which batched delivery preserves by sorting
/// the bucket **once, at open time** — after that, the only inserts a
/// bucket can receive mid-drain come from `push` with fresh (strictly
/// larger) `seq` values, which append in order. Overflow migration runs
/// only while no slot is open, so a migrated entry can never slide into
/// a bucket whose prefix was already drained. The twin suite
/// `tests/queue_twin.rs` checks the wheel against the oracle heap
/// scheduler on randomized workloads including past-time pushes,
/// same-tick bursts, and multi-lap far timers.
pub struct TimerWheel {
    head: Vec<u32>,
    tail: Vec<u32>,
    pool: Vec<WheelNode>,
    free: u32,
    occupied: Vec<u64>,
    wheel_time: u64,
    /// The slot currently being drained, staged in `seq` order. The slot
    /// is "open" while `open_pos < open_bucket.len()`.
    open_bucket: Vec<SlotEntry>,
    open_pos: usize,
    overdue: MinHeap,
    overflow: MinHeap,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            head: vec![NIL; SLOTS],
            tail: vec![NIL; SLOTS],
            pool: Vec::new(),
            free: NIL,
            occupied: vec![0; WORDS],
            wheel_time: 0,
            open_bucket: Vec::new(),
            open_pos: 0,
            overdue: MinHeap::default(),
            overflow: MinHeap::default(),
            len: 0,
        }
    }
}

impl fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("wheel_time", &self.wheel_time)
            .field("open", &(self.open_bucket.len() - self.open_pos))
            .field("overdue", &self.overdue.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl TimerWheel {
    fn is_open(&self) -> bool {
        self.open_pos < self.open_bucket.len()
    }

    fn insert_slot(&mut self, time: u64, seq: u64, event: PackedEvent) {
        if time == self.wheel_time && self.is_open() {
            // Same-tick push while that tick is being drained: `seq` is
            // strictly larger than everything staged, so appending keeps
            // the bucket sorted.
            self.open_bucket.push(SlotEntry { seq, event });
            return;
        }
        let node = if self.free == NIL {
            let index = u32::try_from(self.pool.len()).expect("pool fits u32 indices");
            self.pool.push(WheelNode {
                seq,
                event,
                next: NIL,
            });
            index
        } else {
            let index = self.free;
            let slot = &mut self.pool[index as usize];
            self.free = slot.next;
            *slot = WheelNode {
                seq,
                event,
                next: NIL,
            };
            index
        };
        let slot = slot_of(time);
        if self.tail[slot] == NIL {
            self.head[slot] = node;
        } else {
            self.pool[self.tail[slot] as usize].next = node;
        }
        self.tail[slot] = node;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Unlinks `slot`'s list into `open_bucket` (recycling the nodes),
    /// sorts it by `seq`, and marks the slot drained.
    fn open_slot(&mut self, slot: usize) {
        debug_assert!(!self.is_open());
        self.open_bucket.clear();
        self.open_pos = 0;
        let mut cur = self.head[slot];
        self.head[slot] = NIL;
        self.tail[slot] = NIL;
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        while cur != NIL {
            let node = self.pool[cur as usize];
            self.open_bucket.push(SlotEntry {
                seq: node.seq,
                event: node.event,
            });
            self.pool[cur as usize].next = self.free;
            self.free = cur;
            cur = node.next;
        }
        self.open_bucket.sort_unstable_by_key(|entry| entry.seq);
    }

    /// Pulls every overflow entry that now falls inside the horizon into
    /// its wheel slot. Only called while no slot is open.
    fn migrate_overflow(&mut self) {
        while let Some(far) = self.overflow.peek() {
            debug_assert!(far.time >= self.wheel_time);
            if far.time - self.wheel_time >= SLOTS_U64 {
                break;
            }
            let far = self.overflow.pop().expect("peeked entry");
            self.insert_slot(far.time, far.seq, far.event);
        }
    }

    /// Cyclic distance from the `wheel_time` slot to the nearest occupied
    /// slot (0 when the current slot itself is occupied).
    fn next_occupied_distance(&self) -> Option<u64> {
        let start = slot_of(self.wheel_time);
        let start_word = start / 64;
        let start_bit = start % 64;
        let first = self.occupied[start_word] >> start_bit;
        if first != 0 {
            return Some(u64::from(first.trailing_zeros()));
        }
        for step in 1..=WORDS {
            let word_index = (start_word + step) % WORDS;
            let mut word = self.occupied[word_index];
            if step == WORDS {
                // Wrapped around to the start word: only the bits below
                // `start_bit` are new.
                word &= (1u64 << start_bit) - 1;
            }
            if word != 0 {
                let dist = step * 64 + usize::try_from(word.trailing_zeros()).expect("tz < 64")
                    - start_bit;
                return Some(u64::try_from(dist).expect("slot distance fits u64"));
            }
        }
        None
    }

    /// Takes the next entry from the open bucket, closing it when drained.
    fn take_open(&mut self) -> (u64, u64, PackedEvent) {
        debug_assert!(self.is_open());
        let entry = self.open_bucket[self.open_pos];
        self.open_pos += 1;
        if self.open_pos == self.open_bucket.len() {
            self.open_bucket.clear();
            self.open_pos = 0;
        }
        self.len -= 1;
        (self.wheel_time, entry.seq, entry.event)
    }
}

impl EventQueue for TimerWheel {
    fn push(&mut self, time: u64, seq: u64, event: PackedEvent) {
        self.len += 1;
        if time < self.wheel_time {
            self.overdue.push(Entry { time, seq, event });
        } else if time - self.wheel_time < SLOTS_U64 {
            self.insert_slot(time, seq, event);
        } else {
            self.overflow.push(Entry { time, seq, event });
        }
    }

    fn pop(&mut self) -> Option<(u64, u64, PackedEvent)> {
        self.pop_at_or_before(u64::MAX)
    }

    fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u64, PackedEvent)> {
        // Overdue entries are strictly earlier than everything else.
        if let Some(entry) = self.overdue.peek() {
            if entry.time > limit {
                return None;
            }
            let entry = self.overdue.pop().expect("peeked entry");
            self.len -= 1;
            return Some((entry.time, entry.seq, entry.event));
        }
        if self.is_open() {
            // The open bucket is at `wheel_time`; overflow was migrated
            // before it opened, so nothing pending is earlier.
            if self.wheel_time > limit {
                return None;
            }
            return Some(self.take_open());
        }
        if self.len == 0 {
            return None;
        }
        loop {
            self.migrate_overflow();
            if let Some(distance) = self.next_occupied_distance() {
                let next = self.wheel_time + distance;
                if next > limit {
                    return None;
                }
                self.wheel_time = next;
                let slot = slot_of(self.wheel_time);
                let head = self.head[slot];
                if self.pool[head as usize].next == NIL {
                    // Single-entry slot — the common case under sparse
                    // load: take the node directly, no staging or sort.
                    let node = self.pool[head as usize];
                    self.head[slot] = NIL;
                    self.tail[slot] = NIL;
                    self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                    self.pool[head as usize].next = self.free;
                    self.free = head;
                    self.len -= 1;
                    return Some((next, node.seq, node.event));
                }
                self.open_slot(slot);
                return Some(self.take_open());
            }
            // Wheel empty: jump the horizon to the earliest far timer and
            // migrate on the next loop iteration.
            let far = self
                .overflow
                .peek()
                .expect("len > 0 with empty wheel, overdue, and overflow");
            if far.time > limit {
                return None;
            }
            self.wheel_time = far.time;
        }
    }

    fn peek_time(&self) -> Option<u64> {
        // Fast paths: overdue entries are strictly earliest; an open
        // bucket sits exactly at `wheel_time` and nothing pending is
        // earlier (overflow migrated before it opened, past-time pushes
        // land in overdue).
        if let Some(entry) = self.overdue.peek() {
            return Some(entry.time);
        }
        if self.is_open() {
            return Some(self.wheel_time);
        }
        let mut best: Option<u64> = None;
        let mut consider = |time: u64| {
            best = Some(best.map_or(time, |b| b.min(time)));
        };
        if let Some(distance) = self.next_occupied_distance() {
            consider(self.wheel_time + distance);
        }
        if let Some(far) = self.overflow.peek() {
            consider(far.time);
        }
        best
    }

    fn len(&self) -> usize {
        self.len
    }
}
