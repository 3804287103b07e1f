//! Sparse channel storage: active `(from, to)` pairs only, with a slab
//! arena for in-flight envelopes.
//!
//! The original simulator allocated a dense n × n matrix of queues —
//! O(n²) memory even when every channel is empty, which at n = 10⁶
//! processes is a non-starter. `ChannelStore` keeps per-pair state in a
//! hash map keyed by the packed `(from << 32) | to` pair and threads each
//! channel's in-flight envelopes through a single slab `Vec` as an
//! intrusive singly-linked FIFO list, so an idle channel costs zero bytes
//! and an active one costs one map entry plus its envelopes.
//!
//! # Determinism
//!
//! The hash map is *never iterated* — every lookup is by exact key, so
//! the map's bucket order cannot leak into execution order. Enumeration
//! (fault injectors picking "some non-empty channel") walks the channel
//! arena — whose order is the (deterministic) first-use order — and
//! sorts the live pairs into ascending `(from, to)` order, the same
//! order the old dense-matrix scan produced. The hasher itself is a
//! fixed multiply-xor permutation with no per-process random state.
//!
//! # Hot path
//!
//! The map is consulted **once per message**, at send time: the sender
//! resolves its `(from, to)` pair to a stable arena index with
//! `ChannelStore::index_for` and the delivery event carries that index,
//! so delivery pops the FIFO head by direct indexing. Empty channels keep
//! their arena slot (indexes must stay stable once an event references
//! them), which costs a few dozen bytes per *ever-active* pair — still
//! O(active pairs), not O(n²).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use graybox_clock::ProcessId;

use crate::{Envelope, SimTime};

const NIL: u32 = u32::MAX;

/// Fixed (seedless) 64-bit mix hasher for packed channel keys. The map
/// it backs is lookup-only, so hash quality affects speed, not behavior.
#[derive(Debug, Default, Clone)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        // splitmix64-style finalizer: full 64-bit permutation.
        let mut h = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = h ^ (h >> 31);
    }
}

#[derive(Debug, Default, Clone)]
pub(crate) struct BuildPairHasher;

impl BuildHasher for BuildPairHasher {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher::default()
    }
}

fn key(from: ProcessId, to: ProcessId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}

fn unkey(key: u64) -> (ProcessId, ProcessId) {
    (
        ProcessId(u32::try_from(key >> 32).expect("upper half fits u32")),
        ProcessId(u32::try_from(key & 0xffff_ffff).expect("lower half fits u32")),
    )
}

/// Per-pair channel state: an intrusive FIFO list into the envelope slab
/// plus the FIFO delivery-time watermark.
#[derive(Debug, Clone, Copy)]
struct ChanState {
    key: u64,
    head: u32,
    tail: u32,
    len: u32,
    last_scheduled: SimTime,
}

impl ChanState {
    fn empty(key: u64) -> Self {
        ChanState {
            key,
            head: NIL,
            tail: NIL,
            len: 0,
            last_scheduled: SimTime::ZERO,
        }
    }
}

/// Slots in the direct-mapped cache in front of the pair map. Pair keys
/// are immutable once assigned an arena index, so cached entries never
/// go stale; a miss costs one extra probe before the map lookup.
const CACHE_SLOTS: usize = 64;

fn cache_slot(key: u64) -> usize {
    usize::try_from(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58).expect("6-bit cache slot")
}

/// Sparse storage for every channel of a simulation.
///
/// In-flight envelopes live in the `slab`/`links` pair of parallel
/// arrays: `slab[i]` holds the envelope (`None` when slot `i` is free),
/// `links[i]` the next slot of the same channel's FIFO — or of the free
/// list. Keeping the links out of the envelope array makes the per-hop
/// list walk a raw `u32` load and spares alloc/release from moving a
/// tagged struct.
#[derive(Debug)]
pub(crate) struct ChannelStore<M> {
    map: HashMap<u64, u32, BuildPairHasher>,
    cache: Vec<(u64, u32)>,
    chans: Vec<ChanState>,
    slab: Vec<Option<Envelope<M>>>,
    links: Vec<u32>,
    free_head: u32,
    in_flight: usize,
}

impl<M> Default for ChannelStore<M> {
    fn default() -> Self {
        ChannelStore {
            map: HashMap::with_hasher(BuildPairHasher),
            // u64::MAX never collides with a real key: it would need
            // from = to = u32::MAX, beyond any constructible process set.
            cache: vec![(u64::MAX, 0); CACHE_SLOTS],
            chans: Vec::new(),
            slab: Vec::new(),
            links: Vec::new(),
            free_head: NIL,
            in_flight: 0,
        }
    }
}

impl<M> ChannelStore<M> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Messages in flight across all channels.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Non-empty channels in ascending `(from, to)` order, with their
    /// queue lengths — the enumeration order of the old dense matrix.
    /// O(ever-active pairs) per call (an arena walk plus a sort of the
    /// live subset); the hot send/deliver paths pay nothing for it.
    pub(crate) fn nonempty(&self) -> impl Iterator<Item = (ProcessId, ProcessId, usize)> + '_ {
        let mut live: Vec<(u64, u32)> = self
            .chans
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| (s.key, s.len))
            .collect();
        live.sort_unstable_by_key(|&(k, _)| k);
        live.into_iter().map(|(k, len)| {
            let (from, to) = unkey(k);
            (from, to, usize::try_from(len).expect("len fits usize"))
        })
    }

    /// Stable arena index for channel `from → to`, allocating its slot on
    /// first use. This is the only hash-map touch on the message hot
    /// path; everything downstream (watermark, push, the delivery pop)
    /// indexes the arena directly.
    pub(crate) fn index_for(&mut self, from: ProcessId, to: ProcessId) -> u32 {
        let k = key(from, to);
        let slot = cache_slot(k);
        let (cached_key, cached_index) = self.cache[slot];
        if cached_key == k {
            return cached_index;
        }
        let index = match self.map.entry(k) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let index = u32::try_from(self.chans.len()).expect("channel count fits u32");
                self.chans.push(ChanState::empty(k));
                *e.insert(index)
            }
        };
        self.cache[slot] = (k, index);
        index
    }

    /// Arena index of channel `from → to`, if it was ever used.
    fn lookup(&self, from: ProcessId, to: ProcessId) -> Option<u32> {
        self.map.get(&key(from, to)).copied()
    }

    /// The `(from, to)` pair of an arena channel.
    pub(crate) fn pair_at(&self, chan: u32) -> (ProcessId, ProcessId) {
        unkey(self.chans[chan as usize].key)
    }

    /// FIFO delivery-time watermark: at least `proposed`, never earlier
    /// than a previously scheduled delivery on the same channel.
    pub(crate) fn schedule_at(&mut self, chan: u32, proposed: SimTime) -> SimTime {
        let state = &mut self.chans[chan as usize];
        let time = proposed.max(state.last_scheduled);
        state.last_scheduled = time;
        time
    }

    fn alloc(&mut self, env: Envelope<M>) -> u32 {
        if self.free_head == NIL {
            let index = u32::try_from(self.slab.len()).expect("slab fits u32 indices");
            self.slab.push(Some(env));
            self.links.push(NIL);
            index
        } else {
            let index = self.free_head;
            self.free_head = self.links[index as usize];
            self.slab[index as usize] = Some(env);
            self.links[index as usize] = NIL;
            index
        }
    }

    fn release(&mut self, index: u32) -> Envelope<M> {
        let env = self.slab[index as usize]
            .take()
            .expect("released an occupied slot");
        self.links[index as usize] = self.free_head;
        self.free_head = index;
        env
    }

    fn next_of(&self, index: u32) -> u32 {
        self.links[index as usize]
    }

    fn set_next(&mut self, index: u32, next: u32) {
        self.links[index as usize] = next;
    }

    /// Slab index of the `index`-th message of the channel, if it exists.
    fn locate_at(&self, chan: u32, index: usize) -> Option<(u32, u32)> {
        let state = &self.chans[chan as usize];
        if index >= usize::try_from(state.len).expect("len fits usize") {
            return None;
        }
        let mut prev = NIL;
        let mut cur = state.head;
        for _ in 0..index {
            prev = cur;
            cur = self.next_of(cur);
        }
        Some((prev, cur))
    }

    fn locate(&self, from: ProcessId, to: ProcessId, index: usize) -> Option<(u32, u32)> {
        self.locate_at(self.lookup(from, to)?, index)
    }

    pub(crate) fn push_back_at(&mut self, chan: u32, env: Envelope<M>) {
        let index = self.alloc(env);
        let state = &mut self.chans[chan as usize];
        if state.len == 0 {
            state.head = index;
            state.tail = index;
            state.len = 1;
        } else {
            let tail = state.tail;
            state.tail = index;
            state.len += 1;
            self.set_next(tail, index);
        }
        self.in_flight += 1;
    }

    #[cfg(test)]
    pub(crate) fn push_back(&mut self, env: Envelope<M>) {
        let chan = self.index_for(env.from, env.to);
        self.push_back_at(chan, env);
    }

    pub(crate) fn pop_front_at(&mut self, chan: u32) -> Option<Envelope<M>> {
        let state = &mut self.chans[chan as usize];
        if state.len == 0 {
            return None;
        }
        let cur = state.head;
        let next = self.next_of(cur);
        let state = &mut self.chans[chan as usize];
        state.head = next;
        state.len -= 1;
        if next == NIL {
            state.tail = NIL;
        }
        self.in_flight -= 1;
        Some(self.release(cur))
    }

    #[cfg(test)]
    pub(crate) fn pop_front(&mut self, from: ProcessId, to: ProcessId) -> Option<Envelope<M>> {
        self.remove(from, to, 0)
    }

    /// Removes and returns the `index`-th message (an O(index) walk).
    pub(crate) fn remove_at(&mut self, chan: u32, index: usize) -> Option<Envelope<M>> {
        let (prev, cur) = self.locate_at(chan, index)?;
        let next = self.next_of(cur);
        let state = &mut self.chans[chan as usize];
        if prev == NIL {
            state.head = next;
        }
        if next == NIL {
            state.tail = prev;
        }
        state.len -= 1;
        if prev != NIL {
            self.set_next(prev, next);
        }
        self.in_flight -= 1;
        Some(self.release(cur))
    }

    pub(crate) fn remove(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        index: usize,
    ) -> Option<Envelope<M>> {
        self.remove_at(self.lookup(from, to)?, index)
    }

    /// Queue length of an arena channel.
    pub(crate) fn len_at(&self, chan: u32) -> usize {
        usize::try_from(self.chans[chan as usize].len).expect("len fits usize")
    }

    pub(crate) fn len(&self, from: ProcessId, to: ProcessId) -> usize {
        self.lookup(from, to).map_or(0, |chan| self.len_at(chan))
    }

    pub(crate) fn get(&self, from: ProcessId, to: ProcessId, index: usize) -> Option<&Envelope<M>> {
        let (_, cur) = self.locate(from, to, index)?;
        self.slab[cur as usize].as_ref()
    }

    pub(crate) fn get_mut(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        index: usize,
    ) -> Option<&mut Envelope<M>> {
        let (_, cur) = self.locate(from, to, index)?;
        self.slab[cur as usize].as_mut()
    }

    /// Empties the channel, returning how many messages were lost.
    pub(crate) fn clear(&mut self, from: ProcessId, to: ProcessId) -> usize {
        let Some(chan) = self.lookup(from, to) else {
            return 0;
        };
        let state = &mut self.chans[chan as usize];
        let lost = usize::try_from(state.len).expect("len fits usize");
        let mut cur = state.head;
        state.head = NIL;
        state.tail = NIL;
        state.len = 0;
        while cur != NIL {
            let next = self.next_of(cur);
            let _ = self.release(cur);
            cur = next;
        }
        self.in_flight -= lost;
        lost
    }

    /// Swaps the payload positions of messages `i` and `j`. Returns false
    /// — and leaves the channel untouched — unless both exist and differ.
    pub(crate) fn swap(&mut self, from: ProcessId, to: ProcessId, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let Some(chan) = self.lookup(from, to) else {
            return false;
        };
        let Some((_, a)) = self.locate_at(chan, i) else {
            return false;
        };
        let Some((_, b)) = self.locate_at(chan, j) else {
            return false;
        };
        // The links stay put; swapping the envelope slots swaps the
        // messages' positions in the FIFO.
        self.slab.swap(a as usize, b as usize);
        true
    }
}

/// Read access to one channel of a [`crate::Simulation`].
#[derive(Debug)]
pub struct ChannelView<'a, M> {
    pub(crate) store: &'a ChannelStore<M>,
    pub(crate) from: ProcessId,
    pub(crate) to: ProcessId,
}

impl<'a, M> ChannelView<'a, M> {
    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.store.len(self.from, self.to)
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `index`-th in-flight message (0 = FIFO head).
    pub fn get(&self, index: usize) -> Option<&'a Envelope<M>> {
        self.store.get(self.from, self.to, index)
    }

    /// Messages currently in flight, head first.
    pub fn messages(&self) -> impl Iterator<Item = &'a Envelope<M>> + '_ {
        (0..self.len()).map_while(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(id: u64, from: u32, to: u32, payload: &str) -> Envelope<String> {
        Envelope {
            id,
            from: ProcessId(from),
            to: ProcessId(to),
            payload: payload.to_string(),
            sent_at: SimTime::ZERO,
        }
    }

    const A: ProcessId = ProcessId(0);
    const B: ProcessId = ProcessId(1);

    #[test]
    fn fifo_order_is_preserved() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 0, 1, "a"));
        store.push_back(env(2, 0, 1, "b"));
        assert_eq!(store.len(A, B), 2);
        assert_eq!(store.pop_front(A, B).unwrap().payload, "a");
        assert_eq!(store.pop_front(A, B).unwrap().payload, "b");
        assert!(store.pop_front(A, B).is_none());
        assert_eq!(store.in_flight(), 0);
    }

    #[test]
    fn schedule_is_monotone_per_channel() {
        let mut store: ChannelStore<String> = ChannelStore::new();
        let ab = store.index_for(A, B);
        assert_eq!(store.schedule_at(ab, SimTime::from(10)), SimTime::from(10));
        assert_eq!(store.schedule_at(ab, SimTime::from(5)), SimTime::from(10));
        assert_eq!(store.schedule_at(ab, SimTime::from(20)), SimTime::from(20));
        // An unrelated channel has its own watermark.
        let ba = store.index_for(B, A);
        assert_eq!(store.schedule_at(ba, SimTime::from(3)), SimTime::from(3));
        // Pair resolution is stable and invertible.
        assert_eq!(store.index_for(A, B), ab);
        assert_eq!(store.pair_at(ab), (A, B));
    }

    #[test]
    fn remove_targets_by_index_and_reuses_slots() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 0, 1, "a"));
        store.push_back(env(2, 0, 1, "b"));
        store.push_back(env(3, 0, 1, "c"));
        assert_eq!(store.remove(A, B, 1).unwrap().payload, "b");
        assert_eq!(store.remove(A, B, 5), None);
        // Freed slot is recycled by the next push.
        let before = store.slab.len();
        store.push_back(env(4, 0, 1, "d"));
        assert_eq!(store.slab.len(), before);
        let all: Vec<String> = (0..store.len(A, B))
            .map(|i| store.get(A, B, i).unwrap().payload.clone())
            .collect();
        assert_eq!(all, vec!["a", "c", "d"]);
    }

    #[test]
    fn clear_empties_only_that_channel() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 0, 1, "a"));
        store.push_back(env(2, 0, 1, "b"));
        store.push_back(env(3, 1, 0, "x"));
        assert_eq!(store.clear(A, B), 2);
        assert_eq!(store.clear(A, B), 0);
        assert_eq!(store.len(A, B), 0);
        assert_eq!(store.len(B, A), 1);
        assert_eq!(store.in_flight(), 1);
    }

    #[test]
    fn swap_reorders_in_place() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 0, 1, "a"));
        store.push_back(env(2, 0, 1, "b"));
        assert!(!store.swap(A, B, 0, 0));
        assert!(!store.swap(A, B, 0, 9));
        assert!(store.swap(A, B, 0, 1));
        assert_eq!(store.get(A, B, 0).unwrap().payload, "b");
        assert_eq!(store.get(A, B, 1).unwrap().payload, "a");
    }

    #[test]
    fn get_mut_allows_in_place_corruption() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 0, 1, "clean"));
        store.get_mut(A, B, 0).unwrap().payload = "garbage".to_string();
        assert_eq!(store.get(A, B, 0).unwrap().payload, "garbage");
    }

    #[test]
    fn nonempty_enumerates_in_pair_order() {
        let mut store = ChannelStore::new();
        store.push_back(env(1, 5, 0, "x"));
        store.push_back(env(2, 0, 7, "y"));
        store.push_back(env(3, 0, 2, "z"));
        store.push_back(env(4, 0, 2, "w"));
        let listed: Vec<(u32, u32, usize)> =
            store.nonempty().map(|(f, t, n)| (f.0, t.0, n)).collect();
        assert_eq!(listed, vec![(0, 2, 2), (0, 7, 1), (5, 0, 1)]);
        store.pop_front(ProcessId(0), ProcessId(7));
        assert_eq!(store.nonempty().count(), 2);
    }

    #[test]
    fn idle_channels_cost_no_slab_space() {
        let mut store: ChannelStore<String> = ChannelStore::new();
        // Scheduling watermarks alone (no messages) keep the slab empty
        // and the non-empty set empty.
        for i in 0..1000u32 {
            let chan = store.index_for(ProcessId(i), ProcessId(i + 1));
            store.schedule_at(chan, SimTime::from(5));
        }
        assert_eq!(store.slab.len(), 0);
        assert_eq!(store.nonempty().count(), 0);
        assert_eq!(store.in_flight(), 0);
    }
}
