//! Slab arena for tree nodes: cache-line-aligned slots in 2 MiB chunks,
//! epoch-friendly.
//!
//! One `Box` per insert puts every node at the allocator's mercy — nodes
//! that are adjacent in the tree end up scattered across the heap, and the
//! malloc/free pair shows up directly on the update path. The arena instead
//! hands out slots from chunks that are each one 2 MiB region, mapped from
//! the OS and aligned to its own size, giving four properties the hot paths
//! want:
//!
//! 1. **Spatial locality**: nodes allocated together sit in the same few
//!    pages, so tree descents touch fewer TLB entries and lookups of
//!    recently-inserted keys hit warmer lines.
//! 2. **Huge pages for large trees**: a chunk mapped while the arena
//!    already holds another is advised `MADV_HUGEPAGE`, so a tree past one
//!    chunk (16,384 `Node<u64, u64>`s) keeps its nodes on 2 MiB pages and a
//!    descent below the cached top levels stops missing the TLB at every
//!    step. A tree's first chunk is not advised: never-used slots are
//!    handed out in address order, so a small tree touches only the 4 KiB
//!    pages it fills. The advice is a hint; where the host's transparent
//!    huge pages are off, chunks stay on 4 KiB pages.
//! 3. **O(1) slot recycling**: a freed slot goes on its chunk's free stack
//!    and is handed out LIFO — the next insert reuses memory that is very
//!    likely still in cache.
//! 4. **Cheap pointer→chunk resolution**: a chunk's base address is aligned
//!    to `CHUNK_BYTES` (a power of two), so masking a slot address with
//!    `!(CHUNK_BYTES − 1)` yields the chunk base, which indexes a small
//!    side table. No per-slot headers — slots stay exactly `SLOT_SIZE`.
//!
//! # Lifetimes under epoch reclamation
//!
//! The arena **never unmaps a chunk that still contains a live slot**, and
//! a slot is only recycled through [`Arena::retire`], which the tree
//! invokes via `Guard::defer_unchecked` — i.e. strictly *after* the grace
//! period in which some lock-free reader might still dereference the node.
//! The safety argument for readers is therefore the same as for a `Box`
//! freed through `Guard::defer_destroy`:
//!
//! * a pointer loaded under a guard stays valid until the guard drops,
//!   because neither `drop_in_place` (part of `retire`) nor unmapping the
//!   chunk can run before the epoch advances past every such guard;
//! * recycling a slot *within* a chunk re-initializes it fully before the
//!   new node is published, so a reader can never observe a half-built node
//!   (publication is the same `Release` store as before).
//!
//! An empty chunk is not unmapped immediately: one empty chunk is kept as
//! hysteresis so a workload oscillating around a chunk boundary does not
//! map and unmap a 2 MiB region on every crossing (the same reasoning as
//! `COLLECT_EVERY` batching in `lo-reclaim`).
//!
//! Every tree allocates its nodes from a per-tree [`Arena`]. `Box`-per-node
//! allocation loses to it on every gated storebench metric; on scan-mixed
//! it needs about 65% more bytes per key (DESIGN.md §12.3).

use crate::sync::Mutex;
use std::alloc::{handle_alloc_error, Layout};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::ptr::NonNull;

use lo_metrics::{record, Event};

/// One huge page on x86-64 and aarch64 (with 4 KiB base pages): the size
/// of every chunk whose slot fits in it.
const REGION_BYTES: usize = 2 << 20;

/// Empty chunks kept around instead of unmapped (hysteresis; see module
/// docs).
const KEEP_EMPTY: usize = 1;

/// One chunk: a region of `CHUNK_BYTES` plus its slot bookkeeping.
struct Chunk<T> {
    mem: NonNull<u8>,
    /// Slots below this index have been handed out at least once; the rest
    /// have never been touched, and are handed out in address order.
    bump: usize,
    /// Recycled slot indices, LIFO so recycled slots are reused while warm.
    free: Vec<u16>,
    /// One bit per slot, set while the slot holds a live value.
    live: Box<[u64]>,
    /// This chunk's position in `State::nonfull` (`usize::MAX` when full),
    /// maintained so removal is O(1) `swap_remove`.
    pos_in_nonfull: usize,
    _marker: PhantomData<T>,
}

impl<T> Chunk<T> {
    fn is_live(&self, slot: usize) -> bool {
        self.live[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn flip_live(&mut self, slot: usize) {
        self.live[slot / 64] ^= 1 << (slot % 64);
    }

    /// No slot is live: every slot handed out so far is back on `free`.
    fn is_empty(&self) -> bool {
        self.free.len() == self.bump
    }

    fn is_full(&self) -> bool {
        self.free.is_empty() && self.bump == Arena::<T>::SLOTS_PER_CHUNK
    }
}

struct State<T> {
    /// All chunks; `None` entries are reusable indices (see `vacant`).
    chunks: Vec<Option<Chunk<T>>>,
    /// Indices of `None` entries in `chunks`.
    vacant: Vec<usize>,
    /// Indices of chunks with at least one free slot.
    nonfull: Vec<usize>,
    /// Chunk base address → index in `chunks`. Keys are plain integers
    /// (never cast back to pointers), so provenance stays with `Chunk::mem`.
    by_base: HashMap<usize, usize>,
    /// Chunks whose slots are all free.
    empty_chunks: usize,
    /// Currently allocated (not yet retired) slots.
    live: usize,
}

/// A chunked slab allocator for values of type `T`. See module docs.
pub struct Arena<T> {
    state: Mutex<State<T>>,
}

/// SAFETY: the arena owns values of `T` and may drop them from whatever
/// thread calls `retire` (or drops the arena), so `T: Send` is required and
/// sufficient; all internal state is guarded by the mutex.
unsafe impl<T: Send> Send for Arena<T> {}
/// SAFETY: every method synchronizes through the internal mutex; handing a
/// `&Arena<T>` to another thread only enables the same `Send`-bounded moves
/// of `T` as above.
unsafe impl<T: Send> Sync for Arena<T> {}

impl<T> Arena<T> {
    /// Slots are at least cache-line aligned so a slot never straddles a
    /// line it doesn't own.
    const SLOT_ALIGN: usize = {
        if align_of::<T>() > 64 {
            align_of::<T>()
        } else {
            64
        }
    };
    /// Slot stride: the value size rounded up to the slot alignment.
    const SLOT_SIZE: usize = {
        assert!(size_of::<T>() > 0, "arena does not support zero-sized types");
        size_of::<T>().div_ceil(Self::SLOT_ALIGN) * Self::SLOT_ALIGN
    };
    /// Chunk size and alignment: one 2 MiB region, or the slot rounded up
    /// to a power of two for a slot that does not fit one.
    const CHUNK_BYTES: usize = {
        let fit = Self::SLOT_SIZE.next_power_of_two();
        if fit > REGION_BYTES {
            fit
        } else {
            REGION_BYTES
        }
    };
    /// Slots per chunk: 16,384 for `Node<u64, u64>`, and at most 32,768
    /// (`SLOT_SIZE ≥ 64`), so a slot index fits the free stack's `u16`.
    pub(crate) const SLOTS_PER_CHUNK: usize = {
        let n = Self::CHUNK_BYTES / Self::SLOT_SIZE;
        assert!(n <= 1 << 15, "slot indices must fit u16");
        n
    };

    /// Creates an empty arena (no chunks until the first allocation).
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                chunks: Vec::new(),
                vacant: Vec::new(),
                nonfull: Vec::new(),
                by_base: HashMap::new(),
                empty_chunks: 0,
                live: 0,
            }),
        }
    }

    /// Allocates a slot and moves `value` into it. The returned pointer is
    /// stable until [`Arena::retire`] is called on it (or the arena drops).
    /// Aborts via [`handle_alloc_error`] if the OS refuses a fresh chunk;
    /// use [`Arena::try_alloc`] for the graceful-failure path.
    pub fn alloc(&self, value: T) -> NonNull<T> {
        match self.try_alloc(value) {
            Some(slot) => slot,
            None => handle_alloc_error(
                Layout::from_size_align(Self::CHUNK_BYTES, Self::CHUNK_BYTES)
                    .expect("a power-of-two chunk is a valid layout"),
            ),
        }
    }

    /// Fallible [`Arena::alloc`]: returns `None` (with `value` dropped)
    /// when no slot is free and the OS refuses a fresh chunk. The arena
    /// stays fully usable; a later call may succeed.
    pub fn try_alloc(&self, value: T) -> Option<NonNull<T>> {
        let slot = self.try_take_slot()?;
        // SAFETY: [inv:arena-slot] `try_take_slot` returns an exclusive, properly
        // aligned, uninitialized slot of size ≥ size_of::<T>().
        unsafe { slot.as_ptr().write(value) };
        Some(slot)
    }

    /// Drops the value in `ptr`'s slot and recycles the slot.
    ///
    /// # Safety
    /// `ptr` must have come from [`Arena::alloc`] on this arena, must not
    /// have been retired already, and no other thread may access the value
    /// concurrently or afterwards (in the tree this is guaranteed by epoch
    /// deferral: retire runs only after the grace period).
    pub unsafe fn retire(&self, ptr: NonNull<T>) {
        // SAFETY: [inv:arena-slot] per this function's contract the slot holds a
        // live value with no remaining aliases.
        unsafe { std::ptr::drop_in_place(ptr.as_ptr()) };
        self.recycle(ptr);
    }

    /// Number of live (allocated, not retired) slots.
    pub fn live(&self) -> usize {
        self.state.lock().live
    }

    /// Number of chunks currently mapped from the OS.
    pub fn chunks(&self) -> usize {
        let st = self.state.lock();
        st.chunks.len() - st.vacant.len()
    }

    fn try_take_slot(&self) -> Option<NonNull<T>> {
        let mut st = self.state.lock();
        if st.nonfull.is_empty() && !Self::try_grow(&mut st) {
            return None;
        }
        let ci = *st.nonfull.last().expect("grow guarantees a nonfull chunk");
        let (slot_ptr, became_full, was_empty) = {
            let chunk = st.chunks[ci].as_mut().expect("nonfull index is live");
            let was_empty = chunk.is_empty();
            let slot = match chunk.free.pop() {
                Some(slot) => slot as usize,
                None => {
                    chunk.bump += 1;
                    chunk.bump - 1
                }
            };
            debug_assert!(!chunk.is_live(slot), "arena slot handed out twice");
            chunk.flip_live(slot);
            let became_full = chunk.is_full();
            if became_full {
                chunk.pos_in_nonfull = usize::MAX;
            }
            // SAFETY: [inv:arena-slot] `slot < SLOTS_PER_CHUNK`, so the offset stays
            // inside the chunk; the resulting pointer inherits `mem`'s provenance.
            let p = unsafe { chunk.mem.as_ptr().add(slot * Self::SLOT_SIZE) };
            (p.cast::<T>(), became_full, was_empty)
        };
        if was_empty {
            st.empty_chunks -= 1;
        }
        if became_full {
            // The chunk we allocated from is always the *last* nonfull entry.
            st.nonfull.pop();
        }
        st.live += 1;
        Some(NonNull::new(slot_ptr).expect("chunk memory is non-null"))
    }

    /// Maps one chunk from the OS; `false` if the OS refused.
    fn try_grow(st: &mut State<T>) -> bool {
        let huge = st.chunks.len() > st.vacant.len();
        let Some(mem) = region::map(Self::CHUNK_BYTES, huge) else { return false };
        let ci = match st.vacant.pop() {
            Some(i) => i,
            None => {
                st.chunks.push(None);
                st.chunks.len() - 1
            }
        };
        st.by_base.insert(mem.as_ptr().addr(), ci);
        let chunk = Chunk {
            mem,
            bump: 0,
            free: Vec::new(),
            live: vec![0; Self::SLOTS_PER_CHUNK.div_ceil(64)].into_boxed_slice(),
            pos_in_nonfull: st.nonfull.len(),
            _marker: PhantomData,
        };
        st.nonfull.push(ci);
        st.chunks[ci] = Some(chunk);
        st.empty_chunks += 1;
        record(Event::ArenaChunkAlloc);
        true
    }

    fn recycle(&self, ptr: NonNull<T>) {
        let addr = ptr.as_ptr().addr();
        let base = addr & !(Self::CHUNK_BYTES - 1);
        let mut st = self.state.lock();
        let ci = *st.by_base.get(&base).expect("retired pointer does not belong to this arena");
        let (became_nonfull, now_empty) = {
            let chunk = st.chunks[ci].as_mut().expect("indexed chunk is live");
            let slot = (addr - base) / Self::SLOT_SIZE;
            debug_assert!(slot < chunk.bump, "slot index out of range");
            debug_assert!(chunk.is_live(slot), "double retire of arena slot");
            chunk.flip_live(slot);
            let became_nonfull = chunk.is_full();
            chunk.free.push(slot as u16);
            (became_nonfull, chunk.is_empty())
        };
        st.live -= 1;
        if became_nonfull {
            let pos = st.nonfull.len();
            st.nonfull.push(ci);
            st.chunks[ci].as_mut().expect("indexed chunk is live").pos_in_nonfull = pos;
        }
        if now_empty {
            st.empty_chunks += 1;
            if st.empty_chunks > KEEP_EMPTY {
                Self::release_chunk(&mut st, ci);
            }
        }
    }

    /// Returns a fully-empty chunk to the OS (called only past the
    /// hysteresis threshold).
    fn release_chunk(st: &mut State<T>, ci: usize) {
        let chunk = st.chunks[ci].take().expect("released chunk is live");
        debug_assert!(chunk.is_empty(), "releasing a non-empty chunk");
        st.empty_chunks -= 1;
        st.by_base.remove(&chunk.mem.as_ptr().addr());
        let pos = chunk.pos_in_nonfull;
        debug_assert!(pos != usize::MAX, "empty chunk must be in nonfull");
        st.nonfull.swap_remove(pos);
        if pos < st.nonfull.len() {
            let moved = st.nonfull[pos];
            st.chunks[moved].as_mut().expect("moved chunk is live").pos_in_nonfull = pos;
        }
        st.vacant.push(ci);
        // SAFETY: [inv:arena-region] `mem` is this arena's own `CHUNK_BYTES` mapping
        // and no slot in it is live, so no pointer into it remains usable.
        unsafe { region::unmap(chunk.mem, Self::CHUNK_BYTES) };
        record(Event::ArenaChunkFree);
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        for chunk in st.chunks.iter_mut().flatten() {
            for (w, &word) in chunk.live.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // SAFETY: [inv:unprotected-quiescent] `&mut self` — no concurrent users;
                    // the slot's live bit is set, so it holds a valid value.
                    unsafe {
                        std::ptr::drop_in_place(
                            chunk.mem.as_ptr().add(slot * Self::SLOT_SIZE).cast::<T>(),
                        );
                    }
                }
            }
            // SAFETY: [inv:arena-region] the arena's own `CHUNK_BYTES` mapping; every
            // live value in it was just dropped.
            unsafe { region::unmap(chunk.mem, Self::CHUNK_BYTES) };
        }
    }
}

/// Chunk memory on Linux: anonymous private mappings, so a chunk can be
/// aligned to its own size without allocator padding and advised on its
/// own.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
mod region {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::{self, NonNull};

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// Maps `bytes` (a power of two, at least a page) aligned to `bytes`,
    /// advised `MADV_HUGEPAGE` when `huge`; `None` if the OS refuses.
    pub(super) fn map(bytes: usize, huge: bool) -> Option<NonNull<u8>> {
        // Twice the size guarantees an aligned range inside; the unaligned
        // head and tail are unmapped again.
        let span = bytes.checked_mul(2)?;
        // SAFETY: [inv:arena-region] a fresh anonymous private mapping at an address
        // the kernel picks overlaps no memory Rust already owns.
        let raw = unsafe {
            mmap(ptr::null_mut(), span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
        };
        if raw.addr() == usize::MAX {
            return None; // MAP_FAILED
        }
        let raw = raw.cast::<u8>();
        let head = raw.addr().next_multiple_of(bytes) - raw.addr();
        // SAFETY: [inv:arena-region] `head < bytes`, so `base` and the `bytes`
        // after it lie inside the `span` just mapped; the head and the tail
        // (`bytes - head > 0`) are parts of that mapping which nothing references.
        unsafe {
            let base = raw.add(head);
            if head > 0 {
                munmap(raw.cast(), head);
            }
            munmap(base.add(bytes).cast(), bytes - head);
            if huge {
                // A hint: where the host's transparent huge pages are off, the
                // chunk stays on base pages.
                madvise(base.cast(), bytes, MADV_HUGEPAGE);
            }
            NonNull::new(base)
        }
    }

    /// Unmaps a chunk.
    ///
    /// # Safety
    /// `mem` came from [`map`] with the same `bytes`, and no pointer into
    /// it is used afterwards.
    pub(super) unsafe fn unmap(mem: NonNull<u8>, bytes: usize) {
        // SAFETY: [inv:arena-region] per the contract, the caller's own mapping
        // with no remaining users.
        unsafe { munmap(mem.as_ptr().cast(), bytes) };
    }
}

/// Chunk memory under Miri, which cannot run `mmap`, and on targets whose
/// mapping constants are not declared above: the global allocator, with
/// the chunk's size as its alignment. Nothing is advised.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod region {
    use std::alloc::{alloc, dealloc, Layout};
    use std::ptr::NonNull;

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, bytes).expect("a power-of-two chunk is a valid layout")
    }

    pub(super) fn map(bytes: usize, _huge: bool) -> Option<NonNull<u8>> {
        // SAFETY: [inv:arena-region] the layout has non-zero size (a chunk is at
        // least 2 MiB).
        NonNull::new(unsafe { alloc(layout(bytes)) })
    }

    /// Frees a chunk.
    ///
    /// # Safety
    /// `mem` came from [`map`] with the same `bytes`, and no pointer into
    /// it is used afterwards.
    pub(super) unsafe fn unmap(mem: NonNull<u8>, bytes: usize) {
        // SAFETY: [inv:arena-region] allocated by `map` with this exact layout.
        unsafe { dealloc(mem.as_ptr(), layout(bytes)) };
    }
}

/// A raw pointer wrapper that is `Send`, so a deferred arena retirement can
/// execute on whichever thread flushes the epoch bag. Only the tree's
/// retirement paths use it.
pub(crate) struct SendPtr<T>(NonNull<T>);

/// SAFETY: the wrapper only moves the *address* between threads; the tree's
/// retirement contract (node unlinked, grace period elapsed) makes the
/// eventual cross-thread access sound.
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(NonNull::new(ptr).expect("retired node pointer is non-null"))
    }

    pub(crate) fn get(&self) -> NonNull<T> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Value with a drop counter (leak/double-free detector under Miri).
    struct Tracked {
        drops: Arc<AtomicUsize>,
        payload: u64,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>, payload: u64) -> Tracked {
        Tracked { drops: Arc::clone(drops), payload }
    }

    /// A value so wide that a chunk holds only a few dozen slots, which
    /// keeps the chunk-boundary tests fast under Miri. Its stride (65,600
    /// bytes) is not a power of two.
    struct Wide<V> {
        value: V,
        _pad: [u8; 1 << 16],
    }

    fn wide<V>(value: V) -> Wide<V> {
        Wide { value, _pad: [0; 1 << 16] }
    }

    #[test]
    fn try_alloc_roundtrip() {
        let drops = Arc::new(AtomicUsize::new(0));
        let arena: Arena<Tracked> = Arena::new();
        let p = arena.try_alloc(tracked(&drops, 7)).expect("OS allocation succeeds in tests");
        // SAFETY: `p` is live and this test is the only accessor.
        assert_eq!(unsafe { p.as_ref() }.payload, 7);
        assert_eq!(arena.live(), 1);
        // SAFETY: `p` came from this arena, is live, and has no aliases.
        unsafe { arena.retire(p) };
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn alloc_read_retire_roundtrip() {
        let drops = Arc::new(AtomicUsize::new(0));
        let arena: Arena<Tracked> = Arena::new();
        let p = arena.alloc(tracked(&drops, 42));
        // SAFETY: `p` is live and this test is the only accessor.
        assert_eq!(unsafe { p.as_ref() }.payload, 42);
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.chunks(), 1);
        // SAFETY: `p` came from this arena, is live, and has no aliases.
        unsafe { arena.retire(p) };
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn slots_are_cache_line_aligned_and_disjoint() {
        let arena: Arena<Wide<u8>> = Arena::new();
        let per_chunk = Arena::<Wide<u8>>::SLOTS_PER_CHUNK;
        let mut ptrs = Vec::new();
        for i in 0..per_chunk {
            let p = arena.alloc(wide(i as u8));
            assert_eq!(p.as_ptr().addr() % 64, 0, "slot not cache-line aligned");
            ptrs.push(p);
        }
        assert_eq!(arena.chunks(), 1, "a chunk's worth of slots must fit one chunk");
        // Strides must not overlap: consecutive slots differ by SLOT_SIZE.
        let mut addrs: Vec<usize> = ptrs.iter().map(|p| p.as_ptr().addr()).collect();
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= size_of::<Wide<u8>>(), "slots overlap");
        }
        for (i, p) in ptrs.into_iter().enumerate() {
            // SAFETY: `p` is live and this test is the only accessor.
            assert_eq!(unsafe { p.as_ref() }.value, i as u8, "a neighbour overwrote the slot");
            // SAFETY: each pointer is live and retired exactly once.
            unsafe { arena.retire(p) };
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn lifo_recycling_reuses_the_slot() {
        let arena: Arena<u64> = Arena::new();
        let p = arena.alloc(7);
        let addr = p.as_ptr().addr();
        // SAFETY: live, no aliases.
        unsafe { arena.retire(p) };
        let q = arena.alloc(8);
        assert_eq!(q.as_ptr().addr(), addr, "freed slot must be reused LIFO");
        // SAFETY: live, no aliases.
        unsafe { arena.retire(q) };
    }

    #[test]
    fn multi_chunk_growth_and_shrink_with_hysteresis() {
        let drops = Arc::new(AtomicUsize::new(0));
        let arena: Arena<Wide<Tracked>> = Arena::new();
        let n = 3 * Arena::<Wide<Tracked>>::SLOTS_PER_CHUNK + 5; // forces 4 chunks
        let ptrs: Vec<_> = (0..n).map(|i| arena.alloc(wide(tracked(&drops, i as u64)))).collect();
        assert_eq!(arena.chunks(), 4);
        assert_eq!(arena.live(), n);
        for p in ptrs {
            // SAFETY: each pointer is live and retired exactly once.
            unsafe { arena.retire(p) };
        }
        assert_eq!(drops.load(Ordering::Relaxed), n);
        assert_eq!(arena.live(), 0);
        // All chunks emptied; one is kept as hysteresis, the rest unmapped.
        assert_eq!(arena.chunks(), KEEP_EMPTY, "empty chunks beyond hysteresis must be freed");
    }

    #[test]
    fn drop_frees_live_values_no_leak() {
        let drops = Arc::new(AtomicUsize::new(0));
        let n = Arena::<Wide<Tracked>>::SLOTS_PER_CHUNK + 3;
        {
            let arena: Arena<Wide<Tracked>> = Arena::new();
            let ptrs: Vec<_> =
                (0..n).map(|i| arena.alloc(wide(tracked(&drops, i as u64)))).collect();
            assert_eq!(arena.chunks(), 2, "the values must span two chunks");
            for p in ptrs.into_iter().step_by(2) {
                // SAFETY: live, no aliases.
                unsafe { arena.retire(p) };
            }
            // Half the values, in both chunks, still live here; Arena::drop
            // must free them.
        }
        assert_eq!(drops.load(Ordering::Relaxed), n, "leak or double free on drop");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double retire of arena slot")]
    fn double_retire_is_caught() {
        let arena: Arena<u64> = Arena::new();
        let keep = arena.alloc(1);
        let p = arena.alloc(2);
        // SAFETY: live, no aliases.
        unsafe { arena.retire(p) };
        // SAFETY: breaks `retire`'s contract on purpose; `u64` has no drop
        // glue, so only the arena's bookkeeping sees the second retire.
        unsafe { arena.retire(p) };
        // Not reached; keeps `keep` live so the chunk stays mapped.
        // SAFETY: live, no aliases.
        unsafe { arena.retire(keep) };
    }

    /// The advice rule, read back from the kernel: a tree's first chunk is
    /// not advised `MADV_HUGEPAGE`, its second is. This checks the advice,
    /// not the backing, so it holds whatever the host's THP mode.
    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    fn second_chunk_is_advised_huge_and_first_is_not() {
        /// `VmFlags` of the `/proc/self/smaps` mapping that contains `addr`.
        fn vm_flags(smaps: &str, addr: usize) -> Vec<String> {
            let mut inside = false;
            for line in smaps.lines() {
                let range = line.split_whitespace().next().and_then(|r| r.split_once('-'));
                if let Some((lo, hi)) = range {
                    if let (Ok(lo), Ok(hi)) =
                        (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                    {
                        inside = (lo..hi).contains(&addr);
                        continue;
                    }
                }
                if let (true, Some(flags)) = (inside, line.strip_prefix("VmFlags:")) {
                    return flags.split_whitespace().map(str::to_string).collect();
                }
            }
            panic!("no mapping in /proc/self/smaps contains {addr:#x}");
        }

        let arena: Arena<Wide<u8>> = Arena::new();
        let per_chunk = Arena::<Wide<u8>>::SLOTS_PER_CHUNK;
        let ptrs: Vec<_> = (0..=per_chunk).map(|i| arena.alloc(wide(i as u8))).collect();
        assert_eq!(arena.chunks(), 2);
        // Never-used slots go out in address order: the first slot of each
        // chunk sits at its base.
        let first = ptrs[0].as_ptr().addr();
        let second = ptrs[per_chunk].as_ptr().addr();
        let chunk_bytes = Arena::<Wide<u8>>::CHUNK_BYTES;
        assert_eq!(first % chunk_bytes, 0, "first chunk base not aligned to its size");
        assert_eq!(second % chunk_bytes, 0, "second chunk base not aligned to its size");

        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        assert!(
            !vm_flags(&smaps, first).iter().any(|f| f == "hg"),
            "a tree's first chunk must stay on base pages"
        );
        assert!(
            vm_flags(&smaps, second).iter().any(|f| f == "hg"),
            "a chunk mapped beside another must be advised MADV_HUGEPAGE"
        );
        for p in ptrs {
            // SAFETY: each pointer is live and retired exactly once.
            unsafe { arena.retire(p) };
        }
    }

    #[test]
    fn concurrent_alloc_retire_smoke() {
        let arena: Arc<Arena<u64>> = Arc::new(Arena::new());
        let threads = 4;
        let per_thread = if cfg!(miri) { 40 } else { 2_000 };
        std::thread::scope(|s| {
            for t in 0..threads {
                let arena = Arc::clone(&arena);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..per_thread {
                        held.push(arena.alloc((t * per_thread + i) as u64));
                        if i % 3 == 0 {
                            let p = held.swap_remove(i % held.len());
                            // SAFETY: `p` was removed from `held`, so this
                            // thread is its only owner.
                            unsafe { arena.retire(p) };
                        }
                    }
                    for p in held {
                        // SAFETY: sole owner.
                        unsafe { arena.retire(p) };
                    }
                });
            }
        });
        assert_eq!(arena.live(), 0);
    }
}
