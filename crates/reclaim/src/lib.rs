//! # lo-reclaim: the workspace's epoch-based memory reclamation
//!
//! The paper's Java implementation leans on the JVM garbage collector: a
//! lock-free `contains` may hold references to nodes that were concurrently
//! unlinked, and the GC keeps them alive while reachable. This crate is the
//! native-code equivalent of that guarantee, and the only one in the
//! workspace: the LO trees, the sharded store and every comparator pin,
//! retire and free through it, so measured differences between structures
//! come from their algorithms, not from their reclamation.
//!
//! The API is shaped like `crossbeam-epoch` 0.9: [`Atomic`], [`Shared`],
//! [`Owned`], [`Guard`] (`defer`, `defer_unchecked`, `defer_destroy`,
//! `flush`, `repin`), [`Collector`], [`LocalHandle`], [`pin`] and
//! [`unprotected`].
//!
//! ## The scheme
//!
//! Two-epoch EBR:
//!
//! * a collector owns a global epoch and a registry of per-thread
//!   participants; a pinned participant announces the epoch it observed;
//! * the epoch advances only when every pinned participant has announced
//!   the current one;
//! * a retired object is freed once the epoch has advanced twice past the
//!   epoch it was stamped with, so every thread has unpinned since.
//!
//! Retires go to an unstamped per-thread bag. Every `FLUSH_EVERY` (64)
//! retires the bag is sealed with the current epoch (after a `SeqCst`
//! fence, so the stamp is never older than the unlink that preceded the
//! retire), the epoch is advanced if possible, and every sealed bag that
//! has passed its grace period is freed. A thread that unregisters hands
//! its garbage to the collector, which frees it on a later flush or when
//! the collector itself is dropped: frees are real and nothing leaks.
//!
//! ## Pointer flavours
//!
//! One pointer implementation, generic over `const TAGGED: bool`:
//!
//! * [`Atomic`], [`Shared`], [`Owned`] are untagged: the pointer is used as
//!   stored, with no masking on any access. The LO trees use these.
//! * [`TaggedAtomic`], [`TaggedShared`], [`TaggedOwned`] keep a tag in the
//!   low `align_of::<T>() - 1` bits, as crossbeam does. The comparators'
//!   mark bits use these. `is_null`, `as_raw`, `deref`, `as_ref` and
//!   `into_owned` ignore the tag.
//!
//! ## Telemetry
//!
//! Epoch advances and frees are counted as [`Event::ReclaimAdvance`] and
//! [`Event::ReclaimFree`]. Retires are counted by the callers that retire
//! (`lo-core`), so each event has one counting site.
//!
//! ```
//! use lo_reclaim::{Atomic, Owned};
//! use std::sync::atomic::Ordering;
//!
//! let slot = Atomic::new(1u64);
//! let guard = lo_reclaim::pin();
//! let old = slot.swap(Owned::new(2), Ordering::AcqRel, &guard);
//! // SAFETY: the swap unlinked `old`, and this thread is its only retirer.
//! unsafe { guard.defer_destroy(old) }; // freed after the grace period
//! // SAFETY: no other thread can reach `slot`.
//! drop(unsafe { slot.load(Ordering::Relaxed, &guard).into_owned() });
//! ```

#![warn(missing_docs)]
// The collector's participant and orphan registries are cold-path
// bookkeeping behind plain std mutexes, not tree-protocol locks (see
// clippy.toml).
#![allow(clippy::disallowed_types)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lo_metrics::{add, record, Event};

/// Retires a thread makes between two flushes of its bag.
const FLUSH_EVERY: usize = 64;

// ---------------------------------------------------------------------------
// Deferred calls
// ---------------------------------------------------------------------------

type Words = [usize; 3];

/// A type-erased `FnOnce()`. Closures of up to three words (every closure
/// `lo-core` retires) are stored inline, larger ones are boxed.
struct Deferred {
    call: unsafe fn(*mut u8),
    data: MaybeUninit<Words>,
}

// SAFETY: [inv:send-sync] a `Deferred` is built either from a `Send` closure
// (`Guard::defer`) or under `defer_unchecked`'s contract, whose caller
// promises the closure may run on whichever thread frees it.
unsafe impl Send for Deferred {}

impl Deferred {
    fn new<F: FnOnce()>(f: F) -> Self {
        let mut data = MaybeUninit::<Words>::uninit();
        if mem::size_of::<F>() <= mem::size_of::<Words>()
            && mem::align_of::<F>() <= mem::align_of::<Words>()
        {
            /// # Safety
            /// `raw` must hold an `F` written by `Deferred::new`, read once.
            unsafe fn call<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: [inv:unique-owner] `raw` holds the `F` written by
                // `Deferred::new`, and `run` consumes the `Deferred`, so it is
                // read exactly once.
                let f = unsafe { ptr::read(raw.cast::<F>()) };
                f();
            }
            // SAFETY: [inv:unique-owner] `data` is this call's own buffer, and
            // size and alignment were checked just above.
            unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            Deferred {
                call: call::<F>,
                data,
            }
        } else {
            /// # Safety
            /// `raw` must hold a `Box<F>` written by `Deferred::new`, read once.
            unsafe fn call<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: [inv:unique-owner] as above, for the boxed closure.
                let f = unsafe { ptr::read(raw.cast::<Box<F>>()) };
                f();
            }
            // SAFETY: [inv:unique-owner] `data` is this call's own buffer, and
            // a `Box` is one word, which always fits.
            unsafe { ptr::write(data.as_mut_ptr().cast::<Box<F>>(), Box::new(f)) };
            Deferred {
                call: call::<F>,
                data,
            }
        }
    }

    fn run(mut self) {
        // SAFETY: [inv:unique-owner] `call` was instantiated for the closure
        // stored in `data`, and consuming `self` makes this the only call.
        unsafe { (self.call)(self.data.as_mut_ptr().cast::<u8>()) }
    }
}

/// A batch of retired objects stamped with the epoch it was sealed in.
struct Sealed {
    epoch: usize,
    items: Vec<Deferred>,
}

impl Sealed {
    fn expired(&self, global_epoch: usize) -> bool {
        global_epoch.wrapping_sub(self.epoch) >= 2
    }

    /// Runs every deferred call; returns how many ran.
    fn free(self) -> usize {
        let n = self.items.len();
        self.items.into_iter().for_each(Deferred::run);
        n
    }
}

// ---------------------------------------------------------------------------
// Collector state
// ---------------------------------------------------------------------------

/// A participant's announcement word: 0 when not pinned, `epoch << 1 | 1`
/// while pinned.
type Announce = AtomicUsize;

struct Global {
    epoch: AtomicUsize,
    participants: Mutex<Vec<Arc<Announce>>>,
    /// Garbage left behind by unregistered threads.
    orphans: Mutex<Vec<Sealed>>,
    /// `orphans.len()`, readable without the lock.
    orphan_count: AtomicUsize,
}

impl Global {
    fn new() -> Self {
        Global {
            epoch: AtomicUsize::new(0),
            participants: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            orphan_count: AtomicUsize::new(0),
        }
    }

    /// Advances the epoch if every pinned participant has announced the
    /// current one; returns the epoch after the attempt.
    fn try_advance(&self) -> usize {
        let g = self.epoch.load(Ordering::Relaxed);
        // Pairs with the fence in `Local::pin`: either this scan sees the
        // announcement, or that thread's re-read sees the newer epoch.
        // lo-core's writer gate relies on the same pair: a recoverer's scan
        // after its gate flip either sees a writer's pin or the writer's
        // gate load sees the flip.
        #[allow(clippy::disallowed_methods)] // EBR protocol fence (module docs)
        fence(Ordering::SeqCst);
        {
            let parts = self
                .participants
                .lock()
                .expect("participant registry poisoned");
            for p in parts.iter() {
                let a = p.load(Ordering::Relaxed);
                if a & 1 == 1 && a >> 1 != g {
                    return g;
                }
            }
        }
        // Pairs with the `Release` announcement stores of unpin and repin:
        // what a reader did before leaving an epoch happens before the
        // advance, and so before any free the advance allows.
        #[allow(clippy::disallowed_methods)] // EBR protocol fence (module docs)
        fence(Ordering::Acquire);
        match self
            .epoch
            .compare_exchange(g, g + 1, Ordering::Release, Ordering::Relaxed)
        {
            Ok(_) => {
                record(Event::ReclaimAdvance);
                g + 1
            }
            Err(now) => now,
        }
    }

    fn seal(&self, items: Vec<Deferred>) -> Sealed {
        // The fence orders the caller's unlinking stores before the epoch
        // read, so the stamp is never older than the unlink.
        #[allow(clippy::disallowed_methods)] // EBR protocol fence (module docs)
        fence(Ordering::SeqCst);
        Sealed {
            epoch: self.epoch.load(Ordering::Relaxed),
            items,
        }
    }

    /// Frees orphaned batches past their grace period; returns how many
    /// objects were freed.
    fn collect_orphans(&self, global_epoch: usize) -> usize {
        if self.orphan_count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let ripe: Vec<Sealed> = {
            let mut orphans = self.orphans.lock().expect("orphan list poisoned");
            let (ripe, keep) = mem::take(&mut *orphans)
                .into_iter()
                .partition(|s: &Sealed| s.expired(global_epoch));
            *orphans = keep;
            self.orphan_count.store(orphans.len(), Ordering::Relaxed);
            ripe
        };
        ripe.into_iter().map(Sealed::free).sum()
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // No participant is left (each holds an `Arc<Global>`), so every
        // orphan is unreachable and safe to free.
        let orphans = mem::take(self.orphans.get_mut().expect("orphan list poisoned"));
        let freed: usize = orphans.into_iter().map(Sealed::free).sum();
        add(Event::ReclaimFree, freed as u64);
    }
}

/// One thread's registration with a collector. Owned jointly by its
/// [`LocalHandle`] and its live [`Guard`]s, and freed when both are gone.
struct Local {
    global: Arc<Global>,
    announce: Arc<Announce>,
    guard_count: Cell<usize>,
    handle_alive: Cell<bool>,
    /// Retired since the last flush, not yet stamped.
    bag: RefCell<Vec<Deferred>>,
    /// Stamped batches waiting for their grace period, oldest first.
    sealed: RefCell<VecDeque<Sealed>>,
}

impl Local {
    fn pin(&self) {
        let n = self.guard_count.get();
        self.guard_count.set(n + 1);
        if n > 0 {
            return;
        }
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            self.announce.store(e << 1 | 1, Ordering::Relaxed);
            // Pairs with the first fence in `Global::try_advance`. lo-core's
            // writer gate relies on it too: a writer loads the gate only
            // after this fence, so a recoverer that flipped the gate before
            // its own fences either sees this pin or is seen by the load.
            #[allow(clippy::disallowed_methods)] // EBR protocol fence (module docs)
            fence(Ordering::SeqCst);
            let now = self.global.epoch.load(Ordering::Relaxed);
            if now == e {
                return;
            }
            e = now;
        }
    }

    fn repin(&self) {
        if self.guard_count.get() != 1 {
            return;
        }
        let pinned = self.global.epoch.load(Ordering::Relaxed) << 1 | 1;
        if self.announce.load(Ordering::Relaxed) != pinned {
            // Release: accesses made under the old announcement may not
            // drift past the new one.
            self.announce.store(pinned, Ordering::Release);
        }
    }

    fn defer(&self, d: Deferred) {
        let full = {
            let mut bag = self.bag.borrow_mut();
            bag.push(d);
            bag.len() >= FLUSH_EVERY
        };
        if full {
            self.flush();
        }
    }

    fn flush(&self) {
        let items = mem::replace(&mut *self.bag.borrow_mut(), Vec::with_capacity(FLUSH_EVERY));
        if !items.is_empty() {
            let sealed = self.global.seal(items);
            self.sealed.borrow_mut().push_back(sealed);
        }
        let g = self.global.try_advance();
        let mut freed = 0;
        loop {
            // No borrow is held while freeing: a freed object's drop may
            // itself touch the epoch.
            let ripe = {
                let mut sealed = self.sealed.borrow_mut();
                match sealed.front() {
                    Some(s) if s.expired(g) => sealed.pop_front(),
                    _ => None,
                }
            };
            match ripe {
                Some(s) => freed += s.free(),
                None => break,
            }
        }
        freed += self.global.collect_orphans(g);
        add(Event::ReclaimFree, freed as u64);
    }

    /// Drops one guard's claim; frees the registration if it was the last.
    ///
    /// # Safety
    /// `local` must come from a live `LocalHandle`/`Guard` pair created by
    /// `Collector::register`, and the caller's claim must not be used again.
    unsafe fn unpin(local: *const Local) {
        // SAFETY: [inv:reclaim-claim] the caller's claim keeps the
        // registration alive until here.
        let l = unsafe { &*local };
        let n = l.guard_count.get() - 1;
        l.guard_count.set(n);
        if n == 0 {
            l.announce.store(0, Ordering::Release);
            if !l.handle_alive.get() {
                // SAFETY: [inv:reclaim-claim] the handle and every guard are
                // gone; this was the last claim on the `Box` made in
                // `register`.
                drop(unsafe { Box::from_raw(local.cast_mut()) });
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let items = mem::take(self.bag.get_mut());
        let mut left = mem::take(self.sealed.get_mut());
        if !items.is_empty() {
            left.push_back(self.global.seal(items));
        }
        if !left.is_empty() {
            let mut orphans = self.global.orphans.lock().expect("orphan list poisoned");
            orphans.extend(left);
            self.global
                .orphan_count
                .store(orphans.len(), Ordering::Relaxed);
        }
        let mut parts = self
            .global
            .participants
            .lock()
            .expect("participant registry poisoned");
        parts.retain(|p| !Arc::ptr_eq(p, &self.announce));
    }
}

// ---------------------------------------------------------------------------
// Public collector API
// ---------------------------------------------------------------------------

/// An epoch domain. Clones share the domain; two `Collector::new()` results
/// never do.
#[derive(Clone)]
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// A fresh, independent epoch domain.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global::new()),
        }
    }

    /// Registers the calling thread. The handle is `!Send`: one per thread.
    pub fn register(&self) -> LocalHandle {
        let announce = Arc::new(Announce::new(0));
        self.global
            .participants
            .lock()
            .expect("participant registry poisoned")
            .push(Arc::clone(&announce));
        let local = Box::new(Local {
            global: Arc::clone(&self.global),
            announce,
            guard_count: Cell::new(0),
            handle_alive: Cell::new(true),
            bag: RefCell::new(Vec::with_capacity(FLUSH_EVERY)),
            sealed: RefCell::new(VecDeque::new()),
        });
        LocalHandle {
            local: Box::into_raw(local),
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

/// A thread's registration with a [`Collector`].
pub struct LocalHandle {
    local: *const Local,
}

impl LocalHandle {
    /// Pins the thread in this handle's domain. Nested pins are counted.
    #[inline]
    pub fn pin(&self) -> Guard {
        // SAFETY: [inv:reclaim-claim] the handle keeps its registration alive.
        unsafe { (*self.local).pin() };
        Guard { local: self.local }
    }

    /// Whether a [`Guard`] of this handle is alive: the thread is pinned in
    /// this handle's domain.
    pub fn is_pinned(&self) -> bool {
        // SAFETY: [inv:reclaim-claim] the handle keeps its registration alive.
        unsafe { (*self.local).guard_count.get() > 0 }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // SAFETY: [inv:reclaim-claim] the handle keeps its registration alive
        // until here.
        let l = unsafe { &*self.local };
        l.handle_alive.set(false);
        if l.guard_count.get() == 0 {
            // SAFETY: [inv:reclaim-claim] no guard and no handle remain.
            drop(unsafe { Box::from_raw(self.local.cast_mut()) });
        }
    }
}

/// A pin of the current thread. While it lives, nothing retired after it
/// was taken is freed. The [`unprotected`] guard pins nothing and runs
/// deferred calls at once.
pub struct Guard {
    local: *const Local,
}

impl Guard {
    /// Runs `f` after the grace period, on whichever thread frees it.
    pub fn defer<F, R>(&self, f: F)
    where
        F: FnOnce() -> R + Send + 'static,
    {
        // SAFETY: [inv:send-sync] `f` is `Send + 'static`, so it may run
        // anywhere, any time.
        unsafe { self.defer_unchecked(f) }
    }

    /// [`Self::defer`] without the `Send + 'static` bound.
    ///
    /// # Safety
    /// Running `f` on another thread, after the grace period, must be sound.
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
    {
        // SAFETY: [inv:reclaim-claim] a non-null `local` is kept alive by
        // this guard.
        match unsafe { self.local.as_ref() } {
            None => drop(f()),
            Some(local) => local.defer(Deferred::new(move || drop(f()))),
        }
    }

    /// Frees the object `ptr` points to after the grace period. A tag on
    /// `ptr` is ignored.
    ///
    /// # Safety
    /// `ptr` must come from an [`Owned`] or [`TaggedOwned`] (a `Box`), be
    /// unreachable for threads that pin later, and be retired only once.
    pub unsafe fn defer_destroy<T, const TAGGED: bool>(&self, ptr: RawShared<'_, T, TAGGED>) {
        let raw = ptr.as_raw().cast_mut();
        // SAFETY: [inv:unique-owner] forwarded contract; the box is freed
        // exactly once.
        unsafe { self.defer_unchecked(move || drop(Box::from_raw(raw))) }
    }

    /// Seals this thread's bag, advances the epoch if it can, and frees
    /// what has passed its grace period.
    pub fn flush(&self) {
        // SAFETY: [inv:reclaim-claim] a non-null `local` is kept alive by
        // this guard.
        if let Some(local) = unsafe { self.local.as_ref() } {
            local.flush();
        }
    }

    /// Re-announces the current epoch if this is the thread's only guard,
    /// so a long traversal does not hold back reclamation.
    pub fn repin(&mut self) {
        // SAFETY: [inv:reclaim-claim] a non-null `local` is kept alive by
        // this guard.
        if let Some(local) = unsafe { self.local.as_ref() } {
            local.repin();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.local.is_null() {
            // SAFETY: [inv:reclaim-claim] this guard's claim ends here.
            unsafe { Local::unpin(self.local) };
        }
    }
}

/// A guard that protects nothing. Loads through it are only sound while no
/// other thread can free the objects, e.g. during construction or drop.
///
/// # Safety
/// The caller must guarantee exclusive access to everything it loads.
pub unsafe fn unprotected() -> &'static Guard {
    struct Unprotected(Guard);
    // SAFETY: [inv:send-sync] the null guard has no thread-local state to
    // share.
    unsafe impl Sync for Unprotected {}
    static UNPROTECTED: Unprotected = Unprotected(Guard { local: ptr::null() });
    &UNPROTECTED.0
}

fn default_collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(Collector::new)
}

thread_local! {
    static HANDLE: LocalHandle = default_collector().register();
}

/// Pins the current thread in the process-wide default collector.
#[inline]
pub fn pin() -> Guard {
    // During thread teardown the cached handle may be gone; a temporary
    // registration lives as long as the guard.
    HANDLE
        .try_with(LocalHandle::pin)
        .unwrap_or_else(|_| default_collector().register().pin())
}

/// Whether the current thread holds a [`pin`] guard of the process-wide
/// default collector.
pub fn is_pinned() -> bool {
    HANDLE.try_with(LocalHandle::is_pinned).unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Pointers
// ---------------------------------------------------------------------------

/// The low pointer bits that `T`'s alignment leaves free for a tag.
const fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

/// Something that can be stored into a [`RawAtomic`] of the same flavour.
pub trait Pointer<T, const TAGGED: bool> {
    /// Gives up ownership and returns the raw pointer, tag included.
    fn into_ptr(self) -> *mut T;

    /// Takes back a pointer returned by [`Self::into_ptr`].
    ///
    /// # Safety
    /// `ptr` must come from `into_ptr` on a `Self` that nothing else has
    /// taken back or published since.
    unsafe fn from_ptr(ptr: *mut T) -> Self;
}

/// An atomic pointer to a heap-allocated `T`. Dropping it does not free the
/// pointee. Use it through [`Atomic`] or [`TaggedAtomic`].
pub struct RawAtomic<T, const TAGGED: bool> {
    data: AtomicPtr<T>,
    _marker: PhantomData<*mut T>,
}

/// An untagged atomic pointer.
pub type Atomic<T> = RawAtomic<T, false>;
/// An atomic pointer with a tag in its low `align_of::<T>() - 1` bits.
pub type TaggedAtomic<T> = RawAtomic<T, true>;

// SAFETY: [inv:send-sync] as in crossbeam, an atomic pointer hands out
// shared references to `T` across threads and lets any thread take
// ownership of it, so `T` must be both `Send` and `Sync`.
unsafe impl<T: Send + Sync, const TAGGED: bool> Send for RawAtomic<T, TAGGED> {}
// SAFETY: [inv:send-sync] as above.
unsafe impl<T: Send + Sync, const TAGGED: bool> Sync for RawAtomic<T, TAGGED> {}

impl<T, const TAGGED: bool> RawAtomic<T, TAGGED> {
    /// Boxes `value` and points at it.
    pub fn new(value: T) -> Self {
        RawAtomic {
            data: AtomicPtr::new(Box::into_raw(Box::new(value))),
            _marker: PhantomData,
        }
    }

    /// A null pointer.
    pub const fn null() -> Self {
        RawAtomic {
            data: AtomicPtr::new(ptr::null_mut()),
            _marker: PhantomData,
        }
    }

    /// Loads the pointer; it stays valid while `_guard` lives.
    #[inline]
    pub fn load<'g>(&self, order: Ordering, _guard: &'g Guard) -> RawShared<'g, T, TAGGED> {
        RawShared::from_raw(self.data.load(order))
    }

    /// Stores `new`.
    #[inline]
    pub fn store<P: Pointer<T, TAGGED>>(&self, new: P, order: Ordering) {
        self.data.store(new.into_ptr(), order);
    }

    /// Stores `new` and returns the previous pointer.
    #[inline]
    pub fn swap<'g, P: Pointer<T, TAGGED>>(
        &self,
        new: P,
        order: Ordering,
        _guard: &'g Guard,
    ) -> RawShared<'g, T, TAGGED> {
        RawShared::from_raw(self.data.swap(new.into_ptr(), order))
    }

    /// Stores `new` if the pointer (tag included) equals `current`. On
    /// success returns `new` as a [`RawShared`]; on failure returns the value
    /// found and hands `new` back.
    #[inline]
    pub fn compare_exchange<'g, P: Pointer<T, TAGGED>>(
        &self,
        current: RawShared<'_, T, TAGGED>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<RawShared<'g, T, TAGGED>, CompareExchangeError<'g, T, P, TAGGED>> {
        let new = new.into_ptr();
        match self
            .data
            .compare_exchange(current.data.cast_mut(), new, success, failure)
        {
            Ok(_) => Ok(RawShared::from_raw(new)),
            Err(found) => Err(CompareExchangeError {
                current: RawShared::from_raw(found),
                // SAFETY: [inv:unique-owner] the exchange failed, so `new` was
                // never published and still belongs to this call.
                new: unsafe { P::from_ptr(new) },
            }),
        }
    }
}

impl<T, const TAGGED: bool> From<RawOwned<T, TAGGED>> for RawAtomic<T, TAGGED> {
    fn from(owned: RawOwned<T, TAGGED>) -> Self {
        RawAtomic {
            data: AtomicPtr::new(owned.into_ptr()),
            _marker: PhantomData,
        }
    }
}

impl<T, const TAGGED: bool> From<RawShared<'_, T, TAGGED>> for RawAtomic<T, TAGGED> {
    fn from(shared: RawShared<'_, T, TAGGED>) -> Self {
        RawAtomic {
            data: AtomicPtr::new(shared.into_ptr()),
            _marker: PhantomData,
        }
    }
}

/// A failed [`RawAtomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P, const TAGGED: bool> {
    /// The pointer the atomic held instead of the expected one.
    pub current: RawShared<'g, T, TAGGED>,
    /// The pointer that was not stored, handed back to the caller.
    pub new: P,
}

/// An owned heap object, like `Box<T>`; it carries no tag. Use it through
/// [`Owned`] or [`TaggedOwned`].
pub struct RawOwned<T, const TAGGED: bool> {
    boxed: Box<T>,
}

/// An owned object for an [`Atomic`].
pub type Owned<T> = RawOwned<T, false>;
/// An owned object for a [`TaggedAtomic`].
pub type TaggedOwned<T> = RawOwned<T, true>;

impl<T, const TAGGED: bool> RawOwned<T, TAGGED> {
    /// Boxes `value`.
    pub fn new(value: T) -> Self {
        RawOwned {
            boxed: Box::new(value),
        }
    }

    /// Re-wraps a pointer produced by [`Pointer::into_ptr`] on an `Owned`.
    ///
    /// # Safety
    /// `raw` must be non-null, come from a `Box<T>`, and have no other owner.
    unsafe fn from_raw(raw: *mut T) -> Self {
        debug_assert!(!raw.is_null(), "Owned::from_raw on null");
        RawOwned {
            // SAFETY: [inv:unique-owner] forwarded contract.
            boxed: unsafe { Box::from_raw(raw) },
        }
    }

    /// Publishes the object; the caller is now responsible for retiring it.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> RawShared<'g, T, TAGGED> {
        RawShared::from_raw(Box::into_raw(self.boxed))
    }
}

impl<T, const TAGGED: bool> Pointer<T, TAGGED> for RawOwned<T, TAGGED> {
    fn into_ptr(self) -> *mut T {
        Box::into_raw(self.boxed)
    }

    unsafe fn from_ptr(ptr: *mut T) -> Self {
        // SAFETY: [inv:unique-owner] `into_ptr` on an owned object returned
        // `ptr`, and the caller guarantees nothing else took it back.
        unsafe { Self::from_raw(ptr) }
    }
}

impl<T, const TAGGED: bool> Deref for RawOwned<T, TAGGED> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.boxed
    }
}

impl<T, const TAGGED: bool> DerefMut for RawOwned<T, TAGGED> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.boxed
    }
}

/// A pointer loaded under a guard; valid for the guard's lifetime `'g`. Use
/// it through [`Shared`] or [`TaggedShared`].
pub struct RawShared<'g, T, const TAGGED: bool> {
    data: *const T,
    _marker: PhantomData<(&'g (), *const T)>,
}

/// An untagged pointer loaded from an [`Atomic`].
pub type Shared<'g, T> = RawShared<'g, T, false>;
/// A tagged pointer loaded from a [`TaggedAtomic`].
pub type TaggedShared<'g, T> = RawShared<'g, T, true>;

impl<T, const TAGGED: bool> Clone for RawShared<'_, T, TAGGED> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T, const TAGGED: bool> Copy for RawShared<'_, T, TAGGED> {}

impl<'g, T, const TAGGED: bool> RawShared<'g, T, TAGGED> {
    fn from_raw(data: *const T) -> Self {
        RawShared {
            data,
            _marker: PhantomData,
        }
    }

    /// A null pointer.
    pub fn null() -> Self {
        RawShared::from_raw(ptr::null())
    }

    /// Whether the pointer, tag ignored, is null.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The raw pointer, tag cleared.
    #[inline]
    pub fn as_raw(&self) -> *const T {
        if TAGGED {
            self.data.map_addr(|a| a & !low_bits::<T>())
        } else {
            self.data
        }
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    /// The pointer must be non-null and point to a live object.
    #[inline]
    pub unsafe fn deref(&self) -> &'g T {
        // SAFETY: [inv:epoch-liveness] forwarded contract.
        unsafe { &*self.as_raw() }
    }

    /// Dereferences the pointer, or `None` if it is null.
    ///
    /// # Safety
    /// A non-null pointer must point to a live object.
    #[inline]
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: [inv:epoch-liveness] forwarded contract.
        unsafe { self.as_raw().as_ref() }
    }

    /// Takes ownership of the pointee.
    ///
    /// # Safety
    /// The pointer must be non-null, come from an owned object of its
    /// flavour, and no other thread may use it afterwards.
    pub unsafe fn into_owned(self) -> RawOwned<T, TAGGED> {
        // SAFETY: [inv:unique-owner] forwarded contract.
        unsafe { RawOwned::from_raw(self.as_raw().cast_mut()) }
    }
}

impl<T> RawShared<'_, T, true> {
    /// The tag in the pointer's low bits.
    #[inline]
    pub fn tag(&self) -> usize {
        self.data.addr() & low_bits::<T>()
    }

    /// The same pointer with its tag replaced by `tag`'s low bits.
    #[inline]
    pub fn with_tag(&self, tag: usize) -> Self {
        RawShared::from_raw(
            self.data
                .map_addr(|a| (a & !low_bits::<T>()) | (tag & low_bits::<T>())),
        )
    }
}

impl<T, const TAGGED: bool> Pointer<T, TAGGED> for RawShared<'_, T, TAGGED> {
    fn into_ptr(self) -> *mut T {
        self.data.cast_mut()
    }

    unsafe fn from_ptr(ptr: *mut T) -> Self {
        RawShared::from_raw(ptr)
    }
}

impl<T, const TAGGED: bool> From<*const T> for RawShared<'_, T, TAGGED> {
    fn from(raw: *const T) -> Self {
        RawShared::from_raw(raw)
    }
}

impl<T, const TAGGED: bool> PartialEq for RawShared<'_, T, TAGGED> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<T, const TAGGED: bool> Eq for RawShared<'_, T, TAGGED> {}

impl<T, const TAGGED: bool> fmt::Debug for RawShared<'_, T, TAGGED> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Pointer::fmt(&self.data, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Counts its own drops.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>) -> Tracked {
        Tracked(Arc::clone(drops))
    }

    fn flush_a_few(h: &LocalHandle) {
        for _ in 0..4 {
            h.pin().flush();
        }
    }

    /// Defers a flag store through `h`; the flag reports the free.
    fn defer_flag(h: &LocalHandle) -> Arc<AtomicBool> {
        let freed = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&freed);
        h.pin().defer(move || f.store(true, Ordering::SeqCst));
        freed
    }

    #[test]
    fn deferred_drop_runs_once_after_the_grace_period() {
        let drops = Arc::new(AtomicUsize::new(0));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let p = Owned::new(tracked(&drops)).into_shared(&g);
            // SAFETY: `p` was never published; this is its only retirement.
            unsafe { g.defer_destroy(p) };
            let calls = Arc::clone(&calls);
            g.defer(move || calls.fetch_add(1, Ordering::SeqCst));
        }
        h.pin().flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed before the grace period");
        flush_a_few(&h);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        drop(h);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "teardown ran a deferred call twice");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn live_pin_blocks_the_free() {
        let c = Collector::new();
        let reader = c.register();
        let writer = c.register();
        let pin = reader.pin();
        let freed = defer_flag(&writer);
        for _ in 0..16 {
            writer.pin().flush();
        }
        assert!(!freed.load(Ordering::SeqCst), "freed under a live pin of the same domain");
        drop(pin);
        flush_a_few(&writer);
        assert!(freed.load(Ordering::SeqCst), "not freed after the reader unpinned");
    }

    #[test]
    fn nested_guards_pin_once() {
        let c = Collector::new();
        let h = c.register();
        let local = || {
            // SAFETY: `h` is alive for the whole test.
            unsafe { &*h.local }
        };
        let g1 = h.pin();
        let announced = local().announce.load(Ordering::SeqCst);
        let g2 = h.pin();
        assert_eq!(local().guard_count.get(), 2);
        assert_eq!(
            local().announce.load(Ordering::SeqCst),
            announced,
            "a nested pin must not re-announce"
        );
        drop(g2);
        assert!(h.is_pinned(), "the outer guard still pins");
        drop(g1);
        assert!(!h.is_pinned());
        assert_eq!(local().announce.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn orphaned_garbage_is_freed_when_the_collector_drops() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let n = FLUSH_EVERY + 5;
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = c.register();
                let g = h.pin();
                for _ in 0..n {
                    let p = Owned::new(tracked(&drops)).into_shared(&g);
                    // SAFETY: never published; retired once.
                    unsafe { g.defer_destroy(p) };
                }
                // The guard is still pinned, so nothing can be freed yet; the
                // handle and guard drop here and orphan the garbage.
            });
        });
        assert!(drops.load(Ordering::SeqCst) < n);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), n, "orphaned garbage leaked or double-freed");
    }

    #[test]
    fn guard_outliving_its_handle_keeps_the_registration() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        drop(h);
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        g.defer(move || r.store(true, Ordering::SeqCst));
        drop(g);
        drop(c);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn clones_share_a_domain() {
        // A pin through the clone blocks a free retired through the original.
        let a = Collector::new();
        let b = a.clone();
        let reader = b.register();
        let writer = a.register();
        let pin = reader.pin();
        let freed = defer_flag(&writer);
        for _ in 0..16 {
            writer.pin().flush();
        }
        assert!(!freed.load(Ordering::SeqCst), "a pin through the clone did not block");
        drop(pin);
        flush_a_few(&writer);
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn two_news_are_independent_domains() {
        let a = Collector::new();
        let b = Collector::new();
        let a_reader = a.register();
        let _a_pin = a_reader.pin();
        let h = b.register();
        let freed = defer_flag(&h);
        flush_a_few(&h);
        assert!(freed.load(Ordering::SeqCst), "a pin in domain A held back domain B");
    }

    #[test]
    fn idle_participants_do_not_block() {
        let c = Collector::new();
        let _idle = c.register(); // registered but never pinned
        let h = c.register();
        let freed = defer_flag(&h);
        flush_a_few(&h);
        assert!(freed.load(Ordering::SeqCst), "an unpinned participant held back the epoch");
    }

    #[test]
    fn is_pinned_follows_the_default_collector() {
        assert!(!is_pinned());
        let g = pin();
        assert!(is_pinned());
        let other = Collector::new().register();
        let _other_pin = other.pin();
        drop(g);
        assert!(!is_pinned(), "a pin in another domain is not a default pin");
        assert!(other.is_pinned());
    }

    #[test]
    fn concurrent_swap_and_read_is_sound() {
        const ITERS: u64 = if cfg!(debug_assertions) { 20_000 } else { 100_000 };
        let c = Collector::new();
        let slot = Atomic::new(0u64);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = c.register();
                for i in 1..=ITERS {
                    let g = h.pin();
                    let old = slot.swap(Owned::new(i), Ordering::AcqRel, &g);
                    // SAFETY: the swap unlinked `old`; this thread is its only
                    // retirer.
                    unsafe { g.defer_destroy(old) };
                }
                done.store(true, Ordering::SeqCst);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let h = c.register();
                    let mut last = 0;
                    while !done.load(Ordering::SeqCst) {
                        let g = h.pin();
                        // SAFETY: loaded under a live pin; frees wait for it.
                        let v = unsafe { *slot.load(Ordering::Acquire, &g).deref() };
                        assert!(v >= last && v <= ITERS, "read a freed or torn value: {v}");
                        last = v;
                    }
                });
            }
        });
        let g = c.register().pin();
        // SAFETY: all threads joined; the last value is owned by the slot alone.
        drop(unsafe { slot.load(Ordering::Relaxed, &g).into_owned() });
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn telemetry_tracks_advances_and_frees() {
        use lo_metrics::Snapshot;
        let before = Snapshot::take();
        let c = Collector::new();
        let h = c.register();
        let freed = defer_flag(&h);
        flush_a_few(&h);
        assert!(freed.load(Ordering::SeqCst));
        let diff = Snapshot::take().since(&before);
        assert!(diff.get(Event::ReclaimAdvance) >= 2, "epoch advances not recorded");
        assert!(diff.get(Event::ReclaimFree) >= 1, "free not recorded");
    }

    /// A type whose alignment leaves three tag bits.
    #[repr(align(8))]
    struct Aligned8(u64);

    #[test]
    fn tags_round_trip_in_the_low_bits() {
        let g = pin();
        let p = TaggedOwned::new(Aligned8(7)).into_shared(&g);
        assert_eq!(p.tag(), 0);
        for tag in 0..8 {
            let t = p.with_tag(tag);
            assert_eq!(t.tag(), tag);
            assert_eq!(t.with_tag(0), p);
        }
        assert_eq!(p.with_tag(9).tag(), 1, "tags keep only the free low bits");
        let a = TaggedAtomic::from(p.with_tag(5));
        assert_eq!(a.load(Ordering::Relaxed, &g).tag(), 5);
        // SAFETY: `p` was never shared with another thread.
        drop(unsafe { p.into_owned() });
    }

    #[test]
    fn tagged_accessors_ignore_the_tag() {
        let g = pin();
        let p = TaggedOwned::new(Aligned8(42)).into_shared(&g);
        let t = p.with_tag(3);
        assert!(!t.is_null());
        assert_eq!(t.as_raw(), p.as_raw());
        assert_ne!(t, p, "equality compares the tag too");
        // SAFETY: `p` is live until the `into_owned` below.
        unsafe {
            assert_eq!(t.deref().0, 42);
            assert_eq!(t.as_ref().map(|v| v.0), Some(42));
        }
        let null = TaggedShared::<Aligned8>::null().with_tag(1);
        assert!(null.is_null(), "a tagged null is null");
        // SAFETY: as above.
        assert!(unsafe { null.as_ref() }.is_none());
        // SAFETY: `t` points at the unpublished box, tag ignored.
        let owned = unsafe { t.into_owned() };
        assert_eq!(owned.0, 42);
    }

    #[test]
    fn failed_compare_exchange_hands_back_the_owned_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let g = pin();
        let slot = TaggedAtomic::new(tracked(&drops));
        let held = slot.load(Ordering::Acquire, &g);
        let err = slot
            .compare_exchange(
                held.with_tag(1),
                TaggedOwned::new(tracked(&drops)),
                Ordering::AcqRel,
                Ordering::Acquire,
                &g,
            )
            .expect_err("the expected tag differs");
        assert_eq!(err.current, held);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(err.new);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "the unstored value drops exactly once");
        let new = TaggedOwned::new(tracked(&drops));
        let stored = slot
            .compare_exchange(held, new, Ordering::AcqRel, Ordering::Acquire, &g)
            .unwrap_or_else(|_| panic!("the expected pointer matches"));
        assert_eq!(slot.load(Ordering::Acquire, &g), stored);
        // SAFETY: single-threaded; `held` was unlinked by the exchange, and
        // `stored` is owned by the slot alone.
        unsafe {
            drop(held.into_owned());
            drop(stored.into_owned());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn defer_destroy_frees_the_untagged_box() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let p = TaggedOwned::new(tracked(&drops)).into_shared(&g);
            // SAFETY: never published; retired once, through a tagged copy.
            unsafe { g.defer_destroy(p.with_tag(1)) };
        }
        flush_a_few(&h);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
