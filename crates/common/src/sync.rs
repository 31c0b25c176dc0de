//! Synchronization shim: the only sanctioned gateway to `std::sync`.
//!
//! Every concurrent path in the workspace (the worker pool in
//! [`crate::pool`], the training pool's helpers, the WAL lock) builds on
//! `Mutex`, `mpsc::channel`, and scoped spawns from this module instead of
//! `std::sync` directly (enforced by the `no-raw-sync` bao-lint rule). In a normal build these are `#[inline]` newtype wrappers
//! that compile down to the std primitives. Under `--cfg bao_race` every
//! object additionally captures the thread-local [`hooks::RaceHooks`]
//! registry at creation time, and every acquire/release/send/recv/spawn/join
//! becomes a schedule point of the deterministic explorer in `bao-race`
//! (DESIGN.md §12). Objects created while no hooks are installed stay plain
//! passthroughs even in a `bao_race` build, so instrumented and
//! uninstrumented code coexist in one binary.
//!
//! Model rules (race builds): a hooked object must only be touched by
//! threads running under the same explorer (the root closure and threads
//! spawned through [`scope`]), and critical sections of *unhooked* locks
//! must not contain schedule points.

use std::fmt;
#[cfg(bao_race)]
use std::panic::Location;
use std::sync::LockResult;

pub use std::sync::Arc;

/// A source location identifying where a sync object was created or used.
/// Reports print these as `file:line:column` "stacks".
pub type Site = &'static std::panic::Location<'static>;

#[cfg(bao_race)]
pub mod hooks {
    //! Instrumentation callbacks consumed by the `bao-race` explorer.
    //!
    //! The explorer installs itself as the current thread's hooks before
    //! running the closure under test; shim objects created while hooks are
    //! installed route every operation through this trait. Operations on
    //! hook-carrying objects are *schedule points*: the call may park the
    //! calling thread until the explorer grants it the execution token.

    use super::Site;
    use std::cell::RefCell;
    use std::sync::Arc;

    pub type HooksRef = Arc<dyn RaceHooks>;

    pub trait RaceHooks: Send + Sync {
        fn mutex_register(&self, site: Site) -> usize;
        fn mutex_lock(&self, id: usize, site: Site);
        fn mutex_unlock(&self, id: usize);
        fn chan_register(&self, site: Site) -> usize;
        /// Returns false when the receiver is gone (maps to `SendError`).
        fn chan_send(&self, id: usize, site: Site) -> bool;
        /// Returns false when the channel is closed (maps to `RecvError`).
        /// On true, a message is guaranteed present in the real channel.
        fn chan_recv(&self, id: usize, site: Site) -> bool;
        fn chan_sender_cloned(&self, id: usize);
        fn chan_sender_dropped(&self, id: usize);
        fn chan_receiver_dropped(&self, id: usize);
        fn cell_register(&self, site: Site) -> usize;
        fn cell_access(&self, id: usize, write: bool, site: Site);
        /// Schedule point in the parent; allocates the child's model thread.
        fn thread_spawn(&self, site: Site) -> usize;
        /// First call made by the child thread; parks until scheduled.
        fn thread_start(&self, tid: usize);
        /// Called by the parent right after the real spawn; blocks (without
        /// releasing the token) until the child has parked, so the enabled
        /// set is deterministic before the parent's next schedule point.
        fn thread_await_start(&self, tid: usize);
        /// Schedule point marking the child finished; hands off the token.
        fn thread_exit(&self, tid: usize);
        /// Schedule point; blocks until `tid` has exited, then joins clocks.
        fn thread_join(&self, tid: usize, site: Site);
    }

    thread_local! {
        static CURRENT: RefCell<Option<HooksRef>> = const { RefCell::new(None) };
    }

    pub fn set_current(h: Option<HooksRef>) {
        CURRENT.with(|c| *c.borrow_mut() = h);
    }

    pub fn current() -> Option<HooksRef> {
        CURRENT.with(|c| c.borrow().clone())
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

pub struct Mutex<T> {
    #[cfg(bao_race)]
    race: Option<(hooks::HooksRef, usize)>,
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T> {
    #[cfg(bao_race)]
    race: Option<(hooks::HooksRef, usize)>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(t: T) -> Mutex<T> {
        // Capture the caller before entering any closure: `#[track_caller]`
        // does not propagate into closure bodies.
        #[cfg(bao_race)]
        let site = Location::caller();
        Mutex {
            #[cfg(bao_race)]
            race: hooks::current().map(|h| {
                let id = h.mutex_register(site);
                (h, id)
            }),
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Acquire the lock. Under `bao_race` this is a schedule point: the
    /// explorer blocks the thread until the lock is free *in the model*, so
    /// the inner std acquire below never contends.
    #[track_caller]
    #[inline]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        #[cfg(bao_race)]
        if let Some((h, id)) = &self.race {
            h.mutex_lock(*id, Location::caller());
        }
        match self.inner.lock() {
            Ok(g) => Ok(self.guard(g)),
            Err(p) => Err(std::sync::PoisonError::new(self.guard(p.into_inner()))),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    fn guard<'a>(&'a self, g: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            #[cfg(bao_race)]
            race: self.race.clone(),
            inner: g,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(bao_race)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // The release hook runs just before the real unlock; the releasing
        // thread keeps the execution token until its next schedule point, so
        // a thread granted this lock by the model cannot observe the real
        // mutex still held.
        if let Some((h, id)) = &self.race {
            h.mutex_unlock(*id);
        }
    }
}

// ---------------------------------------------------------------------------
// RaceCell: a shared cell whose accesses are race-checked
// ---------------------------------------------------------------------------

/// A plain shared cell for race-detection purposes. Storage is mutex-backed
/// (no unsafe anywhere in the workspace), but under `bao_race` every access
/// is reported to the vector-clock checker as an *unsynchronized* read or
/// write: two accesses from different threads, at least one a write, with no
/// happens-before edge between them, are flagged as a data race — exactly
/// what would be UB on an ordinary shared memory cell.
pub struct RaceCell<T> {
    #[cfg(bao_race)]
    race: Option<(hooks::HooksRef, usize)>,
    inner: std::sync::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    #[track_caller]
    pub fn new(v: T) -> RaceCell<T> {
        #[cfg(bao_race)]
        let site = Location::caller();
        RaceCell {
            #[cfg(bao_race)]
            race: hooks::current().map(|h| {
                let id = h.cell_register(site);
                (h, id)
            }),
            inner: std::sync::Mutex::new(v),
        }
    }

    #[track_caller]
    pub fn get(&self) -> T {
        #[cfg(bao_race)]
        if let Some((h, id)) = &self.race {
            h.cell_access(*id, false, Location::caller());
        }
        *self.inner.lock().expect("race cell")
    }

    #[track_caller]
    pub fn set(&self, v: T) {
        #[cfg(bao_race)]
        if let Some((h, id)) = &self.race {
            h.cell_access(*id, true, Location::caller());
        }
        *self.inner.lock().expect("race cell") = v;
    }

    /// Read-modify-write as two separate accesses (a read then a write),
    /// i.e. deliberately *not* atomic — an unguarded `update` from two
    /// threads is the canonical racy-counter fixture.
    #[track_caller]
    pub fn update(&self, f: impl FnOnce(T) -> T) {
        let cur = self.get();
        self.set(f(cur));
    }
}

// ---------------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------------

pub mod mpsc {
    //! Shimmed `std::sync::mpsc`. The std channel remains the transport; in
    //! race builds the explorer's model decides *when* each send/recv is
    //! allowed to run, so by the time an operation touches the std channel
    //! it is guaranteed not to block.

    #[cfg(bao_race)]
    use super::hooks;
    #[cfg(bao_race)]
    use std::panic::Location;

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    pub struct Sender<T> {
        #[cfg(bao_race)]
        race: Option<(hooks::HooksRef, usize)>,
        inner: std::sync::mpsc::Sender<T>,
    }

    pub struct Receiver<T> {
        #[cfg(bao_race)]
        race: Option<(hooks::HooksRef, usize)>,
        inner: std::sync::mpsc::Receiver<T>,
    }

    #[track_caller]
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        #[cfg(bao_race)]
        let race = {
            let site = Location::caller();
            hooks::current().map(|h| {
                let id = h.chan_register(site);
                (h, id)
            })
        };
        (
            Sender {
                #[cfg(bao_race)]
                race: race.clone(),
                inner: tx,
            },
            Receiver {
                #[cfg(bao_race)]
                race,
                inner: rx,
            },
        )
    }

    impl<T> Sender<T> {
        #[track_caller]
        #[inline]
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            #[cfg(bao_race)]
            if let Some((h, id)) = &self.race {
                if !h.chan_send(*id, Location::caller()) {
                    return Err(SendError(t));
                }
            }
            self.inner.send(t)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            #[cfg(bao_race)]
            if let Some((h, id)) = &self.race {
                h.chan_sender_cloned(*id);
            }
            Sender {
                #[cfg(bao_race)]
                race: self.race.clone(),
                inner: self.inner.clone(),
            }
        }
    }

    #[cfg(bao_race)]
    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if let Some((h, id)) = &self.race {
                h.chan_sender_dropped(*id);
            }
        }
    }

    impl<T> Receiver<T> {
        #[track_caller]
        #[inline]
        pub fn recv(&self) -> Result<T, RecvError> {
            #[cfg(bao_race)]
            if let Some((h, id)) = &self.race {
                if !h.chan_recv(*id, Location::caller()) {
                    return Err(RecvError);
                }
            }
            self.inner.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            #[cfg(bao_race)]
            if let Some(_) = &self.race {
                // Non-blocking probes would make the enabled set depend on
                // real-time arrival order; the model only supports blocking
                // recv. No workspace code calls try_recv on a hooked channel.
                panic!("bao-race: try_recv is not supported on instrumented channels");
            }
            self.inner.try_recv()
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    #[cfg(bao_race)]
    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if let Some((h, id)) = &self.race {
                h.chan_receiver_dropped(*id);
            }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

// ---------------------------------------------------------------------------
// Scoped threads
// ---------------------------------------------------------------------------

pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    #[cfg(bao_race)]
    race: Option<ScopeRace>,
}

#[cfg(bao_race)]
struct ScopeRace {
    h: hooks::HooksRef,
    children: std::sync::Mutex<Vec<usize>>,
}

pub struct ScopedJoinHandle<'scope, T> {
    #[cfg(bao_race)]
    race: Option<(hooks::HooksRef, usize)>,
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

/// Scoped-thread entry point mirroring `std::thread::scope`. In race builds
/// the wrapper model-joins every child spawned through the shim before std's
/// implicit join runs, so the real join never blocks on a thread the model
/// still considers runnable.
#[track_caller]
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| {
        let sc = Scope {
            inner: s,
            #[cfg(bao_race)]
            race: hooks::current().map(|h| ScopeRace {
                h,
                children: std::sync::Mutex::new(Vec::new()),
            }),
        };
        let out = f(&sc);
        sc.finish();
        out
    })
}

impl<'scope, 'env> Scope<'scope, 'env> {
    #[track_caller]
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        #[cfg(bao_race)]
        if let Some(r) = &self.race {
            let tid = r.h.thread_spawn(Location::caller());
            let h = r.h.clone();
            let inner = self.inner.spawn(move || {
                hooks::set_current(Some(h.clone()));
                h.thread_start(tid);
                let out = f();
                h.thread_exit(tid);
                hooks::set_current(None);
                out
            });
            r.h.thread_await_start(tid);
            r.children.lock().expect("scope children").push(tid);
            return ScopedJoinHandle {
                race: Some((r.h.clone(), tid)),
                inner,
            };
        }
        ScopedJoinHandle {
            #[cfg(bao_race)]
            race: None,
            inner: self.inner.spawn(f),
        }
    }

    #[cfg(bao_race)]
    #[track_caller]
    fn finish(&self) {
        if let Some(r) = &self.race {
            let kids: Vec<usize> = r.children.lock().expect("scope children").clone();
            for tid in kids {
                // Idempotent with an explicit handle join: model-joining a
                // finished thread is always enabled and only merges clocks.
                r.h.thread_join(tid, Location::caller());
            }
        }
    }

    #[cfg(not(bao_race))]
    fn finish(&self) {}
}

impl<T> ScopedJoinHandle<'_, T> {
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(bao_race)]
        if let Some((h, tid)) = &self.race {
            h.thread_join(*tid, Location::caller());
        }
        self.inner.join()
    }
}
