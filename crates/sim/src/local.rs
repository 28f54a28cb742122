//! Simulator state that the carrier lends out one borrow at a time.
//!
//! Every simulated thread runs on the one OS thread that called
//! [`Engine::run`] (see `carrier.rs`), and exactly one of them is unparked
//! at any instant. A lock around per-world state is therefore never
//! contended: the carrier already serializes every access. [`Local`] keeps
//! a lock's `.lock()` surface but replaces the atomic lock/unlock pair
//! with a plain borrow flag. A second borrow while a guard is live — which
//! a mutex on one OS thread would turn into a silent deadlock — panics
//! with "re-entrant borrow of a sim::Local". The guard clears the flag on
//! drop, unwinding included, so a panic inside a borrow poisons nothing.
//!
//! [`local_borrows`] counts the borrows taken on the calling OS thread: a
//! deterministic measure of host work that repeats exactly run to run.

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

#[cfg(doc)]
use crate::engine::Engine;

thread_local! {
    static BORROWS: Cell<u64> = const { Cell::new(0) };
    /// Its address names the calling OS thread, cheaper than
    /// `thread::current()` and allocation-free.
    static OWNER_TAG: u8 = const { 0 };
}

/// Number of [`Local`] borrows taken on the calling OS thread so far
/// (wrapping). Take the difference around a run to count its host work.
pub fn local_borrows() -> u64 {
    BORROWS.with(Cell::get)
}

/// Per-world simulator state, borrowed through [`Local::lock`].
///
/// Behaves like an uncontended mutex on the carrier thread, at the cost
/// of a flag check: [`Local::lock`] panics on a re-entrant borrow and
/// [`Local::try_lock`] returns `None` for one. Debug builds also assert
/// that every borrow comes from the OS thread that took the first one.
///
/// # Examples
///
/// ```
/// use cables_sim::Local;
/// let counter = Local::new(41);
/// *counter.lock() += 1;
/// assert_eq!(*counter.lock(), 42);
/// ```
pub struct Local<T: ?Sized> {
    borrowed: Cell<bool>,
    /// `OWNER_TAG` address of the first borrowing thread; 0 before it.
    owner: Cell<usize>,
    data: UnsafeCell<T>,
}

// SAFETY: one world is only ever touched by the one OS thread that builds
// it and calls `Engine::run`; its green threads all run on that thread and
// only one is unparked at a time, so the `Cell`s and the `UnsafeCell` are
// never accessed concurrently. `Sync` exists so the `Arc`s of the public
// API and `spawn`'s `Send` bound still type-check; debug builds assert the
// invariant on every borrow. (`Send` follows from `T: Send` on its own.)
unsafe impl<T: ?Sized + Send> Sync for Local<T> {}

/// A live borrow of a [`Local`]; the borrow ends when it drops.
#[must_use = "the borrow ends as soon as the guard is dropped"]
pub struct LocalGuard<'a, T: ?Sized> {
    local: &'a Local<T>,
    /// A guard never leaves the carrier thread.
    _not_send: PhantomData<*const ()>,
}

impl<T> Local<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Local {
            borrowed: Cell::new(false),
            owner: Cell::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the cell and returns the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Local<T> {
    /// Borrows the value until the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the value is already borrowed (a guard is live), and in
    /// debug builds if the caller is not the OS thread that borrowed it
    /// first.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> LocalGuard<'_, T> {
        match self.try_lock() {
            Some(g) => g,
            None => reentrant(),
        }
    }

    /// Borrows the value, or returns `None` if it is already borrowed.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the caller is not the OS thread that
    /// borrowed the value first.
    #[inline]
    #[track_caller]
    pub fn try_lock(&self) -> Option<LocalGuard<'_, T>> {
        if cfg!(debug_assertions) {
            self.check_owner();
        }
        if self.borrowed.replace(true) {
            return None;
        }
        BORROWS.with(|n| n.set(n.get().wrapping_add(1)));
        Some(LocalGuard {
            local: self,
            _not_send: PhantomData,
        })
    }

    /// Mutable access without a borrow: `&mut self` already proves there
    /// is none.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    #[track_caller]
    fn check_owner(&self) {
        let me = OWNER_TAG.with(|t| t as *const u8 as usize);
        match self.owner.get() {
            0 => self.owner.set(me),
            first => assert_eq!(
                first, me,
                "sim::Local borrowed from a second OS thread; a world stays on its carrier"
            ),
        }
    }
}

#[cold]
#[inline(never)]
#[track_caller]
fn reentrant() -> ! {
    panic!("re-entrant borrow of a sim::Local")
}

impl<T: Default> Default for Local<T> {
    fn default() -> Self {
        Local::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Local<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Local").field("data", &&*g).finish(),
            None => f.write_str("Local { <borrowed> }"),
        }
    }
}

impl<T: ?Sized> Deref for LocalGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard is the one live borrow (the flag was clear
        // when it was made), and `&self` keeps it alive.
        unsafe { &*self.local.data.get() }
    }
}

impl<T: ?Sized> DerefMut for LocalGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes the access exclusive.
        unsafe { &mut *self.local.data.get() }
    }
}

impl<T: ?Sized> Drop for LocalGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.local.borrowed.set(false);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LocalGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn second_borrow_panics_instead_of_hanging() {
        let l = Local::new(7u64);
        let g = l.lock();
        let err = catch_unwind(AssertUnwindSafe(|| *l.lock())).expect_err("re-entrant borrow");
        assert!(panic_message(err).contains("re-entrant borrow of a sim::Local"));
        assert_eq!(*g, 7);
    }

    #[test]
    fn panic_inside_a_borrow_leaves_the_value_borrowable() {
        let l = Local::new(vec![1u32]);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = l.lock();
            g.push(2);
            panic!("inside the borrow");
        }));
        assert!(r.is_err());
        assert_eq!(*l.lock(), vec![1, 2]);
    }

    #[test]
    fn try_lock_is_none_while_borrowed() {
        let l = Local::new(1u8);
        {
            let _g = l.lock();
            assert!(l.try_lock().is_none());
        }
        assert_eq!(*l.try_lock().expect("borrow ended"), 1);
    }

    #[test]
    fn debug_prints_borrowed_instead_of_panicking() {
        let l = Local::new(5i32);
        assert_eq!(format!("{l:?}"), "Local { data: 5 }");
        let _g = l.lock();
        assert_eq!(format!("{l:?}"), "Local { <borrowed> }");
    }

    #[test]
    fn every_borrow_is_counted() {
        let l = Local::new(0u64);
        let before = local_borrows();
        for _ in 0..3 {
            *l.lock() += 1;
        }
        let held = l.lock();
        assert!(l.try_lock().is_none());
        drop(held);
        assert_eq!(local_borrows().wrapping_sub(before), 4);
    }

    #[test]
    fn get_mut_and_into_inner_need_no_borrow() {
        let mut l = Local::<Vec<u8>>::default();
        l.get_mut().push(3);
        assert_eq!(l.into_inner(), vec![3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn borrow_from_a_second_os_thread_panics() {
        let l = std::sync::Arc::new(Local::new(0u32));
        *l.lock() += 1;
        let l2 = std::sync::Arc::clone(&l);
        let err = std::thread::spawn(move || *l2.lock())
            .join()
            .expect_err("foreign thread");
        assert!(panic_message(err).contains("second OS thread"));
        assert_eq!(*l.lock(), 1);
    }
}
