//! The one fan-out primitive: a work queue over `std::thread::scope`.
//!
//! `N` workers pull items from an atomic cursor, in input order, and
//! results flow back over a channel to the calling thread, which returns
//! them **in input order**. Whatever the worker count, each item is
//! computed by the same pure call, so the result vector never depends on
//! it. Callers that know their items' costs put the longest first: the
//! cursor then hands them out longest-first, the classic LPT schedule.
//!
//! Every parallel phase of the workspace runs through here: the suite's
//! kernel calibration, the experiment grids and the fleet's device phase.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Fans `items` across `jobs` scoped worker threads and returns `f(item)`
/// for each, **in input order**. `on_done(index, result)` fires on the
/// calling thread as each item finishes (completion order).
///
/// # Panics
///
/// A panic in `f` propagates. If `on_done` panics it is not called again,
/// but the drain keeps consuming: every in-flight item still completes and
/// the workers exit cleanly before the panic resumes on the calling
/// thread, so it never tears through a half-drained pool.
pub fn par_map_with<T, R, F>(
    items: &[T],
    jobs: usize,
    f: F,
    mut on_done: impl FnMut(usize, &R),
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut callback_panic = None;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            if callback_panic.is_none() {
                callback_panic = panic::catch_unwind(AssertUnwindSafe(|| on_done(i, &r))).err();
            }
            results[i] = Some(r);
        }
    });
    if let Some(payload) = callback_panic {
        panic::resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("every index was sent exactly once")).collect()
}

/// [`par_map_with`] without the completion callback.
///
/// # Examples
///
/// ```
/// use sim_core::par::par_map;
///
/// let squares = par_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, jobs, f, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(0x9E37_79B9) >> 3);
        for jobs in [0, 2, 3, 64] {
            assert_eq!(par_map(&items, jobs, |&x| x.wrapping_mul(0x9E37_79B9) >> 3), serial);
        }
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }
}
