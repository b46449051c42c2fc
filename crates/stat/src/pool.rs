//! The workspace's one worker pool: scoped threads that claim task
//! indices in order and return the results in task order.
//!
//! The batch fitting engine dispatches its kernel, selection and solve
//! phases here, and the Monte-Carlo engine its sample chunks. A result
//! depends only on its task index (and on the results it waits for),
//! never on the schedule, so a caller whose tasks are pure functions of
//! their index gets the same bits at every pool size.
//!
//! ```
//! use bmf_stat::pool::run_indexed;
//!
//! let squares = run_indexed(3, 5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Environment variable consulted when a caller asks for the default
/// pool size ([`default_threads`]): set `BMF_THREADS=<n>` to pin the
/// worker count for a whole test or CI run without touching code.
pub const THREADS_ENV: &str = "BMF_THREADS";

/// The default pool size: the `BMF_THREADS` environment variable if it
/// holds a positive integer, else the available parallelism (min 1).
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `n` independent tasks on a scoped worker pool and returns their
/// results in task order (see [`run_indexed_with`]).
pub fn run_indexed<T, F>(threads: usize, n: usize, task: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(threads, n, || (), |(), i, _| task(i))
}

/// The results of a [`run_indexed_with`] run so far, which a task may
/// wait on; `failed` is set when a worker unwinds, so no task waits for a
/// result that will never come.
pub struct Done<T> {
    slots: Vec<OnceLock<T>>,
    failed: Mutex<bool>,
    woken: Condvar,
}

impl<T> Done<T> {
    /// Waits for the result of task `i`, which must come before the
    /// waiting task; `None` when there is no task `i` or a worker
    /// unwound.
    pub fn wait(&self, i: usize) -> Option<&T> {
        let slot = self.slots.get(i)?;
        let mut failed = self.failed.lock().ok()?;
        while slot.get().is_none() && !*failed {
            failed = self.woken.wait(failed).ok()?;
        }
        slot.get()
    }

    /// Wakes every waiting task, marking the run failed when the calling
    /// worker unwinds.
    fn wake(&self) {
        if let Ok(mut failed) = self.failed.lock() {
            *failed |= std::thread::panicking();
        }
        self.woken.notify_all();
    }
}

/// Wakes the waiting tasks when a worker unwinds.
struct Unwinding<'a, T>(&'a Done<T>);

impl<T> Drop for Unwinding<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.wake();
        }
    }
}

/// Runs `n` tasks on a scoped worker pool and returns their results in
/// task order. `init` runs once on each worker (and once on the serial
/// path), and its state is passed to every task that worker claims, so
/// scratch buffers are reused across tasks without cross-thread sharing.
/// A task may wait for the result of any task before it
/// ([`Done::wait`]). At most `n` workers start, and a run of one task
/// (or `threads ≤ 1`) runs on the calling thread and spawns none.
///
/// Work-stealing is a shared atomic cursor: idle workers pull the next
/// unclaimed index, so an expensive task never blocks the queue behind
/// it. Indices are claimed in order, so a task waits only on claimed
/// tasks, and the lowest unfinished one waits on none: the schedule
/// cannot deadlock. Task results depend only on the task index and the
/// results it reads — never on the schedule or on how warm a worker's
/// state is (every workspace-filling kernel fully overwrites its output)
/// — which is what makes the batch engine bit-identical across thread
/// counts.
pub fn run_indexed_with<S, T, I, F>(threads: usize, n: usize, init: I, task: F) -> Vec<T>
where
    T: Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &Done<T>) -> T + Sync,
{
    let done = Done {
        slots: (0..n).map(|_| OnceLock::new()).collect(),
        failed: Mutex::new(false),
        woken: Condvar::new(),
    };
    let cursor = AtomicUsize::new(0);
    let work = || {
        let _unwinding = Unwinding(&done);
        let mut state = init();
        let mut i = cursor.fetch_add(1, Ordering::Relaxed);
        while let Some(slot) = done.slots.get(i) {
            // Each index is claimed once, so its slot is still empty.
            let _ = slot.set(task(&mut state, i, &done));
            done.wake();
            i = cursor.fetch_add(1, Ordering::Relaxed);
        }
    };
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            for h in handles {
                // A worker can only panic if a task panicked; re-raise
                // the original payload on the caller's thread instead of
                // masking it behind a generic join error.
                h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            }
        });
    }
    done.slots
        .into_iter()
        .map(OnceLock::into_inner)
        // The atomic cursor hands out each index in 0..n exactly once, so
        // every slot is filled by construction.
        // bmf-lint: allow(panic-reachability) -- the atomic cursor fills every slot; an empty one is unreachable by construction
        .map(|s| s.unwrap_or_else(|| unreachable!("every task index is claimed exactly once")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_task_order() {
        for threads in [1, 2, 5, 16] {
            let out = run_indexed(threads, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
