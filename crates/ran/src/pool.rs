//! A std-only scoped-thread worker pool for fanning independent
//! experiment cells (scenario × load × replication × scheduler) across
//! cores.
//!
//! Design constraints (see DESIGN.md "Performance model"):
//!
//! * **No new dependencies.** The workspace builds offline, so the
//!   pool is [`std::thread::scope`] plus one [`Mutex`]-guarded iterator
//!   that hands out the jobs. No `rayon`, no channels.
//! * **Bit-identical to serial execution.** Each job is a pure function
//!   of its input (every `Experiment::run()` forks its own RNG tree from
//!   the root seed), so parallelism could only perturb *ordering*, and a
//!   job's result is written into the slot its input was taken from:
//!   `parallel_map` is `items.into_iter().map(f).collect()` up to the
//!   per-job `Result` wrapper.
//! * **One rule for when a pool spins up:** `threads > 1` and at least
//!   two items; otherwise the jobs run on the calling thread.
//! * **Supervised execution.** [`parallel_map`] catches a job's panic,
//!   retries the job once on its cloned input (a deterministic failure
//!   fails twice; a transient one — exhausted address space, a poisoned
//!   downstream lock — may recover) and surfaces a persistent failure as
//!   a [`WorkerFailure`] in that job's result slot, so a 5000-point
//!   sweep reports one bad point instead of losing the other 4999.
//!   `for_each_mut` propagates the panic instead: its caller, the
//!   network's epoch barrier, mutates whole [`Cell`]s in place, and a
//!   job that stopped half way through a cell has no input to re-run.
//! * **Two entry points.** [`parallel_map`] for jobs whose inputs are
//!   `Clone` and whose cells are built inside the job (experiment
//!   sweeps, figures), `for_each_mut` for long-lived objects.
//!
//! [`Cell`]: crate::cell::Cell

use outran_simcore::check::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A job that panicked on its first run *and* on its deterministic
/// retry, reported in the job's result slot instead of aborting the
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Attempts made (always 2: the first run plus one retry).
    pub attempts: u32,
    /// The panic payload, stringified (`&str` / `String` payloads pass
    /// through verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} panicked after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Run one job under supervision: catch a panic, retry once on the
/// cloned input, surface a second panic as [`WorkerFailure`].
fn run_supervised<T, R, F>(index: usize, item: T, f: &F) -> Result<R, WorkerFailure>
where
    T: Clone,
    F: Fn(T) -> R,
{
    let retry_input = item.clone();
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(r) => Ok(r),
        Err(_) => match catch_unwind(AssertUnwindSafe(|| f(retry_input))) {
            Ok(r) => Ok(r),
            Err(payload) => Err(WorkerFailure {
                index,
                attempts: 2,
                message: panic_message(payload.as_ref()).to_string(),
            }),
        },
    }
}

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` worker threads, returning the
/// per-job results in submission order. Each job runs supervised: a
/// panic is caught and retried once on the job's cloned input, and a job
/// that panics twice yields `Err(WorkerFailure)` in its slot.
#[expect(
    clippy::expect_used,
    reason = "`for_each_mut` returns once every slot was visited, or re-raises a panic"
)]
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<Result<R, WorkerFailure>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots: Vec<_> = items.into_iter().map(|x| (Some(x), None)).collect();
    for_each_mut(threads, &mut slots, |i, (item, out)| {
        *out = item.take().map(|x| run_supervised(i, x, &f))
    });
    slots
        .into_iter()
        .map(|(_, out)| out.expect("every slot was visited"))
        .collect()
}

/// Run `f(index, &mut item)` over `items` in place on up to `threads`
/// worker threads, which take the items in index order off one shared
/// iterator. For jobs that mutate long-lived, independent objects (the
/// cells of a network): nothing is moved through the pool, so there is no
/// order to restore. A worker panic propagates out of the scope.
pub(crate) fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        items
            .iter_mut()
            .enumerate()
            .for_each(|(i, item)| f(i, item));
        return;
    }
    let jobs = Mutex::new(items.iter_mut().enumerate());
    let work = || loop {
        // Poison recovery instead of panicking: a poisoned lock means
        // another worker already panicked; that panic is re-raised below,
        // and an iterator that handed out its items is still sound.
        let job = jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next();
        match job {
            Some((i, item)) => f(i, item),
            None => break,
        }
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        work();
        // Joined by handle, not left to the scope: the scope's own wait
        // ends when a worker's closure returns, a join when its thread is
        // gone. Passes run back to back, and a thread still exiting holds
        // on to its allocator arena, so the next pass's threads would open
        // new ones and strand the freed memory of the old.
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks<R: Clone>(results: &[Result<R, WorkerFailure>]) -> Vec<R> {
        results
            .iter()
            .map(|r| r.as_ref().expect("unexpected worker failure").clone())
            .collect()
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let par = parallel_map(threads, items.clone(), |x| x * x);
            assert_eq!(oks(&par), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = parallel_map(4, Vec::<u64>::new(), |x| x);
        assert!(empty.is_empty());
        let one = parallel_map(4, vec![7u64], |x| x + 1);
        assert_eq!(oks(&one), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(16, vec![1, 2, 3], |x| x * 10);
        assert_eq!(oks(&out), vec![10, 20, 30]);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_with_its_index() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..7).collect();
            for_each_mut(threads, &mut items, |i, x| *x = *x * 10 + i as u64);
            assert_eq!(items, [0, 11, 22, 33, 44, 55, 66], "threads={threads}");
        }
        for_each_mut(4, &mut Vec::<u64>::new(), |_, _| panic!("no item to visit"));
    }

    #[test]
    #[should_panic]
    fn for_each_mut_worker_panic_propagates() {
        for_each_mut(2, &mut [0, 1, 2, 3], |i, _| assert_ne!(i, 2, "boom"));
    }

    #[test]
    fn deterministic_panic_surfaces_as_failure() {
        // A deterministic panic fails both attempts and lands as a
        // structured failure in its own slot; every other job survives.
        for threads in [1, 2, 4] {
            let out = parallel_map(threads, vec![0u64, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom at {x}");
                }
                x * 10
            });
            assert_eq!(out.len(), 4);
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[1], Ok(10));
            assert_eq!(out[3], Ok(30));
            let failure = out[2].as_ref().unwrap_err();
            assert_eq!(failure.index, 2);
            assert_eq!(failure.attempts, 2);
            assert!(failure.message.contains("boom at 2"), "{failure}");
        }
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let tries = AtomicU32::new(0);
        let out = parallel_map(1, vec![5u64], |x| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x + 1
        });
        assert_eq!(out, vec![Ok(6)]);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
