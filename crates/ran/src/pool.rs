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
//!   `parallel_map` is `items.into_iter().map(f).collect()`.
//! * **One rule for when a pool spins up:** `threads > 1` and at least
//!   two items; otherwise the jobs run on the calling thread.
//! * **A panicking job fails its sweep**: a release binary prints its
//!   message and aborts (`panic = "abort"`, exit 134); where panics unwind
//!   (debug, tests) it propagates to the caller. A retry would replay the
//!   same panic (the job is pure), and a sweep that dropped a point would
//!   skew the mean it feeds.
//! * **Two entry points.** [`parallel_map`] for jobs whose cells are
//!   built inside the job (experiment sweeps, figures), `for_each_mut`
//!   for long-lived objects (the cells of a network).

use std::sync::Mutex;

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` worker threads, returning the
/// results in submission order. A job's panic propagates to the caller.
#[expect(
    clippy::expect_used,
    reason = "`for_each_mut` returns once every slot was visited, or re-raises a panic"
)]
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots: Vec<_> = items.into_iter().map(|x| (Some(x), None)).collect();
    for_each_mut(threads, &mut slots, |_, (item, out)| {
        *out = item.take().map(&f)
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

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let par = parallel_map(threads, items.clone(), |x| x * x);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = parallel_map(4, Vec::<u64>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(4, vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(
            parallel_map(16, vec![1, 2, 3], |x| x * 10),
            vec![10, 20, 30]
        );
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
    fn a_job_panic_fails_the_sweep_with_its_message() {
        // One job per worker, each held at a barrier until every worker
        // has taken one, so job `k` panics on the calling thread for one
        // `k` and on a spawned worker for the others. The sweep runs on
        // a thread of its own, whose join hands back the payload.
        for threads in [1, 2, 4] {
            for k in 0..threads as u64 {
                let sweep = std::thread::spawn(move || {
                    let all_taken = std::sync::Barrier::new(threads);
                    parallel_map(threads, (0..threads as u64).collect(), |x| {
                        all_taken.wait();
                        assert_ne!(x, k, "boom at {x}");
                        x * 10
                    })
                });
                let payload = sweep.join().expect_err("a job panicked");
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.contains(&format!("boom at {k}")),
                    "threads={threads} k={k}: {message:?}"
                );
            }
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
