//! Ordered parallel map over independent jobs: sharded load runs and
//! scenario-matrix sweeps. Every job is a pure function of its input, so the
//! output is byte-identical at any thread count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `inputs` on up to `threads` scoped workers; results come
/// back in input order, equal to `inputs.iter().map(f).collect()`.
///
/// Workers claim job indices from one atomic counter and keep their
/// `(index, result)` pairs locally; the caller scatters them into place.
/// `threads` 0 is treated as 1, workers are capped by the job count, and a
/// 1-worker batch runs inline. A job panic stops further claims, and the
/// first one is re-raised here with its own payload.
pub fn par_map<I, T, F>(threads: usize, inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = threads.min(inputs.len()).max(1);
    if workers == 1 {
        return inputs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let worker = || {
        let claims = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
        let mut done = Vec::new();
        for (index, input) in claims.map_while(|i| Some((i, inputs.get(i)?))) {
            match catch_unwind(AssertUnwindSafe(|| f(input))) {
                Ok(value) => done.push((index, value)),
                Err(payload) => {
                    first_panic.lock().expect("poisoned").get_or_insert(payload);
                    next.store(inputs.len(), Ordering::Relaxed);
                }
            }
        }
        done
    };
    let mut slots: Vec<Option<T>> = inputs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for (index, value) in handles.into_iter().flat_map(|h| h.join().unwrap()) {
            slots[index] = Some(value);
        }
    });
    if let Some(payload) = first_panic.into_inner().expect("poisoned") {
        resume_unwind(payload);
    }
    slots.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burn CPU for a deterministic, input-dependent amount of work and
    /// return a value derived from it (so the work cannot be optimised away).
    fn spin_work(units: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..units * 500 {
            h ^= i;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn empty_batch_returns_empty_output() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let inputs: Vec<usize> = (0..10).collect();
        let out = par_map(1, &inputs, |&x| {
            assert_eq!(std::thread::current().id(), caller, "inline, no spawn");
            x * x
        });
        assert_eq!(out, (0..10).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        let caller = std::thread::current().id();
        let inputs: Vec<u64> = (0..16).collect();
        let out = par_map(0, &inputs, |&x| {
            assert_eq!(std::thread::current().id(), caller, "inline, no spawn");
            x + 1
        });
        assert_eq!(out, par_map(1, &inputs, |&x| x + 1));
    }

    #[test]
    fn worker_count_is_capped_by_job_count() {
        assert_eq!(par_map(64, &[1, 2, 3], |&x| x * 2), vec![2, 4, 6]);
        // One job caps the batch at one worker, which runs inline.
        let caller = std::thread::current().id();
        let out = par_map(64, &[5], |&x| (x, std::thread::current().id() == caller));
        assert_eq!(out, vec![(5, true)]);
    }

    #[test]
    fn parallel_output_matches_serial_output() {
        let inputs: Vec<u64> = (0..257).collect();
        let job = |&x: &u64| x.wrapping_mul(31) ^ (x >> 3);
        let serial: Vec<u64> = inputs.iter().map(job).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map(threads, &inputs, job), serial, "{threads} threads");
        }
    }

    /// Job durations vary by ~50× across the batch, so jobs finish far out
    /// of submission order; results must still land by index.
    #[test]
    fn uneven_job_durations_still_collect_in_submission_order() {
        let inputs: Vec<u64> = (0..96).map(|i| 1 + (i * 37) % 50).collect();
        let expected: Vec<u64> = inputs.iter().map(|&units| spin_work(units)).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &inputs, |&units| spin_work(units));
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn job_panics_propagate_with_their_message() {
        let inputs: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &inputs, |&x| {
                assert!(x != 17, "cell 17 violated an invariant");
                x
            })
        }));
        let payload = result.expect_err("the batch must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(msg, "cell 17 violated an invariant");
    }
}
