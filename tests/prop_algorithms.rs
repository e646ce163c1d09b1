//! Property-based tests over the algorithm suite: every sorting,
//! selection, scan, and merge implementation must agree with its
//! specification on arbitrary inputs, and the pool's scoped map must
//! agree with a sequential map.

use pdc::algos::mergesort::{merge, merge_sort, parallel_merge, parallel_merge_sort_pmerge};
use pdc::algos::scanapps::{max_subarray_sum, radix_sort_u64};
use pdc::algos::selection::{median_of_medians, parallel_select, quickselect};
use pdc::algos::sorting::{parallel_quicksort, quicksort, sample_sort};
use pdc::threads::pool::{pool_map, WorkStealingPool};
use pdc::threads::sliceops::{par_exclusive_scan, par_filter, par_map, par_reduce};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Run `body` on its own thread and fail, instead of hanging, if it
/// does not finish within `secs` (a deadlock or a lost wake-up).
fn within<R: Send + 'static>(
    secs: u64,
    what: &str,
    body: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not finish within {secs}s"))
}

#[test]
fn nested_pool_map_on_a_one_worker_pool_returns() {
    let out = within(60, "nested pool_map", || {
        let pool = Arc::new(WorkStealingPool::new(1));
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&pool);
        // The only worker runs this task, so no helper of the inner map
        // can start before the map is done: the caller must do it all.
        pool.spawn(move || {
            let doubled = pool_map(&inner, (0..50u64).collect(), |x| x * 2);
            // And a map nested in a map's item, on the same pool.
            let sums = pool_map(&inner, vec![10u64, 20], |n| {
                pool_map(&inner, (0..n).collect(), |x| x)
                    .iter()
                    .sum::<u64>()
            });
            tx.send((doubled, sums)).unwrap();
        });
        pool.wait_idle();
        rx.recv().unwrap()
    });
    assert_eq!(out.0, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(out.1, vec![45, 190]);
}

#[test]
fn pool_map_reraises_an_item_panic_after_the_other_items_ran() {
    for workers in 1..=4 {
        let pool = WorkStealingPool::new(workers);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool_map(&pool, (0..100usize).collect(), |i| {
                if i == 37 {
                    panic!("item 37 fails");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = result.expect_err("the item panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37 fails"));
        assert_eq!(ran.load(Ordering::SeqCst), 99, "on {workers} workers");
        // The pool survives and maps again.
        assert_eq!(pool_map(&pool, vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }
}

#[test]
fn parked_workers_wake_for_every_submit() {
    within(120, "spawn/wait_idle cycles with idle gaps", || {
        for workers in 1..=3 {
            let pool = WorkStealingPool::new(workers);
            let hits = Arc::new(AtomicUsize::new(0));
            for cycle in 0..60 {
                // Long enough for every worker to spin out and park.
                std::thread::sleep(Duration::from_millis(2));
                let tasks = 1 + cycle % (workers + 2);
                for _ in 0..tasks {
                    let hits = Arc::clone(&hits);
                    pool.spawn(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
                pool.wait_idle();
                assert_eq!(hits.swap(0, Ordering::SeqCst), tasks, "cycle {cycle}");
                let items: Vec<usize> = (0..cycle).collect();
                assert_eq!(pool_map(&pool, items, |x| x * 3).len(), cycle);
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_sorts_match_std(data in prop::collection::vec(any::<i64>(), 0..400)) {
        let mut want = data.clone();
        want.sort();
        prop_assert_eq!(merge_sort(&data), want.clone());
        prop_assert_eq!(parallel_merge_sort_pmerge(&data, 3), want.clone());
        let mut q = data.clone();
        quicksort(&mut q);
        prop_assert_eq!(q, want.clone());
        let mut pq = data.clone();
        parallel_quicksort(&mut pq, 3);
        prop_assert_eq!(pq, want.clone());
        let (ss, _) = sample_sort(&data, 4, 2, 0);
        prop_assert_eq!(ss, want);
    }

    #[test]
    fn radix_sort_matches_std(data in prop::collection::vec(any::<u64>(), 0..300)) {
        let mut want = data.clone();
        want.sort_unstable();
        prop_assert_eq!(radix_sort_u64(&data, 2), want);
    }

    #[test]
    fn merge_of_sorted_inputs_is_sorted_union(
        mut a in prop::collection::vec(any::<i32>(), 0..200),
        mut b in prop::collection::vec(any::<i32>(), 0..200),
    ) {
        a.sort();
        b.sort();
        let m = merge(&a, &b);
        prop_assert_eq!(m.len(), a.len() + b.len());
        prop_assert!(m.windows(2).all(|w| w[0] <= w[1]));
        // Multiset equality.
        let mut all: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
        all.sort();
        let mut got = m.clone();
        got.sort();
        prop_assert_eq!(got, all);
        // Parallel merge agrees as a multiset and is sorted.
        let pm = parallel_merge(&a, &b, 3);
        prop_assert!(pm.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(pm.len(), m.len());
    }

    #[test]
    fn selection_equals_sorted_index(
        data in prop::collection::vec(any::<i64>(), 1..300),
        k_seed in any::<u64>(),
    ) {
        let k = (k_seed % data.len() as u64) as usize;
        let mut sorted = data.clone();
        sorted.sort();
        prop_assert_eq!(quickselect(&data, k, 1), sorted[k]);
        prop_assert_eq!(median_of_medians(&data, k), sorted[k]);
        prop_assert_eq!(parallel_select(&data, k, 3, 1), sorted[k]);
    }

    #[test]
    fn par_map_filter_reduce_match_serial(
        data in prop::collection::vec(-1000i64..1000, 0..500),
        workers in 1usize..6,
    ) {
        let mapped = par_map(&data, workers, |&x| x * 2 + 1);
        let want: Vec<i64> = data.iter().map(|&x| x * 2 + 1).collect();
        prop_assert_eq!(mapped, want);

        let filtered = par_filter(&data, workers, |&x| x % 3 == 0);
        let want: Vec<i64> = data.iter().copied().filter(|&x| x % 3 == 0).collect();
        prop_assert_eq!(filtered, want);

        let sum = par_reduce(&data, workers, 0i64, |&x| x, |a, b| a + b);
        prop_assert_eq!(sum, data.iter().sum::<i64>());
    }

    #[test]
    fn exclusive_scan_spec(
        data in prop::collection::vec(-500i64..500, 0..400),
        workers in 1usize..6,
    ) {
        let (scan, total) = par_exclusive_scan(&data, workers, 0i64, |a, b| a + b);
        let mut acc = 0i64;
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(scan[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn max_subarray_matches_kadane(data in prop::collection::vec(-50i64..50, 1..300)) {
        let mut best = 0i64;
        let mut cur = 0i64;
        for &x in &data {
            cur = (cur + x).max(0);
            best = best.max(cur);
        }
        prop_assert_eq!(max_subarray_sum(&data, 3), best);
    }

    #[test]
    fn pool_map_over_borrowed_input_matches_sequential_map(
        data in prop::collection::vec(any::<i64>(), 1..200),
        workers in 1usize..5,
    ) {
        let pool = WorkStealingPool::new(workers);
        let offset = data[0];
        // Empty, one item, fewer items than workers, and many times
        // the workers, each cycling through the drawn values.
        for len in [0, 1, workers - 1, workers + 1, 16 * workers, data.len()] {
            let input: Vec<i64> = data.iter().copied().cycle().take(len).collect();
            let borrowed: Vec<&i64> = input.iter().collect();
            let want: Vec<i64> = input.iter().map(|x| x.wrapping_mul(3) ^ offset).collect();
            let got = pool_map(&pool, borrowed, |x| x.wrapping_mul(3) ^ offset);
            prop_assert_eq!(got, want);
        }
    }
}
