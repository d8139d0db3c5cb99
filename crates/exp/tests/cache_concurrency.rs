//! Concurrency oracle for the bounded sharded LRU behind the
//! threshold-solution memo.
//!
//! The serve daemon shares one memo across all workers, so residency
//! must stay bounded however many distinct keys race through it, and
//! every lookup must return the value derived for its own key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use voltctl_exp::ShardedLru;

#[test]
fn eviction_never_exceeds_the_configured_bound_under_contention() {
    // A tiny dedicated LRU hammered with far more distinct keys than
    // capacity, from 8 threads, with the invariant checked *during* the
    // storm, not just after it.
    let lru: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(4, 4));
    let capacity = lru.capacity();
    let violations = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for thread in 0..8u64 {
            let lru = Arc::clone(&lru);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                for i in 0..512u64 {
                    let key = thread * 1_000 + i % 64;
                    let got = lru.get_or_insert_with(&key, || key * 3);
                    if got != key * 3 {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    if lru.len() > capacity {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(violations.load(Ordering::Relaxed), 0);
    assert!(lru.len() <= capacity);
}
