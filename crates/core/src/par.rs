//! The one parallel primitive: an ordered, work-claiming parallel map.
//!
//! Every place the shared engine fans out work — Subtree builds,
//! per-Partition traversals, the maintainer's batch phases, forest
//! builds, the load driver — calls [`map`]. Threads claim items one at
//! a time from a shared counter, so cheap and expensive items balance;
//! the calling thread works too and only `width − 1` helpers are
//! spawned.
//!
//! **Determinism contract.** Result `i` is always `f(i, items[i])`, and
//! results come back in input order whatever the width or the claiming
//! schedule. Callers fold the results in index order, so every output
//! is bit-identical at any width — including width 1, which runs inline
//! on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// No slot lock is held while `f` runs, so a panic in `f` cannot poison one.
const UNPOISONED: &str = "slot lock is never held across f";

/// Maps `f(index, item)` over `items` on up to `width` threads (0 = one
/// per core) and returns the results in input order. Width ≤ 1 or a
/// single item runs inline. A panic in `f` propagates to the caller.
pub fn map<T, R, F>(width: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let width = match width {
        0 => std::thread::available_parallelism().map_or(1, |c| c.get()),
        w => w,
    }
    .min(n);
    if width <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Each slot is claimed by exactly one thread through `next`, so the
    // locks are never contended; they only make the hand-off safe. The
    // counter publishes no data (the slot locks and the joins do), so
    // `Relaxed` suffices.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = inputs[i].lock().expect(UNPOISONED).take().expect("item claimed once");
        let r = f(i, item);
        *outputs[i].lock().expect(UNPOISONED) = Some(r);
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        work();
        for h in helpers {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    outputs
        .into_iter()
        .map(|m| m.into_inner().expect(UNPOISONED).expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_every_width() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x)).collect();
        for width in [0, 1, 2, 8, 100] {
            let got = map(width, items.clone(), |i, x| (i, x * x));
            assert_eq!(got, expected, "width {width}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        for width in [0, 1, 4] {
            let got: Vec<u8> = map(width, Vec::<u8>::new(), |_, x| x);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn mutable_borrows_are_handed_out_once() {
        let mut slots = vec![0u32; 50];
        let refs: Vec<&mut u32> = slots.iter_mut().collect();
        let sums = map(4, refs, |i, s| {
            *s += i as u32;
            *s
        });
        assert_eq!(sums, (0..50).collect::<Vec<u32>>());
        assert_eq!(slots, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn a_panic_in_f_propagates() {
        for width in [1, 2, 8] {
            let r = std::panic::catch_unwind(|| {
                map(width, (0..16).collect(), |i, x: i32| {
                    if i == 11 {
                        panic!("item {i} failed");
                    }
                    x
                })
            });
            let payload = r.expect_err("panic must reach the caller");
            let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert_eq!(msg, "item 11 failed", "width {width}");
        }
    }
}
