//! Memo fault isolation: a memo builder that panics while it holds the
//! store lock poisons that lock. The store must shrug it off — the
//! abandoned key elects one of its waiters as the new builder, and every
//! other request in the burst completes with the explanation a memo-less
//! run gives, bit for bit.
//!
//! Kept in its own test binary: it reads the process-global memo
//! counters, which other tests running in parallel would move.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Barrier};

use nexus_core::{
    ExplainRequest, Explanation, MemoHandle, MemoKey, MemoKind, MemoStore, Nexus, NexusOptions,
    Parallelism, RunControl,
};
use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_info::kernel::counters;

/// Bit-identical selection, scores, and stopping reason.
fn assert_identical(a: &Explanation, b: &Explanation, what: &str) {
    assert_eq!(a.names(), b.names(), "{what}: selected attributes");
    assert_eq!(a.initial_cmi.to_bits(), b.initial_cmi.to_bits(), "{what}");
    assert_eq!(
        a.explained_cmi.to_bits(),
        b.explained_cmi.to_bits(),
        "{what}"
    );
    for (x, y) in a.attributes.iter().zip(&b.attributes) {
        assert_eq!(
            x.responsibility.to_bits(),
            y.responsibility.to_bits(),
            "{what}: {}",
            x.name
        );
        assert_eq!(x.weighted, y.weighted, "{what}: {}", x.name);
    }
    assert_eq!(a.stopped_by_responsibility, b.stopped_by_responsibility);
}

#[test]
fn a_builder_panicking_under_the_store_lock_leaves_the_burst_intact() {
    let d = load(DatasetKind::Covid, Scale::Small);
    let q = queries_for(DatasetKind::Covid)[0].parsed();
    let nexus = Nexus::new(
        NexusOptions::builder()
            .parallelism(Parallelism::Serial)
            .build()
            .expect("valid options"),
    );
    let explain = |memo: Option<&MemoHandle>| {
        let request = ExplainRequest::new()
            .table(&d.table)
            .knowledge_graph(&d.kg)
            .extraction_columns(d.extraction_columns.iter().cloned())
            .query(&q);
        let ctl = match memo {
            Some(h) => RunControl::none().with_memo(h),
            None => RunControl::none(),
        };
        nexus
            .run_controlled(&request, ctl)
            .expect("pipeline runs")
            .0
    };
    let plain = explain(None);

    let store = Arc::new(MemoStore::new(0));
    let handle = MemoHandle::new(store.clone(), d.table.fingerprint());
    // A published entry the faulty builder will misread, and the key its
    // build is in flight for.
    let typed = MemoKey::new(MemoKind::CmiTerm, 0, 0, 0, "typed");
    store.get_or_build(&typed, || (Arc::new(7u64), 8));
    let faulty = MemoKey::new(MemoKind::CmiTerm, 0, 0, 0, "faulty");
    const WAITERS: u64 = 3;
    const BURST: usize = 2;
    let before = counters().snapshot().memo_coalesced_waits;

    let start = Barrier::new(1 + WAITERS as usize + BURST);
    let (waited, burst) = std::thread::scope(|s| {
        // The faulty builder: claims `faulty` (then releases the rest),
        // holds it until every waiter has coalesced onto it, then panics
        // inside the store lock (a wrong-typed peek), abandoning its
        // ticket on a poisoned store.
        let builder = s.spawn(|| {
            let fault = std::panic::catch_unwind(AssertUnwindSafe(|| {
                store.get_or_build(&faulty, || -> (Arc<u64>, u64) {
                    start.wait();
                    while counters().snapshot().memo_coalesced_waits < before + WAITERS {
                        std::thread::yield_now();
                    }
                    let _ = store.peek::<String>(&typed);
                    unreachable!("a u64 entry cannot be peeked as a String")
                })
            }));
            assert!(fault.is_err(), "the builder must panic");
        });
        let waiters: Vec<_> = (0..WAITERS)
            .map(|i| {
                let (start, store, faulty) = (&start, &store, &faulty);
                s.spawn(move || {
                    start.wait();
                    *store.get_or_build(faulty, || (Arc::new(1000 + i), 8))
                })
            })
            .collect();
        // The pipelined burst: memoized explains of one query, sharing
        // (and coalescing on) every sub-query key, alongside the fault.
        let burst: Vec<_> = (0..BURST)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    explain(Some(&handle))
                })
            })
            .collect();
        builder.join().expect("builder thread");
        let waited: Vec<u64> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        let burst: Vec<Explanation> = burst.into_iter().map(|b| b.join().unwrap()).collect();
        (waited, burst)
    });

    // One waiter was elected builder; the others read its value.
    assert!(waited.iter().all(|&v| v == waited[0]), "{waited:?}");
    assert!((1000..1000 + WAITERS).contains(&waited[0]));
    assert_eq!(store.peek::<u64>(&faulty).as_deref(), Some(&waited[0]));
    for (i, e) in burst.iter().enumerate() {
        assert_identical(&plain, e, &format!("burst request {i}"));
    }
    // The poisoned store keeps serving: a warm repeat hits the memo and
    // still matches.
    let hits = counters().snapshot().memo_hits_total();
    assert_identical(&plain, &explain(Some(&handle)), "warm repeat");
    assert!(counters().snapshot().memo_hits_total() > hits);
}
