//! Microbenchmarks of per-transaction scheduler operations.
//!
//! The admit → pop cycle is executed once per transaction (579k times per
//! paper trace); QUTS additionally refreshes its atom/adaptation state on
//! every call.

use criterion::{criterion_group, criterion_main, Criterion};
use quts_db::StockId;
use quts_sched::{DualQueue, GlobalFifo, Quts};
use quts_sim::{QueryId, QueryInfo, Scheduler, SimDuration, SimTime, UpdateId, UpdateInfo};
use std::hint::black_box;

fn qinfo(seq: u64) -> QueryInfo {
    let arrival = SimTime::from_ms(seq);
    QueryInfo {
        arrival,
        seq,
        cost: SimDuration::from_ms(7),
        qosmax: 25.0,
        qodmax: 25.0,
        rtmax_ms: Some(75.0),
        vrd: 50.0 / 75.0,
        expiry: arrival + SimDuration::from_secs(180),
    }
}

fn uinfo(seq: u64) -> UpdateInfo {
    UpdateInfo {
        arrival: SimTime::from_ms(seq),
        seq,
        cost: SimDuration::from_ms(3),
        stock: StockId((seq % 64) as u32),
    }
}

fn bench_cycle<S: Scheduler, F: Fn() -> S>(c: &mut Criterion, name: &str, make: F) {
    c.bench_function(&format!("scheduler/{name}/admit_pop_cycle"), |b| {
        let mut s = make();
        let mut seq = 0u64;
        let mut sink = Vec::new();
        b.iter(|| {
            seq += 2;
            let now = SimTime::from_ms(seq);
            s.admit_query(QueryId(seq as u32), &qinfo(seq), now);
            s.admit_update(UpdateId(seq as u32), &uinfo(seq + 1), now);
            // Pop and finish both transactions, as the engine does on
            // every commit: the full per-transaction scheduler cost.
            for _ in 0..2 {
                if let Some(txn) = black_box(s.pop_next(now)) {
                    s.finish(txn);
                }
            }
            // The engine drains buffered decisions once per cycle; a
            // no-op for schedulers with tracing off.
            s.drain_decisions(&mut sink);
            black_box(&mut sink).clear();
        })
    });
}

fn bench_all(c: &mut Criterion) {
    bench_cycle(c, "fifo", GlobalFifo::new);
    bench_cycle(c, "uh", DualQueue::uh);
    bench_cycle(c, "qh", DualQueue::qh);
    // Decision tracing defaults to off; this is the guarded fast path.
    bench_cycle(c, "quts", Quts::with_defaults);
    bench_cycle(c, "quts_traced", || {
        let mut s = Quts::with_defaults();
        s.set_decision_trace(true);
        s
    });
}

fn bench_quts_refresh(c: &mut Criterion) {
    c.bench_function("scheduler/quts/timer_refresh", |b| {
        let mut s = Quts::with_defaults();
        s.admit_query(QueryId(0), &qinfo(0), SimTime::ZERO);
        let mut now_ms = 0u64;
        b.iter(|| {
            now_ms += 10; // one atom boundary per call
            s.on_timer(SimTime::from_ms(now_ms));
        })
    });
}

fn bench_deep_queue(c: &mut Criterion) {
    c.bench_function("scheduler/qh/pop_from_10k_queries", |b| {
        // Steady state at depth 10 000: each iteration pops the best
        // query, finishes it, and admits a replacement — the deep-queue
        // cost one dispatch pays, with no allocator teardown in the
        // timed region.
        let mut s = DualQueue::qh();
        for i in 0..10_000u64 {
            s.admit_query(QueryId(i as u32), &qinfo(i), SimTime::ZERO);
        }
        let mut seq = 10_000u64;
        b.iter(|| {
            if let Some(txn) = black_box(s.pop_next(SimTime::ZERO)) {
                s.finish(txn);
            }
            s.admit_query(QueryId(seq as u32), &qinfo(seq), SimTime::ZERO);
            seq += 1;
        })
    });
}

/// The update path alone, at a standing depth of 64 queued updates (one
/// per item, ids are item indices — the live runtime's numbering).
fn bench_update_path(c: &mut Criterion) {
    const ITEMS: u64 = 64;
    fn standing(mut s: impl Scheduler) -> impl Scheduler {
        for seq in 0..ITEMS {
            s.admit_update(UpdateId(seq as u32), &uinfo(seq), SimTime::ZERO);
        }
        s
    }
    // A fresh update's whole life: pop the oldest, finish it, admit its
    // item's next update at the tail.
    c.bench_function("scheduler/uh/update_admit_pop_finish", |b| {
        let mut s = standing(DualQueue::uh());
        let mut seq = ITEMS;
        b.iter(|| {
            if let Some(txn) = black_box(s.pop_next(SimTime::ZERO)) {
                s.finish(txn);
            }
            s.admit_update(UpdateId((seq % ITEMS) as u32), &uinfo(seq), SimTime::ZERO);
            seq += 1;
        })
    });
    // Register-table invalidation as the simulator drives it: drop the
    // queued update, finish it, admit the replacement (a new id) under
    // the inherited sequence number. Depth and positions never change.
    c.bench_function("scheduler/uh/update_invalidate_reinherit", |b| {
        let mut s = standing(DualQueue::uh());
        let mut queued: Vec<u32> = (0..ITEMS as u32).collect();
        let mut next_id = ITEMS as u32;
        let mut at = 0usize;
        b.iter(|| {
            let old = UpdateId(std::mem::replace(&mut queued[at], next_id));
            s.drop_update(old);
            s.finish(quts_sim::TxnRef::Update(old));
            s.admit_update(UpdateId(next_id), &uinfo(at as u64), SimTime::ZERO);
            // Fresh ids cycle through a window twice the depth, so a
            // replacement never reuses an id that is still queued.
            next_id = ITEMS as u32 + (next_id + 1 - ITEMS as u32) % (2 * ITEMS as u32);
            at = (at + 7) % ITEMS as usize;
        })
    });
}

criterion_group!(
    benches,
    bench_all,
    bench_quts_refresh,
    bench_deep_queue,
    bench_update_path
);
criterion_main!(benches);
