//! "Bit for bit" made executable: FNV-1a digests of whole generated
//! traces, computed once on the commit *before* the generator's searches
//! and sorts were replaced by guide tables and an insertion pass, and
//! pinned here. Every field the generator draws goes into the digest, so
//! a changed RNG draw, a reordered event or a float computed differently
//! anywhere in `quts-workload` moves a constant.
//!
//! `results/run_all_scale120.txt` (tier-1's golden output) stands on the
//! `scaled(120)` trace with seed 1; the benchmark's `virt_paper_trace`
//! on the paper default.

use quts_db::QueryOp;
use quts_workload::stockgen::BurstModel;
use quts_workload::{StockWorkloadConfig, Trace};

/// FNV-1a, 64-bit, fed whole `u64` words little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(trace.num_stocks));
    h.word(trace.updates.len() as u64);
    for u in &trace.updates {
        h.word(u.arrival.as_micros());
        h.word(u64::from(u.trade.stock.0));
        h.word(u.trade.price.to_bits());
        h.word(u.trade.volume);
        h.word(u.trade.trade_time_ms);
        h.word(u.cost.0);
    }
    h.word(trace.queries.len() as u64);
    for q in &trace.queries {
        h.word(q.arrival.as_micros());
        match &q.op {
            QueryOp::Lookup(s) => {
                h.word(0);
                h.word(u64::from(s.0));
            }
            QueryOp::MovingAverage { stock, window } => {
                h.word(1);
                h.word(u64::from(stock.0));
                h.word(*window as u64);
            }
            QueryOp::Compare(stocks) => {
                h.word(2);
                h.word(stocks.len() as u64);
                for s in stocks {
                    h.word(u64::from(s.0));
                }
            }
            QueryOp::Portfolio(positions) => {
                h.word(3);
                h.word(positions.len() as u64);
                for (s, w) in positions {
                    h.word(u64::from(s.0));
                    h.word(w.to_bits());
                }
            }
        }
        h.word(q.cost.0);
    }
    h.0
}

#[test]
fn paper_default_trace_is_pinned() {
    let t = StockWorkloadConfig::default().generate();
    assert_eq!((t.queries.len(), t.updates.len()), (82_129, 496_892));
    assert_eq!(digest(&t), PAPER_DEFAULT, "got {:#018x}", digest(&t));
}

#[test]
fn fifteen_second_trace_is_pinned() {
    let t = StockWorkloadConfig::paper_scaled_to(15.0).generate();
    assert_eq!(digest(&t), PAPER_15S, "got {:#018x}", digest(&t));
}

#[test]
fn golden_output_trace_is_pinned() {
    let t = StockWorkloadConfig {
        seed: 1,
        ..StockWorkloadConfig::default().scaled(120)
    }
    .generate();
    assert_eq!(digest(&t), SCALE120_SEED1, "got {:#018x}", digest(&t));
}

/// A small universe whose update-rate shape has zero-weight seconds both
/// inside the horizon (bursts of intensity 0) and at its end (a decline
/// to 0): the inverse CDF has plateaus, and padding singletons are drawn.
#[test]
fn small_trace_with_zero_weight_segments_is_pinned() {
    let cfg = StockWorkloadConfig {
        num_stocks: 64,
        num_queries: 500,
        num_updates: 3000,
        horizon_s: 10.0,
        update_rate_decline: 0.0,
        update_bursts: BurstModel {
            per_minute: 18.0,
            duration_s: (0.5, 1.5),
            intensity: (0.0, 0.0),
        },
        seed: 7,
        ..StockWorkloadConfig::default()
    };
    let t = cfg.generate();
    let silent = (0..10)
        .filter(|s| {
            !t.updates
                .iter()
                .any(|u| u.arrival.as_micros() / 1_000_000 == *s)
        })
        .count();
    assert!(silent >= 2, "only {silent} silent seconds");
    assert_eq!(digest(&t), SMALL_ZERO_WEIGHT, "got {:#018x}", digest(&t));
}

// Computed on commit fc5be2a (`partition_point` inverse CDFs, `sort_unstable`
// over the update events).
const PAPER_DEFAULT: u64 = 0xa23b_b5bd_afa6_994e;
const PAPER_15S: u64 = 0x47af_e65c_774a_a466;
const SCALE120_SEED1: u64 = 0x8ae0_3eb4_079a_7c0d;
const SMALL_ZERO_WEIGHT: u64 = 0x12f4_5dc6_5f4b_fe81;
