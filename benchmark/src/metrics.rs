//! The metric registry: every name the benchmark prints, with its unit,
//! its better direction and how it is gated. `BENCHMARK.json` must list
//! exactly these (a unit test holds the two together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may move the wrong way before it counts as
/// regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Rel(f64),
    /// An absolute amount in the metric's unit.
    Abs(f64),
    /// Any move the wrong way.
    Any,
}

/// How a metric is gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Printed by every workload's untraced run and bounded in
    /// `BENCHMARK.json` (which `agree` reads the bound from).
    EndToEnd,
    /// A headline metric of some workloads only. The acceptance driver
    /// wants every end-to-end metric from every workload, so these ride
    /// in the per-layer list; `agree` still holds them to the bound the
    /// issue set.
    Headline(Bound),
    /// A per-layer number: explains, is not gated.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        gate: Gate::EndToEnd,
    }
}

const fn headline(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Def {
    Def {
        name,
        unit,
        better,
        gate: Gate::Headline(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        gate: Gate::Layer,
    }
}

use Better::{Higher, Lower};

pub const REGISTRY: &[Def] = &[
    // End to end, on every workload.
    e2e("setup_s", "s", Lower),
    e2e("query_p50_us", "us", Lower),
    e2e("ops_per_s", "ops/s", Higher),
    e2e("query_slo_frac", "frac", Higher),
    e2e("profit_pct", "%", Higher),
    // Headline metrics of single workloads that hold their bound.
    headline("update_ack_p50_us", "us", Lower, Bound::Rel(0.10)),
    headline("failed_frac", "frac", Lower, Bound::Abs(0.005)),
    headline("repl_catchup_per_s", "1/s", Higher, Bound::Rel(0.10)),
    // Headline candidates that could not (spreads in the README):
    // printed, not gated.
    layer("query_p99_us", "us", Lower),
    layer("update_ack_p99_us", "us", Lower),
    layer("connect_first_reply_p50_us", "us", Lower),
    layer("max_rate_ok_ops_s", "ops/s", Higher),
    layer("events_per_s", "1/s", Higher),
    layer("sim_events_per_s", "1/s", Higher),
    layer("replicate_p50_us", "us", Lower),
    layer("replicate_p99_us", "us", Lower),
    // gen: the benchmark's own health.
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.unanswered", "count", Lower),
    layer("gen.poll_grain_us", "us", Lower),
    layer("gen.x40.query_p99_us", "us", Lower),
    layer("gen.x80.query_p99_us", "us", Lower),
    layer("gen.x40.failed_frac", "frac", Lower),
    layer("gen.x80.failed_frac", "frac", Lower),
    // server.protocol, server.conn.
    layer("protocol.parse_ns", "ns", Lower),
    layer("wire.overhead_p50_us", "us", Lower),
    layer("conn.accept_p50_us", "us", Lower),
    // engine.runtime, traced.
    layer("engine.queue_wait_p50_us", "us", Lower),
    layer("engine.queue_wait_p99_us", "us", Lower),
    layer("engine.service_p50_us", "us", Lower),
    layer("engine.response_p50_us", "us", Lower),
    layer("engine.response_p99_us", "us", Lower),
    layer("engine.update_delay_p50_us", "us", Lower),
    layer("engine.update_delay_p99_us", "us", Lower),
    layer("engine.uu_mean", "count", Lower),
    layer("engine.invalidation_ratio", "frac", Higher),
    layer("engine.queue_full_rejections", "count", Lower),
    layer("engine.rho_final", "frac", Higher),
    layer("engine.profit_pct_reported", "%", Higher),
    layer("engine.trace_overhead_pct", "%", Lower),
    layer("engine.inproc_query_rt_p50_ns", "ns", Lower),
    layer("engine.inproc_update_per_s", "1/s", Higher),
    // engine.durability, db.wal.
    layer("wal.appended", "count", Higher),
    layer("wal.fsyncs", "count", Lower),
    layer("wal.appends_per_fsync", "count", Higher),
    layer("wal.snapshots", "count", Lower),
    layer("wal.bytes_per_update", "count", Lower),
    layer("durability.group_wait_p50_us", "us", Lower),
    layer("durability.group_batch_p50", "count", Higher),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.fsync_p50_us", "us", Lower),
    // engine.repl.
    layer("repl.frames_shipped", "count", Lower),
    layer("repl.lag_frames_final", "count", Lower),
    layer("repl.bootstraps", "count", Lower),
    layer("repl.reconnects", "count", Lower),
    layer("repl.poll_resolution_us", "us", Lower),
    layer("repl.frame_codec_ns", "ns", Lower),
    // sched, qc, db, metrics, vendor.channel probes.
    layer("sched.decision_ns", "ns", Lower),
    layer("qc.profit_eval_ns", "ns", Lower),
    layer("db.lookup_ns", "ns", Lower),
    layer("db.moving_avg_ns", "ns", Lower),
    layer("db.apply_update_ns", "ns", Lower),
    layer("db.lock_cycle_ns", "ns", Lower),
    layer("metrics.hist_record_ns", "ns", Lower),
    layer("channel.hop_ns", "ns", Lower),
    // sim, engine.virt, workload.
    layer("sim.dispatches", "count", Lower),
    layer("virt.dispatches", "count", Lower),
    layer("virt.updates_invalidated", "count", Higher),
    layer("virt.end_us", "us", Lower),
    layer("workload.gen_events_per_s", "1/s", Higher),
];

pub fn lookup(name: &str) -> Option<&'static Def> {
    REGISTRY.iter().find(|d| d.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static Def> {
    REGISTRY.iter().filter(|d| d.gate == Gate::EndToEnd)
}

pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    REGISTRY.iter().filter(|d| d.gate != Gate::EndToEnd)
}

/// Verdict of comparing a later median `b` with an earlier median `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a move within
    /// it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` moved the wrong way from `a`, in the bound's own terms:
/// a share of `a` for relative bounds, the metric's unit otherwise.
pub fn worsening(better: Better, bound: Bound, a: f64, b: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    match bound {
        Bound::Rel(_) if a != 0.0 => worse_by / a.abs(),
        _ => worse_by,
    }
}

/// Judges `b` against `a`. `spread` is the widest interquartile range
/// of either side, in the same terms as [`worsening`]; `None` when a
/// side has a single run.
pub fn judge(better: Better, bound: Bound, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let limit = match bound {
        Bound::Rel(share) | Bound::Abs(share) => share,
        Bound::Any => 0.0,
    };
    if worsening(better, bound, a, b) > limit {
        Verdict::Regressed
    } else if bound != Bound::Any && spread.is_some_and(|s| s > limit) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, d) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(lookup("setup_s").is_some_and(|d| d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn bound_comparison_is_relative_or_absolute_and_knows_direction() {
        // Lower is better, +10 % allowed: 100 -> 109 passes, 100 -> 111 fails.
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 109.0, None),
            Verdict::Ok
        );
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 111.0, None),
            Verdict::Regressed
        );
        // Getting better is never a regression, however far.
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 10.0, None),
            Verdict::Ok
        );
        // Higher is better, -10 % allowed.
        assert_eq!(
            judge(Higher, Bound::Rel(0.10), 1000.0, 905.0, None),
            Verdict::Ok
        );
        assert_eq!(
            judge(Higher, Bound::Rel(0.10), 1000.0, 890.0, None),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Higher, Bound::Rel(0.10), 1000.0, 5000.0, None),
            Verdict::Ok
        );
        // Absolute: a fraction may drop by 0.01 whatever its size.
        assert_eq!(
            judge(Higher, Bound::Abs(0.01), 0.995, 0.990, None),
            Verdict::Ok
        );
        assert_eq!(
            judge(Higher, Bound::Abs(0.01), 0.995, 0.980, None),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Lower, Bound::Abs(0.005), 0.0, 0.004, None),
            Verdict::Ok
        );
        assert_eq!(
            judge(Lower, Bound::Abs(0.005), 0.0, 0.006, None),
            Verdict::Regressed
        );
        // Any drop.
        assert_eq!(
            judge(Higher, Bound::Any, 3216.0, 3216.0, Some(0.5)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Higher, Bound::Any, 3216.0, 804.0, None),
            Verdict::Regressed
        );
        // A spread wider than the bound leaves an unchanged median unresolved.
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 101.0, Some(0.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 101.0, Some(0.05)),
            Verdict::Ok
        );
        // But a regression past the bound is still a regression.
        assert_eq!(
            judge(Lower, Bound::Rel(0.10), 100.0, 130.0, Some(0.15)),
            Verdict::Regressed
        );
    }
}
