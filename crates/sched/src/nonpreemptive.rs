//! A non-preemptive shell around any scheduler.
//!
//! [`NonPreemptive`] forwards everything to the wrapped policy except
//! [`Scheduler::should_preempt`], which always answers `false`: a running
//! transaction finishes before the CPU is handed back to the queues.
//!
//! This is the envelope the conformance oracle runs the simulator under.
//! The live engine executes transactions atomically (dispatch and commit
//! happen inside one `execute_one` call with no pause points), so a
//! differential sim-vs-live comparison is only meaningful with preemption
//! disabled on the sim side. Wrapping QUTS this way is sound because its
//! `refresh` is call-pattern invariant — suppressing the refresh that
//! `should_preempt` would have performed changes no draw and no
//! adaptation, it merely defers them to the next admission, pop, or
//! timer.

use quts_sim::{
    QueryId, QueryInfo, SchedDecision, Scheduler, SimTime, TxnRef, UpdateId, UpdateInfo,
};

/// Wraps a scheduler and suppresses preemption; see the module docs.
#[derive(Debug)]
pub struct NonPreemptive<S>(pub S);

impl<S: Scheduler> Scheduler for NonPreemptive<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn admit_query(&mut self, id: QueryId, info: &QueryInfo, now: SimTime) {
        self.0.admit_query(id, info, now);
    }

    fn admit_update(&mut self, id: UpdateId, info: &UpdateInfo, now: SimTime) {
        self.0.admit_update(id, info, now);
    }

    fn drop_update(&mut self, id: UpdateId) {
        self.0.drop_update(id);
    }

    fn shed_update(&mut self) -> Option<UpdateId> {
        self.0.shed_update()
    }

    fn finish(&mut self, txn: TxnRef) {
        self.0.finish(txn);
    }

    fn pop_next(&mut self, now: SimTime) -> Option<TxnRef> {
        self.0.pop_next(now)
    }

    fn requeue(&mut self, txn: TxnRef, now: SimTime) {
        self.0.requeue(txn, now);
    }

    fn should_preempt(&mut self, _now: SimTime, _running: TxnRef) -> bool {
        false
    }

    fn next_timer(&mut self, now: SimTime) -> Option<SimTime> {
        self.0.next_timer(now)
    }

    fn on_timer(&mut self, now: SimTime) {
        self.0.on_timer(now);
    }

    fn has_pending(&self) -> bool {
        self.0.has_pending()
    }

    fn rho_history(&self) -> Option<&[(SimTime, f64)]> {
        self.0.rho_history()
    }

    fn set_decision_trace(&mut self, enabled: bool) {
        self.0.set_decision_trace(enabled);
    }

    fn drain_decisions(&mut self, sink: &mut Vec<SchedDecision>) {
        self.0.drain_decisions(sink);
    }

    fn queue_depths(&self) -> (usize, usize) {
        self.0.queue_depths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{qinfo, uinfo};
    use crate::{DualQueue, Quts, QutsConfig};
    use quts_sim::Class;

    #[test]
    fn forwards_pops_but_never_preempts() {
        // Update-high would normally preempt a running query the moment
        // an update arrives; the shell must swallow exactly that call.
        let mut s = NonPreemptive(DualQueue::uh());
        s.admit_query(QueryId(0), &qinfo(0, 10.0, 10.0, 100.0), SimTime::ZERO);
        let running = s.pop_next(SimTime::ZERO).expect("query pops");
        assert_eq!(running.class(), Class::Query);
        s.admit_update(UpdateId(0), &uinfo(1, 0), SimTime::from_ms(1));
        assert!(!s.should_preempt(SimTime::from_ms(1), running));
        // The queued update is untouched and pops next, exactly as the
        // inner policy orders it.
        assert!(s.has_pending());
        let next = s.pop_next(SimTime::from_ms(2)).expect("update pops");
        assert_eq!(next.class(), Class::Update);
    }

    #[test]
    fn wrapped_quts_keeps_its_decision_stream() {
        let run = |wrapped: bool| {
            let cfg = QutsConfig::default().with_alpha(0.5).with_seed(17);
            let mut boxed: Box<dyn Scheduler> = if wrapped {
                Box::new(NonPreemptive(Quts::new(cfg)))
            } else {
                Box::new(Quts::new(cfg))
            };
            boxed.set_decision_trace(true);
            boxed.admit_query(QueryId(0), &qinfo(0, 30.0, 60.0, 100.0), SimTime::ZERO);
            boxed.on_timer(SimTime::from_ms(2500));
            let mut sink = Vec::new();
            boxed.drain_decisions(&mut sink);
            sink.iter()
                .map(|d| (d.at_us, format!("{:?}", d.event)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }
}
