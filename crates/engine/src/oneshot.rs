//! A one-shot reply slot: one value handed from the scheduler thread to
//! one ticket holder, once.
//!
//! A query's answer (and a durable update's ack) never needed an MPMC
//! queue. The slot is a `Mutex` around the value plus one `Condvar`
//! that is signalled only while the ticket holder is actually parked on
//! it, so answering a ticket nobody is blocked on yet — the common case
//! for pipelined clients — is a lock, a store and an unlock: no syscall.
//! A blocking receive polls the slot for `SPIN` before it parks, so a
//! reply from an idle engine costs no wake-up either. A [`ReplySender`]
//! dropped without sending closes the slot, which the receiver reads as
//! a disconnect, never a hang.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a blocking receive polls the slot (yielding the CPU between
/// looks) before it parks on the condvar.
///
/// An idle engine answers within microseconds, and parking for that
/// costs a futex sleep plus a wake-up by the scheduler thread — on a
/// shared two-core host anything from 5 to 100 µs, at the kernel's whim.
/// A connection thread waits for one reply at a time, so that wake-up is
/// its throughput: `wire_open_paper`'s 12,000 queries/s burst at ×80 was
/// absorbed in some runs and backed up to 250 ms in others (`query_slo_frac`
/// 1.00 or 0.87, about two runs in five, on the same binary). About one
/// park/unpark pair of polling takes the scheduler's mood out of it; a
/// reply that takes longer (a fsync, a loaded engine) parks as before.
const SPIN: Duration = Duration::from_micros(100);

struct State<T> {
    value: Option<T>,
    /// The sender sent or was dropped; nothing more will arrive.
    closed: bool,
    /// The receiver is parked on `ready` (still set while a woken or
    /// timed-out receiver re-takes the lock).
    parked: bool,
}

struct Slot<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    /// No critical section below can panic, so a poisoned lock still
    /// guards a valid state; recovering it keeps `Drop` panic-free.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why a receive produced no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyRecvError {
    /// Nothing has been sent yet (only from the non-blocking and timed
    /// receives).
    Pending,
    /// The sender was dropped without sending, or the value was already
    /// taken.
    Disconnected,
}

/// The sending half; consumed by [`ReplySender::send`].
pub(crate) struct ReplySender<T> {
    slot: Option<Arc<Slot<T>>>,
}

/// The receiving half.
pub(crate) struct ReplyReceiver<T> {
    slot: Arc<Slot<T>>,
}

/// A fresh, empty slot.
pub(crate) fn reply_slot<T>() -> (ReplySender<T>, ReplyReceiver<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State {
            value: None,
            closed: false,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    (
        ReplySender {
            slot: Some(Arc::clone(&slot)),
        },
        ReplyReceiver { slot },
    )
}

fn close<T>(slot: &Slot<T>, value: Option<T>) {
    let mut state = slot.lock();
    state.value = value;
    state.closed = true;
    let parked = state.parked;
    drop(state);
    // The receiver set `parked` under the lock its wait released, so
    // reading it under that lock cannot miss a waiter.
    if parked {
        slot.ready.notify_one();
    }
}

impl<T> ReplySender<T> {
    /// Hands the value over. A receiver that is already gone costs
    /// nothing: the value is freed with the slot.
    pub(crate) fn send(mut self, value: T) {
        let slot = self.slot.take().expect("slot present until send or drop");
        close(&slot, Some(value));
    }
}

impl<T> Drop for ReplySender<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            close(&slot, None);
        }
    }
}

impl<T> ReplyReceiver<T> {
    fn take(state: &mut State<T>) -> Result<T, ReplyRecvError> {
        match state.value.take() {
            Some(value) => Ok(value),
            None if state.closed => Err(ReplyRecvError::Disconnected),
            None => Err(ReplyRecvError::Pending),
        }
    }

    /// Non-blocking poll.
    pub(crate) fn try_recv(&self) -> Result<T, ReplyRecvError> {
        Self::take(&mut self.slot.lock())
    }

    /// Blocks until the sender sends or is dropped.
    pub(crate) fn recv(&self) -> Result<T, ReplyRecvError> {
        self.recv_deadline(None)
    }

    /// Blocks up to `timeout`; [`ReplyRecvError::Pending`] on expiry. A
    /// timeout too large to add to the clock (`Duration::MAX`) means no
    /// deadline.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, ReplyRecvError> {
        self.recv_deadline(Instant::now().checked_add(timeout))
    }

    fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, ReplyRecvError> {
        // Poll first, park second: see `SPIN`.
        let spin_end = Instant::now() + SPIN;
        let spin_end = deadline.map_or(spin_end, |d| d.min(spin_end));
        while Instant::now() < spin_end {
            match self.try_recv() {
                Err(ReplyRecvError::Pending) => std::thread::yield_now(),
                resolved => return resolved,
            }
        }
        let mut state = self.slot.lock();
        loop {
            match Self::take(&mut state) {
                Err(ReplyRecvError::Pending) => {}
                resolved => return resolved,
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(ReplyRecvError::Pending);
            }
            let ready = &self.slot.ready;
            state.parked = true;
            state = match left {
                Some(left) => {
                    ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => ready.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
            state.parked = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: Duration = Duration::from_secs(60);

    /// Spins until the receiver is parked on the condvar (it sets the
    /// flag under the lock its wait releases).
    fn until_parked<T>(slot: &Slot<T>) {
        let deadline = Instant::now() + DEADLINE;
        while !slot.lock().parked {
            assert!(Instant::now() < deadline, "receiver never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn value_sent_before_the_wait_is_taken_once() {
        let (tx, rx) = reply_slot();
        assert_eq!(rx.try_recv(), Err(ReplyRecvError::Pending));
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(ReplyRecvError::Pending)
        );
        tx.send(7);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(ReplyRecvError::Disconnected));
    }

    #[test]
    fn dropped_sender_reads_as_disconnect() {
        let (tx, rx) = reply_slot::<u32>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(ReplyRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(ReplyRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(DEADLINE), Err(ReplyRecvError::Disconnected));
    }

    #[test]
    fn parked_receiver_is_woken_by_send_and_by_drop() {
        for send in [true, false] {
            let (tx, rx) = reply_slot();
            let slot = Arc::clone(&rx.slot);
            let waiter = std::thread::spawn(move || rx.recv());
            until_parked(&slot);
            if send {
                tx.send(3);
            } else {
                drop(tx);
            }
            let expect = if send {
                Ok(3)
            } else {
                Err(ReplyRecvError::Disconnected)
            };
            assert_eq!(waiter.join().unwrap(), expect);
        }
    }

    #[test]
    fn recv_timeout_max_means_no_deadline() {
        let (tx, rx) = reply_slot();
        let slot = Arc::clone(&rx.slot);
        let waiter = std::thread::spawn(move || rx.recv_timeout(Duration::MAX));
        until_parked(&slot);
        tx.send(11);
        assert_eq!(waiter.join().unwrap(), Ok(11));
    }

    #[test]
    fn send_to_a_dropped_receiver_frees_the_value() {
        let probe = Arc::new(());
        let (tx, rx) = reply_slot();
        drop(rx);
        tx.send(Arc::clone(&probe));
        assert_eq!(Arc::strong_count(&probe), 1);
    }
}
