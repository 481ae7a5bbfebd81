//! Mailboxes: the small-message channel between the PPE and each SPE.
//!
//! Real Cell gives every SPE a 4-entry inbound mailbox (PPE → SPE), a
//! 1-entry outbound mailbox and a 1-entry outbound *interrupt* mailbox
//! (SPE → PPE). Paper Listings 1 and 3 drive the whole offload protocol
//! through them: opcode in, wrapper address in, result/completion out.
//!
//! The implementation is a classic bounded blocking queue built from a
//! mutex and two condvars (not-empty / not-full) — the shape Chapter 5 of
//! *Rust Atomics and Locks* builds up to. Two Cell-specific twists:
//!
//! * every word carries the **virtual timestamp** of its sender (in common
//!   3.2 GHz core cycles), so the receiver's virtual clock can be advanced
//!   past it — cross-core causality in simulated time;
//! * a mailbox can be **closed** (its SPE terminated); blocked peers wake
//!   with [`CellError::MailboxClosed`] instead of deadlocking;
//! * a reader blocked on an empty mailbox is counted as **parked**, so the
//!   PPE can tell an SPE that waits for its next request (and so cannot
//!   reply without new input) from one still busy computing.

use std::collections::VecDeque;

use cell_core::{CellError, CellResult};
use std::sync::{Arc, Condvar, Mutex};

/// A word in flight: the payload and the sender's virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    pub value: u32,
    /// Sender's virtual clock (3.2 GHz core cycles) at the write.
    pub stamp: u64,
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<Stamped>,
    capacity: usize,
    closed: bool,
    /// FIFO generation: bumped on every [`Mailbox::reopen`]. Trace
    /// consumers (the race detector) key channel edges on this so a
    /// respawned occupant's conversation is never matched against the
    /// previous incarnation's words.
    generation: u64,
    /// Readers blocked in [`Mailbox::read`] waiting for a word.
    parked: usize,
}

/// One direction of mailbox traffic with a fixed capacity.
#[derive(Debug)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Mailbox {
    pub fn new(capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Arc::new(Mailbox {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
                generation: 0,
                parked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        })
    }

    /// Blocking write; returns when the word is enqueued.
    pub fn write(&self, value: u32, stamp: u64) -> CellResult<()> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(CellError::MailboxClosed);
            }
            if g.queue.len() < g.capacity {
                g.queue.push_back(Stamped { value, stamp });
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap();
        }
    }

    /// Non-blocking write.
    pub fn try_write(&self, value: u32, stamp: u64) -> CellResult<()> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(CellError::MailboxClosed);
        }
        if g.queue.len() >= g.capacity {
            return Err(CellError::MailboxFull);
        }
        g.queue.push_back(Stamped { value, stamp });
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking read; returns the oldest word.
    pub fn read(&self) -> CellResult<Stamped> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(s) = g.queue.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Ok(s);
            }
            if g.closed {
                return Err(CellError::MailboxClosed);
            }
            g.parked += 1;
            g = self.not_empty.wait(g).unwrap();
            g.parked -= 1;
        }
    }

    /// Non-blocking read.
    pub fn try_read(&self) -> CellResult<Stamped> {
        let mut g = self.inner.lock().unwrap();
        if let Some(s) = g.queue.pop_front() {
            drop(g);
            self.not_full.notify_one();
            return Ok(s);
        }
        if g.closed {
            return Err(CellError::MailboxClosed);
        }
        Err(CellError::MailboxEmpty)
    }

    /// Words currently queued (`spe_stat_out_mbox` in paper Listing 3
    /// polls exactly this).
    pub fn count(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Close the mailbox: queued words stay readable, blocked writers and
    /// readers-on-empty wake with [`CellError::MailboxClosed`].
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Is a reader parked in [`Mailbox::read`] with nothing to read? Such
    /// a reader cannot make progress until a word is queued or the
    /// mailbox closes, so either of those clears the answer at once —
    /// before the woken reader has even run.
    pub fn reader_parked(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.parked > 0 && g.queue.is_empty() && !g.closed
    }

    /// Reopen a closed mailbox for a respawned SPE: the closed flag is
    /// cleared and any stale queued words are discarded (they belong to
    /// the previous occupant's conversation; a fresh program must not
    /// read them). Safe because a closed mailbox has no blocked writers
    /// or readers — both paths return `MailboxClosed` immediately.
    pub fn reopen(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = false;
        g.queue.clear();
        g.generation += 1;
        drop(g);
        self.not_full.notify_all();
    }

    /// The current FIFO generation (0 for a never-reopened mailbox, +1
    /// per [`Mailbox::reopen`]). Because reopen discards queued words,
    /// every word successfully read was also *sent* in this generation.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().generation
    }

    /// Rebase the generation counter. Machines embedded in a larger
    /// topology (cluster blades) use this to give each incarnation a
    /// globally distinct epoch word before any traffic flows.
    pub fn set_generation(&self, generation: u64) {
        self.inner.lock().unwrap().generation = generation;
    }
}

/// The full mailbox set of one SPE, as both sides see it.
#[derive(Debug, Clone)]
pub struct MailboxPair {
    /// PPE → SPE, 4 entries deep on real hardware.
    pub inbound: Arc<Mailbox>,
    /// SPE → PPE, 1 entry (the PPE polls it).
    pub outbound: Arc<Mailbox>,
    /// SPE → PPE interrupting mailbox, 1 entry.
    pub outbound_intr: Arc<Mailbox>,
}

impl MailboxPair {
    pub fn new() -> Self {
        MailboxPair {
            inbound: Mailbox::new(4),
            outbound: Mailbox::new(1),
            outbound_intr: Mailbox::new(1),
        }
    }

    /// Close every direction (SPE teardown).
    pub fn close_all(&self) {
        self.inbound.close();
        self.outbound.close();
        self.outbound_intr.close();
    }

    /// Reopen every direction (SPE respawn). The PPE keeps its clones of
    /// these mailboxes, so the revived SPE is reachable at the same
    /// addresses without rebuilding any handles.
    pub fn reopen_all(&self) {
        self.inbound.reopen();
        self.outbound.reopen();
        self.outbound_intr.reopen();
    }
}

impl Default for MailboxPair {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn write_then_read_preserves_order_and_stamp() {
        let mb = Mailbox::new(4);
        mb.write(10, 100).unwrap();
        mb.write(20, 200).unwrap();
        assert_eq!(mb.count(), 2);
        assert_eq!(
            mb.read().unwrap(),
            Stamped {
                value: 10,
                stamp: 100
            }
        );
        assert_eq!(
            mb.read().unwrap(),
            Stamped {
                value: 20,
                stamp: 200
            }
        );
        assert_eq!(mb.count(), 0);
    }

    #[test]
    fn try_read_empty_and_try_write_full() {
        let mb = Mailbox::new(1);
        assert_eq!(mb.try_read().unwrap_err(), CellError::MailboxEmpty);
        mb.try_write(1, 0).unwrap();
        assert_eq!(mb.try_write(2, 0).unwrap_err(), CellError::MailboxFull);
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let mb = Mailbox::new(1);
        let mb2 = Arc::clone(&mb);
        let h = thread::spawn(move || mb2.read().unwrap());
        thread::sleep(Duration::from_millis(20));
        mb.write(99, 7).unwrap();
        assert_eq!(
            h.join().unwrap(),
            Stamped {
                value: 99,
                stamp: 7
            }
        );
    }

    #[test]
    fn blocking_write_wakes_on_read() {
        let mb = Mailbox::new(1);
        mb.write(1, 0).unwrap();
        let mb2 = Arc::clone(&mb);
        let h = thread::spawn(move || mb2.write(2, 0).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(mb.read().unwrap().value, 1);
        h.join().unwrap();
        assert_eq!(mb.read().unwrap().value, 2);
    }

    #[test]
    fn close_wakes_blocked_reader() {
        let mb = Mailbox::new(1);
        let mb2 = Arc::clone(&mb);
        let h = thread::spawn(move || mb2.read());
        thread::sleep(Duration::from_millis(20));
        mb.close();
        assert_eq!(h.join().unwrap().unwrap_err(), CellError::MailboxClosed);
    }

    #[test]
    fn blocked_reader_reads_as_parked_until_a_word_or_close() {
        fn wait_parked(mb: &Mailbox) {
            while !mb.reader_parked() {
                thread::yield_now();
            }
        }
        let mb = Mailbox::new(4);
        assert!(!mb.reader_parked(), "no reader yet");
        let mb2 = Arc::clone(&mb);
        let (go, next) = std::sync::mpsc::channel::<()>();
        let h = thread::spawn(move || {
            let first = mb2.read();
            next.recv().unwrap();
            (first, mb2.read())
        });
        wait_parked(&mb);
        mb.write(1, 0).unwrap();
        assert!(!mb.reader_parked(), "a queued word clears it");
        go.send(()).unwrap();
        wait_parked(&mb);
        mb.close();
        assert!(!mb.reader_parked(), "a close clears it");
        let (first, second) = h.join().unwrap();
        assert_eq!(first.unwrap().value, 1);
        assert_eq!(second.unwrap_err(), CellError::MailboxClosed);
    }

    #[test]
    fn close_wakes_blocked_writer() {
        let mb = Mailbox::new(1);
        mb.write(1, 0).unwrap();
        let mb2 = Arc::clone(&mb);
        let h = thread::spawn(move || mb2.write(2, 0));
        thread::sleep(Duration::from_millis(20));
        mb.close();
        assert_eq!(h.join().unwrap().unwrap_err(), CellError::MailboxClosed);
    }

    #[test]
    fn closed_mailbox_drains_then_errors() {
        let mb = Mailbox::new(4);
        mb.write(5, 0).unwrap();
        mb.close();
        assert_eq!(mb.read().unwrap().value, 5, "queued words stay readable");
        assert_eq!(mb.read().unwrap_err(), CellError::MailboxClosed);
        assert!(mb.is_closed());
    }

    #[test]
    fn capacity_respected_under_contention() {
        let mb = Mailbox::new(4);
        let writer = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                for i in 0..1000u32 {
                    mb.write(i, i as u64).unwrap();
                }
            })
        };
        let reader = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                let mut got = Vec::with_capacity(1000);
                for _ in 0..1000 {
                    got.push(mb.read().unwrap().value);
                }
                got
            })
        };
        writer.join().unwrap();
        let got = reader.join().unwrap();
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(got, expect, "FIFO order must hold");
    }

    #[test]
    fn concurrent_try_writers_see_full_not_lost_words() {
        // Many non-blocking senders race a slow reader on a 4-deep inbound
        // mailbox: every word either lands exactly once or its sender got
        // MailboxFull — no silent loss, no duplication.
        let mb = Mailbox::new(4);
        let mut senders = Vec::new();
        for t in 0..4u32 {
            let mb = Arc::clone(&mb);
            senders.push(thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut full = 0usize;
                for i in 0..256u32 {
                    let word = t * 1000 + i;
                    match mb.try_write(word, 0) {
                        Ok(()) => accepted.push(word),
                        Err(CellError::MailboxFull) => full += 1,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                    if i % 8 == 0 {
                        thread::yield_now();
                    }
                }
                (accepted, full)
            }));
        }
        let reader = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                let mut got = Vec::new();
                let mut empty = 0usize;
                loop {
                    match mb.try_read() {
                        Ok(s) => got.push(s.value),
                        Err(CellError::MailboxEmpty) => {
                            empty += 1;
                            if empty > 20_000 {
                                break; // senders long gone, queue drained
                            }
                            thread::yield_now();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                got
            })
        };
        let mut sent = Vec::new();
        let mut any_full = 0usize;
        for s in senders {
            let (accepted, full) = s.join().unwrap();
            sent.extend(accepted);
            any_full += full;
        }
        let mut got = reader.join().unwrap();
        // Drain anything still queued after the reader gave up.
        while let Ok(s) = mb.try_read() {
            got.push(s.value);
        }
        sent.sort_unstable();
        got.sort_unstable();
        assert_eq!(sent, got, "accepted words and read words must match 1:1");
        assert!(
            any_full > 0,
            "4 racing senders against a 4-deep box should hit MailboxFull"
        );
    }

    #[test]
    fn blocking_roundtrip_under_concurrent_senders_keeps_every_word() {
        // Four blocking senders × 250 words through the 4-deep inbound box;
        // one blocking reader. All 1000 distinct words arrive.
        let mb = Mailbox::new(4);
        let senders: Vec<_> = (0..4u32)
            .map(|t| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    for i in 0..250u32 {
                        mb.write(t * 1000 + i, i as u64).unwrap();
                    }
                })
            })
            .collect();
        let reader = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                let mut got: Vec<u32> = (0..1000).map(|_| mb.read().unwrap().value).collect();
                got.sort_unstable();
                got
            })
        };
        for s in senders {
            s.join().unwrap();
        }
        let got = reader.join().unwrap();
        let mut expect: Vec<u32> = (0..4u32)
            .flat_map(|t| (0..250u32).map(move |i| t * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn pair_has_cell_capacities() {
        let p = MailboxPair::new();
        for _ in 0..4 {
            p.inbound.try_write(0, 0).unwrap();
        }
        assert!(p.inbound.try_write(0, 0).is_err());
        p.outbound.try_write(0, 0).unwrap();
        assert!(p.outbound.try_write(0, 0).is_err());
        p.outbound_intr.try_write(0, 0).unwrap();
        assert!(p.outbound_intr.try_write(0, 0).is_err());
        p.close_all();
        assert!(p.inbound.is_closed() && p.outbound.is_closed() && p.outbound_intr.is_closed());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Mailbox::new(0);
    }

    #[test]
    fn reopen_bumps_generation_and_discards_stale_words() {
        let mb = Mailbox::new(4);
        assert_eq!(mb.generation(), 0);
        mb.write(1, 0).unwrap();
        mb.close();
        mb.reopen();
        assert_eq!(mb.generation(), 1);
        assert_eq!(
            mb.try_read().unwrap_err(),
            CellError::MailboxEmpty,
            "stale words from the previous generation must be gone"
        );
        mb.set_generation(7 << 20);
        mb.reopen();
        assert_eq!(
            mb.generation(),
            (7 << 20) + 1,
            "reopen bumps from the rebased value"
        );
    }
}
