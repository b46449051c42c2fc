//! The serving thread of the open-loop workloads.
//!
//! One thread drains the `FitService` on the coalescing policy: when the
//! oldest queued request has waited the coalescing window, or when
//! `max_coalesce` requests are queued. The client tells it, per queued
//! request, the ticket and the time the request was due, so every fit
//! and append is timed from its due time to the end of the drain that
//! completed it.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use bmf_core::service::{DrainReport, FitService, Ticket};

use crate::clock::{Clock, WallClock};
use crate::trace::Tracer;

/// A queued request, as the client reports it to the server.
#[derive(Debug, Clone, Copy)]
pub enum Note {
    /// A fit request for job `job`, submitted while the client's evict
    /// epoch of that job was `epoch`.
    Fit {
        /// Service receipt.
        ticket: Ticket,
        /// When the request was due.
        due_ns: u64,
        /// When the client submitted it.
        sent_ns: u64,
        /// Workload job index.
        job: usize,
        /// Client evict epoch of the job at submission.
        epoch: u64,
    },
    /// A streaming append.
    Append {
        /// Service receipt.
        ticket: Ticket,
        /// When the request was due.
        due_ns: u64,
        /// When the client submitted it.
        sent_ns: u64,
    },
}

impl Note {
    fn ticket(&self) -> Ticket {
        match *self {
            Note::Fit { ticket, .. } | Note::Append { ticket, .. } => ticket,
        }
    }

    fn sent_ns(&self) -> u64 {
        match *self {
            Note::Fit { sent_ns, .. } | Note::Append { sent_ns, .. } => sent_ns,
        }
    }
}

/// Drain policy.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Longest a queued request waits before a drain, nanoseconds.
    pub window_ns: u64,
    /// Queued requests that force a drain.
    pub max_coalesce: usize,
}

/// One completed queued request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The client's note for the request.
    pub note: Note,
    /// End of the drain that completed it.
    pub done_ns: u64,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// What the serving thread measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Every queued request, completed.
    pub completions: Vec<Completion>,
    /// Drains run.
    pub drains: u64,
    /// Time spent inside `drain`, nanoseconds.
    pub drain_ns: u64,
    /// Time spent in the after-drain hook (publishing), nanoseconds.
    pub hook_ns: u64,
    /// Fit batches run across drains.
    pub batches: u64,
    /// Fits served across drains.
    pub fits: u64,
    /// Serving-thread wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Serves until the client hangs up, then drains what is left.
///
/// `after_drain` runs on this thread after every drain, with the drain's
/// report and the completions it produced (the note of a request whose
/// note had not arrived yet is matched later and not passed).
pub fn serve(
    service: &FitService,
    rx: &Receiver<Note>,
    clock: &WallClock,
    policy: Policy,
    tracer: &mut Tracer,
    after_drain: &mut dyn FnMut(&DrainReport, &[Completion], &mut Tracer),
) -> Served {
    let start = clock.now_ns();
    let mut served = Served::default();
    let mut notes: HashMap<Ticket, Note> = HashMap::new();
    let mut unmatched: HashMap<Ticket, (u64, bool)> = HashMap::new();
    let mut waiting = 0usize;
    let mut oldest_ns: Option<u64> = None;
    let mut open = true;
    while open || waiting > 0 || !unmatched.is_empty() {
        let timeout = match oldest_ns {
            Some(t) => (t + policy.window_ns).saturating_sub(clock.now_ns()),
            None => 20_000_000,
        };
        match rx.recv_timeout(Duration::from_nanos(timeout)) {
            Ok(note) => {
                if let Some((done_ns, ok)) = unmatched.remove(&note.ticket()) {
                    served.completions.push(Completion { note, done_ns, ok });
                } else {
                    oldest_ns.get_or_insert(note.sent_ns());
                    waiting += 1;
                    notes.insert(note.ticket(), note);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => open = false,
        }
        let due = oldest_ns.is_some_and(|t| clock.now_ns() >= t + policy.window_ns);
        if waiting == 0 || !(due || waiting >= policy.max_coalesce || !open) {
            if !open && waiting == 0 && !unmatched.is_empty() {
                // The client is gone, so no note can still arrive.
                break;
            }
            continue;
        }
        let drain_start_ns = clock.now_ns();
        let report = tracer.span("service.drain", |_| service.drain());
        let done_ns = clock.now_ns();
        served.drains += 1;
        served.drain_ns += done_ns - drain_start_ns;
        served.batches += report.batches.len() as u64;
        served.fits += report.outcomes.len() as u64;
        let first = served.completions.len();
        let results = report
            .outcomes
            .iter()
            .map(|o| (o.ticket, o.result.is_ok()))
            .chain(report.appends.iter().map(|a| (a.ticket, a.result.is_ok())));
        for (ticket, ok) in results {
            match notes.remove(&ticket) {
                Some(note) => {
                    if tracer.enabled() {
                        tracer.record(
                            "service.queue_wait",
                            clock.instant_at(note.sent_ns()),
                            clock.instant_at(drain_start_ns),
                        );
                    }
                    waiting -= 1;
                    served.completions.push(Completion { note, done_ns, ok });
                }
                None => {
                    unmatched.insert(ticket, (done_ns, ok));
                }
            }
        }
        oldest_ns = notes.values().map(Note::sent_ns).min();
        let hook_start = clock.now_ns();
        after_drain(&report, &served.completions[first..], tracer);
        served.hook_ns += clock.now_ns() - hook_start;
    }
    served.wall_ns = clock.now_ns() - start;
    served
}
