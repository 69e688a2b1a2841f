//! Completions: the one way to wait, from an RPC down to the disk.
//!
//! A completion is the answer to a request, possibly still to come: the
//! reply to a call submitted through a transport, or a log position
//! becoming durable.  One answered at once comes back resolved, with no
//! allocation and no lock; one that a server worker or a log flusher
//! answers later comes back pending, and whoever answers it holds its
//! [`Resolver`].  A completion also carries the instant the modelled
//! network delivers the reply — when the server answered plus the round
//! trip — and [`Completion::wait`] sleeps until then, so calls submitted
//! together overlap their round trips.
//!
//! Work left on a pending completion ([`Completion::then`],
//! [`Completion::chain`], [`Completion::all`]) is a *continuation*: it runs
//! on whichever thread answers — a server worker, another server's worker,
//! a log flusher.  So a continuation never blocks (it takes no lock that is
//! held across a wait, and waits for no completion) and never submits an
//! RPC: only a request's own thread submits.  A storage server keeps both
//! rules, which is why it never waits; its `reap` is the one entry point
//! that does.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::{Error, Result};

/// A result and the instant the reply carrying it is due.
pub type Reply<T> = (Result<T>, Option<Instant>);

/// Work parked on a pending completion, run by whoever answers it.
type Continuation<T> = Box<dyn FnOnce(Reply<T>) + Send>;

/// The eventual answer to one request.
pub struct Completion<T>(State<T>);

enum State<T> {
    Ready(Reply<T>),
    Pending(Arc<Slot<T>>),
}

/// Where a pending completion's answer meets whoever waits for it.
struct Slot<T> {
    state: Mutex<Parked<T>>,
    answered: Condvar,
}

enum Parked<T> {
    /// Not answered yet; a continuation may be waiting for the answer.
    Waiting(Option<Continuation<T>>),
    /// Answered, and not taken yet.
    Answered(Reply<T>),
    /// The answer went to its one consumer.
    Taken,
}

impl<T> Slot<T> {
    fn lock(&self) -> MutexGuard<'_, Parked<T>> {
        // A panicking continuation leaves the state valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn answer(&self, reply: Reply<T>) {
        let mut parked = self.lock();
        match std::mem::replace(&mut *parked, Parked::Taken) {
            Parked::Waiting(Some(then)) => {
                drop(parked);
                then(reply);
            }
            Parked::Waiting(None) => {
                *parked = Parked::Answered(reply);
                self.answered.notify_all();
            }
            // A second answer is ignored.
            first => *parked = first,
        }
    }

    /// Runs `then` with the answer: now if it has come, else when it does.
    fn then(&self, then: Continuation<T>) {
        let mut parked = self.lock();
        match std::mem::replace(&mut *parked, Parked::Taken) {
            Parked::Answered(reply) => {
                drop(parked);
                then(reply);
            }
            _ => *parked = Parked::Waiting(Some(then)),
        }
    }

    fn take(&self) -> Reply<T> {
        let mut parked = self.lock();
        loop {
            match std::mem::replace(&mut *parked, Parked::Taken) {
                Parked::Answered(reply) => return reply,
                waiting => *parked = waiting,
            }
            parked = self
                .answered
                .wait(parked)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The answering end of a pending [`Completion`].  Dropped unanswered, it
/// answers [`Error::ServerUnavailable`], as a server that dies with the
/// request would.
pub struct Resolver<T>(Option<Arc<Slot<T>>>);

impl<T> Resolver<T> {
    /// Answers the completion; continuations parked on it run on this
    /// thread.
    pub fn resolve(self, result: Result<T>) {
        self.resolve_due(result, None);
    }

    /// Answers the completion with a reply due at `due` (`None`: at once).
    pub fn resolve_due(mut self, result: Result<T>, due: Option<Instant>) {
        if let Some(slot) = self.0.take() {
            slot.answer((result, due));
        }
    }
}

impl<T> Drop for Resolver<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            let dropped = Error::ServerUnavailable("the server dropped the request".into());
            slot.answer((Err(dropped), None));
        }
    }
}

impl<T: Send + 'static> Completion<T> {
    /// A completion answered already.
    pub fn ready(result: Result<T>) -> Self {
        Completion(State::Ready((result, None)))
    }

    /// A completion answered later through the returned [`Resolver`].
    pub fn pending() -> (Self, Resolver<T>) {
        let slot = Arc::new(Slot {
            state: Mutex::new(Parked::Waiting(None)),
            answered: Condvar::new(),
        });
        let resolver = Resolver(Some(Arc::clone(&slot)));
        (Completion(State::Pending(slot)), resolver)
    }

    /// The result, if answered already: a call answered before `submit`
    /// returned, or a log position durable when the wait was asked for.
    pub fn resolved(&self) -> Option<&Result<T>> {
        match &self.0 {
            State::Ready((result, _)) => Some(result),
            State::Pending(_) => None,
        }
    }

    /// Blocks until the call is answered and its reply is due.  A completion
    /// answered with no modelled latency returns at once, reading no clock.
    pub fn wait(self) -> Result<T> {
        let (result, due) = self.settle();
        if let Some(left) = due.and_then(|due| due.checked_duration_since(Instant::now())) {
            std::thread::sleep(left);
        }
        result
    }

    /// The instant the reply is due, if answered already with one.
    pub fn due(&self) -> Option<Instant> {
        match &self.0 {
            State::Ready((_, due)) => *due,
            State::Pending(_) => None,
        }
    }

    /// Runs `then` with the result, and the instant its reply is due, once
    /// the call is answered — now if it is, else on the answering thread —
    /// without waiting for that instant.  `then` must not block.
    pub fn then(self, then: impl FnOnce(Reply<T>) + Send + 'static) {
        match self.0 {
            State::Ready(reply) => then(reply),
            State::Pending(slot) => slot.then(Box::new(then)),
        }
    }

    /// The completion answered with every one of `parts`' results, in
    /// order, once the last of them is answered, due when the latest of
    /// their replies is: at once, allocating no slot, if all are answered.
    pub fn all(parts: Vec<Completion<T>>) -> Completion<Vec<Result<T>>> {
        if parts.iter().all(|p| p.resolved().is_some()) {
            let mut due = None;
            let results = parts.into_iter().map(|p| {
                let (result, d) = p.settle();
                due = due.max(d);
                result
            });
            return Completion(State::Ready((Ok(results.collect()), due)));
        }
        let (joined, resolver) = Completion::pending();
        let slots = parts.iter().map(|_| None).collect::<Vec<_>>();
        let join = Arc::new(Mutex::new((slots, parts.len(), None, Some(resolver))));
        for (i, part) in parts.into_iter().enumerate() {
            let join = Arc::clone(&join);
            part.then(move |(result, due)| {
                let mut j = join.lock().unwrap_or_else(|e| e.into_inner());
                let (results, left, latest, resolver) = &mut *j;
                results[i] = Some(result);
                *latest = (*latest).max(due);
                *left -= 1;
                if *left == 0 {
                    let results = std::mem::take(results).into_iter().flatten().collect();
                    let (latest, resolver) = (*latest, resolver.take());
                    drop(j);
                    if let Some(resolver) = resolver {
                        resolver.resolve_due(Ok(results), latest);
                    }
                }
            });
        }
        joined
    }

    /// Blocks until the call is answered, but not until its reply is due.
    pub fn settled(self) -> Self {
        Completion(State::Ready(self.settle()))
    }

    fn settle(self) -> Reply<T> {
        match self.0 {
            State::Ready(reply) => reply,
            State::Pending(slot) => slot.take(),
        }
    }

    /// The completion answered with `f` of this one's reply: at once if this
    /// one is answered, else on its answering thread.
    pub fn chain<U: Send + 'static>(
        self,
        f: impl FnOnce(Reply<T>) -> Reply<U> + Send + 'static,
    ) -> Completion<U> {
        match self.0 {
            State::Ready(reply) => Completion(State::Ready(f(reply))),
            State::Pending(slot) => {
                let (chained, resolver) = Completion::pending();
                slot.then(Box::new(move |reply| {
                    let (result, due) = f(reply);
                    resolver.resolve_due(result, due);
                }));
                chained
            }
        }
    }

    /// The completion answered as the one `f` starts with this one's result
    /// is, and due when the later of the two replies is: `f` runs at once
    /// if this one is answered, else on its answering thread, so it must
    /// neither block nor submit.
    pub fn and_then<U: Send + 'static>(
        self,
        f: impl FnOnce(Result<T>) -> Completion<U> + Send + 'static,
    ) -> Completion<U> {
        match self.0 {
            State::Ready((result, due)) => f(result).chain(move |(r, d)| (r, due.max(d))),
            State::Pending(slot) => {
                let (chained, resolver) = Completion::pending();
                slot.then(Box::new(move |(result, due)| {
                    f(result).then(move |(r, d)| resolver.resolve_due(r, due.max(d)));
                }));
                chained
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn ready_completions_answer_at_once() {
        let c = Completion::ready(Ok(7u64));
        assert_eq!(c.resolved(), Some(&Ok(7)));
        assert_eq!(c.wait(), Ok(7));
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        Completion::ready(Ok(3u64)).then(move |(r, _)| {
            s.store(r.unwrap(), Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 3, "ran inline");
    }

    #[test]
    fn pending_completions_answer_from_another_thread() {
        let (c, resolver) = Completion::pending();
        assert!(c.resolved().is_none());
        let answerer = std::thread::spawn(move || resolver.resolve(Ok(42u64)));
        assert_eq!(c.wait(), Ok(42));
        answerer.join().unwrap();
    }

    #[test]
    fn continuations_run_where_the_answer_arrives() {
        let (c, resolver) = Completion::pending();
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        c.chain(|(r, due): Reply<u64>| (r.map(|v| v * 2), due))
            .then(move |(r, _)| s.store(r.unwrap(), Ordering::SeqCst));
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        resolver.resolve(Ok(21));
        assert_eq!(seen.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn all_answers_every_part_in_order_once_the_last_is_answered() {
        let later = Instant::now() + Duration::from_millis(5);
        let (first, answer_first) = Completion::pending();
        let ready = Completion(State::Ready((Ok(2u64), Some(later))));
        let (third, answer_third) = Completion::pending();
        let joined = Completion::all(vec![first, ready, third]);
        assert!(joined.resolved().is_none());
        answer_third.resolve(Err(Error::Timeout("lost".into())));
        assert!(joined.resolved().is_none());
        answer_first.resolve(Ok(1));
        let (results, due) = joined.settle();
        let lost = Err(Error::Timeout("lost".into()));
        assert_eq!(results, Ok(vec![Ok(1), Ok(2), lost]));
        assert_eq!(due, Some(later), "due with the latest part");
        let none = Completion::<u64>::all(Vec::new());
        assert_eq!(none.resolved(), Some(&Ok(Vec::new())));
    }

    #[test]
    fn and_then_answers_as_the_completion_it_starts() {
        let later = Instant::now() + Duration::from_millis(5);
        let (first, answer_first) = Completion::pending();
        let (second, answer_second) = Completion::pending();
        let joined = first.and_then(move |r: Result<u64>| {
            assert_eq!(r, Ok(1));
            second
        });
        answer_first.resolve_due(Ok(1), Some(later));
        assert!(joined.resolved().is_none());
        answer_second.resolve(Ok(2u64));
        assert_eq!(joined.settle(), (Ok(2), Some(later)), "due with the later");
        let ready = Completion::ready(Ok(3u64)).and_then(|r| Completion::ready(r.map(|v| v + 1)));
        assert_eq!(ready.resolved(), Some(&Ok(4)));
    }

    #[test]
    fn a_dropped_resolver_fails_the_completion() {
        let (c, resolver) = Completion::<u64>::pending();
        drop(resolver);
        assert!(matches!(c.wait(), Err(Error::ServerUnavailable(_))));
    }

    #[test]
    fn wait_sleeps_until_the_reply_is_due() {
        let due = Instant::now() + Duration::from_millis(20);
        let started = Instant::now();
        let c = Completion(State::Ready((Ok(1u64), Some(due))));
        assert_eq!(c.wait(), Ok(1));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }
}
