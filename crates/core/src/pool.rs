//! The parked worker pool behind [`crate::Engine::par_map`].
//!
//! Each engine owns one [`Pool`]. A map runs on the calling thread, as
//! worker 0, and on up to `workers − 1` helper threads. Helpers start
//! on demand, the first time a map can use them, and park on a
//! condition variable between maps, so a map costs a wake-up and a
//! hand-back rather than a thread spawn and join per helper. The pool
//! joins its helpers when it drops.
//!
//! **Retract, then wait.** A map publishes one type-erased job — the
//! closure that runs one worker's share — under the pool mutex, with a
//! fresh epoch. A helper takes the job under that mutex, which counts
//! it as running. When the caller's own share ends, a drop guard
//! retracts the job, so no helper can take it afterwards, and then
//! waits until every helper that did take it has finished; the guard
//! does this on unwind too. So [`Pool::run`] never waits for a helper
//! that had not started, and no helper touches the job once `run` has
//! returned. That is the soundness argument for the crate's one
//! `unsafe` block, which erases the job's borrow lifetime.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One worker's share of a map, called with the worker's index.
type Share<'a> = dyn Fn(usize) + Sync + 'a;

/// Locks `m`, recovering from poisoning: no code that can panic runs
/// under these locks, and every update leaves the state valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published job. Helpers take worker indices `1..=slots`.
struct Job {
    share: &'static Share<'static>,
    slots: usize,
    taken: usize,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// The epoch of the last job published, so a helper takes at most
    /// one share of each job.
    epoch: u64,
    /// Helpers running a share of the published or just-retracted job.
    running: usize,
    /// The first panic that escaped a helper's share, re-raised on the
    /// map's caller.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the pool drops: helpers exit instead of parking.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// A map's caller waits here for the helpers that took its job.
    done: Condvar,
}

/// A lazily started, parked set of helper threads (see the module
/// docs). Only one map at a time uses the helpers; a map that finds
/// them busy runs on its calling thread alone.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    /// Every helper started so far, at most `max_helpers`.
    helpers: Mutex<Vec<JoinHandle<()>>>,
    max_helpers: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("helpers", &lock(&self.helpers).len())
            .field("max_helpers", &self.max_helpers)
            .finish()
    }
}

impl Pool {
    /// A pool that may start up to `max_helpers` helpers; it starts none
    /// until a map asks for them.
    pub(crate) fn new(max_helpers: usize) -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
            helpers: Mutex::new(Vec::new()),
            max_helpers,
        }
    }

    /// Runs `share(0)` on the calling thread and offers `share(1)` …
    /// `share(workers − 1)` to the helpers, returning once every share
    /// a helper took has finished. A share no helper took before the
    /// caller's own ended never runs, so `share` must leave nothing
    /// undone when only some of its indices run. The shares run
    /// serially on the caller when no helper could be started or
    /// another map holds the helpers. A panic that escaped a helper's
    /// share is re-raised here.
    pub(crate) fn run(&self, workers: usize, share: &Share<'_>) {
        let slots = self.start_helpers(workers.saturating_sub(1));
        let retract = {
            let mut state = lock(&self.shared.state);
            if slots == 0 || state.job.is_some() || state.running > 0 {
                None
            } else {
                #[allow(unsafe_code)]
                // SAFETY: only the lifetime changes. The erased reference
                // is reachable only through `State::job`. A helper copies
                // it out under the state mutex while the job is published,
                // counting itself in `running` in that same critical
                // section, and decrements `running` only after its last
                // use of the copy. `Retract` is created here, before the
                // lock is released, and its drop — on return or unwind
                // from `run` — clears `State::job` under the mutex and
                // then waits until `running` is 0. So every use of the
                // reference happens before `run` returns, while `share`'s
                // borrow is still live.
                let share =
                    unsafe { std::mem::transmute::<&Share<'_>, &'static Share<'static>>(share) };
                state.epoch += 1;
                state.job = Some(Job {
                    share,
                    slots,
                    taken: 0,
                });
                state.panic = None;
                Some(Retract(&self.shared))
            }
        };
        if retract.is_some() {
            for _ in 0..slots {
                self.shared.wake.notify_one();
            }
        }
        share(0);
        if let Some(retract) = retract {
            drop(retract);
            if let Some(payload) = lock(&self.shared.state).panic.take() {
                resume_unwind(payload);
            }
        }
    }

    /// Starts helpers until `want` of them (at most `max_helpers`)
    /// exist, and returns how many of those a map may use. A spawn the
    /// operating system refuses leaves the work to the threads already
    /// running.
    fn start_helpers(&self, want: usize) -> usize {
        let want = want.min(self.max_helpers);
        let mut helpers = lock(&self.helpers);
        while helpers.len() < want {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("claire-worker-{}", helpers.len() + 1))
                .spawn(move || park_and_work(&shared));
            match spawned {
                Ok(helper) => helpers.push(helper),
                Err(_) => break,
            }
        }
        helpers.len().min(want)
    }

    /// How many helpers this pool has started.
    #[cfg(test)]
    pub(crate) fn helpers_started(&self) -> usize {
        lock(&self.helpers).len()
    }

    /// A weak handle on the state the helpers share: it no longer
    /// upgrades once every helper has exited and the pool has dropped.
    #[cfg(test)]
    pub(crate) fn shared_weak(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        let helpers = self
            .helpers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for helper in helpers.drain(..) {
            // A helper runs its shares under `catch_unwind`, so it can
            // only end by returning.
            let _ = helper.join();
        }
    }
}

/// Retracts the published job when dropped, then waits for the helpers
/// that took it (see the module docs).
struct Retract<'p>(&'p Shared);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.job = None;
        while state.running > 0 {
            state = self
                .0
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper's life: park until a job with a free slot is published,
/// run one share of it, report back, repeat until the pool drops.
fn park_and_work(shared: &Shared) {
    let mut last_epoch = 0;
    loop {
        let outcome = {
            let mut state = lock(&shared.state);
            let (share, w) = loop {
                if state.shutdown {
                    return;
                }
                let epoch = state.epoch;
                if let Some(job) = state.job.as_mut() {
                    if epoch != last_epoch && job.taken < job.slots {
                        job.taken += 1;
                        last_epoch = epoch;
                        let taken = (job.share, job.taken);
                        state.running += 1;
                        break taken;
                    }
                }
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            drop(state);
            catch_unwind(AssertUnwindSafe(|| share(w)))
        };
        let mut state = lock(&shared.state);
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.running -= 1;
        if state.running == 0 {
            shared.done.notify_all();
        }
    }
}
