//! Cooperative fuel-quantum scheduling: thousands of logical tasks
//! over a handful of worker threads.
//!
//! Where [`crate::engine`] supervises run-to-completion jobs, this
//! module schedules *resident* tasks — fleet device VMs — that execute
//! a bounded fuel quantum, park, and re-queue. Each worker owns a
//! static shard of the task set (round-robin by task id, chosen by the
//! caller's factory), so a task's quantum sequence is independent of
//! how many workers run beside it: a fixed-round fleet produces
//! byte-identical merged aggregates at 1 worker and at N.
//!
//! Supervision carries over from the campaign engine: every quantum
//! runs under `catch_unwind`, a panicking task is retired from the run
//! queue with its message recorded (never torn down with the worker),
//! and a wall-clock deadline bounds the whole schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::engine::panic_message;

/// What a task did with its quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Used its quantum; re-queue it for the next round.
    Yielded,
    /// Finished for good; retire it from the run queue.
    Done,
}

/// Context handed to each quantum.
#[derive(Debug, Clone, Copy)]
pub struct QuantumCtx {
    /// Instruction budget for this quantum.
    pub fuel: u64,
    /// Scheduler round the quantum runs in (0-based).
    pub round: u64,
    /// Worker executing it.
    pub worker: usize,
}

/// A cooperatively scheduled task.
///
/// Tasks need not be `Send`: each is built, run, and finished on one
/// worker thread. Only [`Quantum::Output`] crosses back to the caller.
pub trait Quantum {
    /// Plain-data summary extracted when the schedule ends.
    type Output: Send;

    /// Runs one fuel quantum.
    fn quantum(&mut self, ctx: &QuantumCtx) -> Poll;

    /// Consumes the task into its summary (called on the worker thread
    /// after the schedule ends, including for panicked tasks).
    fn finish(self) -> Self::Output;
}

/// Schedule shape for [`run_quanta`].
#[derive(Debug, Clone)]
pub struct QuantumOpts {
    /// Worker threads; 0 means one per core.
    pub workers: usize,
    /// Instruction budget per quantum.
    pub fuel_quantum: u64,
    /// Stop after this many full rounds (every live task gets exactly
    /// this many quanta — the deterministic mode). `None` runs until
    /// all tasks are done or the deadline passes.
    pub max_rounds: Option<u64>,
    /// Wall-clock stop, checked between quanta.
    pub deadline: Option<Instant>,
}

/// One worker's outcome: per-task outputs in shard order plus the
/// supervision counters.
pub struct ShardReport<O> {
    /// Worker index the shard ran on.
    pub worker: usize,
    /// Task outputs, in the order the factory built them.
    pub outputs: Vec<O>,
    /// Quanta executed (including the final quantum of a finished task).
    pub quanta: u64,
    /// Full rounds completed.
    pub rounds: u64,
    /// Tasks that returned [`Poll::Done`].
    pub completed: usize,
    /// `(shard index, panic message)` for tasks retired by a panic.
    pub panicked: Vec<(usize, String)>,
}

/// Runs `factory(worker, workers)`-built task shards to completion in
/// fuel-sliced rounds and returns one [`ShardReport`] per worker, in
/// worker order.
///
/// The factory runs on each worker thread, so tasks (and anything they
/// hold — `Rc`-based obs handles, VM deltas) never cross threads; it
/// must hand out a *partition*: every task the fleet wants run appears
/// in exactly one worker's shard regardless of the worker count.
pub fn run_quanta<T, F>(opts: &QuantumOpts, factory: F) -> Vec<ShardReport<T::Output>>
where
    T: Quantum,
    F: Fn(usize, usize) -> Vec<T> + Sync,
{
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    let factory = &factory;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let mut tasks = factory(worker, workers);
                    let mut alive = vec![true; tasks.len()];
                    let mut report = ShardReport {
                        worker,
                        outputs: Vec::new(),
                        quanta: 0,
                        rounds: 0,
                        completed: 0,
                        panicked: Vec::new(),
                    };
                    let mut live = tasks.len();
                    'schedule: while live > 0 {
                        if opts.max_rounds.is_some_and(|max| report.rounds >= max) {
                            break;
                        }
                        for (i, task) in tasks.iter_mut().enumerate() {
                            if !alive[i] {
                                continue;
                            }
                            if opts.deadline.is_some_and(|d| Instant::now() >= d) {
                                break 'schedule;
                            }
                            let ctx = QuantumCtx {
                                fuel: opts.fuel_quantum,
                                round: report.rounds,
                                worker,
                            };
                            match catch_unwind(AssertUnwindSafe(|| task.quantum(&ctx))) {
                                Ok(Poll::Yielded) => report.quanta += 1,
                                Ok(Poll::Done) => {
                                    report.quanta += 1;
                                    report.completed += 1;
                                    alive[i] = false;
                                    live -= 1;
                                }
                                Err(p) => {
                                    report.panicked.push((i, panic_message(p.as_ref())));
                                    alive[i] = false;
                                    live -= 1;
                                }
                            }
                        }
                        report.rounds += 1;
                    }
                    report.outputs = tasks.into_iter().map(Quantum::finish).collect();
                    report
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("quantum worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts quanta until a target, recording the rounds it saw.
    struct Countdown {
        left: u64,
        seen_rounds: Vec<u64>,
        panic_at: Option<u64>,
    }

    impl Quantum for Countdown {
        type Output = (u64, Vec<u64>);

        fn quantum(&mut self, ctx: &QuantumCtx) -> Poll {
            if self.panic_at == Some(self.left) {
                panic!("scripted task panic");
            }
            self.seen_rounds.push(ctx.round);
            self.left -= 1;
            if self.left == 0 {
                Poll::Done
            } else {
                Poll::Yielded
            }
        }

        fn finish(self) -> (u64, Vec<u64>) {
            (self.left, self.seen_rounds)
        }
    }

    fn opts(workers: usize, max_rounds: Option<u64>) -> QuantumOpts {
        QuantumOpts { workers, fuel_quantum: 100, max_rounds, deadline: None }
    }

    #[test]
    fn runs_every_task_to_done() {
        let reports = run_quanta::<Countdown, _>(&opts(3, None), |w, n| {
            (0..10usize)
                .filter(|i| i % n == w)
                .map(|i| Countdown {
                    left: (i as u64) + 1,
                    seen_rounds: Vec::new(),
                    panic_at: None,
                })
                .collect()
        });
        assert_eq!(reports.len(), 3);
        let completed: usize = reports.iter().map(|r| r.completed).sum();
        assert_eq!(completed, 10);
        for r in &reports {
            for (left, _) in &r.outputs {
                assert_eq!(*left, 0);
            }
        }
    }

    #[test]
    fn max_rounds_gives_every_live_task_the_same_quanta() {
        let reports = run_quanta::<Countdown, _>(&opts(2, Some(4)), |w, n| {
            (0..6usize)
                .filter(|i| i % n == w)
                .map(|_| Countdown { left: 100, seen_rounds: Vec::new(), panic_at: None })
                .collect()
        });
        for r in &reports {
            assert_eq!(r.rounds, 4);
            for (_, rounds) in &r.outputs {
                assert_eq!(rounds, &[0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn panicking_task_is_retired_not_fatal() {
        let reports = run_quanta::<Countdown, _>(&opts(1, None), |_, _| {
            vec![
                Countdown { left: 3, seen_rounds: Vec::new(), panic_at: Some(2) },
                Countdown { left: 2, seen_rounds: Vec::new(), panic_at: None },
            ]
        });
        let r = &reports[0];
        assert_eq!(r.completed, 1);
        assert_eq!(r.panicked.len(), 1);
        assert_eq!(r.panicked[0].0, 0);
        assert!(r.panicked[0].1.contains("scripted task panic"));
        // Outputs still cover every task, panicked ones included.
        assert_eq!(r.outputs.len(), 2);
    }
}
