//! Multi-threaded sweep driver.
//!
//! Every figure of the paper is a sweep over independent `(protocol,
//! cluster size, fault schedule, seed)` configurations. Since a
//! [`ClusterRun`](vlog_vmpi::ClusterRun) is a `Send` value, those runs
//! can be fanned out across OS threads: [`run_many`] executes one closure
//! per job on a small worker pool and returns the results **in job
//! order**, regardless of which worker finished first — so a sweep's
//! output (and anything derived from it, like a determinism fingerprint)
//! is byte-identical whether it ran on 1 thread or 16.
//!
//! Workers take `(index, job)` pairs from one shared iterator (work
//! stealing at job granularity) and return their `(index, result)` pairs
//! when they join; the caller puts those in job order. Each job itself
//! remains a single-threaded, deterministic simulation.

use std::sync::Mutex;

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads to use for a sweep: `VLOG_THREADS` if set to
/// a positive integer, otherwise the machine's available parallelism (at
/// least 1). A malformed or zero override is *not* silently absorbed: it
/// falls back with a warning on stderr (the shared
/// [`vlog_sim::env_knob`] contract), so a typo'd CI variable shows up in
/// the logs instead of as a mysteriously sequential (or hung) sweep.
pub fn default_threads() -> usize {
    vlog_sim::env_knob::positive_usize_or_else("VLOG_THREADS", hardware_threads)
}

/// Runs `f` over every job on `threads` worker threads and returns the
/// results in job order.
///
/// `f` must be a pure function of its job: each result is placed by the
/// index of its job, so the output vector is deterministic for any
/// thread count. A panic in any job propagates to the caller after the
/// remaining workers drain.
pub fn run_many<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Send + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let f = &f;
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // A statement of its own, so the job runs unlocked.
                        let next = queue
                            .lock()
                            .expect("no worker panics while it holds the queue")
                            .next();
                        let Some((i, job)) = next else { return done };
                        done.push((i, f(job)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order_on_any_thread_count() {
        let jobs: Vec<u64> = (0..57).collect();
        let seq = run_many(jobs.clone(), 1, |j| j * j);
        for threads in [2, 3, 8] {
            let par = run_many(jobs.clone(), threads, |j| j * j);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job_sweeps() {
        let none: Vec<u32> = run_many(Vec::<u32>::new(), 4, |j| j);
        assert!(none.is_empty());
        assert_eq!(run_many(vec![7u32], 4, |j| j + 1), vec![8]);
    }

    #[test]
    fn cluster_runs_shard_across_threads() {
        use vlog_vmpi::{app, ClusterConfig, FaultPlan, Payload, RecvSelector};
        let mk_report = |seed: u64| {
            let prog = app(|mpi| async move {
                let me = mpi.rank();
                let n = mpi.size();
                if me == 0 {
                    mpi.send_bytes(1, 0, vec![9u8]).await;
                } else {
                    let _ = mpi.recv(RecvSelector::of(0, 0)).await;
                    let _ = Payload::default();
                }
                let _ = n;
            });
            let mut cfg = ClusterConfig::new(2);
            cfg.seed = seed;
            vlog_vmpi::run_cluster(
                &cfg,
                std::sync::Arc::new(vlog_vmpi::VdummySuite),
                prog,
                &FaultPlan::none(),
            )
        };
        let seeds: Vec<u64> = (1..=6).collect();
        let seq: Vec<String> = run_many(seeds.clone(), 1, |s| format!("{:?}", mk_report(s).stats));
        let par: Vec<String> = run_many(seeds, 3, |s| format!("{:?}", mk_report(s).stats));
        assert_eq!(seq, par);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
