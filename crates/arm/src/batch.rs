//! Batch scheduling over compute nodes *and* accelerators (§V.B).
//!
//! "In a production environment, a user would therefore specify the number
//! of accelerators requested per node in his or her batch script. The job
//! would start once the requested number of compute and accelerator nodes
//! becomes available." This module implements that scheduler: jobs declare
//! `(compute_nodes, accelerators_per_node)`; a job starts when both pools
//! can satisfy it. FIFO order, with optional backfilling (a later job may
//! start early if the queue head cannot run yet).
//!
//! Pure state machine — drive it from simulation tasks or from the
//! closed-form workload replayer in [`replay`].

use std::collections::VecDeque;

use crate::proto::GrantedAccelerator;
use crate::state::{JobId, Pool};

/// A batch request: what the user's job script asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchRequest {
    /// Job identity.
    pub job: JobId,
    /// Compute nodes required.
    pub compute_nodes: u32,
    /// Accelerators per compute node (0 = CPU-only job).
    pub accels_per_node: u32,
}

impl BatchRequest {
    /// Total accelerators the job needs.
    pub fn total_accels(&self) -> u32 {
        self.compute_nodes * self.accels_per_node
    }
}

/// A job the scheduler has started.
#[derive(Clone, Debug)]
pub struct StartedJob {
    /// The request that started.
    pub request: BatchRequest,
    /// The accelerators granted (length = `total_accels`), in per-node
    /// groups of `accels_per_node`.
    pub grants: Vec<GrantedAccelerator>,
}

/// Scheduling policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchPolicy {
    /// Strict FIFO: nothing starts while the queue head cannot.
    Fifo,
    /// FIFO with backfilling: when the head cannot start, later jobs that
    /// fit may run (no reservation, so heads can be delayed — the classic
    /// aggressive-backfill trade-off).
    Backfill,
    /// Backfilling with a per-dimension reservation for the queue head:
    /// while the head cannot start, every currently-free compute node and
    /// accelerator the head will need is held back, and later jobs may
    /// only consume the surplus. A wide job can no longer be starved by a
    /// stream of small ones (the [`BatchPolicy::Backfill`] edge), at the
    /// cost of idling the reserved resources until the head launches.
    BackfillReserving,
}

/// Batch scheduler over a compute-node pool and the accelerator [`Pool`].
pub struct BatchScheduler {
    total_cns: u32,
    free_cns: u32,
    queue: VecDeque<BatchRequest>,
    running: Vec<BatchRequest>,
    policy: BatchPolicy,
}

impl BatchScheduler {
    /// A scheduler over `total_cns` compute nodes.
    pub fn new(total_cns: u32, policy: BatchPolicy) -> Self {
        BatchScheduler {
            total_cns,
            free_cns: total_cns,
            queue: VecDeque::new(),
            running: Vec::new(),
            policy,
        }
    }

    /// Compute nodes currently free.
    pub fn free_compute_nodes(&self) -> u32 {
        self.free_cns
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Enqueue a job request.
    pub fn submit(&mut self, req: BatchRequest) {
        assert!(
            req.compute_nodes >= 1 && req.compute_nodes <= self.total_cns,
            "job {:?} requests {} compute nodes of {}",
            req.job,
            req.compute_nodes,
            self.total_cns
        );
        self.queue.push_back(req);
    }

    fn fits(&self, req: &BatchRequest, pool: &Pool) -> bool {
        req.compute_nodes <= self.free_cns && req.total_accels() <= pool.free_count()
    }

    /// Start every job the policy allows; returns them with their
    /// accelerator grants.
    pub fn try_start(&mut self, pool: &mut Pool) -> Vec<StartedJob> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let head_blocked = i > 0;
            if head_blocked && self.policy == BatchPolicy::Fifo {
                break;
            }
            let req = self.queue[i];
            let allowed = if head_blocked && self.policy == BatchPolicy::BackfillReserving {
                // Surplus guard: the blocked head reserves, per dimension,
                // everything free that it will need; a backfill candidate
                // may only take what is left over. (The guard implies
                // `fits`, since surplus <= free in both dimensions.)
                let head = self.queue[0];
                req.compute_nodes <= self.free_cns.saturating_sub(head.compute_nodes)
                    && req.total_accels() <= pool.free_count().saturating_sub(head.total_accels())
            } else {
                self.fits(&req, pool)
            };
            if allowed {
                let grants = pool
                    .try_allocate(req.job, req.total_accels())
                    .expect("fits() said the accelerators were available");
                self.free_cns -= req.compute_nodes;
                self.queue.remove(i);
                self.running.push(req);
                out.push(StartedJob {
                    request: req,
                    grants,
                });
                // Restart the scan: freeing nothing, but earlier entries
                // may now be startable only in Backfill mode anyway.
                if self.policy == BatchPolicy::Fifo {
                    i = 0;
                }
            } else {
                i += 1;
            }
        }
        out
    }

    /// A running job finished: return its compute nodes and accelerators.
    pub fn finish(&mut self, job: JobId, pool: &mut Pool) {
        let pos = self
            .running
            .iter()
            .position(|r| r.job == job)
            .expect("finish of a job that is not running");
        let req = self.running.swap_remove(pos);
        self.free_cns += req.compute_nodes;
        pool.release_job(job);
    }
}

/// Closed-form workload replay: submit all jobs at t=0 with known
/// durations, step the clock from completion to completion, and report
/// makespan and accelerator-busy time. (No discrete-event machinery needed
/// because all durations are known up front.)
pub mod replay {
    use super::*;

    /// One job of a replay workload.
    #[derive(Clone, Copy, Debug)]
    pub struct ReplayJob {
        /// The batch request.
        pub request: BatchRequest,
        /// Run time once started (seconds).
        pub duration: f64,
    }

    /// Workload outcome.
    #[derive(Clone, Copy, Debug)]
    pub struct ReplayOutcome {
        /// Time when the last job finished.
        pub makespan: f64,
        /// Mean accelerator utilization over the makespan.
        pub accel_utilization: f64,
        /// Mean compute-node utilization over the makespan.
        pub cn_utilization: f64,
    }

    /// Replay `jobs` through a scheduler with the given policy.
    pub fn run(
        jobs: &[ReplayJob],
        total_cns: u32,
        mut pool: Pool,
        policy: BatchPolicy,
    ) -> ReplayOutcome {
        let total_accels = pool.len() as f64;
        let mut sched = BatchScheduler::new(total_cns, policy);
        for j in jobs {
            sched.submit(j.request);
        }
        let mut now = 0.0f64;
        let mut accel_busy = 0.0;
        let mut cn_busy = 0.0;
        // (finish_time, job)
        let mut running: Vec<(f64, ReplayJob)> = Vec::new();
        loop {
            for started in sched.try_start(&mut pool) {
                let job = jobs
                    .iter()
                    .find(|j| j.request.job == started.request.job)
                    .expect("started unknown job");
                running.push((now + job.duration, *job));
                accel_busy += f64::from(started.request.total_accels()) * job.duration;
                cn_busy += f64::from(started.request.compute_nodes) * job.duration;
            }
            if running.is_empty() {
                assert_eq!(sched.queued(), 0, "deadlocked workload");
                break;
            }
            // Advance to the earliest completion.
            let (idx, _) = running
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                .unwrap();
            let (t, job) = running.swap_remove(idx);
            now = t;
            sched.finish(job.request.job, &mut pool);
        }
        ReplayOutcome {
            makespan: now,
            accel_utilization: if now > 0.0 {
                accel_busy / (now * total_accels)
            } else {
                0.0
            },
            cn_utilization: if now > 0.0 {
                cn_busy / (now * f64::from(total_cns))
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::replay::{run, ReplayJob};
    use super::*;
    use crate::state::{inventory, AcceleratorId};
    use dacc_fabric::mpi::Rank;
    use dacc_fabric::topology::NodeId;

    fn pool(n: usize) -> Pool {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let ranks: Vec<Rank> = (100..100 + n).map(Rank).collect();
        Pool::new(inventory(&nodes, &ranks))
    }

    fn req(job: u64, cns: u32, apn: u32) -> BatchRequest {
        BatchRequest {
            job: JobId(job),
            compute_nodes: cns,
            accels_per_node: apn,
        }
    }

    #[test]
    fn job_waits_for_both_resources() {
        let mut p = pool(2);
        let mut s = BatchScheduler::new(2, BatchPolicy::Fifo);
        // Needs 2 CNs x 1 accel: fits.
        s.submit(req(1, 2, 1));
        let started = s.try_start(&mut p);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].grants.len(), 2);
        assert_eq!(s.free_compute_nodes(), 0);
        // Next job fits on accelerators (0 needed) but not CNs.
        s.submit(req(2, 1, 0));
        assert!(s.try_start(&mut p).is_empty());
        s.finish(JobId(1), &mut p);
        assert_eq!(s.try_start(&mut p).len(), 1);
    }

    #[test]
    fn accelerator_shortage_blocks_start() {
        let mut p = pool(1);
        let mut s = BatchScheduler::new(4, BatchPolicy::Fifo);
        s.submit(req(1, 2, 1)); // needs 2 accels, pool has 1
        assert!(s.try_start(&mut p).is_empty());
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn fifo_head_blocks_followers() {
        let mut p = pool(4);
        let mut s = BatchScheduler::new(2, BatchPolicy::Fifo);
        s.submit(req(1, 2, 2)); // starts
        s.submit(req(2, 2, 0)); // blocked on CNs
        s.submit(req(3, 1, 0)); // would fit CNs=0? no: 0 free
        assert_eq!(s.try_start(&mut p).len(), 1);
        assert_eq!(s.queued(), 2);
        // Nothing backfills under FIFO.
        assert!(s.try_start(&mut p).is_empty());
    }

    #[test]
    fn backfill_lets_small_jobs_through() {
        let mut p = pool(2);
        let mut s = BatchScheduler::new(2, BatchPolicy::Backfill);
        s.submit(req(1, 1, 1)); // starts
        s.submit(req(2, 2, 1)); // head of queue: needs 2 CNs, only 1 free
        s.submit(req(3, 1, 1)); // backfills around job 2
        let started = s.try_start(&mut p);
        let ids: Vec<u64> = started.iter().map(|s| s.request.job.0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn aggressive_backfill_starves_wide_head() {
        // Regression fixture for the starvation edge: a stream of 1-CN
        // jobs keeps one CN busy forever, and the 2-CN head never sees
        // both free at once under aggressive backfill.
        let mut p = pool(0);
        let mut s = BatchScheduler::new(2, BatchPolicy::Backfill);
        s.submit(req(1, 1, 0));
        s.submit(req(2, 2, 0)); // wide head
        s.submit(req(3, 1, 0));
        s.submit(req(4, 1, 0));
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![1, 3], "job 3 leapfrogs the blocked head");
        // Every completion is immediately absorbed by the next small job.
        s.finish(JobId(1), &mut p);
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![4], "head starved again");
    }

    #[test]
    fn reserving_backfill_protects_wide_head() {
        let mut p = pool(0);
        let mut s = BatchScheduler::new(2, BatchPolicy::BackfillReserving);
        s.submit(req(1, 1, 0));
        s.submit(req(2, 2, 0)); // wide head: reserves the free CN
        s.submit(req(3, 1, 0));
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![1], "the head's reservation blocks backfill");
        // The head starts the moment its second CN frees — job 3 cannot
        // snipe it.
        s.finish(JobId(1), &mut p);
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![2]);
        s.finish(JobId(2), &mut p);
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn reservation_is_per_dimension() {
        // Head blocked on accelerators only: CPU-only jobs may still
        // backfill through the CN surplus, but accelerator jobs may not
        // touch the accelerator the head has reserved.
        let mut p = pool(1);
        let mut s = BatchScheduler::new(3, BatchPolicy::BackfillReserving);
        s.submit(req(1, 1, 2)); // head: needs 2 accels, pool has 1
        s.submit(req(2, 1, 1)); // would take the reserved accelerator
        s.submit(req(3, 1, 0)); // CPU-only: only consumes CN surplus
        let ids: Vec<u64> = s
            .try_start(&mut p)
            .iter()
            .map(|j| j.request.job.0)
            .collect();
        assert_eq!(ids, vec![3]);
        assert_eq!(s.queued(), 2);
        p.check_invariants();
    }

    #[test]
    fn grants_are_exclusive_across_jobs() {
        let mut p = pool(4);
        let mut s = BatchScheduler::new(4, BatchPolicy::Backfill);
        s.submit(req(1, 1, 2));
        s.submit(req(2, 1, 2));
        let started = s.try_start(&mut p);
        assert_eq!(started.len(), 2);
        let mut all: Vec<AcceleratorId> = started
            .iter()
            .flat_map(|s| s.grants.iter().map(|g| g.accel))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4, "accelerator granted twice");
        p.check_invariants();
    }

    #[test]
    fn replay_backfill_beats_fifo_on_mixed_workload() {
        let jobs = vec![
            ReplayJob {
                request: req(1, 2, 1),
                duration: 10.0,
            },
            ReplayJob {
                request: req(2, 4, 0),
                duration: 5.0,
            }, // wide CPU job
            ReplayJob {
                request: req(3, 1, 1),
                duration: 8.0,
            },
            ReplayJob {
                request: req(4, 1, 0),
                duration: 3.0,
            },
            ReplayJob {
                request: req(5, 2, 1),
                duration: 6.0,
            },
        ];
        let fifo = run(&jobs, 4, pool(3), BatchPolicy::Fifo);
        let backfill = run(&jobs, 4, pool(3), BatchPolicy::Backfill);
        assert!(
            backfill.makespan <= fifo.makespan,
            "backfill {:.1} vs fifo {:.1}",
            backfill.makespan,
            fifo.makespan
        );
        assert!(backfill.cn_utilization >= fifo.cn_utilization);
        // Conservation sanity: same total work either way.
        assert!(backfill.makespan > 0.0 && fifo.makespan > 0.0);
    }

    #[test]
    fn replay_single_job() {
        let jobs = vec![ReplayJob {
            request: req(1, 1, 2),
            duration: 4.0,
        }];
        let out = run(&jobs, 1, pool(2), BatchPolicy::Fifo);
        assert_eq!(out.makespan, 4.0);
        assert!((out.accel_utilization - 1.0).abs() < 1e-12);
    }
}
