//! `qr_3gpu`: the paper's application (Fig. 9) — hybrid Householder QR on
//! one compute node driving three network-attached GPUs.
//!
//! Timing-only mode: payloads are size-only, so there is no CRC and no
//! memcpy. Host time is the `dacc-linalg` orchestration plus protocol
//! state machines, pipelined block events and fabric resources at a
//! realistic op mix — what the minutes-long `fig9`/`fig10` bins cost a
//! user. It separates "fewer events" gains from "cheaper bytes" gains.

use dacc_linalg::hybrid::{dgeqrf_hybrid, HybridConfig};
use dacc_linalg::lapack::qr_residuals;
use dacc_linalg::matrix::{HostMatrix, Matrix};
use dacc_runtime::prelude::*;
use dacc_vgpu::params::ExecMode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{
    begin_run, collect, fresh_cluster, pinned_spec, run_sim, shutdown_cluster, OpClock, RoundCx,
    RoundOut, Workload,
};

const GPUS: usize = 3;
/// Matrix orders of a round, each factorized `REPEATS` times.
pub const ORDERS: [usize; 3] = [2048, 3072, 4032];
const REPEATS: usize = 2;
/// Order of the functional verification factorization.
const VERIFY_ORDER: usize = 512;
const RESIDUAL_LIMIT: f64 = 1e-8;

/// Span name of one factorization of order `n`.
pub fn span_name(n: usize) -> &'static str {
    match n {
        2048 => "linalg.dgeqrf_hybrid.n2048",
        3072 => "linalg.dgeqrf_hybrid.n3072",
        4032 => "linalg.dgeqrf_hybrid.n4032",
        _ => "linalg.dgeqrf_hybrid",
    }
}

/// The QR workload's fixed inputs.
pub struct Qr {
    /// Matrix orders in issue order (seeded shuffle).
    orders: Vec<usize>,
    /// Column-major entries of the verification matrix.
    verify_matrix: Vec<f64>,
}

impl Qr {
    /// Shuffle the orders and generate the verification matrix.
    pub fn new(seed: u64, half: bool) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let repeats = if half { REPEATS / 2 } else { REPEATS };
        let mut orders: Vec<usize> = (0..repeats).flat_map(|_| ORDERS).collect();
        for i in (1..orders.len()).rev() {
            orders.swap(i, rng.gen_range(0..=i));
        }
        let verify_matrix = (0..VERIFY_ORDER * VERIFY_ORDER)
            .map(|_| rng.gen::<f64>() - 0.5)
            .collect();
        Qr {
            orders,
            verify_matrix,
        }
    }

    /// Factorize each of `hosts` in turn on the 3-GPU cluster. Returns the
    /// round plus the factored matrices and their Householder scalars.
    fn run(
        &self,
        cx: &RoundCx,
        mode: ExecMode,
        hosts: Vec<HostMatrix>,
    ) -> (RoundOut, Vec<(HostMatrix, Vec<f64>)>) {
        let spec = pinned_spec(1, GPUS, mode);
        let (mut sim, mut cluster) = fresh_cluster(cx, spec);
        let run = begin_run(cx);
        let ep = cluster.cn_endpoints.remove(0);
        let arm = cluster.arm_client(ep.clone());
        let daemons: Vec<_> = (0..GPUS).map(|i| cluster.daemon_rank(i)).collect();
        let devices: Vec<AcDevice> = daemons
            .iter()
            .map(|&d| AcDevice::Remote(RemoteAccelerator::new(ep.clone(), d, spec.frontend)))
            .collect();
        let calls = run.clone();
        let h = sim.handle();

        let task = sim.spawn("client", async move {
            let mut out = RoundOut::default();
            let mut clock = OpClock::default();
            let mut factored = Vec::new();
            let cfg = HybridConfig::default();
            let t0 = h.now();
            for (i, mut host) in hosts.into_iter().enumerate() {
                let n = host.rows();
                out.ops += 1;
                out.factorizations += 1;
                let call = calls.call(span_name(n), i as u64, async {
                    dgeqrf_hybrid(&h, &devices, &mut host, &cfg).await
                });
                match clock.time(call).await {
                    Ok(report) if report.gflops > 0.0 => {
                        out.good += 1;
                        out.virt.push(report.elapsed.as_nanos());
                        if n == 4032 {
                            out.gflops_n4032 = report.gflops;
                        }
                        factored.push((host, report.tau));
                    }
                    other => out
                        .failures
                        .push(format!("factorization {i} (N = {n}): {:?}", other.err())),
                }
            }
            out.virt.insert(0, h.now().since(t0).as_nanos());
            if let Err(e) = shutdown_cluster(&arm, &daemons, spec.frontend).await {
                out.failures.push(format!("cluster shutdown: {e}"));
            }
            out.host = clock.total();
            (out, factored)
        });

        let mut failures = Vec::new();
        let outcome = run_sim(run, &mut sim, &mut failures);
        let (mut out, factored) = task.try_take().unwrap_or_else(|| {
            failures.push("client task did not finish".into());
            (RoundOut::default(), Vec::new())
        });
        out.failures.append(&mut failures);
        out.counts = collect(cx, cluster, outcome);
        (out, factored)
    }
}

impl Workload for Qr {
    /// A functional N = 512 factorization on the same three GPUs must
    /// reproduce its input: residual and orthogonality below 1e-8.
    fn verify(&self) -> Result<(), String> {
        let n = VERIFY_ORDER;
        let a = Matrix::from_fn(n, n, |i, j| self.verify_matrix[j * n + i]);
        let host = HostMatrix::Real(Matrix::from_fn(n, n, |i, j| a.get(i, j)));
        let (out, mut factored) = self.run(&RoundCx::untraced(), ExecMode::Functional, vec![host]);
        let Some((HostMatrix::Real(f), tau)) = factored.pop() else {
            return Err(format!("no factored matrix: {}", out.failures.join("; ")));
        };
        let (resid, orth) = qr_residuals(&a, &f, &tau);
        if resid < RESIDUAL_LIMIT && orth < RESIDUAL_LIMIT && out.failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "N = {n}: residual {resid:e}, orthogonality {orth:e}; {}",
                out.failures.join("; ")
            ))
        }
    }

    fn round(&self, cx: &RoundCx) -> RoundOut {
        let hosts = self
            .orders
            .iter()
            .map(|&n| HostMatrix::Shape { rows: n, cols: n })
            .collect();
        self.run(cx, ExecMode::TimingOnly, hosts).0
    }

    fn functional(&self) -> bool {
        false
    }
}
