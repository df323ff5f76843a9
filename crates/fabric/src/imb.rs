//! IMB-style PingPong benchmark.
//!
//! The paper uses the Intel MPI Benchmarks PingPong to establish the raw MPI
//! bandwidth ceiling that the middleware's transfer protocols are measured
//! against (Figures 5–8, "MPI Infiniband (IMB PingPong)"). This module
//! reproduces that measurement on the simulated fabric.

use dacc_sim::prelude::*;

use crate::mpi::{Fabric, Rank, Tag};
use crate::payload::Payload;
use crate::topology::{FabricParams, NodeId, Topology};

/// One PingPong measurement point.
#[derive(Clone, Copy, Debug)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Half round-trip time (the IMB "t\[usec\]" column).
    pub half_rtt: SimDuration,
    /// Bandwidth = bytes / half-rtt (the IMB "Mbytes/sec"-style column,
    /// reported in MiB/s to match the paper's axes).
    pub bandwidth_mib_s: f64,
}

/// Run PingPong between two fresh ranks for each message size.
///
/// `repetitions` ping-pong exchanges are timed per size (after one warm-up
/// exchange) and averaged — the simulator is deterministic, so this guards
/// only against protocol state (e.g. first-use effects), not noise.
pub fn run_pingpong(params: FabricParams, sizes: &[u64], repetitions: u32) -> Vec<PingPongPoint> {
    assert!(repetitions > 0);
    let mut out = Vec::with_capacity(sizes.len());
    for &bytes in sizes {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, params);
        let fabric = Fabric::new(&h, topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));

        let result = sim.spawn("pingpong.a", {
            let h = h.clone();
            async move {
                let payload = Payload::size_only(bytes);
                // Warm-up exchange.
                a.send(Rank(1), Tag(0), payload.clone()).await;
                a.recv(Some(Rank(1)), Some(Tag(0))).await;
                let start = h.now();
                for _ in 0..repetitions {
                    a.send(Rank(1), Tag(0), payload.clone()).await;
                    a.recv(Some(Rank(1)), Some(Tag(0))).await;
                }
                h.now().since(start)
            }
        });
        sim.spawn("pingpong.b", async move {
            for _ in 0..=repetitions {
                let env = b.recv(Some(Rank(0)), Some(Tag(0))).await;
                b.send(Rank(0), Tag(0), env.payload).await;
            }
        });
        sim.run();
        let total = result.try_take().expect("pingpong did not finish");
        let half_rtt = total / (2 * repetitions as u64);
        out.push(PingPongPoint {
            bytes,
            half_rtt,
            bandwidth_mib_s: if half_rtt.is_zero() || bytes == 0 {
                0.0
            } else {
                observed_bandwidth(bytes, half_rtt).mib_per_sec()
            },
        });
    }
    out
}

/// The message-size sweep used in the paper's figures: powers of four from
/// 1 KiB to 64 MiB (x-axis "Data size \[KiB\]" 1 … 65536).
pub fn paper_sizes() -> Vec<u64> {
    (0..9).map(|i| 1024u64 << (2 * i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_span_1kib_to_64mib() {
        let s = paper_sizes();
        assert_eq!(s.first(), Some(&1024));
        assert_eq!(s.last(), Some(&(64 * 1024 * 1024)));
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn small_message_latency_near_2us() {
        // §V.A: "the additional MPI over Infiniband latency of roughly two
        // microseconds".
        let pts = run_pingpong(FabricParams::qdr_infiniband(), &[8], 10);
        let us = pts[0].half_rtt.as_micros_f64();
        assert!((1.5..=2.5).contains(&us), "half-rtt {us} us");
    }

    #[test]
    fn peak_bandwidth_near_2660_mib_s() {
        // Fig. 5: "transmitting a 64 MiB message with MPI on our system
        // reaches a peak bandwidth of about 2660 MiB/s".
        let pts = run_pingpong(FabricParams::qdr_infiniband(), &[64 << 20], 3);
        let bw = pts[0].bandwidth_mib_s;
        assert!((2600.0..=2680.0).contains(&bw), "peak {bw} MiB/s");
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let pts = run_pingpong(FabricParams::qdr_infiniband(), &paper_sizes(), 3);
        for w in pts.windows(2) {
            assert!(
                w[1].bandwidth_mib_s >= w[0].bandwidth_mib_s * 0.98,
                "bandwidth dropped: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn determinism_same_params_same_curve() {
        let a = run_pingpong(FabricParams::qdr_infiniband(), &[4096, 1 << 20], 5);
        let b = run_pingpong(FabricParams::qdr_infiniband(), &[4096, 1 << 20], 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.half_rtt, y.half_rtt);
        }
    }
}
