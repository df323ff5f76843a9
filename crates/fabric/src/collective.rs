//! Collective operations over endpoint groups: broadcast, gather, and
//! reduction, built from point-to-point messages (binomial trees).
//!
//! All members of `group` must call the same collective concurrently, like
//! MPI. Group order defines the tree; `group[root_index]` is the root.

use crate::mpi::{Endpoint, Rank};
use crate::payload::Payload;

/// Reserved tags for collectives.
pub mod coll_tags {
    use crate::mpi::Tag;
    /// Broadcast tree messages.
    pub const BCAST: Tag = Tag(0xFFFF_0003);
    /// Gather messages.
    pub const GATHER: Tag = Tag(0xFFFF_0004);
    /// Reduction tree messages.
    pub const REDUCE: Tag = Tag(0xFFFF_0005);
}

fn index_of(group: &[Rank], me: Rank) -> usize {
    group
        .iter()
        .position(|&r| r == me)
        .expect("collective: caller not in group")
}

/// Broadcast `payload` from `group[root_index]` to every member via a
/// binomial tree (log₂ p rounds). Returns the payload at every rank.
pub async fn bcast(
    ep: &Endpoint,
    group: &[Rank],
    root_index: usize,
    payload: Option<Payload>,
) -> Payload {
    let p = group.len();
    assert!(root_index < p);
    let me = index_of(group, ep.rank());
    // Rotate so the root is virtual rank 0.
    let vrank = (me + p - root_index) % p;
    let mut data = if vrank == 0 {
        payload.expect("bcast root must supply the payload")
    } else {
        // Receive from my tree parent: clear the lowest set bit of vrank.
        let parent_v = vrank & (vrank - 1);
        let parent = group[(parent_v + root_index) % p];
        ep.recv(Some(parent), Some(coll_tags::BCAST)).await.payload
    };
    // Forward to children: vrank + 2^k for each k above my lowest set bit.
    let lowest = if vrank == 0 {
        usize::BITS
    } else {
        vrank.trailing_zeros()
    };
    let mut children = Vec::new();
    let mut k = 0u32;
    while (1usize << k) < p {
        if k < lowest {
            let child_v = vrank | (1 << k);
            if child_v != vrank && child_v < p {
                children.push(group[(child_v + root_index) % p]);
            }
        }
        k += 1;
    }
    // Topology-aware ordering: start the farthest child's subtree first so
    // long routes overlap with the shorter sends. The sort is stable and
    // descending, so an all-equal-distance fabric (the single switch)
    // keeps the classic ascending-k order exactly.
    let fabric = ep.fabric();
    let my_node = fabric.node_of(ep.rank());
    children
        .sort_by_key(|&c| std::cmp::Reverse(fabric.topology().hops(my_node, fabric.node_of(c))));
    for child in children {
        ep.send(child, coll_tags::BCAST, data.clone()).await;
    }
    // `data` is consumed by the sends only as clones. Normalize to a
    // contiguous payload on return (zero-copy unless the caller handed
    // the root a scatter-gather chain).
    if data.is_functional() {
        data = Payload::Bytes(data.to_bytes());
    }
    data
}

/// Gather every member's payload at `group[root_index]`; returns
/// `Some(payloads in group order)` at the root, `None` elsewhere.
pub async fn gather(
    ep: &Endpoint,
    group: &[Rank],
    root_index: usize,
    payload: Payload,
) -> Option<Vec<Payload>> {
    let me = index_of(group, ep.rank());
    let root = group[root_index];
    if me == root_index {
        let mut out: Vec<Option<Payload>> = vec![None; group.len()];
        out[me] = Some(payload);
        for _ in 0..group.len() - 1 {
            let env = ep.recv(None, Some(coll_tags::GATHER)).await;
            let idx = index_of(group, env.src);
            assert!(out[idx].is_none(), "duplicate gather contribution");
            out[idx] = Some(env.payload);
        }
        Some(out.into_iter().map(Option::unwrap).collect())
    } else {
        ep.send(root, coll_tags::GATHER, payload).await;
        None
    }
}

/// Element-wise sum-reduction of equal-length `f64` vectors to the root
/// (binomial tree). Returns `Some(sum)` at the root, `None` elsewhere.
///
/// Functional payloads only; a timing-only variant can use [`gather`] with
/// size-only payloads.
pub async fn reduce_f64_sum(
    ep: &Endpoint,
    group: &[Rank],
    root_index: usize,
    mut acc: Vec<f64>,
) -> Option<Vec<f64>> {
    let p = group.len();
    let me = index_of(group, ep.rank());
    let vrank = (me + p - root_index) % p;
    let mut k = 0u32;
    while (1usize << k) < p {
        let bit = 1usize << k;
        if vrank & bit != 0 {
            // Send my accumulator to the partner below and exit.
            let dst_v = vrank & !bit;
            let dst = group[(dst_v + root_index) % p];
            let bytes: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
            ep.send(dst, coll_tags::REDUCE, Payload::from_vec(bytes))
                .await;
            return None;
        } else if vrank | bit < p {
            // Receive from the partner above and fold in.
            let src_v = vrank | bit;
            let src = group[(src_v + root_index) % p];
            let env = ep.recv(Some(src), Some(coll_tags::REDUCE)).await;
            // to_bytes(): tolerate chained payloads (an f64 may straddle
            // segment boundaries, so decode from the contiguous form).
            let other: Vec<f64> = env
                .payload
                .to_bytes()
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(other.len(), acc.len(), "reduce length mismatch");
            for (a, b) in acc.iter_mut().zip(&other) {
                *a += b;
            }
        }
        k += 1;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::Fabric;
    use crate::topology::{FabricParams, NodeId, Topology};
    use dacc_sim::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world(n: usize) -> (Sim, Vec<Endpoint>, Vec<Rank>) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, n, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let eps: Vec<Endpoint> = (0..n).map(|i| fabric.add_endpoint(NodeId(i))).collect();
        let ranks: Vec<Rank> = eps.iter().map(|e| e.rank()).collect();
        (sim, eps, ranks)
    }

    #[test]
    fn bcast_reaches_everyone() {
        for n in [1usize, 2, 3, 5, 8] {
            for root in [0usize, n - 1, n / 2] {
                let (mut sim, eps, ranks) = world(n);
                let got = Rc::new(RefCell::new(vec![Vec::new(); n]));
                for (i, ep) in eps.into_iter().enumerate() {
                    let group = ranks.clone();
                    let got = Rc::clone(&got);
                    sim.spawn("p", async move {
                        let payload =
                            (i == root).then(|| Payload::from_vec(vec![7, 8, 9, root as u8]));
                        let out = bcast(&ep, &group, root, payload).await;
                        got.borrow_mut()[i] = out.expect_bytes().to_vec();
                    });
                }
                let out = sim.run();
                assert_eq!(out.pending_tasks, 0, "endpoints park no task of their own");
                for (i, v) in got.borrow().iter().enumerate() {
                    assert_eq!(
                        v,
                        &vec![7, 8, 9, root as u8],
                        "rank {i}, n={n}, root={root}"
                    );
                }
            }
        }
    }

    #[test]
    fn bcast_reaches_everyone_on_multihop_topologies() {
        use crate::topology::TopologySpec;
        for spec in [
            TopologySpec::FatTree { radix: 2 },
            TopologySpec::Dragonfly { groups: 3 },
        ] {
            let n = 8;
            let sim = Sim::new();
            let h = sim.handle();
            let topo = Topology::with_spec(&h, n, FabricParams::qdr_infiniband(), spec);
            let fabric = Fabric::new(&h, topo);
            let eps: Vec<Endpoint> = (0..n).map(|i| fabric.add_endpoint(NodeId(i))).collect();
            let ranks: Vec<Rank> = eps.iter().map(|e| e.rank()).collect();
            let mut sim = sim;
            let got = Rc::new(RefCell::new(vec![Vec::new(); n]));
            for (i, ep) in eps.into_iter().enumerate() {
                let group = ranks.clone();
                let got = Rc::clone(&got);
                sim.spawn("p", async move {
                    let payload = (i == 0).then(|| Payload::from_vec(vec![42, 1, 2]));
                    let out = bcast(&ep, &group, 0, payload).await;
                    got.borrow_mut()[i] = out.expect_bytes().to_vec();
                });
            }
            sim.run();
            for (i, v) in got.borrow().iter().enumerate() {
                assert_eq!(v, &vec![42, 1, 2], "rank {i} on {spec:?}");
            }
        }
    }

    #[test]
    fn gather_collects_in_group_order() {
        let n = 5;
        let (mut sim, eps, ranks) = world(n);
        let got = Rc::new(RefCell::new(None));
        for (i, ep) in eps.into_iter().enumerate() {
            let group = ranks.clone();
            let got = Rc::clone(&got);
            sim.spawn("p", async move {
                let mine = Payload::from_vec(vec![i as u8; i + 1]);
                if let Some(all) = gather(&ep, &group, 2, mine).await {
                    *got.borrow_mut() = Some(all);
                }
            });
        }
        sim.run();
        let all = got.borrow().clone().expect("root got nothing");
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.expect_bytes().as_ref(), vec![i as u8; i + 1].as_slice());
        }
    }

    #[test]
    fn reduce_sums_across_ranks() {
        for n in [1usize, 2, 4, 7] {
            let (mut sim, eps, ranks) = world(n);
            let got = Rc::new(RefCell::new(None));
            for (i, ep) in eps.into_iter().enumerate() {
                let group = ranks.clone();
                let got = Rc::clone(&got);
                sim.spawn("p", async move {
                    let mine = vec![i as f64, 1.0, -(i as f64)];
                    if let Some(sum) = reduce_f64_sum(&ep, &group, 0, mine).await {
                        *got.borrow_mut() = Some(sum);
                    }
                });
            }
            sim.run();
            let sum = got.borrow().clone().expect("no root result");
            let expect_0: f64 = (0..n).map(|i| i as f64).sum();
            assert_eq!(sum, vec![expect_0, n as f64, -expect_0], "n={n}");
        }
    }
}
