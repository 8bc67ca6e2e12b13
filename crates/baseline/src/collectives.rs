//! Reference (threaded) implementations of the MPI-like baseline collectives.
//!
//! These run on the two-sided [`crate::comm`] layer and serve as correctness
//! oracles: the GASPI collectives must produce the same results.  The
//! algorithms are the textbook formulations the Intel MPI variant names in
//! the paper refer to.

use crate::comm::{MpiComm, Result};

/// Element-wise sum of `other` into `acc`.
fn sum_into(acc: &mut [f64], other: &[f64]) {
    for (a, b) in acc.iter_mut().zip(other.iter()) {
        *a += *b;
    }
}

/// Binomial-tree broadcast from `root` (the `mpi-bin` variant of Figure 8).
pub fn bcast_binomial(comm: &mut MpiComm, data: &mut Vec<f64>, root: usize) -> Result<()> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let vrank = (rank + p - root) % p;
    // Receive from the parent (the rank that differs in the highest set bit).
    if vrank != 0 {
        let highest = usize::BITS - 1 - vrank.leading_zeros();
        let vparent = vrank & !(1 << highest);
        let parent = (vparent + root) % p;
        *data = comm.recv(parent, 0)?;
    }
    // Forward to children.
    let mut bit = 1usize;
    while bit < p {
        if bit > vrank {
            let vchild = vrank + bit;
            if vchild < p {
                let child = (vchild + root) % p;
                comm.send(child, 0, data)?;
            }
        }
        bit <<= 1;
    }
    Ok(())
}

/// Binomial-tree reduction (sum) towards `root` (the `mpi-bin` variant of
/// Figure 9).  Returns the reduced vector on the root, `None` elsewhere.
pub fn reduce_binomial(comm: &mut MpiComm, contribution: &[f64], root: usize) -> Result<Option<Vec<f64>>> {
    let p = comm.size();
    let rank = comm.rank();
    let mut acc = contribution.to_vec();
    if p == 1 {
        return Ok(Some(acc));
    }
    let vrank = (rank + p - root) % p;
    // Collect from children (largest offset first, mirroring the broadcast).
    let mut bit = 1usize;
    let mut child_bits = Vec::new();
    while bit < p {
        if bit > vrank && vrank + bit < p {
            child_bits.push(bit);
        }
        bit <<= 1;
    }
    for bit in child_bits.into_iter().rev() {
        let child = (vrank + bit + root) % p;
        let msg = comm.recv(child, 1)?;
        sum_into(&mut acc, &msg);
    }
    if vrank != 0 {
        let highest = usize::BITS - 1 - vrank.leading_zeros();
        let parent = ((vrank & !(1 << highest)) + root) % p;
        comm.send(parent, 1, &acc)?;
        Ok(None)
    } else {
        Ok(Some(acc))
    }
}

/// Recursive-doubling allreduce (sum), the classic small-message algorithm
/// (`mpi1` in Figures 11–12).
///
/// Non-power-of-two rank counts are handled with the standard fold phases:
/// the surplus ranks beyond the largest power of two `P2` hand their
/// contribution to `rank - P2` before the doubling loop (fold-in) and
/// receive the finished result afterwards (fold-out), so the collective is
/// total at any `P`.
pub fn allreduce_recursive_doubling(comm: &mut MpiComm, data: &mut [f64]) -> Result<()> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let p2 = crate::variants::prev_power_of_two(p);
    let extras = p - p2;
    if rank >= p2 {
        // Fold-in, then sit out the doubling and collect the result.
        comm.send(rank - p2, 2, data)?;
        let result = comm.recv(rank - p2, 2)?;
        data.copy_from_slice(&result);
        return Ok(());
    }
    if rank < extras {
        let folded = comm.recv(rank + p2, 2)?;
        sum_into(data, &folded);
    }
    let mut step = 1usize;
    while step < p2 {
        let partner = rank ^ step;
        let received = comm.sendrecv(partner, 2, data, partner, 2)?;
        sum_into(data, &received);
        step <<= 1;
    }
    if rank < extras {
        comm.send(rank + p2, 2, data)?;
    }
    Ok(())
}

/// Ring allreduce (sum): reduce-scatter around the ring followed by an
/// allgather (`mpi8` in Figures 11–12, and the structure of Shumilin's ring).
pub fn allreduce_ring(comm: &mut MpiComm, data: &mut [f64]) -> Result<()> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let n = data.len();
    let chunk_start = |c: usize| c * n / p;
    let chunk_end = |c: usize| (c + 1) * n / p;
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;

    // Reduce-scatter.
    for step in 0..p - 1 {
        let send_chunk = (rank + p - step) % p;
        let recv_chunk = (rank + p - step - 1) % p;
        comm.send(next, 3, &data[chunk_start(send_chunk)..chunk_end(send_chunk)])?;
        let incoming = comm.recv(prev, 3)?;
        sum_into(&mut data[chunk_start(recv_chunk)..chunk_end(recv_chunk)], &incoming);
    }
    // Allgather.
    for step in 0..p - 1 {
        let send_chunk = (rank + 1 + p - step) % p;
        let recv_chunk = (rank + p - step) % p;
        comm.send(next, 4, &data[chunk_start(send_chunk)..chunk_end(send_chunk)])?;
        let incoming = comm.recv(prev, 4)?;
        data[chunk_start(recv_chunk)..chunk_end(recv_chunk)].copy_from_slice(&incoming);
    }
    Ok(())
}

/// Pairwise-exchange AlltoAll, the default medium-size algorithm of vendor
/// MPI libraries (Figure 13's `mpi` lines).  `send` holds one block of
/// `block` elements per destination; returns the received blocks.
pub fn alltoall_pairwise(comm: &mut MpiComm, send: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    let rank = comm.rank();
    assert_eq!(send.len(), p * block, "send buffer must hold one block per rank");
    let mut recv = vec![0.0; p * block];
    recv[rank * block..(rank + 1) * block].copy_from_slice(&send[rank * block..(rank + 1) * block]);
    for step in 1..p {
        let dst = (rank + step) % p;
        let src = (rank + p - step) % p;
        let outgoing = &send[dst * block..(dst + 1) * block];
        let incoming = comm.sendrecv(dst, 5, outgoing, src, 5)?;
        recv[src * block..(src + 1) * block].copy_from_slice(&incoming);
    }
    Ok(recv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::MpiWorld;

    #[test]
    fn binomial_broadcast_replicates_root_data() {
        for p in [2usize, 3, 5, 8] {
            for root in [0, p - 1] {
                let out = MpiWorld::new(p).run(|comm| {
                    let mut data = if comm.rank() == root { vec![7.0, 8.0, 9.0] } else { vec![0.0; 3] };
                    bcast_binomial(comm, &mut data, root).unwrap();
                    data
                });
                for data in &out {
                    assert_eq!(data, &vec![7.0, 8.0, 9.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn binomial_reduce_sums_contributions() {
        for p in [2usize, 4, 6, 8] {
            let out = MpiWorld::new(p).run(|comm| {
                let contribution = vec![comm.rank() as f64 + 1.0; 5];
                reduce_binomial(comm, &contribution, 0).unwrap()
            });
            let total = (p * (p + 1) / 2) as f64;
            assert_eq!(out[0].as_ref().unwrap(), &vec![total; 5]);
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn recursive_doubling_allreduce_handles_non_power_of_two_worlds() {
        // Regression: this used to assert on non-power-of-two rank counts;
        // p = 12 exercises fold-in/fold-out around the p2 = 8 core.
        for (p, n) in [(3usize, 5usize), (6, 9), (12, 17)] {
            let out = MpiWorld::new(p).run(move |comm| {
                let mut data: Vec<f64> = (0..n).map(|i| (comm.rank() + 1) as f64 * (i + 1) as f64).collect();
                allreduce_recursive_doubling(comm, &mut data).unwrap();
                data
            });
            for data in &out {
                for (i, &v) in data.iter().enumerate() {
                    let want: f64 = (0..p).map(|r| (r + 1) as f64 * (i + 1) as f64).sum();
                    assert!((v - want).abs() < 1e-9, "p={p} elem {i}: {v} != {want}");
                }
            }
        }
    }

    #[test]
    fn recursive_doubling_allreduce_matches_sum() {
        for p in [2usize, 4, 8] {
            let out = MpiWorld::new(p).run(|comm| {
                let mut data = vec![(comm.rank() + 1) as f64; 6];
                allreduce_recursive_doubling(comm, &mut data).unwrap();
                data
            });
            let total = (p * (p + 1) / 2) as f64;
            for data in &out {
                assert_eq!(data, &vec![total; 6]);
            }
        }
    }

    #[test]
    fn ring_allreduce_matches_sum_for_awkward_sizes() {
        for (p, n) in [(4usize, 10usize), (3, 7), (8, 5), (5, 23)] {
            let out = MpiWorld::new(p).run(move |comm| {
                let mut data: Vec<f64> = (0..n).map(|i| (comm.rank() + 1) as f64 * (i + 1) as f64).collect();
                allreduce_ring(comm, &mut data).unwrap();
                data
            });
            for data in &out {
                for (i, &v) in data.iter().enumerate() {
                    let want: f64 = (0..p).map(|r| (r + 1) as f64 * (i + 1) as f64).sum();
                    assert!((v - want).abs() < 1e-9, "p={p} n={n} elem {i}: {v} != {want}");
                }
            }
        }
    }

    #[test]
    fn pairwise_alltoall_matches_reference() {
        let p = 5;
        let block = 3;
        let out = MpiWorld::new(p).run(move |comm| {
            let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 100 + i) as f64).collect();
            alltoall_pairwise(comm, &send, block).unwrap()
        });
        for (j, recv) in out.iter().enumerate() {
            for i in 0..p {
                for k in 0..block {
                    assert_eq!(recv[i * block + k], (i * 100 + j * block + k) as f64);
                }
            }
        }
    }
}
