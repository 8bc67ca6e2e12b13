//! A minimal threaded two-sided (MPI-like) communication layer.
//!
//! Every rank is a thread; point-to-point messages are `f64` vectors matched
//! by `(source, tag)` in FIFO order, with an unexpected-message queue exactly
//! like an MPI implementation.  This layer exists so the baseline collective
//! algorithms — the same [`crate::variants`] bodies the simulator prices —
//! run on real data and their values can be checked.
//!
//! The benchmark's `threaded_p2` workload also times [`crate::allreduce_ring`]
//! (the `mpi7` ring body) on this layer against the GASPI ring
//! (`collectives.vs_mpi_ring_x`).  That
//! ratio compares two in-process runtimes on shared memory: an eager send here
//! is one copy into an owned message plus a channel hand-off, a GASPI put one
//! copy into the target segment plus a notification.  It shows whether either
//! runtime taxes its algorithm with avoidable copies or wake-ups; it says
//! nothing about a network, where the comparison is the `ec-netsim` cost
//! model's job.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

/// Rank identifier.
pub type Rank = usize;

/// Message tag.
pub type Tag = u32;

/// Errors returned by the two-sided layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The destination or source rank does not exist.
    InvalidRank {
        /// Offending rank.
        rank: Rank,
        /// Number of ranks in the world.
        size: usize,
    },
    /// A blocking receive timed out (guards tests against deadlocks).
    Timeout,
    /// The world is shutting down.
    Disconnected,
    /// A received payload's length does not match the posted buffer range —
    /// a protocol/layout bug in a collective body, not a transport failure.
    LengthMismatch {
        /// Elements the receiver expected.
        expected: usize,
        /// Elements the sender shipped.
        got: usize,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::InvalidRank { rank, size } => write!(f, "rank {rank} out of range ({size} ranks)"),
            MpiError::Timeout => write!(f, "receive timed out"),
            MpiError::Disconnected => write!(f, "communication world is shutting down"),
            MpiError::LengthMismatch { expected, got } => {
                write!(f, "received {got} elements where the posted buffer range holds {expected}")
            }
        }
    }
}

impl std::error::Error for MpiError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, MpiError>;

#[derive(Debug)]
struct Envelope {
    src: Rank,
    tag: Tag,
    payload: Vec<f64>,
}

/// Per-rank communicator handle.
#[derive(Debug)]
pub struct MpiComm {
    rank: Rank,
    size: usize,
    inbox: Receiver<Envelope>,
    peers: Arc<Vec<Sender<Envelope>>>,
    /// Messages that arrived before a matching receive was posted.
    unexpected: HashMap<(Rank, Tag), VecDeque<Vec<f64>>>,
    /// Guard timeout for blocking receives.
    timeout: Duration,
}

impl MpiComm {
    /// This rank's id.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Blocking send of `data` to `dst` with `tag`.
    ///
    /// The transport is buffered, so the call returns as soon as the message
    /// is enqueued (standard-mode MPI send semantics for buffered messages).
    pub fn send(&self, dst: Rank, tag: Tag, data: &[f64]) -> Result<()> {
        if dst >= self.size {
            return Err(MpiError::InvalidRank { rank: dst, size: self.size });
        }
        self.peers[dst]
            .send(Envelope { src: self.rank, tag, payload: data.to_vec() })
            .map_err(|_| MpiError::Disconnected)
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv(&mut self, src: Rank, tag: Tag) -> Result<Vec<f64>> {
        if src >= self.size {
            return Err(MpiError::InvalidRank { rank: src, size: self.size });
        }
        // 1. Check the unexpected-message queue.
        if let Some(q) = self.unexpected.get_mut(&(src, tag)) {
            if let Some(msg) = q.pop_front() {
                if q.is_empty() {
                    self.unexpected.remove(&(src, tag));
                }
                return Ok(msg);
            }
        }
        // 2. Drain the inbox until the matching message arrives.
        loop {
            match self.inbox.recv_timeout(self.timeout) {
                Ok(env) => {
                    if env.src == src && env.tag == tag {
                        return Ok(env.payload);
                    }
                    self.unexpected.entry((env.src, env.tag)).or_default().push_back(env.payload);
                }
                Err(RecvTimeoutError::Timeout) => return Err(MpiError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(MpiError::Disconnected),
            }
        }
    }

    /// Combined send + receive (the `MPI_Sendrecv` building block most
    /// baseline algorithms are written in).
    pub fn sendrecv(&mut self, dst: Rank, send_tag: Tag, data: &[f64], src: Rank, recv_tag: Tag) -> Result<Vec<f64>> {
        self.send(dst, send_tag, data)?;
        self.recv(src, recv_tag)
    }
}

/// Launcher for a fixed-size two-sided world.
#[derive(Debug, Clone)]
pub struct MpiWorld {
    size: usize,
    timeout: Duration,
}

impl MpiWorld {
    /// Create a world with `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world needs at least one rank");
        Self { size, timeout: Duration::from_secs(30) }
    }

    /// Replace the guard timeout used by blocking receives.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Run `f` once per rank and collect the results in rank order.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut MpiComm) -> T + Send + Sync,
    {
        let mut senders = Vec::with_capacity(self.size);
        let mut receivers = Vec::with_capacity(self.size);
        for _ in 0..self.size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let peers = Arc::new(senders);
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let peers = Arc::clone(&peers);
                let timeout = self.timeout;
                let size = self.size;
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("mpi-rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let mut comm = MpiComm { rank, size, inbox, peers, unexpected: HashMap::new(), timeout };
                            f(&mut comm)
                        })
                        .expect("spawning rank thread"),
                );
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_round_trip() {
        let out = MpiWorld::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0, 2.0, 3.0]).unwrap();
                Vec::new()
            } else {
                comm.recv(0, 7).unwrap()
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn messages_with_different_tags_do_not_mix() {
        let out = MpiWorld::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]).unwrap();
                comm.send(1, 2, &[2.0]).unwrap();
                (vec![], vec![])
            } else {
                // Receive in reverse tag order: the tag-1 message must be
                // parked in the unexpected queue and still be delivered.
                let b = comm.recv(0, 2).unwrap();
                let a = comm.recv(0, 1).unwrap();
                (a, b)
            }
        });
        assert_eq!(out[1], (vec![1.0], vec![2.0]));
    }

    #[test]
    fn fifo_order_within_a_channel() {
        let out = MpiWorld::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..5 {
                    comm.send(1, 0, &[i as f64]).unwrap();
                }
                Vec::new()
            } else {
                (0..5).map(|_| comm.recv(0, 0).unwrap()[0]).collect()
            }
        });
        assert_eq!(out[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sendrecv_exchanges_between_partners() {
        let out = MpiWorld::new(2).run(|comm| {
            let peer = 1 - comm.rank();
            let mine = vec![comm.rank() as f64; 3];
            comm.sendrecv(peer, 0, &mine, peer, 0).unwrap()
        });
        assert_eq!(out[0], vec![1.0; 3]);
        assert_eq!(out[1], vec![0.0; 3]);
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let out = MpiWorld::new(2).run(|comm| comm.send(5, 0, &[0.0]).unwrap_err());
        assert_eq!(out[0], MpiError::InvalidRank { rank: 5, size: 2 });
    }

    #[test]
    fn recv_timeout_reports_instead_of_hanging() {
        let out = MpiWorld::new(2).with_timeout(Duration::from_millis(20)).run(|comm| {
            if comm.rank() == 0 {
                comm.recv(1, 0).err()
            } else {
                None
            }
        });
        assert_eq!(out[0], Some(MpiError::Timeout));
    }
}
