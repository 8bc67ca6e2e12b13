//! Static validation of programs before simulation.
//!
//! Validation catches schedule-generator bugs early (rank ids out of range,
//! self-messages, mismatched send/receive counts) with a clear error instead
//! of a virtual-time deadlock.

use crate::cluster::RankId;
use crate::compiled::CompiledProgram;
use crate::program::{Op, Program, Tag};

/// Two-sided traffic accumulated across ranks: one `(src, dst, tag)` entry
/// per send (or per receive).  Nothing is counted while ranks stream
/// through; [`check_channels`] sorts the two lists once at the end.
pub(crate) type ChannelCounts = Vec<(RankId, RankId, Tag)>;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The program defines a different number of ranks than the cluster has.
    RankCountMismatch {
        /// Ranks in the program.
        program: usize,
        /// Ranks in the cluster.
        cluster: usize,
    },
    /// An operation references a rank outside the program.
    RankOutOfRange {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
        /// The referenced rank.
        target: RankId,
    },
    /// An operation sends a message to its own rank.
    SelfMessage {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
    },
    /// A `WaitNotifyAny` asks for more notifications than it lists.
    BadNotifyCount {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
    },
    /// A `WaitNotify`/`WaitNotifyAny` lists the same notification id twice.
    /// A duplicated id would make the engine count one arrival as two and
    /// decrement a zero counter on consumption — always a schedule-generator
    /// bug.
    DuplicateWaitId {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
        /// The duplicated notification id.
        id: u32,
    },
    /// A `PutNotify` carries no payload.  Payload-free synchronization must
    /// use `Notify`; a zero-byte put is almost always a schedule-generator
    /// bug (e.g. an empty chunk of a payload smaller than the rank count).
    ZeroBytePut {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
    },
    /// A compute duration is negative or not finite.
    BadComputeDuration {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
    },
    /// The program's payload bytes, summed over ranks and ops in order, pass
    /// `u64::MAX` at this op.
    WireBytesOverflow {
        /// Rank issuing the operation.
        rank: RankId,
        /// Index of the offending operation.
        op_index: usize,
    },
    /// The program is too large for the compiled form, which stores rank ids
    /// and arena offsets as `u32` codes.
    CodeRangeExceeded {
        /// What overflowed (`"rank count"`, `"stored op count"`,
        /// `"wait-id pool size"`).
        what: &'static str,
        /// The value that does not fit in a `u32`.
        value: usize,
    },
    /// The number of sends and receives on a channel differ.
    UnmatchedChannel {
        /// Sending rank.
        src: RankId,
        /// Receiving rank.
        dst: RankId,
        /// Message tag.
        tag: Tag,
        /// Number of sends on the channel.
        sends: usize,
        /// Number of receives on the channel.
        recvs: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::RankCountMismatch { program, cluster } => {
                write!(f, "program has {program} ranks but the cluster has {cluster}")
            }
            ValidationError::RankOutOfRange { rank, op_index, target } => {
                write!(f, "rank {rank} op {op_index} references out-of-range rank {target}")
            }
            ValidationError::SelfMessage { rank, op_index } => {
                write!(f, "rank {rank} op {op_index} sends a message to itself")
            }
            ValidationError::BadNotifyCount { rank, op_index } => {
                write!(f, "rank {rank} op {op_index} waits for more notifications than it lists")
            }
            ValidationError::DuplicateWaitId { rank, op_index, id } => {
                write!(f, "rank {rank} op {op_index} lists notification id {id} more than once in a wait")
            }
            ValidationError::ZeroBytePut { rank, op_index } => {
                write!(f, "rank {rank} op {op_index} issues a zero-byte put; use a payload-free notify instead")
            }
            ValidationError::BadComputeDuration { rank, op_index } => {
                write!(f, "rank {rank} op {op_index} has a negative or non-finite compute duration")
            }
            ValidationError::WireBytesOverflow { rank, op_index } => {
                write!(f, "rank {rank} op {op_index} takes the program's total wire bytes past u64::MAX")
            }
            ValidationError::CodeRangeExceeded { what, value } => {
                write!(f, "{what} {value} exceeds the u32 code range of compiled programs")
            }
            ValidationError::UnmatchedChannel { src, dst, tag, sends, recvs } => {
                write!(f, "channel {src}->{dst} tag {tag} has {sends} sends but {recvs} receives")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Reject wait lists containing the same notification id twice.
///
/// Wait lists are almost always tiny (one or two ids per op, at most the
/// fan-in of a tree), and validation runs on every `Engine::run` — so small
/// lists use an allocation-free quadratic scan and only genuinely large
/// lists fall back to a hash set.
fn check_distinct_wait_ids(ids: &[u32], rank: RankId, op_index: usize) -> Result<(), ValidationError> {
    if ids.len() <= 16 {
        for (i, &id) in ids.iter().enumerate() {
            if ids[..i].contains(&id) {
                return Err(ValidationError::DuplicateWaitId { rank, op_index, id });
            }
        }
        return Ok(());
    }
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    for &id in ids {
        if !seen.insert(id) {
            return Err(ValidationError::DuplicateWaitId { rank, op_index, id });
        }
    }
    Ok(())
}

/// Per-op structural checks for one rank, accumulating its two-sided channel
/// traffic into `sends`/`recvs` for the whole-program channel check and its
/// payload into the running `wire_bytes` total, which must fit a `u64`.
/// Shared by [`validate`] and the streaming compiler, so every entry path
/// rejects a broken program with the same error at the same op.
pub(crate) fn check_rank_ops(
    rank: RankId,
    ops: &[Op],
    n: usize,
    sends: &mut ChannelCounts,
    recvs: &mut ChannelCounts,
    wire_bytes: &mut u64,
) -> Result<(), ValidationError> {
    for (op_index, op) in ops.iter().enumerate() {
        let check_target = |target: RankId| -> Result<(), ValidationError> {
            if target >= n {
                Err(ValidationError::RankOutOfRange { rank, op_index, target })
            } else if target == rank {
                Err(ValidationError::SelfMessage { rank, op_index })
            } else {
                Ok(())
            }
        };
        match op {
            Op::PutNotify { dst, bytes, .. } => {
                check_target(*dst)?;
                if *bytes == 0 {
                    return Err(ValidationError::ZeroBytePut { rank, op_index });
                }
            }
            Op::Notify { dst, .. } => check_target(*dst)?,
            Op::Send { dst, tag, .. } | Op::Isend { dst, tag, .. } => {
                check_target(*dst)?;
                sends.push((rank, *dst, *tag));
            }
            Op::Recv { src, tag, .. } => {
                check_target(*src)?;
                recvs.push((*src, rank, *tag));
            }
            Op::WaitNotifyAny { ids, count } => {
                if *count == 0 || *count as usize > ids.len() {
                    return Err(ValidationError::BadNotifyCount { rank, op_index });
                }
                check_distinct_wait_ids(ids, rank, op_index)?;
            }
            Op::WaitNotify { ids } => check_distinct_wait_ids(ids, rank, op_index)?,
            Op::Compute { seconds } if !seconds.is_finite() || *seconds < 0.0 => {
                return Err(ValidationError::BadComputeDuration { rank, op_index });
            }
            _ => {}
        }
        *wire_bytes =
            wire_bytes.checked_add(op.wire_bytes()).ok_or(ValidationError::WireBytesOverflow { rank, op_index })?;
    }
    Ok(())
}

/// Per-channel send and receive counts must agree, otherwise the simulation
/// deadlocks (or leaves unmatched traffic behind).  Both lists are sorted and
/// walked together, so a broken program always reports its least mismatching
/// channel in `(src, dst, tag)` order.
pub(crate) fn check_channels(sends: &mut ChannelCounts, recvs: &mut ChannelCounts) -> Result<(), ValidationError> {
    sends.sort_unstable();
    recvs.sort_unstable();
    let (mut i, mut j) = (0, 0);
    loop {
        let Some(&ch) = sends.get(i).into_iter().chain(recvs.get(j)).min() else { return Ok(()) };
        let s = sends[i..].iter().take_while(|&&c| c == ch).count();
        let r = recvs[j..].iter().take_while(|&&c| c == ch).count();
        if s != r {
            let (src, dst, tag) = ch;
            return Err(ValidationError::UnmatchedChannel { src, dst, tag, sends: s, recvs: r });
        }
        i += s;
        j += r;
    }
}

/// Validate `program` against a cluster with `cluster_ranks` ranks.
pub fn validate(program: &Program, cluster_ranks: usize) -> Result<(), ValidationError> {
    let n = program.num_ranks();
    if n != cluster_ranks {
        return Err(ValidationError::RankCountMismatch { program: n, cluster: cluster_ranks });
    }
    let (mut sends, mut recvs, mut wire_bytes) = (ChannelCounts::new(), ChannelCounts::new(), 0);
    for (rank, rp) in program.ranks.iter().enumerate() {
        check_rank_ops(rank, &rp.ops, n, &mut sends, &mut recvs, &mut wire_bytes)?;
    }
    check_channels(&mut sends, &mut recvs)
}

/// Validate an already-compiled program against a cluster with
/// `cluster_ranks` ranks.
///
/// A [`CompiledProgram`] is valid by construction: compilation runs the full
/// per-op validation, and its arena (private fields, built only by the
/// compiler) is checked once, in debug builds, when compilation finishes.
/// So only the rank count is checked here — the one check
/// [`crate::Engine::run_compiled`] makes on every run.
pub fn validate_compiled(program: &CompiledProgram, cluster_ranks: usize) -> Result<(), ValidationError> {
    let n = program.num_ranks();
    if n != cluster_ranks {
        return Err(ValidationError::RankCountMismatch { program: n, cluster: cluster_ranks });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 100, 0);
        b.recv(1, 0, 100, 0);
        b.put_notify(0, 1, 8, 1);
        b.wait_notify(1, &[1]);
        assert!(validate(&b.build(), 2).is_ok());
    }

    #[test]
    fn rank_count_mismatch_detected() {
        let p = Program::empty(3);
        assert!(matches!(validate(&p, 4), Err(ValidationError::RankCountMismatch { .. })));
    }

    #[test]
    fn out_of_range_target_detected() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 5, 8, 0);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::RankOutOfRange { target: 5, .. })));
    }

    #[test]
    fn self_message_detected() {
        let mut b = ProgramBuilder::new(2);
        b.send(1, 1, 8, 0);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::SelfMessage { rank: 1, .. })));
    }

    #[test]
    fn unmatched_channel_detected() {
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 100, 0);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::UnmatchedChannel { .. })));
    }

    #[test]
    fn unmatched_channel_report_is_the_first_in_channel_order() {
        // Four unmatched sends, the least channel pushed second: every call
        // names the least (src, dst, tag), whatever the push or hash order.
        let mut b = ProgramBuilder::new(4);
        b.send(0, 3, 8, 1);
        b.send(0, 1, 8, 0);
        b.send(1, 2, 8, 0);
        b.send(2, 3, 8, 0);
        let p = b.build();
        let first = ValidationError::UnmatchedChannel { src: 0, dst: 1, tag: 0, sends: 1, recvs: 0 };
        for _ in 0..50 {
            assert_eq!(validate(&p, 4).unwrap_err(), first);
            assert_eq!(p.compile().unwrap_err(), first);
        }
    }

    #[test]
    fn bad_notify_count_detected() {
        let mut b = ProgramBuilder::new(2);
        b.wait_notify_any(0, &[1, 2], 3);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::BadNotifyCount { .. })));
    }

    #[test]
    fn duplicate_wait_ids_detected() {
        // `WaitNotify` with a repeated id: one arrival would be counted twice
        // and the second consumption would underflow a zero counter.
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[4, 4]);
        assert!(matches!(
            validate(&b.build(), 2),
            Err(ValidationError::DuplicateWaitId { rank: 0, op_index: 0, id: 4 })
        ));
        // Same for `WaitNotifyAny`.
        let mut b = ProgramBuilder::new(2);
        b.wait_notify_any(1, &[7, 2, 7], 1);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::DuplicateWaitId { rank: 1, id: 7, .. })));
        // Distinct ids stay valid.
        let mut ok = ProgramBuilder::new(2);
        ok.notify(0, 1, 2);
        ok.notify(0, 1, 7);
        ok.wait_notify_any(1, &[7, 2], 2);
        assert!(validate(&ok.build(), 2).is_ok());
    }

    #[test]
    fn zero_byte_put_detected() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 0, 3);
        b.wait_notify(1, &[3]);
        assert!(matches!(validate(&b.build(), 2), Err(ValidationError::ZeroBytePut { rank: 0, op_index: 0 })));
        // The payload-free form of the same synchronization is fine.
        let mut ok = ProgramBuilder::new(2);
        ok.notify(0, 1, 3);
        ok.wait_notify(1, &[3]);
        assert!(validate(&ok.build(), 2).is_ok());
    }

    #[test]
    fn negative_compute_detected() {
        let mut b = ProgramBuilder::new(1);
        b.compute(0, -1.0);
        assert!(matches!(validate(&b.build(), 1), Err(ValidationError::BadComputeDuration { .. })));
    }

    #[test]
    fn wire_byte_total_overflow_is_an_error_not_a_panic() {
        use crate::{ClusterSpec, CostModel, Engine, SimError};
        // Each put fits a u64; the two together do not.  The unmatched send
        // would fail the channel check, which runs after every op check.
        let half = u64::MAX / 2 + 1;
        let mut b = ProgramBuilder::new(3);
        b.send(0, 2, 8, 0);
        b.put_notify(0, 1, half, 0);
        b.put_notify(2, 1, half, 1);
        b.wait_notify(1, &[0, 1]);
        let p = b.build();
        let err = ValidationError::WireBytesOverflow { rank: 2, op_index: 0 };
        assert_eq!(validate(&p, 3), Err(err.clone()));
        assert_eq!(p.compile().unwrap_err(), err);
        assert_eq!(CompiledProgram::from_source(&p).unwrap_err(), err);
        let engine = Engine::new(ClusterSpec::homogeneous(3, 1), CostModel::test_model());
        assert_eq!(engine.run(&p).unwrap_err(), SimError::Invalid(err.clone()));
        assert_eq!(p.total_wire_bytes(), u64::MAX, "saturates");
        assert!(err.to_string().contains("rank 2 op 0"), "{err}");
        // An op's own checks come first: the overflowing put also targets
        // itself.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, half, 0).put_notify(0, 0, half, 1);
        let p = b.build();
        let self_put = ValidationError::SelfMessage { rank: 0, op_index: 1 };
        assert_eq!(validate(&p, 2), Err(self_put.clone()));
        assert_eq!(p.compile().unwrap_err(), self_put);
    }

    #[test]
    fn errors_format_human_readably() {
        let e = ValidationError::UnmatchedChannel { src: 0, dst: 1, tag: 2, sends: 3, recvs: 1 };
        let s = e.to_string();
        assert!(s.contains("0->1"));
        assert!(s.contains("3 sends"));
    }

    #[test]
    fn validate_compiled_checks_rank_count_and_bounds() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 8, 0);
        b.wait_notify(1, &[0]);
        let c = b.build().compile().unwrap();
        assert!(validate_compiled(&c, 2).is_ok());
        assert!(matches!(validate_compiled(&c, 3), Err(ValidationError::RankCountMismatch { .. })));
    }
}
