//! Symbolic SPMD program sources: per-rank op streams generated lazily from
//! an algorithm's closed form.
//!
//! A materialized [`Program`] stores every rank's ops — O(p · ops) memory,
//! which is what makes million-rank figure runs expensive even when every
//! rank executes the *same* SPMD algorithm with rank-rotated targets.  A
//! [`ProgramSource`] instead answers "what does rank `r` do?" on demand; the
//! compiler ([`crate::CompiledProgram::from_source`]) streams one rank at a
//! time through a reused scratch buffer and interns identical op streams, so
//! a symmetric p = 2^20 collective compiles to O(ops) memory and the full
//! program never exists anywhere.
//!
//! A source is the one definition of its schedule: [`Program::from_source`]
//! materializes it when a caller wants the plain per-rank lists, and
//! `CompiledProgram::from_source` compiles it without ever doing so.  The
//! collective sources replay the real algorithm bodies one rank at a time
//! on `ec_comm::RankRecorder`; irregular hand-built programs use
//! [`crate::ProgramBuilder`] instead.

use crate::cluster::RankId;
use crate::program::{Op, Program, RankProgram};

/// A program defined by generation: rank `r`'s ops are produced on demand
/// instead of being stored.
///
/// Implementations must be deterministic — the same `(source, rank)` must
/// always yield the same op stream — and are expected to be cheap enough to
/// call once per rank during compilation.
pub trait ProgramSource {
    /// Number of ranks in the program.
    fn num_ranks(&self) -> usize;

    /// Append rank `rank`'s operations, in program order, to `out`.
    ///
    /// `out` is cleared by the caller before the call; implementations only
    /// push.  A rank with no work simply pushes nothing.
    fn rank_ops(&self, rank: RankId, out: &mut Vec<Op>);
}

impl Program {
    /// Materialize every rank's op stream of `source` — the twin of
    /// [`CompiledProgram::from_source`](crate::CompiledProgram::from_source)
    /// for callers that want the per-rank lists themselves.
    pub fn from_source<S: ProgramSource>(source: &S) -> Self {
        let ranks = (0..source.num_ranks())
            .map(|rank| {
                let mut ops = Vec::new();
                source.rank_ops(rank, &mut ops);
                RankProgram { ops }
            })
            .collect();
        Self { ranks }
    }
}

/// A materialized program is trivially its own source (rank ops are copied
/// out of storage).  This is what makes every `ProgramSource` consumer also
/// accept recorded programs.
impl ProgramSource for Program {
    fn num_ranks(&self) -> usize {
        Program::num_ranks(self)
    }

    fn rank_ops(&self, rank: RankId, out: &mut Vec<Op>) {
        out.extend_from_slice(&self.ranks[rank].ops);
    }
}

impl<S: ProgramSource + ?Sized> ProgramSource for &S {
    fn num_ranks(&self) -> usize {
        (**self).num_ranks()
    }

    fn rank_ops(&self, rank: RankId, out: &mut Vec<Op>) {
        (**self).rank_ops(rank, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn a_program_is_its_own_source() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 3);
        b.wait_notify(1, &[3]);
        let p = b.build();
        let mut out = Vec::new();
        ProgramSource::rank_ops(&p, 0, &mut out);
        assert_eq!(out, p.ranks[0].ops);
        out.clear();
        ProgramSource::rank_ops(&p, 1, &mut out);
        assert_eq!(out, p.ranks[1].ops);
        assert_eq!(ProgramSource::num_ranks(&p), 2);
        // The blanket reference impl delegates.
        assert_eq!(ProgramSource::num_ranks(&&p), 2);
        // Materializing a program's source reproduces the program.
        assert_eq!(Program::from_source(&p), p);
    }
}
