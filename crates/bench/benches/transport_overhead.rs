//! Does the `ec_comm::Transport` abstraction cost anything at runtime?
//!
//! The library's ring allreduce is written once, generically over the
//! `Transport` trait, and monomorphized for the threaded backend.  This bench
//! pits it against a hand-inlined copy of the same algorithm calling
//! `ec_gaspi::Context` directly (the shape of the pre-refactor code): both
//! run the identical chunk schedule, notification layout and reduction work,
//! so any gap between the two series is pure abstraction overhead.  Expect
//! none — the trait calls are static and inline away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ec_collectives::topology::{
    allgather_recv_chunk, allgather_send_chunk, chunk_ranges, ring_next, scatter_recv_chunk, scatter_send_chunk,
};
use ec_collectives::{ReduceOp, RingAllreduce};
use ec_gaspi::segment::decode_f64s;
use ec_gaspi::{Context, GaspiConfig, Job, SegmentId};

const RANKS: usize = 4;
const ROUNDS: usize = 4;

/// Hand-inlined ring allreduce over the raw `Context` API: the direct
/// baseline the `Transport`-generic implementation is compared against.
struct DirectRing<'a> {
    ctx: &'a Context,
    segment: SegmentId,
    capacity: usize,
    max_chunk: usize,
}

impl<'a> DirectRing<'a> {
    const SEGMENT: SegmentId = 90;

    fn new(ctx: &'a Context, capacity: usize) -> Self {
        let p = ctx.num_ranks();
        let max_chunk = chunk_ranges(capacity, p)[0].1.max(1);
        let bytes = (capacity + p.saturating_sub(1) * max_chunk) * 8;
        ctx.segment_create(Self::SEGMENT, bytes.max(8)).unwrap();
        Self { ctx, segment: Self::SEGMENT, capacity, max_chunk }
    }

    fn scratch_offset(&self, step: usize) -> usize {
        (self.capacity + step * self.max_chunk) * 8
    }

    fn run(&self, data: &mut [f64], op: ReduceOp) {
        let ctx = self.ctx;
        let p = ctx.num_ranks();
        let rank = ctx.rank();
        let n = data.len();
        let chunks = chunk_ranges(n, p);
        let next = ring_next(rank, p);
        for step in 0..p - 1 {
            let (s_start, s_len) = chunks[scatter_send_chunk(rank, step, p)];
            if s_len > 0 {
                ctx.write_notify_f64s(
                    next,
                    self.segment,
                    self.scratch_offset(step),
                    &data[s_start..s_start + s_len],
                    step as u32,
                    1,
                    0,
                )
                .unwrap();
            } else {
                ctx.notify(next, self.segment, step as u32, 1, 0).unwrap();
            }
            ctx.notify_waitsome(self.segment, step as u32, 1, None).unwrap();
            ctx.notify_reset(self.segment, step as u32).unwrap();
            let (r_start, r_len) = chunks[scatter_recv_chunk(rank, step, p)];
            if r_len > 0 {
                let acc = &mut data[r_start..r_start + r_len];
                ctx.segment_with_range(self.segment, self.scratch_offset(step), r_len * 8, |landed| {
                    op.accumulate_from(acc, decode_f64s(landed));
                })
                .unwrap();
            }
        }
        for step in 0..p - 1 {
            let (s_start, s_len) = chunks[allgather_send_chunk(rank, step, p)];
            let id = (p - 1 + step) as u32;
            if s_len > 0 {
                ctx.write_notify_f64s(next, self.segment, s_start * 8, &data[s_start..s_start + s_len], id, 1, 0)
                    .unwrap();
            } else {
                ctx.notify(next, self.segment, id, 1, 0).unwrap();
            }
            ctx.notify_waitsome(self.segment, id, 1, None).unwrap();
            ctx.notify_reset(self.segment, id).unwrap();
            let (r_start, r_len) = chunks[allgather_recv_chunk(rank, step, p)];
            if r_len > 0 {
                let out = &mut data[r_start..r_start + r_len];
                ctx.segment_with_range(self.segment, r_start * 8, r_len * 8, |landed| {
                    out.iter_mut().zip(decode_f64s(landed)).for_each(|(o, v)| *o = v);
                })
                .unwrap();
            }
        }
    }
}

fn bench_transport_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_overhead");
    group.sample_size(10);
    for elems in [1_000usize, 100_000] {
        group.bench_function(BenchmarkId::new("ring_direct_context", elems), |b| {
            b.iter(|| {
                Job::new(GaspiConfig::new(RANKS))
                    .run(move |ctx| {
                        let ring = DirectRing::new(ctx, elems);
                        let mut data = vec![ctx.rank() as f64; elems];
                        for _ in 0..ROUNDS {
                            ring.run(&mut data, ReduceOp::Sum);
                        }
                        data[0]
                    })
                    .unwrap()
            });
        });
        group.bench_function(BenchmarkId::new("ring_transport_generic", elems), |b| {
            b.iter(|| {
                Job::new(GaspiConfig::new(RANKS))
                    .run(move |ctx| {
                        let ring = RingAllreduce::new(ctx, elems).unwrap();
                        let mut data = vec![ctx.rank() as f64; elems];
                        for _ in 0..ROUNDS {
                            ring.run(&mut data, ReduceOp::Sum).unwrap();
                        }
                        data[0]
                    })
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transport_overhead);
criterion_main!(benches);
