//! Cross-crate integration tests: the GASPI collectives must agree with the
//! MPI-like baseline implementations (and with straightforward sequential
//! references) on the values they compute.

use std::time::Duration;

use ec_collectives_suite::baseline::{
    allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_ring as mpi_allreduce_ring, alltoall_bruck,
    alltoall_pairwise, bcast_binomial, bcast_pipelined_binomial, bcast_scatter_allgather, reduce_binomial, reduce_rsg,
    MpiAllreduceVariant, MpiWorld,
};
use ec_collectives_suite::collectives::{
    AllToAll, BroadcastBst, ReduceBst, ReduceMode, ReduceOp, RingAllreduce, SspAllreduce, Threshold,
};
use ec_collectives_suite::gaspi::{GaspiConfig, Job, NetworkProfile};

/// Deterministic per-rank input vector.
fn input(rank: usize, n: usize) -> Vec<f64> {
    (0..n).map(|i| ((rank * 31 + i * 7) % 17) as f64 - 8.0).collect()
}

#[test]
fn ring_allreduce_agrees_with_mpi_baselines() {
    let p = 8;
    let n = 137;
    let gaspi = Job::new(GaspiConfig::new(p))
        .run(|ctx| {
            let ring = RingAllreduce::new(ctx, n).unwrap();
            let mut data = input(ctx.rank(), n);
            ring.run(&mut data, ReduceOp::Sum).unwrap();
            data
        })
        .unwrap();
    let mpi_ring = MpiWorld::new(p).run(|comm| {
        let mut data = input(comm.rank(), n);
        mpi_allreduce_ring(comm, &mut data).unwrap();
        data
    });
    let mpi_rd = MpiWorld::new(p).run(|comm| {
        let mut data = input(comm.rank(), n);
        allreduce_recursive_doubling(comm, &mut data).unwrap();
        data
    });
    for rank in 0..p {
        for i in 0..n {
            assert!((gaspi[rank][i] - mpi_ring[rank][i]).abs() < 1e-9);
            assert!((gaspi[rank][i] - mpi_rd[rank][i]).abs() < 1e-9);
        }
    }
}

#[test]
fn every_mpi_allreduce_variant_computes_the_exact_sum_on_threads() {
    // The same bodies Figures 11-12 price, run on real data.  The inputs are
    // small integers, so every fold order gives the serial sum exactly; n = 5
    // leaves some ring chunks empty at p > 5.
    for p in [2usize, 3, 6, 8, 12, 16] {
        for ppn in [1usize, 2, 4].into_iter().filter(|ppn| p % ppn == 0) {
            for n in [5usize, 37] {
                let sum: Vec<f64> = (0..n).map(|i| (0..p).map(|r| input(r, n)[i]).sum()).collect();
                let out = MpiWorld::new(p).run(|comm| {
                    MpiAllreduceVariant::all().map(|variant| {
                        let mut data = input(comm.rank(), n);
                        variant.run(comm, &mut data, ppn).unwrap();
                        data
                    })
                });
                for (rank, results) in out.iter().enumerate() {
                    for (variant, data) in MpiAllreduceVariant::all().iter().zip(results) {
                        assert_eq!(data, &sum, "{} p={p} ppn={ppn} n={n} rank={rank}", variant.label());
                    }
                }
            }
        }
    }
}

#[test]
fn single_source_allreduce_variants_agree_with_the_gaspi_ring() {
    // Both the power-of-two world and an awkward one: the Rabenseifner
    // variant folds p = 7 around a p2 = 4 core.
    for p in [7usize, 8] {
        let n = 137;
        let gaspi = Job::new(GaspiConfig::new(p))
            .run(|ctx| {
                let ring = RingAllreduce::new(ctx, n).unwrap();
                let mut data = input(ctx.rank(), n);
                ring.run(&mut data, ReduceOp::Sum).unwrap();
                data
            })
            .unwrap();
        let rab = MpiWorld::new(p).run(|comm| {
            let mut data = input(comm.rank(), n);
            allreduce_rabenseifner(comm, &mut data).unwrap();
            data
        });
        let rsag = MpiWorld::new(p).run(|comm| {
            let mut data = input(comm.rank(), n);
            mpi_allreduce_ring(comm, &mut data).unwrap();
            data
        });
        for rank in 0..p {
            for i in 0..n {
                assert!((gaspi[rank][i] - rab[rank][i]).abs() < 1e-9, "rabenseifner p={p} rank={rank} elem {i}");
                assert!((gaspi[rank][i] - rsag[rank][i]).abs() < 1e-9, "rsag p={p} rank={rank} elem {i}");
            }
        }
    }
}

#[test]
fn new_bcast_variants_agree_with_the_binomial_reference() {
    let p = 6;
    let n = 90;
    let reference = MpiWorld::new(p).run(|comm| {
        let mut data = if comm.rank() == 0 { input(0, n) } else { vec![0.0; n] };
        bcast_binomial(comm, &mut data, 0).unwrap();
        data
    });
    for variant in ["scatter-allgather", "pipelined"] {
        let out = MpiWorld::new(p).run(move |comm| {
            let mut data = if comm.rank() == 0 { input(0, n) } else { vec![0.0; n] };
            match variant {
                "scatter-allgather" => bcast_scatter_allgather(comm, &mut data, 0).unwrap(),
                _ => bcast_pipelined_binomial(comm, &mut data, 0, 16).unwrap(),
            }
            data
        });
        assert_eq!(out, reference, "{variant} must replicate the root data bit-for-bit");
    }
}

#[test]
fn rsg_reduce_agrees_with_mpi_reduce() {
    let p = 7;
    let n = 55;
    let reference = MpiWorld::new(p).run(|comm| reduce_binomial(comm, &input(comm.rank(), n), 0).unwrap());
    let rsg = MpiWorld::new(p).run(|comm| reduce_rsg(comm, &input(comm.rank(), n), 0).unwrap());
    let want = reference[0].as_ref().unwrap();
    let got = rsg[0].as_ref().unwrap();
    for i in 0..n {
        assert!((got[i] - want[i]).abs() < 1e-9, "elem {i}: {} vs {}", got[i], want[i]);
    }
    assert!(rsg[1..].iter().all(Option::is_none));
}

#[test]
fn bruck_alltoall_agrees_with_the_pairwise_exchange() {
    let p = 5;
    let block = 16;
    let pairwise = MpiWorld::new(p).run(move |comm| {
        let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 1000 + i) as f64).collect();
        alltoall_pairwise(comm, &send, block).unwrap()
    });
    let bruck = MpiWorld::new(p).run(move |comm| {
        let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 1000 + i) as f64).collect();
        alltoall_bruck(comm, &send, block).unwrap()
    });
    assert_eq!(bruck, pairwise, "Bruck's rotations must be invisible in the result");
}

#[test]
fn ssp_allreduce_with_zero_slack_agrees_with_ring_allreduce() {
    let p = 8;
    let n = 64;
    let results = Job::new(GaspiConfig::new(p))
        .run(|ctx| {
            let mut ssp = SspAllreduce::new(ctx, n, 0).unwrap();
            let ring = RingAllreduce::new(ctx, n).unwrap();
            let contribution = input(ctx.rank(), n);
            let ssp_result = ssp.run(&contribution, ReduceOp::Sum).unwrap().result;
            let mut ring_result = contribution;
            ring.run(&mut ring_result, ReduceOp::Sum).unwrap();
            (ssp_result, ring_result)
        })
        .unwrap();
    for (ssp, ring) in results {
        for (a, b) in ssp.iter().zip(ring.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn threshold_broadcast_prefix_agrees_with_mpi_broadcast() {
    let p = 6;
    let n = 90;
    let gaspi = Job::new(GaspiConfig::new(p))
        .run(|ctx| {
            let bcast = BroadcastBst::new(ctx, n).unwrap();
            let mut data = if ctx.rank() == 0 { input(0, n) } else { vec![f64::NAN; n] };
            bcast.run(&mut data, 0, Threshold::percent(50.0)).unwrap();
            data
        })
        .unwrap();
    let mpi = MpiWorld::new(p).run(|comm| {
        let mut data = if comm.rank() == 0 { input(0, n) } else { vec![0.0; n] };
        bcast_binomial(comm, &mut data, 0).unwrap();
        data
    });
    for rank in 1..p {
        for i in 0..45 {
            assert_eq!(gaspi[rank][i], mpi[rank][i], "prefix must match the full broadcast");
        }
        assert!(gaspi[rank][45..].iter().all(|v| v.is_nan()), "tail must stay untouched");
    }
}

#[test]
fn full_reduce_agrees_with_mpi_reduce() {
    let p = 7;
    let n = 55;
    let gaspi = Job::new(GaspiConfig::new(p))
        .run(|ctx| {
            let reduce = ReduceBst::new(ctx, n).unwrap();
            reduce.run(&input(ctx.rank(), n), 0, ReduceOp::Sum, ReduceMode::full()).unwrap().result
        })
        .unwrap();
    let mpi = MpiWorld::new(p).run(|comm| reduce_binomial(comm, &input(comm.rank(), n), 0).unwrap());
    let g = gaspi[0].as_ref().unwrap();
    let m = mpi[0].as_ref().unwrap();
    for i in 0..n {
        assert!((g[i] - m[i]).abs() < 1e-9);
    }
}

#[test]
fn alltoall_agrees_with_mpi_pairwise_exchange() {
    let p = 5;
    let block = 16;
    let gaspi = Job::new(GaspiConfig::new(p))
        .run(|ctx| {
            let a2a = AllToAll::new(ctx, block * 8).unwrap();
            let send: Vec<f64> = (0..p * block).map(|i| (ctx.rank() * 1000 + i) as f64).collect();
            let mut recv = vec![0.0; p * block];
            a2a.run_f64s(&send, &mut recv, block).unwrap();
            recv
        })
        .unwrap();
    let mpi = MpiWorld::new(p).run(|comm| {
        let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 1000 + i) as f64).collect();
        alltoall_pairwise(comm, &send, block).unwrap()
    });
    assert_eq!(gaspi, mpi);
}

#[test]
fn collectives_compose_in_one_job_with_injected_latency() {
    // A "mini application": broadcast initial data, iterate SSP allreduce,
    // then reduce a final summary — all in the same job over a lossy-ish
    // network profile, exercising handle coexistence on distinct segments.
    let p = 4;
    let n = 256;
    let results = Job::new(GaspiConfig::new(p).with_network(NetworkProfile::lan()))
        .run(|ctx| {
            let bcast = BroadcastBst::new(ctx, n).unwrap();
            let mut model = if ctx.rank() == 0 { vec![1.0; n] } else { vec![0.0; n] };
            bcast.run(&mut model, 0, Threshold::FULL).unwrap();

            let mut ssp = SspAllreduce::new(ctx, n, 4).unwrap();
            for _ in 0..5 {
                let update = vec![0.25; n];
                let rep = ssp.run(&update, ReduceOp::Sum).unwrap();
                for (m, u) in model.iter_mut().zip(rep.result.iter()) {
                    *m += u / p as f64;
                }
            }

            let reduce = ReduceBst::new(ctx, n).unwrap();
            reduce.run(&model, 0, ReduceOp::Max, ReduceMode::full()).unwrap().result
        })
        .unwrap();
    let root = results[0].as_ref().expect("root result");
    // Every rank applied five global updates of 0.25 * P / P = 0.25 each on
    // top of the broadcast 1.0, modulo staleness; the max must be at least
    // the synchronous value on some rank and bounded by the total update mass.
    assert!(root.iter().all(|&v| (1.0..=1.0 + 5.0 * 0.25 * 2.0).contains(&v)));
}

#[test]
fn collectives_are_exact_under_delivery_jitter_across_seeds() {
    // With a delaying profile every put goes through the delivery engine —
    // the one path that still owns a copy of its payload — arrivals at a
    // target are reordered by the jitter, and most waits outlast the polling
    // phase of `notify_waitsome` and park.  The inputs are small integers, so
    // every sum is exact whatever the arrival order.
    let n = 37;
    let block = 5;
    for p in [2usize, 3, 5, 8] {
        let sum: Vec<f64> = (0..n).map(|i| (0..p).map(|r| input(r, n)[i]).sum()).collect();
        for seed in 0..8 {
            let network = NetworkProfile {
                base_latency: Duration::from_micros(30),
                per_byte: Duration::from_nanos(2),
                jitter: 0.9,
                seed,
            };
            let out = Job::new(GaspiConfig::new(p).with_network(network))
                .run(|ctx| {
                    let rank = ctx.rank();
                    let mut allreduced = input(rank, n);
                    RingAllreduce::new(ctx, n).unwrap().run(&mut allreduced, ReduceOp::Sum).unwrap();

                    let send: Vec<f64> = (0..p * block).map(|i| (rank * 1000 + i) as f64).collect();
                    let mut exchanged = vec![0.0; p * block];
                    AllToAll::new(ctx, block * 8).unwrap().run_f64s(&send, &mut exchanged, block).unwrap();

                    let mut broadcast = if rank == 0 { input(0, n) } else { vec![f64::NAN; n] };
                    BroadcastBst::new(ctx, n).unwrap().run(&mut broadcast, 0, Threshold::FULL).unwrap();

                    let reduce = ReduceBst::new(ctx, n).unwrap();
                    let reduced = reduce.run(&input(rank, n), 0, ReduceOp::Sum, ReduceMode::full()).unwrap().result;

                    // The hypercube needs a power-of-two world.
                    let ssp = p.is_power_of_two().then(|| {
                        let mut ssp = SspAllreduce::new(ctx, n, 0).unwrap();
                        ssp.run(&input(rank, n), ReduceOp::Sum).unwrap().result
                    });
                    (allreduced, exchanged, broadcast, reduced, ssp)
                })
                .unwrap();
            for (rank, (allreduced, exchanged, broadcast, reduced, ssp)) in out.into_iter().enumerate() {
                let at = format!("p={p} seed={seed} rank={rank}");
                assert_eq!(allreduced, sum, "ring allreduce, {at}");
                let want: Vec<f64> =
                    (0..p * block).map(|i| (i / block * 1000 + rank * block + i % block) as f64).collect();
                assert_eq!(exchanged, want, "alltoall, {at}");
                assert_eq!(broadcast, input(0, n), "broadcast, {at}");
                assert_eq!(reduced, (rank == 0).then(|| sum.clone()), "reduce, {at}");
                assert!(ssp.is_none_or(|ssp| ssp == sum), "ssp allreduce, {at}");
            }
        }
    }
}
