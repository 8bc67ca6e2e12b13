//! # ec-netsim — discrete-event cluster/network simulator
//!
//! This crate provides the *cluster substrate* used to regenerate the paper's
//! evaluation figures at scale (2–32 nodes, one or more ranks per node) on a
//! single machine.  It is a discrete-event simulator driven by an
//! alpha–beta (latency/bandwidth) cost model extended with:
//!
//! * per-message CPU injection/matching overheads (LogGP-style `o`),
//! * an eager/rendezvous protocol switch for two-sided (MPI-like) transfers,
//! * a distinction between **one-sided RDMA-style puts** (full-duplex, no
//!   remote CPU involvement, cheap notification) and **two-sided sends**
//!   (progress-engine involvement on both sides, heavier matching overhead),
//! * per-node NIC serialization so that several ranks on the same node share
//!   the network interface (needed for the AlltoAll experiment with four
//!   ranks per node),
//! * a per-byte reduction cost for local reduction work inside collectives.
//!
//! Beyond the alpha–beta links, the engine can price inter-node transfers
//! through a **flow-level network fabric** ([`Engine::with_topology`]): a
//! [`Topology`] of capacitated links (single switch, or a two-level
//! fat-tree with configurable oversubscription), static shortest-path
//! routing, and max-min fair bandwidth sharing among concurrent flows
//! ([`fabric::Fabric`]) — which makes incast and oversubscription effects
//! visible and fills [`RunReport::links`] with per-link utilization and
//! congestion statistics.  The degenerate [`Topology::contention_free`]
//! preset reproduces the alpha–beta model exactly.
//!
//! Collective algorithms (both the paper's GASPI collectives and the MPI-like
//! baselines) are expressed as [`Program`]s: one ordered list of [`Op`]s per
//! rank.  The [`Engine`] executes a program in virtual time and returns a
//! [`RunReport`] with per-rank completion times, wait times and traffic
//! statistics.
//!
//! The simulator is deliberately deterministic: given the same program,
//! cluster and cost model it always produces the same timings, which makes
//! the figure-regeneration binaries reproducible.
//!
//! ## Quick example
//!
//! ```
//! use ec_netsim::{ClusterSpec, CostModel, Engine, ProgramBuilder};
//!
//! // Two ranks on two nodes: rank 0 puts 1 MiB to rank 1 and notifies it.
//! let cluster = ClusterSpec::homogeneous(2, 1);
//! let cost = CostModel::skylake_fdr();
//! let mut b = ProgramBuilder::new(2);
//! b.put_notify(0, 1, 1 << 20, 7);
//! b.wait_notify(1, &[7]);
//! let report = Engine::new(cluster, cost).run(&b.build()).unwrap();
//! assert!(report.makespan() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
mod calendar;
pub mod cluster;
pub mod compiled;
pub mod congcontrol;
pub mod cost;
pub mod critpath;
mod dataflow;
pub mod engine;
pub mod fabric;
pub mod metrics;
pub mod packet;
pub mod presets;
pub mod program;
pub mod report;
pub mod routing;
pub mod scenario;
mod shortest;
pub mod source;
pub mod topology;
pub mod trace;
pub mod validate;

pub use analyze::{analyze, analyze_compiled, AnalysisError, AnalysisReport, BlockedWait};
pub use cluster::{ClusterSpec, NodeId, RankId};
pub use compiled::{CompiledProgram, IdsRef, MemoryStats, OpView, RankOps};
pub use congcontrol::{CongControl, Dcqcn, FixedWindow};
pub use cost::{CostModel, Protocol};
pub use critpath::{Category, CategoryBreakdown, CriticalPath, PathSegment, SegmentKind};
pub use engine::{Engine, SimError, StrictLimit};
pub use fabric::{Fabric, FlowId, LinkUsage};
pub use metrics::EngineMetrics;
pub use packet::{LossConfig, PacketConfig, PacketFabric, PacketLinkUsage, PacketTotals, PfcConfig};
pub use presets::ClusterPreset;
pub use program::{CommProfile, NotifyId, Op, Program, ProgramBuilder, RankProgram, Tag, WaitIds};
pub use report::{LinkStats, RankStats, ReportDetail, ReportSummary, RunReport};
pub use routing::RoutingTable;
pub use scenario::{Scenario, ScenarioInstance, SplitMix64};
pub use source::ProgramSource;
pub use topology::{EndpointId, Link, LinkId, Topology, TopologyError, TopologyKind};
pub use trace::{
    validate_chrome_trace, write_chrome_trace, BlockReason, ChromeTraceStats, ChromeTraceWriter, MsgLabel, OpClass,
    Trace, TraceDetail, TraceEvent, TraceFilter, TraceIter, TraceKind, TraceStream,
};
pub use validate::{validate, validate_compiled, ValidationError};
