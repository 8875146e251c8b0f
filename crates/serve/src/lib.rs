//! # fairsw-serve — a multi-tenant streaming clustering service
//!
//! The network-facing layer of the sliding-window fair-clustering
//! engine: a TCP server (`fairsw-served`) that hosts many independent
//! tenants, each an own [`WindowEngine`](fairsw_core::WindowEngine) over
//! its own window, stream and variant, plus the framed wire
//! [`protocol`] and a [`loadgen`] client.
//!
//! Built entirely on `std` (`std::net` + threads — no async runtime, no
//! new dependencies), composing the substrate of the earlier layers:
//!
//! * **one facade** — tenants are [`WindowEngine`](fairsw_core::WindowEngine)s built from a
//!   `VariantSpec`-shaped [`protocol::TenantConfig`]; the serving loop
//!   has no per-variant code;
//! * **batched ingest** — per-tenant buffers flush into the engines'
//!   `insert_batch` throughput path by size or tick; answers are
//!   bit-identical to per-point insertion, so buffering is invisible to
//!   clients;
//! * **shard ownership** — tenants are hash-sharded across shard
//!   threads that own their engines outright; the hot path takes no
//!   locks, and the shards are the server's only parallelism — engines
//!   run sequentially, so the thread count follows `--shards`, never the
//!   tenant count;
//! * **admission control** — per-shard queues are bounded; a full queue
//!   answers `OVERLOADED` instead of buffering without bound;
//! * **crash recovery** — `CHECKPOINT` spools engine snapshots; a
//!   per-tenant write-ahead log ([`wal`]) makes every *acknowledged*
//!   write durable between checkpoints, with group-commit fsync,
//!   segment compaction, and a `--follow` hot standby replicating the
//!   same records; startup replays snapshot + WAL suffix.
//!
//! ## Quick tour
//!
//! ```
//! use fairsw_serve::loadgen::Client;
//! use fairsw_serve::protocol::{Reply, TenantConfig, WireVariant};
//! use fairsw_serve::server::{ServeConfig, Server};
//! use fairsw_metric::{Colored, EuclidPoint};
//!
//! // An ephemeral-port server (in production: `fairsw-served`).
//! let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//!
//! let config = TenantConfig::new(100, vec![1, 1], WireVariant::Oblivious);
//! assert_eq!(client.create("demo", &config).unwrap(), Reply::Ok);
//! let batch: Vec<_> = (0..250u32)
//!     .map(|i| Colored::new(EuclidPoint::new(vec![(i % 97) as f64]), i % 2))
//!     .collect();
//! assert_eq!(client.insert_batch("demo", &batch).unwrap(), Reply::Ok);
//! match client.query("demo").unwrap() {
//!     Reply::Solution(sol) => assert!(!sol.centers.is_empty()),
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! handle.shutdown();
//! ```
//!
//! The [`protocol`] module documents the exact frame layout; the
//! integration suite (`tests/differential.rs`) proves every reply
//! bit-identical to an in-process sequential engine fed the same
//! stream, across tenants, variants and batch shapes.

pub mod loadgen;
pub mod net;
pub mod percentile;
pub mod protocol;
pub mod server;
pub mod wal;

pub use loadgen::{
    run_burst, run_connections, BurstOptions, BurstReport, Client, ConnOptions, ConnReport,
};
pub use protocol::{ProtocolError, Reply, Request, TenantConfig, WireProjection, WireVariant};
pub use server::{ServeConfig, Server, ServerHandle};
pub use wal::{TenantWal, WalRecord, WalTuning};
