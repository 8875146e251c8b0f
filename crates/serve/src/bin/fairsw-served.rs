//! `fairsw-served` — the multi-tenant sliding-window clustering server.
//!
//! ```text
//! USAGE:
//!   fairsw-served [--addr 127.0.0.1:4871] [OPTIONS]
//!
//! OPTIONS:
//!   --addr HOST:PORT   bind address (default 127.0.0.1:4871; port 0
//!                      picks an ephemeral port — see --port-file)
//!   --shards N         shard threads owning the tenants (default 2)
//!   --flush-batch N    ingest-buffer flush threshold (default 512)
//!   --queue-depth N    bounded per-shard queue (default 128); a full
//!                      queue answers OVERLOADED (admission control)
//!   --tick-ms N        idle flush tick in milliseconds (default 20)
//!   --spool DIR        snapshot spool directory: CHECKPOINT writes
//!                      engine snapshots here and startup replays them
//!   --wal DIR          write-ahead-log root: every accepted write is
//!                      logged before it is acked, and startup replays
//!                      snapshot + WAL suffix (crash-safe durability)
//!   --wal-segment-bytes N  rotate WAL segments at N bytes (default 1 MiB)
//!   --wal-compact-bytes N  fold the WAL into a spool snapshot once a
//!                      tenant's log exceeds N bytes (default 4 MiB)
//!   --follow ADDR      start as a hot standby of the leader at ADDR:
//!                      read-only, streams the leader's WAL, becomes a
//!                      leader itself on PROMOTE
//!   --idle-timeout-ms N    reap a fully idle connection after N ms
//!                      without a byte from the peer (default 120000)
//!   --header-timeout-ms N  reap a connection stalled mid-frame after
//!                      N ms — the slowloris guard (default 10000)
//!   --port-file PATH   write the bound address to PATH once listening
//!                      (lets scripts find an ephemeral port)
//! ```
//!
//! Shards are the server's only parallelism: each tenant's engine runs
//! sequentially on its shard thread, so adding tenants adds no threads.
//! The server runs until a client sends `SHUTDOWN`.

use fairsw_serve::server::{ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
fairsw-served: multi-tenant sliding-window fair-clustering server

USAGE:
  fairsw-served [--addr 127.0.0.1:4871] [OPTIONS]

OPTIONS:
  --addr HOST:PORT  bind address (default 127.0.0.1:4871; port 0 = ephemeral)
  --shards N        shard threads owning the tenants (default 2)
  --flush-batch N   ingest-buffer flush threshold (default 512)
  --queue-depth N   bounded per-shard queue depth (default 128)
  --tick-ms N       idle flush tick in milliseconds (default 20)
  --spool DIR       snapshot spool (CHECKPOINT target, replayed on start)
  --wal DIR         write-ahead-log root (log before ack, replay on start)
  --wal-segment-bytes N  WAL segment rotation threshold (default 1 MiB)
  --wal-compact-bytes N  WAL-into-snapshot compaction threshold (default 4 MiB)
  --follow ADDR     run as a read-only hot standby of the leader at ADDR
  --idle-timeout-ms N    reap idle connections after N ms (default 120000)
  --header-timeout-ms N  reap mid-frame stalls after N ms (default 10000)
  --port-file PATH  write the bound address to PATH once listening
";

struct Args {
    addr: String,
    cfg: ServeConfig,
    port_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4871".into(),
        cfg: ServeConfig::default(),
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => {
                args.cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--flush-batch" => {
                args.cfg.flush_batch = value("--flush-batch")?
                    .parse()
                    .map_err(|e| format!("--flush-batch: {e}"))?
            }
            "--queue-depth" => {
                args.cfg.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--tick-ms" => {
                let ms: u64 = value("--tick-ms")?
                    .parse()
                    .map_err(|e| format!("--tick-ms: {e}"))?;
                args.cfg.tick = Duration::from_millis(ms.max(1));
            }
            "--spool" => args.cfg.spool_dir = Some(PathBuf::from(value("--spool")?)),
            "--wal" => args.cfg.wal_dir = Some(PathBuf::from(value("--wal")?)),
            "--wal-segment-bytes" => {
                args.cfg.wal_tuning.segment_bytes = value("--wal-segment-bytes")?
                    .parse()
                    .map_err(|e| format!("--wal-segment-bytes: {e}"))?
            }
            "--wal-compact-bytes" => {
                args.cfg.wal_tuning.compact_bytes = value("--wal-compact-bytes")?
                    .parse()
                    .map_err(|e| format!("--wal-compact-bytes: {e}"))?
            }
            "--follow" => args.cfg.follow = Some(value("--follow")?),
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                args.cfg.idle_timeout = Duration::from_millis(ms.max(1));
            }
            "--header-timeout-ms" => {
                let ms: u64 = value("--header-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--header-timeout-ms: {e}"))?;
                args.cfg.header_timeout = Duration::from_millis(ms.max(1));
            }
            "--port-file" => args.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let follow = args.cfg.follow.clone();
    let handle = Server::start(args.addr.as_str(), args.cfg)
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let addr = handle.local_addr();
    match follow {
        Some(leader) => println!("fairsw-served listening on {addr} (following {leader})"),
        None => println!("fairsw-served listening on {addr}"),
    }
    if let Some(path) = &args.port_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    handle.wait();
    println!("fairsw-served: clean shutdown");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
