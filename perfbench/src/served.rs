//! The server under test as a separate process, and the raw framed
//! connection the load generator drives it through.

use fairsw_serve::protocol::{read_frame, write_frame, ErrorKind, Reply, Request};
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The environment the spawned server gets, and nothing else: engines
/// run sequentially (shards are the parallelism axis) and the kernel
/// ISA is picked by runtime detection.
pub const SERVER_ENV: [(&str, &str); 2] = [("FAIRSW_THREADS", "1"), ("FAIRSW_SIMD", "auto")];
/// Shard threads of the spawned server (one per core of a 2-core host).
pub const SHARDS: usize = 2;
/// Server flags beyond the defaults. Background WAL compaction stalls
/// a shard on `fsync` for a time set by the disk, not the program, so
/// the timed phase defers it (1 GiB threshold); the `CHECKPOINT` before
/// the crash runs the same snapshot-and-fold path for every tenant that
/// can snapshot.
pub const SERVER_ARGS: [&str; 2] = ["--wal-compact-bytes", "1073741824"];
/// A reply slower than this counts as a failed (timed-out) operation.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `fairsw-served`, killed with `SIGKILL` when dropped.
pub struct Served {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
}

/// Where a server keeps its state: its WAL root and snapshot spool.
#[derive(Clone, Debug)]
pub struct StateDirs {
    pub wal: PathBuf,
    pub spool: PathBuf,
}

impl StateDirs {
    pub fn under(dir: &Path) -> Self {
        StateDirs {
            wal: dir.join("wal"),
            spool: dir.join("spool"),
        }
    }
}

impl Served {
    /// Spawns the server on an ephemeral loopback port and waits until
    /// it is listening.
    pub fn spawn(bin: &Path, dirs: &StateDirs, port_file: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(bin)
            .env_clear()
            .envs(SERVER_ENV)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(port_file)
            .arg("--shards")
            .arg(SHARDS.to_string())
            .arg("--wal")
            .arg(&dirs.wal)
            .arg("--spool")
            .arg(&dirs.spool)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut served = Served {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            if let Ok(s) = std::fs::read_to_string(port_file) {
                if !s.trim().is_empty() {
                    served.addr = s.trim().to_string();
                    return Ok(served);
                }
            }
            if let Some(child) = served.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("fairsw-served exited before listening: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("fairsw-served did not start listening".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    /// `SIGKILL` now and reap the process — the crash under test.
    pub fn kill9(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Asks for a clean shutdown and waits for the process to exit,
    /// killing it if it does not.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| c.call(&Request::Shutdown));
        let mut child = self.child.take().expect("server process present");
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return asked
                    .map(|_| ())
                    .map_err(|e| format!("shutdown request: {e}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
        let _ = child.wait();
        Err("fairsw-served ignored SHUTDOWN".into())
    }

    /// Memory and thread count of the process, from `/proc`.
    pub fn proc_status(&self) -> Result<ProcStatus, String> {
        proc_status(self.pid)
    }
}

/// Resident set (`VmRSS`, `VmHWM`, MiB) and thread count of `pid`.
pub fn proc_status(pid: u32) -> Result<ProcStatus, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status(&text).ok_or_else(|| format!("{path}: no VmRSS/VmHWM/Threads lines"))
}

impl Drop for Served {
    fn drop(&mut self) {
        self.kill9();
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcStatus {
    pub vm_rss_mb: f64,
    pub vm_hwm_mb: f64,
    pub threads: u64,
}

fn parse_status(text: &str) -> Option<ProcStatus> {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
    };
    Some(ProcStatus {
        vm_rss_mb: field("VmRSS:")? as f64 / 1024.0,
        vm_hwm_mb: field("VmHWM:")? as f64 / 1024.0,
        threads: field("Threads:")?,
    })
}

/// How one request ended.
pub enum Outcome {
    /// A reply other than an error: the raw reply body.
    Ok(Vec<u8>),
    /// `OVERLOADED`: admission control, counted apart from failures.
    Overloaded,
    /// An error reply, a transport failure or a timeout.
    Failed(String),
}

/// Classifies a raw reply body.
pub fn classify(body: Vec<u8>) -> Outcome {
    match Reply::decode(&body) {
        Ok(Reply::Error(ErrorKind::Overloaded, _)) => Outcome::Overloaded,
        Ok(Reply::Error(kind, msg)) => Outcome::Failed(format!("{kind:?}: {msg}")),
        Ok(_) => Outcome::Ok(body),
        Err(e) => Outcome::Failed(format!("undecodable reply: {e}")),
    }
}

/// One framed TCP connection that hands back raw reply bodies, so
/// answers can be compared byte for byte.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Splits the connection into its sending and receiving halves, for
    /// a pipelined writer and reader on two threads.
    pub fn split(self) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    pub fn send(&mut self, body: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, body)
    }

    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        recv(&mut self.reader)
    }

    /// Sends an encoded request and waits for its raw reply.
    pub fn call_raw(&mut self, body: &[u8]) -> Outcome {
        match self.send(body).and_then(|_| self.recv()) {
            Ok(reply) => classify(reply),
            Err(e) => Outcome::Failed(format!("io: {e}")),
        }
    }

    pub fn call(&mut self, req: &Request) -> io::Result<Vec<u8>> {
        let body = req.encode().map_err(io::Error::from)?;
        self.send(&body)?;
        self.recv()
    }
}

/// Reads one reply frame; a closed connection is an error.
pub fn recv(reader: &mut BufReader<TcpStream>) -> io::Result<Vec<u8>> {
    read_frame(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status() {
        let text = "Name:\tfairsw-served\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\nThreads:\t5\n";
        assert_eq!(
            parse_status(text),
            Some(ProcStatus {
                vm_rss_mb: 1.0,
                vm_hwm_mb: 2.0,
                threads: 5
            })
        );
        assert_eq!(parse_status("Name:\tx\n"), None);
    }
}
