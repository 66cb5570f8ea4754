//! Boots, probes and stops a real `batsched serve` daemon or
//! `batsched fleet` router as a child process.

use crate::client::{self, Conn};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to announce its address or become ready.
const START_BUDGET: Duration = Duration::from_secs(60);

/// How long a graceful shutdown may take before the child is killed.
const STOP_BUDGET: Duration = Duration::from_secs(30);

/// A running daemon or fleet router.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
    /// Fleet worker processes (empty for a standalone daemon).
    workers: Vec<Worker>,
}

/// One fleet worker, as the router reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Worker {
    /// Its loopback address.
    pub addr: SocketAddr,
    /// Its process id.
    pub pid: u32,
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

impl Server {
    /// Spawns `program args…` and waits for it to announce
    /// `… http://ADDR` on stderr. The rest of stderr is drained and
    /// discarded until the child exits.
    ///
    /// # Errors
    ///
    /// Spawn failures, or no announcement within the start budget.
    pub fn spawn(program: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stderr);
            let mut line = String::new();
            let mut tx = Some(tx);
            while matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
                if let Some(addr) = line
                    .find("http://")
                    .and_then(|at| line[at + 7..].trim().parse::<SocketAddr>().ok())
                {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                line.clear();
            }
        });
        match rx.recv_timeout(START_BUDGET) {
            Ok(addr) => Ok(Server {
                child,
                addr,
                stderr: Some(drain),
                workers: Vec::new(),
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                Err(other(format!(
                    "{} did not announce an address",
                    program.display()
                )))
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's (or router's) own process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fleet workers found by [`Server::discover_workers`].
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Polls `GET /readyz` until it answers 200.
    ///
    /// # Errors
    ///
    /// Not ready within the start budget.
    pub fn wait_ready(&self) -> io::Result<()> {
        let deadline = Instant::now() + START_BUDGET;
        loop {
            if let Ok(a) = client::call(self.addr, "GET", "/readyz", b"") {
                if a.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(other("server never became ready"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Reads the fleet's workers from the router's `GET /v1/fleet`.
    ///
    /// # Errors
    ///
    /// The router does not answer, or a worker has no address or pid.
    pub fn discover_workers(&mut self) -> io::Result<&[Worker]> {
        let a = client::call(self.addr, "GET", "/v1/fleet", b"")?;
        let doc = serde::json::parse(&String::from_utf8_lossy(&a.body))
            .map_err(|e| other(format!("/v1/fleet: {e}")))?;
        let Some(serde::json::Value::Arr(list)) = doc.get("workers") else {
            return Err(other("/v1/fleet has no workers"));
        };
        self.workers = list
            .iter()
            .map(|w| {
                let addr = match w.get("addr") {
                    Some(serde::json::Value::Str(s)) => s.parse().ok(),
                    _ => None,
                };
                let pid = match w.get("pid") {
                    Some(serde::json::Value::Num(p)) => Some(*p as u32),
                    _ => None,
                };
                match (addr, pid) {
                    (Some(addr), Some(pid)) => Ok(Worker { addr, pid }),
                    _ => Err(other("a fleet worker has no address or pid")),
                }
            })
            .collect::<io::Result<_>>()?;
        Ok(&self.workers)
    }

    /// Peak resident set (`VmHWM`) summed over the daemon, or over the
    /// router and its workers, in MiB.
    ///
    /// # Errors
    ///
    /// A process's status file cannot be read.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kb = 0u64;
        for pid in std::iter::once(self.pid()).chain(self.workers.iter().map(|w| w.pid)) {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
            kb += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| other(format!("no VmHWM for pid {pid}")))?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Asks the server to shut down and waits for it (and every fleet
    /// worker) to exit, killing whatever outlives the budget.
    ///
    /// # Errors
    ///
    /// The child could not be waited for.
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ =
            Conn::connect(self.addr).and_then(|mut c| c.send("POST", "/v1/shutdown", None, b""));
        let deadline = Instant::now() + STOP_BUDGET;
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap_workers();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(())
    }

    /// Kills any fleet worker still alive after its router exited, and
    /// waits until each is gone.
    fn reap_workers(&mut self) {
        for w in std::mem::take(&mut self.workers) {
            let deadline = Instant::now() + STOP_BUDGET;
            while alive(w.pid) {
                if Instant::now() >= deadline {
                    let _ = Command::new("kill")
                        .args(["-9", &w.pid.to_string()])
                        .stderr(Stdio::null())
                        .status();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.reap_workers();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// `true` while `pid` names a live (not zombie) process.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
        // The state letter follows the parenthesised command name.
        stat.rsplit_once(')')
            .and_then(|(_, rest)| rest.trim_start().chars().next())
            .is_some_and(|state| state != 'Z' && state != 'X')
    })
}

/// Builds the `batsched` binary from the repository at `root` with the
/// repository's own release profile, returning its path (under
/// `CARGO_TARGET_DIR` when set). Cargo's output
/// goes to stderr so stdout keeps only the benchmark's report.
///
/// # Errors
///
/// `root` is not the repository, or the build fails.
pub fn build_binary(root: &Path) -> io::Result<PathBuf> {
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(other(format!(
            "{} holds no batsched sources (crates/cli is missing); run from the repository root",
            root.display()
        )));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "batsched-cli", "--bin", "batsched"])
        .current_dir(root)
        .stdout(Stdio::from(io::stderr()))
        .status()?;
    if !status.success() {
        return Err(other(format!("building batsched failed: {status}")));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(root.join(target).join("release").join("batsched"))
}
