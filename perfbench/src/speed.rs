//! The host-speed probe that end-to-end times are scaled by.
//!
//! The benchmark's host is a few cores of a shared machine whose CPU speed
//! drifts with the load of its other tenants: the same request takes up
//! to ~40% longer for minutes at a time (steal time stays near 2%, so the
//! cores run slower rather than less often). Ten runs of unchanged code
//! then spread further than any bound a regression check can use.
//!
//! The probe measures that speed with a fixed piece of work that shares no
//! code with the program under test: a Python loop, run by a child
//! `python3` so that no change to the repository's crates can move its
//! code layout. The measured phase pauses to sample it between slices,
//! while the daemon has nothing to do, so the program's own work cannot
//! slow the probe. The run's time metrics are then reported at the
//! reference speed: a time is multiplied by [`REFERENCE_SECS`] over the
//! median sample, a rate divided by it.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The probe's median time on the host the benchmark was sized on, in a
/// calm spell (2-vCPU Xeon at 2.0 GHz, Python 3.11). A run there reports
/// times close to the ones it measured.
pub const REFERENCE_SECS: f64 = 0.010;

/// Times one fixed loop per input line and prints the seconds it took.
const SOURCE: &str = "\
import sys, time
def work():
    s = 0
    for i in range(100000):
        s += i * i
    return s
for _ in sys.stdin:
    t = time.perf_counter()
    work()
    print(time.perf_counter() - t, flush=True)
";

/// A running probe.
pub struct Probe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Probe {
    /// Starts the probe.
    ///
    /// # Errors
    ///
    /// `python3` cannot be started.
    pub fn spawn() -> io::Result<Probe> {
        let mut child = Command::new("python3")
            .args(["-c", SOURCE])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("python3 (speed probe): {e}")))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Probe {
            child,
            stdin,
            stdout,
        })
    }

    /// Runs the loop once; its time in seconds.
    ///
    /// # Errors
    ///
    /// The probe died or printed something other than a time.
    pub fn sample(&mut self) -> io::Result<f64> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("speed probe closed"))?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.trim()
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| io::Error::other(format!("speed probe printed {line:?}")))
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // End of input ends the loop, and so the child.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_times() {
        let mut probe = Probe::spawn().expect("python3 runs");
        for _ in 0..3 {
            let s = probe.sample().expect("a sample");
            assert!(s > 0.0 && s < 5.0, "{s}");
        }
    }
}
