//! Where and under what disturbance a run happened.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::json::Json;

/// A run during which more than this share of the machine's CPU time was
/// stolen is marked `disturbed`, as the issue fixed it.  The stolen time
/// itself is small; what it signals is a busy host, on which the same code
/// runs 1.2-1.7x slower.
pub const STEAL_LIMIT: f64 = 0.05;

fn first_line_of(command: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(command).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Keeps the machine's other virtual CPU from halting while it lives.
///
/// The engine hands every blocking compilation to its compiler thread and
/// waits for it: two cross-thread wake-ups per compilation.  In this VM the
/// other vCPU halts when idle, and waking a halted vCPU goes through the
/// hypervisor and costs anything from 0.05 ms to several ms depending on
/// what the host is doing.  Measured here in one busy quarter of an hour:
/// a pass over 500 small programs under the default JIT took 0.57-0.85 s
/// with the other vCPU idle and 0.12-0.22 s with it kept awake (0.10 s
/// either way in a quiet hour).  A caller does pay that, so the traced run
/// reports it (`exec.idle_vcpu_slowdown`); but it is the host's lottery,
/// not the engine's, and no regression bound can sit under it, so the
/// end-to-end rounds run with one thread spinning on `yield_now` — it gives
/// its CPU to any runnable thread at once, and counts as the second of the
/// two busy threads the benchmark allows itself.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinner = (nproc() > 1).then(|| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })
        });
        KeepAwake { stop, spinner }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            // The spinner cannot panic; nothing to report.
            let _ = spinner.join();
        }
    }
}

/// Machine, toolchain and commit, recorded once per result file.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let text = |value: Option<String>| value.map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", text(first_line_of("rustc", &["--version"]))),
        // Absent when the benchmark runs from an exported tree.
        (
            "git_commit",
            text(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Cumulative `(steal, total)` ticks of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest columns are already inside user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// `(steal, total)` ticks that passed between two readings.
pub fn ticks_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<(u64, u64)> {
    let ((steal0, total0), (steal1, total1)) = (before?, after?);
    let total = total1.checked_sub(total0).filter(|&t| t > 0)?;
    Some((steal1.saturating_sub(steal0), total))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_between_readings_are_deltas() {
        assert_eq!(
            ticks_between(Some((10, 1000)), Some((20, 1200))),
            Some((10, 200))
        );
        assert_eq!(ticks_between(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(ticks_between(None, Some((1, 2))), None);
    }

    #[test]
    fn proc_readings_parse_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_ticks().is_some_and(|(steal, total)| steal <= total));
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
