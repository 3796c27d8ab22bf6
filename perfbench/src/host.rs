//! What the benchmark reads from the host: the result fingerprint,
//! per-thread CPU time, TIME_WAIT sockets and peak memory. Everything
//! comes from `/proc` and files in the working directory. Also the idle
//! spinners that keep a virtual machine's CPUs from halting.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sys;

/// One thread per CPU that spins at idle priority while the benchmark
/// runs; stopped and joined on drop.
///
/// On a virtual machine an idle CPU halts and hands its physical CPU back
/// to the hypervisor. The next wake-up, which the chain makes every few
/// microseconds, then waits until the hypervisor runs that virtual CPU
/// again; on a busy host that wait is long, shows as stolen time, and
/// stalls the chain. A `SCHED_IDLE` thread pinned to each CPU keeps the
/// CPU from halting and gives way at once to any thread of the chain
/// that becomes runnable. The loop only loads a flag; a loop of `pause`
/// instructions measured no better.
#[derive(Debug)]
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Starts one spinner per CPU. A spinner that cannot take the idle
    /// policy says so and ends at once rather than compete with the chain.
    pub fn start() -> IdleSpinners {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()).min(64);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..cpus)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let body = move || {
                    if let Err(e) = sys::idle_priority() {
                        eprintln!("idle spinner: SCHED_IDLE: {e}");
                        return;
                    }
                    if let Err(e) = sys::pin_to_cpu(cpu) {
                        eprintln!("idle spinner: CPU {cpu}: {e}");
                    }
                    while !stop.load(Ordering::Relaxed) {}
                };
                let spawned = std::thread::Builder::new().name("idle-spin".into()).spawn(body);
                spawned.expect("spawn idle spinner")
            })
            .collect();
        IdleSpinners { stop, handles }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sum of `sum_exec_runtime` (ns, first field of the task's
/// `schedstat`) over this process's threads whose name starts with
/// `prefix`. Threads inherit their creator's name, so every worker a
/// gateway's serving thread spawns is counted under that thread's name.
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let named = fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.starts_with(prefix));
        if !named {
            continue;
        }
        if let Some(ns) = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()))
        {
            total += ns;
        }
    }
    total
}

/// TCP sockets in TIME_WAIT on the machine (`tw` in `/proc/net/sockstat`).
pub fn time_wait_sockets() -> Option<u64> {
    let text = fs::read_to_string("/proc/net/sockstat").ok()?;
    let line = text.lines().find(|l| l.starts_with("TCP:"))?;
    let mut fields = line.split_whitespace();
    while let Some(f) = fields.next() {
        if f == "tw" {
            return fields.next()?.parse().ok();
        }
    }
    None
}

/// CPU time the hypervisor took from this machine's CPUs (`steal` in
/// `/proc/stat`), in ms, assuming the usual 100 ticks per second. Time
/// stolen during a run slows every thread of the chain; the run reports
/// it so a noisy result can be told from a slow program.
pub fn steal_ms() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 10)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

/// One JSON object naming the host and inputs of a result: CPU model,
/// CPU count, kernel, rustc, source revision, that traffic crossed
/// loopback, and the workload seed.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \"revision\": {}, \
         \"network\": \"loopback\", \"workload\": {}, \"seed\": {seed}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc_version()),
        json_str(&git_revision()),
        json_str(workload),
    )
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (which would search parent directories). A
/// source tree that is not a git checkout reports `none`.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else { return "none".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
