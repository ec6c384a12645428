//! What the process can learn about its host and itself from outside the
//! library: provenance for every result, peak RSS, and per-thread CPU
//! time read from `/proc/self/task`.

use std::collections::BTreeMap;
use std::path::Path;

/// Host and build provenance printed with every result.
pub struct Provenance {
    pub nproc: usize,
    pub threads: usize,
    pub pool_workers: Option<f64>,
    pub cpu_model: String,
    pub profile: &'static str,
    pub git_rev: String,
    pub seed: u64,
    pub cost_push_ns: f64,
    pub cost_pull_ns: f64,
    pub env: Vec<(String, String)>,
}

impl Provenance {
    /// Collect provenance. Call after the workload has run a parallel
    /// kernel, so the pool exists and its worker gauge is registered.
    pub fn collect(seed: u64) -> Provenance {
        let m = graphblas::cost::model();
        let mut env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("GRAPHBLAS_") || k.starts_with("LAGRAPH_"))
            .collect();
        env.sort();
        Provenance {
            nproc: nproc(),
            threads: graphblas::parallel::threads(),
            pool_workers: registry_value("graphblas_pool_workers"),
            cpu_model: cpu_model(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            git_rev: git_rev(),
            seed,
            cost_push_ns: m.push_ns,
            cost_pull_ns: m.pull_ns,
            env,
        }
    }

    /// Kernel threads above the host's CPU count time-share cores, so
    /// their numbers are not scaling results.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.nproc
    }

    pub fn lines(&self) -> Vec<String> {
        let workers = match self.pool_workers {
            Some(w) => format!("{w}"),
            None => "not started".into(),
        };
        let env = if self.env.is_empty() {
            "(none)".to_string()
        } else {
            self.env.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        };
        vec![
            format!("host.nproc            {}", self.nproc),
            format!(
                "host.threads          {}{}",
                self.threads,
                if self.oversubscribed() { " (oversubscribed)" } else { "" }
            ),
            format!("host.pool_workers     {workers}"),
            format!("host.cpu_model        {}", self.cpu_model),
            format!("build.profile         {}", self.profile),
            format!("build.git_rev         {}", self.git_rev),
            format!("run.seed              {}", self.seed),
            format!(
                "cost.model            push_ns={} pull_ns={}",
                self.cost_push_ns, self.cost_pull_ns
            ),
            format!("env                   {env}"),
        ]
    }
}

/// Host CPU time stolen by the hypervisor and total CPU time so far,
/// in `/proc/stat` ticks.
pub fn steal_ticks() -> (u64, u64) {
    let Some(line) = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
    else {
        return (0, 0);
    };
    let f: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Current value of one unlabeled series in the metrics registry.
pub fn registry_value(name: &str) -> Option<f64> {
    graphblas::metrics::snapshot().into_iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a
/// source export that is not a repository reports `unknown`.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The long-lived thread groups the benchmark reports CPU time for,
/// matched on the kernel's 15-byte thread name (`comm`). The load
/// generator's threads report their own time before they exit.
pub const THREAD_GROUPS: [(&str, &str); 4] = [
    ("pool", "graphblas-worke"),
    ("drainer", "lagraph-shard-d"),
    ("coordinator", "lagraph-service"),
    ("main", "perfbench"),
];

/// CPU seconds consumed so far by each live thread group. Threads that
/// have exited no longer appear, so sample while the threads run.
pub fn thread_cpu() -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> =
        THREAD_GROUPS.iter().map(|(g, _)| (*g, 0.0)).collect();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in dir.flatten() {
        let p = task.path();
        let comm = std::fs::read_to_string(p.join("comm")).unwrap_or_default();
        let comm = comm.trim();
        let Some((group, _)) = THREAD_GROUPS.iter().find(|(_, prefix)| comm.starts_with(prefix))
        else {
            continue;
        };
        *out.get_mut(group).expect("every group is pre-filled") += task_cpu_s(&p);
    }
    out
}

/// CPU seconds used so far by the calling thread.
pub fn own_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self"))
}

/// One task's CPU time: `schedstat` (nanoseconds on CPU) when the kernel
/// provides it, else `utime + stime` from `stat` in 100 Hz ticks.
fn task_cpu_s(task: &Path) -> f64 {
    if let Some(ns) = std::fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
    {
        return ns / 1e9;
    }
    std::fs::read_to_string(task.join("stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized name; utime and stime are
            // fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Per-group CPU seconds spent between two [`thread_cpu`] samples.
pub fn cpu_delta(
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after.iter().map(|(g, a)| (*g, (a - before.get(g).copied().unwrap_or(0.0)).max(0.0))).collect()
}
