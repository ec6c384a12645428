//! The repository benchmark. One workload per process:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics with the trace ring and the
//! metrics registry off; `--trace 1` runs the traced pass and prints the
//! per-layer metrics. The last line of standard output is the JSON
//! verdict; see `README.md` for the workloads and every metric.

mod analytics;
mod host;
mod kernels;
mod layers;
mod probe;
mod report;
mod serve;
mod stats;

use report::Report;

/// Command-line arguments, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["analytics-rmat", "serve-views"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The ring must be sized before its first event; the timed runs keep
    // it and the metrics registry off.
    graphblas::trace::set_capacity(1 << 18);
    graphblas::trace::disable();
    graphblas::metrics::set_enabled(false);

    let steal0 = host::steal_ticks();
    let mut report = Report::new(&args.workload, args.trace);
    let result = match args.workload.as_str() {
        "analytics-rmat" => analytics::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    if !args.trace {
        for (name, _) in report::END_TO_END {
            if !report.metrics.iter().any(|m| m.name == name) {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        }
    }
    let prov = host::Provenance::collect(args.seed);
    let mut lines = prov.lines();
    let steal1 = host::steal_ticks();
    let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    lines.push(format!("host.steal_frac       {steal:.4} (hypervisor steal over this run)"));
    lines.append(&mut report.provenance);
    report.provenance = lines;
    print!("{}", report.render());
}
