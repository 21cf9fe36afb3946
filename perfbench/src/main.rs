//! fundb's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <oltp_replicated|sharded_transfer|analytic_views>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run sets up its workload, drives a closed loop of 2 clients × 4
//! users through a fixed number of rounds sized by `--seconds`, checks
//! every answer against the benchmark's own model, and prints one JSON
//! object as the last line of standard output. `--trace 1` replays the
//! same seeded operation stream through a
//! ladder of layer stacks instead and reports per-layer metrics. See
//! `README.md` beside this crate.

mod analytic;
mod common;
mod harness;
mod ladder;
mod oltp;
mod sharded;
#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Config, RunOut};

/// Stack of the thread a run executes on.
const RUN_STACK_BYTES: usize = 1 << 30;

pub const WORKLOADS: [&str; 3] = ["oltp_replicated", "sharded_transfer", "analytic_views"];

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut sweep = false;
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value("--trace")? == "1",
            "--smoke" => smoke = true,
            "--sweep" => sweep = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let work = PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        smoke,
        sweep,
        work,
    })
}

/// The commit the checkout was taken from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// The filesystem type holding the data directories (from /proc/mounts).
fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && abs.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {}", f[2], f[1])))
        })
        .max()
        .map(|(_, s)| s)
        .unwrap_or_else(|| "unknown".into())
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn print_untraced(run: &RunOut) -> String {
    for (kind, (spec, k)) in run.specs.iter().zip(&run.phase.kinds).enumerate() {
        let lat_ns = run.phase.lat_ns(kind);
        let mean_us = lat_ns.iter().sum::<u64>() as f64 / lat_ns.len().max(1) as f64 / 1e3;
        println!(
            "kind {:<16} attempted {:>8} failed {:>8} timed {:>8} mean_us {:>9.1} p50_us {:>9.1} p99_us {:>9.1}{}",
            spec.name,
            k.attempted,
            k.failed,
            lat_ns.len(),
            mean_us,
            common::percentile_us(&lat_ns, 50.0),
            common::percentile_us(&lat_ns, 99.0),
            spec.known_fault
                .filter(|_| k.failed > 0)
                .map(|f| format!("  (known fault: {f})"))
                .unwrap_or_default()
        );
        if let Some(e) = &k.first_error {
            println!("  first mismatch: {e}");
        }
    }
    for c in &run.checks {
        println!("check {:<5} {}", if c.ok { "ok" } else { "FAIL" }, c.name);
    }
    println!(
        "setup_s each: {}",
        run.setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (k, v) in &run.info {
        println!("info {k} = {v}");
    }
    for (k, v) in run.reference() {
        println!("reference {k} = {v:.1}");
    }
    println!(
        "user rounds {}; {} operations timed over {:.3} s with every user past warm-up",
        run.phase.rounds, run.phase.measured_ops, run.phase.measured_s
    );
    println!(
        "ops per one-second window: {}",
        run.phase
            .window_rates()
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut metrics = String::from("{");
    for (name, value, unit) in run.metrics() {
        println!("metric {name} = {value:.4} {unit}");
        json_metric(&mut metrics, name, value, unit);
    }
    metrics.push('}');
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.correct(),
        run.total_attempted(),
        run.total_failed()
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let ref_before = common::reference_loop_s();
    println!(
        "run workload={} seed={} seconds={} trace={} smoke={} nproc={} git_rev={} data_fs={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        git_rev(),
        filesystem_of(&cfg.work),
    );
    let sizes = harness::Sizes::of(&cfg);
    println!("sizes {sizes:?}");

    // Dropping a cluster drops the medium's message stream one cell at a
    // time, recursively; after a full run that is deeper than a default
    // 8 MiB stack holds, so the run gets a thread with a larger one.
    let worker = std::thread::Builder::new()
        .stack_size(RUN_STACK_BYTES)
        .spawn({
            let cfg = cfg.clone();
            move || {
                if cfg.sweep {
                    oltp::sweep(&cfg);
                    None
                } else if cfg.trace {
                    Some(ladder::run(&cfg))
                } else {
                    let run = match cfg.workload.as_str() {
                        "oltp_replicated" => oltp::run(&cfg),
                        "sharded_transfer" => sharded::run(&cfg),
                        _ => analytic::run(&cfg),
                    };
                    Some(print_untraced(&run))
                }
            }
        })
        .expect("run thread starts");
    let last = worker.join();
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    println!(
        "host reference loop: {ref_before:.3} s before, {:.3} s after",
        common::reference_loop_s()
    );
    match last {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(_) => {
            eprintln!("perfbench: the run failed; no result");
            ExitCode::FAILURE
        }
    }
}
