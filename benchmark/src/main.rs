//! `tsm-benchmark`: runs one workload and prints its metrics.
//!
//! ```text
//! tsm-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! tsm-benchmark run <name> [--seed <n>] [--seconds <s>] [--traced]
//! ```
//!
//! Prints host facts, every metric with its unit, sample count and
//! quartiles, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `target/tsm-benchmark/<workload>-seed<n>.spans.tsv`.
//! Exits 1 when any output is wrong, 2 on bad arguments or a failed
//! set-up.

use std::process::ExitCode;
use tsm_benchmark::report::{json_line, table, HostFacts, END_TO_END, PER_LAYER};
use tsm_benchmark::{run, RunConfig, Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "usage: tsm-benchmark --workload <cosim-16|cosim-10440|serve-steady|serve-churn> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]\n       tsm-benchmark run <workload> [--seed <n>] [--seconds <s>] [--traced]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" if workload.is_none() => workload = Some(value()?.clone()),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        traced,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::collect();
    println!(
        "tsm-benchmark: workload {} seed {} seconds {} {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.traced { "traced" } else { "untraced" }
    );
    println!(
        "host: nproc {} pool_threads {} TSM_THREADS {} profile {} git {}",
        host.nproc,
        host.pool_threads,
        if host.tsm_threads_set { "set" } else { "unset" },
        host.profile,
        host.git_rev.as_deref().unwrap_or("unknown")
    );
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let pin = result.pin_matches(&cfg);
    println!(
        "ops: {} attempted, {} failed (fixed pass {}); error_rate {}",
        result.attempted,
        result.failed,
        result.pass,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!(
        "digests: inputs {:016x} results {:016x} ({})",
        result.input_digest,
        result.sim_digest,
        match pin {
            Some(true) => "matches the pinned digest",
            Some(false) => "DIFFERS from the pinned digest",
            None => "no pin at this seed",
        }
    );
    for f in &result.failures {
        eprintln!("failure: {f}");
    }
    let metrics = result
        .metrics
        .ordered(if cfg.traced { PER_LAYER } else { END_TO_END });
    for line in table(&metrics) {
        println!("{line}");
    }
    if !cfg.traced {
        // Host time of the op is measured untraced too; it is printed here
        // but is not an end-to-end metric (see README).
        let host: Vec<_> = PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("host."))
            .copied()
            .collect();
        println!("host time of the op (per-layer metrics, not in the result line):");
        for line in table(&result.metrics.ordered(&host)) {
            println!("{line}");
        }
    }
    if let Some(rec) = &result.recorder {
        let path = format!(
            "target/tsm-benchmark/{}-seed{}.spans.tsv",
            cfg.workload.name(),
            cfg.seed
        );
        let written = std::fs::create_dir_all("target/tsm-benchmark").and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            rec.write_tsv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
        match written {
            Ok(()) => println!("spans: {} written to {path}", rec.spans().len()),
            Err(e) => eprintln!("spans: could not write {path}: {e}"),
        }
    }
    let correct = result.failed == 0 && pin != Some(false);
    println!(
        "{}",
        json_line(correct, result.attempted, result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
