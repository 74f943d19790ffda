//! The repository benchmark: the GOGGLES serving stack under a saturating
//! closed loop over the wire, and the paper's offline labeling pipeline.
//! The traced run also replays every layer, the continuous-learning
//! trainer included.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-saturated --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Inputs (images, datasets, image choices) are generated from `--seed`;
//! the program only receives them. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a traced run.
//! The second-to-last line is the host and build record; the last line is
//! the result.

mod host;
mod layers;
mod loadgen;
mod report;
mod stats;
mod workloads;

use workloads::Workload;

const USAGE: &str =
    "usage: goggles-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!(
        "unknown workload {name}; expected one of {}",
        report::WORKLOADS.join(", ")
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, name, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("goggles-perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mark = host::CpuMark::now();
    let run = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let catalogue: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let failed = run.tally.failed();
    let mut notes = run.notes;
    notes.push(("failed_share".into(), run.tally.failed_share().to_string()));
    notes.push(("host_steal_pct".into(), mark.steal_pct().to_string()));
    let line =
        report::result_line(failed == 0, run.tally.attempted, failed, &run.metrics, &catalogue);
    match line {
        Ok(line) => {
            println!("{}", host::record(&args.name, args.seed, args.trace, &notes));
            println!("{line}");
        }
        Err(msg) => {
            eprintln!("goggles-perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
