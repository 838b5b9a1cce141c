//! The phi benchmark: one command, three workloads, end-to-end metrics on
//! untraced runs and per-layer metrics on traced runs.
//!
//! ```text
//! phi-perfbench --workload <wan_sweep|dc_incast|ctx_serve>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it describe the machine, the samples, and (traced) the layer
//! table. A traced run also writes its spans to `perfbench/out/`.

mod ctx;
mod gen;
mod pins;
mod report;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{machine_json, Outcome, END_TO_END, PER_LAYER};
use sim::Kind;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = match args.workload.as_str() {
        "wan_sweep" => Some(Kind::WanSweep),
        "dc_incast" => Some(Kind::DcIncast),
        "ctx_serve" => None,
        w => {
            eprintln!("phi-perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let machine = machine_json();
    println!("# machine {machine}");
    let mut out = Outcome::default();
    let line = if args.trace {
        let tracer = trace::Tracer::new();
        let table = match kind {
            Some(k) => sim::trace(k, args.seed, args.seconds, &mut out, &tracer),
            None => ctx::trace(args.seed, args.seconds, &mut out, &tracer),
        };
        print!("{table}");
        let dir = std::path::Path::new("perfbench/out");
        let file = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&file, trace::to_json(&tracer, &machine)))
        {
            Ok(()) => println!("# spans written to {}", file.display()),
            Err(e) => out.check(false, || format!("writing {}: {e}", file.display())),
        }
        out.result_line(PER_LAYER, false)
    } else {
        match kind {
            Some(k) => sim::measure(k, args.seed, args.seconds, &mut out),
            None => ctx::measure(args.seed, args.seconds, &mut out),
        }
        out.result_line(END_TO_END, true)
    };
    print!(
        "{}",
        out.lines(if args.trace { PER_LAYER } else { END_TO_END })
    );
    for p in &out.problems {
        println!("# FAILED: {p}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
