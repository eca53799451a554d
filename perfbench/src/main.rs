//! `perfbench --workload <paper|bigmesh|explain> --seed <n> --seconds <s>
//! --trace <0|1> [--spans <file>]` runs one workload and prints its
//! metrics, ending with one JSON line; `--spans` also writes the last
//! traced rep's timed calls as `event boundary seconds` lines.
//! `perfbench --record` re-records `reference.txt`.

use perfbench::reference::Reference;
use perfbench::{fingerprint, measure, record, Sizes, Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper|bigmesh|explain> [--seed N] [--seconds S] \
         [--trace 0|1] [--spans FILE]\n       perfbench --record"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
        let text = record(&Sizes::bench());
        if let Err(e) = std::fs::write(path, text) {
            usage(&format!("cannot write {path}: {e}"));
        }
        println!("recorded {path}");
        return;
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--spans" => spans_out = Some(value.clone()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    let reference = Reference::parse(include_str!("../reference.txt"))
        .unwrap_or_else(|e| usage(&format!("reference.txt: {e}")));
    println!("# host: {}", fingerprint());
    println!(
        "# workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    let report = measure(workload, &Sizes::bench(), seed, seconds, trace, &reference);
    for (i, (traced, run_s)) in report.reps.iter().enumerate() {
        let kind = if *traced { "traced" } else { "timed" };
        println!("# rep {i} {kind} run_s {run_s:.6}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    if let Some(path) = spans_out {
        let mut text = String::new();
        for s in &report.spans {
            text.push_str(&format!("{}\t{}\t{:e}\n", s.event, s.boundary(), s.dur));
        }
        if let Err(e) = std::fs::write(&path, text) {
            usage(&format!("cannot write {path}: {e}"));
        }
    }
    println!("{}", report.json());
}
