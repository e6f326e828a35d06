//! Finds the first divergent event between two captured simulation traces.
//!
//! Usage: `trace_diff <a.trace.jsonl> <b.trace.jsonl> [--context K]`
//!
//! This is the forensic follow-up to a trace-fingerprint mismatch from
//! `compare_bench`: capture both runs with `PREDIS_TRACE_DIR`
//! set, then point this tool at the two captures. It streams both files in
//! lockstep (O(K) memory, any trace length) and prints the first event
//! where they disagree with ±K events of context (default 5). Exits 0 when
//! the traces are identical, 1 on divergence, 2 on usage/IO errors.

use std::io::BufReader;

use predis_bench::first_divergence;

fn main() {
    let usage = || -> ! {
        eprintln!("usage: trace_diff <a.trace.jsonl> <b.trace.jsonl> [--context K]");
        std::process::exit(2);
    };
    let mut positional: Vec<String> = Vec::new();
    let mut context = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--context" => {
                let Some(v) = args.next() else { usage() };
                context = v.parse().unwrap_or_else(|_| {
                    eprintln!("--context wants a non-negative integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(arg),
        }
    }
    let [path_a, path_b] = positional.as_slice() else {
        usage()
    };

    let open = |path: &str| {
        BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("trace_diff: {path}: {e}");
            std::process::exit(2);
        }))
    };
    let result = first_divergence(open(path_a), open(path_b), context).unwrap_or_else(|e| {
        eprintln!("trace_diff: {e}");
        std::process::exit(2);
    });

    match result {
        None => println!("traces are identical"),
        Some(divergence) => {
            print!("{}", divergence.render(path_a, path_b));
            std::process::exit(1);
        }
    }
}
