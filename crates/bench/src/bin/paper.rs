//! The paper, reproduced by one command: prints every published number
//! beside this repository's (`nvc_bench::paper`), then compares the
//! table with README's "Reproducing the paper" block. Exits non-zero on
//! drift: a simulator number that moved, or a status (including every
//! shape predicate's) that differs from README's. Takes no flags.
//!
//! ```text
//! cargo run --release -p nvc-bench --bin paper
//! ```

#![forbid(unsafe_code)]

use nvc_bench::paper::{drift, readme, render, report, RdSweeps};

fn main() {
    let sweeps = RdSweeps::run();
    println!("{}", sweeps.series());
    let rows = report(&sweeps);
    println!("{}", render(&rows));
    let drift = drift(&readme(), &rows);
    if !drift.is_empty() {
        eprintln!("\nREADME's paper block has drifted ({} rows):", drift.len());
        for d in &drift {
            eprintln!("{d}");
        }
        std::process::exit(1);
    }
    println!("\nREADME's paper block matches: every sim row exactly, every status.");
}
