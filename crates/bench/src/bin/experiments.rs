//! Experiment harness — regenerates every table/figure-level claim of
//! the paper (DESIGN.md §3, EXPERIMENTS.md).
//!
//! Usage:
//!   cargo run -p davide-bench --release --bin experiments          # all
//!   cargo run -p davide-bench --release --bin experiments e3 e11   # some
//!   cargo run -p davide-bench --release --bin experiments --list
//!   cargo run ... --bin experiments --smoke e22   # CI-sized variant

use davide_bench::registry;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        std::env::set_var(davide_bench::experiments::SMOKE_ENV, "1");
    }
    let experiments = registry();

    if args.iter().any(|a| a == "--list") {
        for e in &experiments {
            println!("{:<5} {}", e.id, e.title);
        }
        return;
    }

    let selected: Vec<&str> = args.iter().map(String::as_str).collect();
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|id| !experiments.iter().any(|e| e.id == *id))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s) {unknown:?}; try --list");
        std::process::exit(1);
    }
    let mut ran = 0;
    for e in &experiments {
        if selected.is_empty() || selected.contains(&e.id) {
            (e.run)();
            ran += 1;
        }
    }
    println!("\n{ran} experiment(s) completed.");
}
