//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of standard
//! output.  `perfbench --reference` prints the reference digests stored in
//! `reference_digests.txt`.

use perfbench::workloads::{Bench, Workload};
use perfbench::{digest, run, Args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--reference"] {
        println!("# <workload> <seed> <digest>: the oracle configuration's pass digests");
        for workload in Workload::ALL {
            for seed in digest::reference_seeds() {
                let digest = Bench::new(workload, seed).oracle_digest();
                println!("{} {seed} {digest:016x}", workload.name());
            }
        }
        return;
    }
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <table1-line|bist-sweep|serve-grid> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = run(args);
    println!("{}", report.note);
    println!("{}", report.result_line());
}
