//! `outran-sim` — run one cell experiment from the command line.
//!
//! ```console
//! outran-sim --scheduler outran --users 40 --load 0.6 --secs 20
//! outran-sim --scenario nr1 --scheduler srjf --dist mirage --secs 8
//! outran-sim --scheduler pf --rlc am --buffer 640 --cdf short
//! ```
//!
//! Run `outran-sim --help` for every knob. The tool prints the standard
//! experiment report (FCT buckets, spectral efficiency, fairness) and,
//! on request, figure-style CDFs.

use outran_cli::{help, parse_args, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", help());
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", help());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
