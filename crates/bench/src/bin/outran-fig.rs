//! The one figure runner: print, record or check the tables in
//! [`outran_bench::figures::FIGURES`].
//!
//! ```console
//! cargo run --release -p outran-bench --bin outran-fig -- fig8_epsilon    # print
//! cargo run --release -p outran-bench --bin outran-fig -- --write results # record all
//! cargo run --release -p outran-bench --bin outran-fig -- --check results # gate
//! ```
//!
//! Figure names after `--write DIR` / `--check DIR` restrict it to those
//! figures; `--threads N` sets the worker count and changes no output
//! byte. `--check` re-derives each table in memory and exits 1 naming
//! every figure whose `DIR/NAME.txt` differs and the first differing
//! line. Bad usage, an unknown figure or an unreadable DIR exit 2.

use outran_bench::figures::{Figure, FIGURES};
use std::path::Path;
use std::time::Instant;

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "outran-fig: {problem}\n\
         usage: outran-fig [--threads N] (NAME... | --write DIR [NAME...] | --check DIR [NAME...])\n\
         figures: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn fail(path: &Path, e: std::io::Error) -> ! {
    eprintln!("outran-fig: {}: {e}", path.display());
    std::process::exit(2);
}

fn render((name, run): Figure, threads: usize) -> String {
    #[expect(clippy::disallowed_methods, reason = "timing printed to stderr only")]
    let t0 = Instant::now();
    let mut out = String::new();
    run(threads, &mut out);
    eprintln!("  [outran-fig] {name} {:.1}s", t0.elapsed().as_secs_f64());
    out
}

/// Where `fresh` stops being the recorded table (`None`: past its end).
fn first_diff(recorded: &str, fresh: &str) -> String {
    let (r, f): (Vec<&str>, Vec<&str>) = (recorded.lines().collect(), fresh.lines().collect());
    let at = (0..r.len().max(f.len()))
        .find(|&i| r.get(i) != f.get(i))
        .unwrap_or(r.len());
    let (line, r, f) = (at + 1, r.get(at), f.get(at));
    format!("line {line}: recorded {r:?} != fresh {f:?}")
}

fn main() {
    let mut threads = outran_ran::default_threads();
    let mut mode = None;
    let mut figures: Vec<Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => usage("--threads needs a positive integer"),
            },
            "--write" | "--check" => match args.next() {
                Some(dir) => mode = Some((a == "--check", dir)),
                None => usage(&format!("{a} needs a directory")),
            },
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(fig) => figures.push(*fig),
                None => usage(&format!("unknown figure or flag `{name}`")),
            },
        }
    }
    let Some((check, dir)) = mode else {
        if figures.is_empty() {
            usage("name a figure, or --write DIR / --check DIR");
        }
        for fig in figures {
            print!("{}", render(fig, threads));
        }
        return;
    };
    if figures.is_empty() {
        figures = FIGURES.to_vec();
    }
    let dir = Path::new(&dir);
    if !check {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
        for fig in figures {
            let path = dir.join(format!("{}.txt", fig.0));
            std::fs::write(&path, render(fig, threads)).unwrap_or_else(|e| fail(&path, e));
        }
        return;
    }
    // Fail on an unreadable directory before spending time simulating.
    if let Err(e) = std::fs::read_dir(dir) {
        fail(dir, e);
    }
    let mut stale = 0;
    for fig in &figures {
        let path = dir.join(format!("{}.txt", fig.0));
        let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&path, e));
        let fresh = render(*fig, threads);
        if recorded == fresh {
            println!("ok    {}", fig.0);
        } else {
            stale += 1;
            println!("STALE {}: {}", fig.0, first_diff(&recorded, &fresh));
        }
    }
    let (n, dir) = (figures.len(), dir.display());
    if stale > 0 {
        println!(
            "{stale} of {n} figure(s) differ from {dir}: re-record with `outran-fig --write {dir}`"
        );
        std::process::exit(1);
    }
    println!("all {n} figure(s) equal {dir} byte for byte");
}
