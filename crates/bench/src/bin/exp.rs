//! The campaign runner: `exp <campaign> [--smoke] [--json]`, `exp --list`.
//!
//! Runs one campaign of [`bench::CAMPAIGNS`], which holds every
//! experiment, E1–E22. `--smoke` selects the CI-sized subset; `--json`
//! prints only the deterministic JSON document
//! (byte-identical per seed — CI runs it twice and `cmp`s). A full run
//! (no `--smoke`) also rewrites `BENCH_<campaign>.json` in the working
//! directory. Exits 1 if any invariant is violated, 2 on a usage error.

use bench::CAMPAIGNS;

fn usage() -> ! {
    let names: Vec<&str> = CAMPAIGNS.iter().map(|c| c.name).collect();
    eprintln!("usage: exp <campaign> [--smoke] [--json]\n       exp --list");
    eprintln!("campaigns: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let (mut name, mut smoke, mut json) = (None, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => {
                for c in &CAMPAIGNS {
                    println!("{}", c.name);
                }
                return;
            }
            "--smoke" => smoke = true,
            "--json" => json = true,
            a if !a.starts_with('-') && name.is_none() => name = Some(arg),
            _ => usage(),
        }
    }
    let Some(c) = name.and_then(|n| CAMPAIGNS.iter().find(|c| c.name == n)) else {
        usage();
    };

    let r = (c.run)(smoke);
    if json {
        println!("{}", r.json);
    } else {
        println!("{}", c.render(&r));
        println!("## JSON summary\n\n```json\n{}\n```\n", r.json);
        println!("{} invariant violations.", r.violations.len());
    }
    if !smoke {
        let file = c.bench_file();
        std::fs::write(&file, format!("{}\n", r.json))
            .unwrap_or_else(|e| panic!("write {file}: {e}"));
        if !json {
            println!("wrote {file}");
        }
    }
    if !r.violations.is_empty() {
        for v in &r.violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!("exp {}: {} violation(s)", c.name, r.violations.len());
        std::process::exit(1);
    }
}
