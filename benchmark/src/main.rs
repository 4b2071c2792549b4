//! The `slbench` command line. See `README.md`.

use slbench::alloc;
use slbench::report::{self, Def, END_TO_END, EXACT, PER_LAYER, RUN_SECONDS};
use slbench::run::{self, Options, Outcome};
use slbench::workloads::{self, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: slbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
               [--smoke] [--counts-only] [--emit-manifest]

  --workload <name>  bulk | bulk_lossy | churn | host_rr (default: all four)
  --seed <n>         workload seed (default 1)
  --seconds <s>      how long the timed phase measures (default from the registry)
  --trace [0|1]      1: the per-layer run, writes benchmark/out/trace-<workload>.jsonl;
                     0: the end-to-end run; absent: both
  --smoke            shrunk workloads, 3 batches per arm
  --counts-only      only the metrics that repeat bit for bit
  --emit-manifest    print BENCHMARK.json as the registry defines it
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Which {
    EndToEnd,
    PerLayer,
    Both,
}

struct Args {
    workload: Option<Spec>,
    opt: Options,
    which: Which,
    counts_only: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opt: Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            smoke: false,
        },
        which: Which::Both,
        counts_only: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.opt.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.opt.seconds = s;
            }
            "--trace" => {
                args.which = match it.next_if(|v| v == "0" || v == "1").as_deref() {
                    Some("0") => Which::EndToEnd,
                    _ => Which::PerLayer,
                };
            }
            "--smoke" => args.opt.smoke = true,
            "--counts-only" => args.counts_only = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn trace_path(spec: &Spec) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", spec.name))
}

fn print_outcome(spec: &Spec, seed: u64, section: &str, out: &Outcome) {
    println!("# workload {} seed {seed} {section}", spec.name);
    for note in &out.notes {
        println!("# {note}");
    }
    print!("{}", out.metrics.lines());
    println!("attempted {} count", out.attempted);
    println!("failed {} count", out.failed);
    println!(
        "failed_share {} ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    );
}

/// The result object of the driver's contract.
fn result_json(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.metrics.json()
    )
}

fn real_main() -> Result<bool, String> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return Ok(true);
        }
        Err(e) => return Err(format!("{e}\n{USAGE}")),
    };
    if args.emit_manifest {
        print!("{}", report::manifest());
        return Ok(true);
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    report::check_manifest(&text)?;

    let specs: Vec<Spec> = match args.workload {
        Some(s) => vec![s],
        None => workloads::ALL.to_vec(),
    };
    let mut all_correct = true;
    // `(workload, section, result object)` of every run made.
    let mut results: Vec<(&str, &str, String)> = Vec::new();
    for spec in specs {
        let spec = if args.opt.smoke { spec.smoke() } else { spec };
        let mut report = |section: &'static str, out: Outcome, listed: &[Def]| {
            out.metrics.check_against(listed)?;
            print_outcome(&spec, args.opt.seed, section, &out);
            all_correct &= out.correct();
            results.push((spec.name, section, result_json(&out)));
            Ok::<(), String>(())
        };
        if args.counts_only {
            let listed: Vec<Def> = EXACT
                .iter()
                .filter_map(|n| report::def(n))
                .copied()
                .collect();
            report("counts", run::counts_only(&spec, &args.opt), &listed)?;
            continue;
        }
        if args.which != Which::PerLayer {
            report("end_to_end", run::end_to_end(&spec, &args.opt), END_TO_END)?;
        }
        if args.which != Which::EndToEnd {
            let path = trace_path(&spec);
            let out = run::per_layer(&spec, &args.opt, Some(&path))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            report("per_layer", out, PER_LAYER)?;
            println!("# spans written to {}", path.display());
        }
    }
    // One JSON document, last. A single run's is the driver's result object;
    // otherwise the result objects nest under workload and section names.
    match results.as_slice() {
        _ if args.counts_only => {}
        [(_, _, one)] if args.workload.is_some() => println!("{one}"),
        all => {
            let workloads: Vec<String> = workloads::ALL
                .iter()
                .filter(|w| all.iter().any(|(name, ..)| *name == w.name))
                .map(|w| {
                    let sections: Vec<String> = all
                        .iter()
                        .filter(|(name, ..)| *name == w.name)
                        .map(|(_, section, json)| format!("{}: {json}", report::quote(section)))
                        .collect();
                    format!("{}: {{{}}}", report::quote(w.name), sections.join(", "))
                })
                .collect();
            println!("{{{}}}", workloads.join(", "));
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("slbench: some ops failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("slbench: {e}");
            ExitCode::from(2)
        }
    }
}
