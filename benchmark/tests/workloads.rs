//! Every workload's smoke run completes on both stacks with no failed op,
//! on seed 1 and on seed 2, and reports exactly the registry's metrics.

use slbench::report::{END_TO_END, PER_LAYER};
use slbench::run::{self, Options};
use slbench::workloads;

fn smoke(seed: u64) -> Options {
    Options {
        seed,
        seconds: 1.0,
        smoke: true,
    }
}

#[test]
fn smoke_runs_have_no_failed_op_on_either_stack() {
    for spec in workloads::ALL {
        for seed in [1, 2] {
            let out = run::end_to_end(&spec.smoke(), &smoke(seed));
            assert_eq!(out.failed, 0, "{} seed {seed}", spec.name);
            assert!(out.correct(), "{} seed {seed}", spec.name);
            // Both arms ran at least their three batches.
            assert!(
                out.attempted >= 2 * 3 * spec.smoke().batch_ops,
                "{} seed {seed}",
                spec.name
            );
            out.metrics
                .check_against(END_TO_END)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            for name in ["sub.ops_per_s", "mono.ops_per_s", "setup_s"] {
                assert!(out.metrics.get(name).unwrap() > 0.0, "{} {name}", spec.name);
            }
        }
    }
}

#[test]
fn traced_smoke_runs_report_every_per_layer_metric_and_write_spans() {
    let dir = std::env::temp_dir().join(format!("slbench-test-{}", std::process::id()));
    for spec in [workloads::BULK_LOSSY, workloads::CHURN] {
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        let out =
            run::per_layer(&spec.smoke(), &smoke(2), Some(&path)).expect("trace file written");
        assert_eq!(out.failed, 0, "{}", spec.name);
        out.metrics
            .check_against(PER_LAYER)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            out.metrics.get("chain.frames_match"),
            Some(1.0),
            "{}",
            spec.name
        );
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "\"kind\":\"agg\"",
            "\"kind\":\"span\"",
            "\"arm\":\"sub\"",
            "\"arm\":\"mono\"",
            "\"arm\":\"chain\"",
            "\"name\":\"rd.on_packet\"",
        ] {
            assert!(
                text.contains(needle),
                "{}: no {needle} in the span file",
                spec.name
            );
        }
        // A child span lies inside its parent.
        let field = |line: &str, key: &str| -> Option<u64> {
            let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
            rest[..rest.find([',', '}'])?].parse().ok()
        };
        let spans: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"arm\":\"chain\"") && l.contains("\"kind\":\"span\""))
            .collect();
        let mut nested = 0;
        for line in &spans {
            if let Some(parent) = field(line, "parent") {
                let p = spans[parent as usize];
                assert!(
                    field(p, "start_ns") <= field(line, "start_ns")
                        && field(line, "end_ns") <= field(p, "end_ns")
                );
                nested += 1;
            }
        }
        assert!(nested > 0, "{}: SubChain spans have parents", spec.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn count_metrics_repeat_exactly() {
    // Without the counting allocator installed the allocation counts read 0;
    // the frame, crossing and retransmit counts are still exact.
    let spec = workloads::BULK_LOSSY.smoke();
    let a = run::counts_only(&spec, &smoke(2));
    let b = run::counts_only(&spec, &smoke(2));
    assert_eq!(a.metrics.0, b.metrics.0);
    assert!(a.metrics.get("stack.retransmits_per_op").unwrap() > 0.0);
    let c = run::counts_only(&spec, &smoke(3));
    assert_ne!(
        a.metrics.0, c.metrics.0,
        "another seed, another loss pattern"
    );
}
