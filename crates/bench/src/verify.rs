//! E6a — verification effort (paper §4.2): per-sublayer models against
//! the monolithic product, measured with the model checker; the classic
//! bugs it refutes; and the models behind E14's RFC 5961 core, E19's
//! congestion-control contract and E20/E21's shard ladder. E22's
//! contract chain is `exp contracts`.

use slverify::models::FlowControl;
use slverify::{
    check, AltBit, CheckResult, Combined, CongCtrl, Handshake, Model, RstAttack, ShardFail,
    ShardedOverload, SlidingWindow,
};

use crate::{json, Report, Table};

const CAP: usize = 5_000_000;
const CC_CAP: usize = 2_000_000;

fn rst(defended: bool, sublayered: bool) -> RstAttack {
    RstAttack { s_mod: 8, w: 3, n_msgs: 3, budget: 2, defended, sublayered }
}
fn sharded(sublayered: bool, sbudget: u8, gbudget: u8, lag: u8) -> ShardedOverload {
    ShardedOverload { sbudget, gbudget, resp: 2, lag, sublayered }
}
fn shard_fail(isolate: bool, backoff: u8) -> ShardFail {
    ShardFail { sbudget: 4, gbudget: 5, resp: 2, lag: 1, backoff, isolate }
}
fn selective_repeat(s_mod: u8, n_msgs: u8) -> SlidingWindow {
    SlidingWindow { w: 2, s_mod, n_msgs }
}
fn flow(respect_window: bool) -> FlowControl {
    FlowControl { buf_cap: 2, n_msgs: 6, respect_window }
}

const EFFORT: &str = "Model-checking effort: sublayered vs monolithic (paper §4.2)";
const E20: &str = "Sharded overload ladder (E20): per-shard + global budgets";
const E21: &str = "Shard fault domains (E21): crash isolation + supervised restart";
const E19: &str = "Congestion-control contract (E19): real implementations, checked";
const SECTIONS: [&str; 4] = [EFFORT, E20, E21, E19];

/// One checked model and the table it belongs to; a model under
/// [`BUGS`] must be refuted, every other one must prove.
struct Run {
    section: &'static str,
    model: String,
    r: CheckResult,
}

const BUGS: &str = "Counterexamples: the checker finds real protocol bugs";

fn run(section: &'static str, model: impl Into<String>, m: &impl Model, cap: usize) -> Run {
    Run { section, model: model.into(), r: check(m, cap) }
}

fn runs() -> Vec<Run> {
    let product = Combined { hs: Handshake { three_way: true }, win: selective_repeat(4, 6) };
    let mut runs = vec![
        run(EFFORT, "CM alone (3-way handshake vs stale SYNs)", &Handshake { three_way: true }, CAP),
        run(EFFORT, "RD alone (alternating bit, 3 msgs)", &AltBit { n_msgs: 3 }, CAP),
        run(EFFORT, "RD alone (selective repeat W=2 S=4)", &selective_repeat(4, 6), CAP),
        run(EFFORT, "OSR alone (flow control, buffer 2)", &flow(true), CAP),
        run(EFFORT, "RFC 5961 challenge ACK (sublayered shape)", &rst(true, true), CAP),
        run(EFFORT, "RFC 5961 challenge ACK (monolithic shape)", &rst(true, false), CAP),
        run(EFFORT, "MONOLITHIC (handshake x window product)", &product, 20_000_000),
        run(E20, "ShardedOverload (staged floor, lag 1)", &sharded(true, 4, 5, 1), CAP),
        run(E20, "ShardedOverload (fused global check)", &sharded(false, 4, 5, 1), CAP),
        run(E20, "ShardedOverload (inert global, per-shard only)", &sharded(true, 4, 64, 3), CAP),
        run(E21, "ShardFail (contained crash, backoff 1)", &shard_fail(true, 1), CAP),
        run(E21, "ShardFail (contained crash, backoff 2)", &shard_fail(true, 2), CAP),
    ];
    for name in slcc::SHIPPED {
        let model = format!("CongCtrl[{name}] (assume/guarantee, 8 ticks)");
        runs.push(run(E19, model, &CongCtrl::shipped(name), CC_CAP));
    }
    runs.extend([
        run(BUGS, "Selective repeat with W=2, S=3 (sequence space < 2x window)", &selective_repeat(3, 5), CAP),
        run(BUGS, "Two-message handshake (no third ack): stale incarnation", &Handshake { three_way: false }, CAP),
        run(BUGS, "OSR ignoring the advertised window: buffer overflow", &flow(false), CAP),
        run(BUGS, "Pre-RFC-5961 RST handling (any in-window RST resets): blind reset", &rst(false, false), CAP),
        run(BUGS, "ShardedOverload (stale floor at lag 2): global overrun", &sharded(true, 8, 5, 2), CAP),
        run(BUGS, "ShardFail (no fault boundary): foreign-shard abort", &shard_fail(false, 2), CAP),
        run(BUGS, "CongCtrl[BuggyDeflate] (partial-ack deflation, no floor): zero window", &CongCtrl::buggy(), CC_CAP),
    ]);
    runs
}

fn states(runs: &[Run], model: &str) -> usize {
    runs.iter().find(|r| r.model == model).map_or(0, |r| r.r.states)
}

/// The full run checks every model; it is already CI-sized.
pub fn report(_smoke: bool) -> Report {
    let runs = runs();
    let mut violations = Vec::new();
    for run in &runs {
        if run.section == BUGS && run.r.violation.is_none() {
            violations.push(format!("{}: no counterexample", run.model));
        } else if run.section != BUGS && !run.r.ok() {
            violations.push(format!("{}: did not prove ({:?})", run.model, run.r.violation));
        }
    }
    // The §4.2 claim: the product that fuses CM and RD costs an order of
    // magnitude more than proving them separately.
    let parts =
        states(&runs, "CM alone (3-way handshake vs stale SYNs)") + states(&runs, "RD alone (selective repeat W=2 S=4)");
    let product = states(&runs, "MONOLITHIC (handshake x window product)");
    if product < 10 * parts {
        violations.push(format!("the product ({product} states) is not 10x its parts ({parts})"));
    }

    let verdict = |r: &CheckResult| if r.violation.is_none() { "proved" } else { "VIOLATION" };
    let row = |Run { model, r, .. }: &Run| {
        let counts = [r.states, r.transitions, r.max_depth].map(|n| n.to_string());
        [vec![model.clone()], counts.into(), vec![verdict(r).into()]].concat()
    };
    let headers = || vec!["model", "states", "transitions", "depth", "verdict"];
    let mut tables: Vec<Table> = SECTIONS
        .iter()
        .map(|&s| Table::new(s, headers(), runs.iter().filter(|r| r.section == s).map(row).collect()))
        .collect();
    let blowup = format!("{:.1}x", product as f64 / parts as f64);
    let cost = vec![vec![parts.to_string(), product.to_string(), blowup]];
    let cost_headers = vec!["sum of parts (states)", "monolithic product (states)", "blowup"];
    let cost_title = "Sublayered verification cost (CM + RD, sum of parts) vs the monolithic product";
    tables.insert(1, Table::new(cost_title, cost_headers, cost));
    tables.push(Table::new(
        BUGS,
        vec!["model", "steps", "counterexample"],
        runs.iter()
            .filter(|r| r.section == BUGS)
            .map(|r| {
                let actions = r.r.violation.as_ref().map_or(&[][..], |v| &v.actions[..]);
                vec![r.model.clone(), actions.len().to_string(), format!("{actions:?}")]
            })
            .collect(),
    ));

    let docs = runs.iter().map(|r| {
        let actions = r.r.violation.as_ref().map_or(&[][..], |v| &v.actions[..]);
        json::obj(&[
            ("model", json::str(&r.model)), ("states", r.r.states.to_string()),
            ("transitions", r.r.transitions.to_string()), ("depth", r.r.max_depth.to_string()),
            ("deadlocks", r.r.deadlocks.to_string()), ("counterexample", json::strs(actions)),
        ])
    });
    let totals = json::obj(&[("sum_of_parts_states", parts.to_string()), ("product_states", product.to_string())]);
    Report::checked(&[("models", docs.collect()), ("cost", vec![totals])], tables, violations)
}
