//! E6a — verification effort: per-sublayer models vs the monolithic
//! product (paper §4.2's Dafny experience, measured with the model
//! checker).

use bench::markdown_table;
use slverify::{
    check, AltBit, Combined, CongCtrl, Handshake, RstAttack, ShardFail, ShardedOverload,
    SlidingWindow,
};
use slverify::models::FlowControl;

fn rst_model(defended: bool, sublayered: bool) -> RstAttack {
    RstAttack { s_mod: 8, w: 3, n_msgs: 3, budget: 2, defended, sublayered }
}

fn main() {
    println!("# E6a — model-checking effort: sublayered vs monolithic (paper §4.2)\n");

    let altbit = check(&AltBit { n_msgs: 3 }, 5_000_000);
    let hs = check(&Handshake { three_way: true }, 5_000_000);
    let win = check(&SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 }, 5_000_000);
    let combined = check(
        &Combined {
            hs: Handshake { three_way: true },
            win: SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 },
        },
        20_000_000,
    );

    let flow = check(&FlowControl { buf_cap: 2, n_msgs: 6, respect_window: true }, 5_000_000);
    let rst_sub = check(&rst_model(true, true), 5_000_000);
    let rst_mono = check(&rst_model(true, false), 5_000_000);

    let row = |name: &str, r: &slverify::CheckResult| {
        vec![
            name.to_string(),
            r.states.to_string(),
            r.transitions.to_string(),
            r.max_depth.to_string(),
            if r.violation.is_none() { "proved".into() } else { "VIOLATION".to_string() },
        ]
    };
    println!(
        "{}",
        markdown_table(
            &["model", "states", "transitions", "depth", "verdict"],
            &[
                row("CM alone (3-way handshake vs stale SYNs)", &hs),
                row("RD alone (alternating bit, 3 msgs)", &altbit),
                row("RD alone (selective repeat W=2 S=4)", &win),
                row("OSR alone (flow control, buffer 2)", &flow),
                row("RFC 5961 challenge ACK (sublayered shape)", &rst_sub),
                row("RFC 5961 challenge ACK (monolithic shape)", &rst_mono),
                row("MONOLITHIC (handshake x window product)", &combined),
            ],
        )
    );
    let sum = hs.states + win.states;
    println!(
        "\nSublayered verification cost (sum of parts): **{} states**; monolithic \
         product: **{} states** — a {:.1}x blowup. This is the paper's §4.2 \
         lesson quantified: once a sublayer is proved, \"we can forget the \
         details of a sublayer\"; the monolithic proof cannot.\n",
        sum,
        combined.states,
        combined.states as f64 / sum as f64
    );

    println!("## The checker also finds real protocol bugs\n");
    let aliased = check(&SlidingWindow { w: 2, s_mod: 3, n_msgs: 5 }, 5_000_000);
    let v = aliased.violation.expect("S < 2W must alias");
    println!(
        "- Selective repeat with W=2, S=3 (sequence space < 2x window): \
         **counterexample in {} steps**: {:?}\n",
        v.actions.len(),
        v.actions
    );
    let twoway = check(&Handshake { three_way: false }, 5_000_000);
    let v = twoway.violation.expect("two-way handshake must fail");
    println!(
        "- Two-message handshake (no third ack): **stale-incarnation \
         counterexample in {} steps**: {:?} — why TCP's handshake has three \
         messages.\n",
        v.actions.len(),
        v.actions
    );
    let reckless = check(&FlowControl { buf_cap: 2, n_msgs: 6, respect_window: false }, 5_000_000);
    let v = reckless.violation.expect("reckless sender must overflow");
    println!(
        "- OSR ignoring the advertised window: **buffer-overflow \
         counterexample in {} steps**: {:?} — the flow-control contract OSR \
         owns.\n",
        v.actions.len(),
        v.actions
    );
    let pre5961 = check(&rst_model(false, false), 5_000_000);
    let v = pre5961.violation.expect("pre-5961 TCP must die to an in-window RST");
    println!(
        "- Pre-RFC-5961 RST handling (any in-window RST resets): **blind \
         reset counterexample in {} steps**: {:?} — while the challenge-ACK \
         discipline above is proved safe against every below-threshold \
         guess (E14's model-checked core).\n",
        v.actions.len(),
        v.actions
    );

    println!("## Sharded overload ladder (E20): per-shard + global budgets\n");
    let sharded = |sublayered, sbudget, gbudget, lag| ShardedOverload {
        sbudget,
        gbudget,
        resp: 2,
        lag,
        sublayered,
    };
    let sh_staged = check(&sharded(true, 4, 5, 1), 5_000_000);
    let sh_fused = check(&sharded(false, 4, 5, 1), 5_000_000);
    let sh_local = check(&sharded(true, 4, 64, 3), 5_000_000);
    println!(
        "{}",
        markdown_table(
            &["model", "states", "transitions", "depth", "verdict"],
            &[
                row("ShardedOverload (staged floor, lag 1)", &sh_staged),
                row("ShardedOverload (fused global check)", &sh_fused),
                row("ShardedOverload (inert global, per-shard only)", &sh_local),
            ],
        )
    );
    let sh_over = check(&sharded(true, 8, 5, 2), 5_000_000);
    let v = sh_over.violation.expect("stale floor at lag 2 must overrun globally");
    println!(
        "\nBoth ladder levels of the `slshard` degradation policy are proved: \
         every shard stays within its own budget *and* the fleet total stays \
         within the global budget, for every interleaving of arrivals, \
         admissions, progress, and floor pushes. Let two fleet-wide \
         admissions ride one stale Nominal floor and the checker exhibits the \
         **global** overrun (per-shard budgets still intact) in {} steps: \
         {:?}\n",
        v.actions.len(),
        v.actions
    );

    println!("## Shard fault domains (E21): crash isolation + supervised restart\n");
    let fail = |isolate, backoff| ShardFail {
        sbudget: 4,
        gbudget: 5,
        resp: 2,
        lag: 1,
        backoff,
        isolate,
    };
    let ff_b1 = check(&fail(true, 1), 5_000_000);
    let ff_b2 = check(&fail(true, 2), 5_000_000);
    println!(
        "{}",
        markdown_table(
            &["model", "states", "transitions", "depth", "verdict"],
            &[
                row("ShardFail (contained crash, backoff 1)", &ff_b1),
                row("ShardFail (contained crash, backoff 2)", &ff_b2),
            ],
        )
    );
    let ff_seed = check(&fail(false, 2), 5_000_000);
    let v = ff_seed.violation.expect("uncontained crash must abort foreign connections");
    println!(
        "\nWith the `catch_unwind` + typed-`ShardError` boundary a shard crash \
         under the degradation ladder is proved **contained** for every \
         interleaving: only the dead shard's connections abort, per-shard and \
         global budgets hold mid-failover (the dead shard's occupancy folds \
         to zero), downtime never exceeds the restart backoff, and zero \
         deadlocks means no crash schedule strands the fleet — the restarted \
         shard always serves again. Remove the boundary (the seed's poisoned \
         ring lock) and the checker exhibits the **foreign-shard abort** in \
         {} steps: {:?}\n",
        v.actions.len(),
        v.actions
    );

    println!("## Congestion-control contract (E19): real implementations, checked\n");
    let cc_rows: Vec<Vec<String>> = slcc::SHIPPED
        .iter()
        .map(|name| {
            let r = check(&CongCtrl::shipped(name), 2_000_000);
            row(&format!("CongCtrl[{name}] (assume/guarantee, 8 ticks)"), &r)
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["model", "states", "transitions", "depth", "verdict"], &cc_rows)
    );
    let buggy = check(&CongCtrl::buggy(), 2_000_000);
    let v = buggy.violation.expect("BuggyDeflate must starve");
    println!(
        "\nUnlike the protocol models above, `CongCtrl` drives the **shipped** \
         `slcc::RateController` implementations — the exact objects both \
         stacks run — through every admissible congestion-signal schedule. \
         The seeded `BuggyDeflate` controller (partial-ack deflation with no \
         floor) is starved to a zero window in a **{}-step counterexample**: \
         {:?}.\n",
        v.actions.len(),
        v.actions
    );

    println!("## Compositional sublayer contracts (E22): the assume/guarantee chain\n");
    let chain_runs = slverify::check_chain(2_000_000);
    let chain_rows: Vec<Vec<String>> = chain_runs
        .iter()
        .map(|run| {
            row(&format!("{} contract (real sublayer driven)", run.spec().sublayer), run.result())
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["model", "states", "transitions", "depth", "verdict"], &chain_rows)
    );
    let proof = slverify::compose(&chain_runs).expect("the shipped chain composes");
    println!(
        "\nEach contract checks the **real** `sublayer-core` implementation \
         (not a re-model) against its assume/guarantee interface, and \
         `compose` derives **{}** from the four results alone: {} states \
         additively, where the fused four-way product would face ~{} states \
         — the full E22 report (canaries, codec certificate, fused arms) is \
         `exp contracts` / BENCH_contracts.json.\n",
        proof.derived, proof.sum_states, proof.fused_estimate
    );
}
