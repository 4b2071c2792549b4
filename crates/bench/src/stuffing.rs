//! E4/E5 — the §4.1 bit-stuffing experiments: the overhead of the
//! paper's two rules (naive and exact), the rule-library search (the
//! paper's "66 alternate stuffing rules"), the receiver-model finding and
//! the verified property inventory (the paper's "57 lemmas" analogue).

use bitstuff::verify::{check_rule_with, property_inventory, ReceiverModel};
use bitstuff::{analyze, search, Flag, Ratio, SearchSpace, SearchStats, StuffRule, ValidRule};

use crate::{json, Report, Table};

const STRUCTURED: &str = "structured (trigger = substring of flag, len 5-7, 8-bit flags)";
const FULL: &str = "full (any trigger len 1-7, 8-bit flags)";

fn space(name: &str) -> SearchSpace {
    if name == STRUCTURED {
        SearchSpace { flag_len: 8, trigger_lens: 5..=7, triggers_from_flag_only: true }
    } else {
        SearchSpace { flag_len: 8, trigger_lens: 1..=7, triggers_from_flag_only: false }
    }
}

fn ratio(r: Ratio) -> String {
    json::obj(&[("num", r.num().to_string()), ("den", r.den().to_string())])
}

pub fn report(smoke: bool) -> Report {
    let mut violations = Vec::new();

    // The paper's two rules: its naive window figures, and the exact
    // renewal rates.
    let pairs = [
        ("after 11111 stuff 0 (HDLC)", "HDLC", StuffRule::hdlc(), Flag::hdlc(), (32, 62)),
        ("after 0000001 stuff 1", "paper's low-overhead", StuffRule::low_overhead(), Flag::low_overhead(), (128, 128)),
    ];
    let (mut overhead_rows, mut overhead_docs) = (Vec::new(), Vec::new());
    for (rule_name, _, rule, flag, (naive, exact)) in &pairs {
        let o = analyze(rule).expect("the paper's rules terminate");
        if (o.naive_rate, o.exact_rate) != (Ratio::new(1, *naive), Ratio::new(1, *exact)) {
            let (n, e) = (o.naive_rate, o.exact_rate);
            violations.push(format!("{rule_name}: naive {n} exact {e}, not 1/{naive} and 1/{exact}"));
        }
        let rates = [o.naive_rate, o.exact_rate].map(|r| r.to_string());
        overhead_rows.push([vec![rule_name.to_string(), flag.to_string()], rates.into()].concat());
        overhead_docs.push(json::obj(&[
            ("rule", json::str(rule_name)), ("flag", json::str(&flag.to_string())),
            ("naive_rate", ratio(o.naive_rate)), ("exact_rate", ratio(o.exact_rate)),
        ]));
    }

    // The library search over each space.
    let spaces: &[&str] = if smoke { &[STRUCTURED] } else { &[STRUCTURED, FULL] };
    let searched: Vec<(&str, Vec<ValidRule>, SearchStats, usize)> = spaces
        .iter()
        .map(|&name| {
            let (library, stats) = search(&space(name));
            let cheaper = search::cheaper_than_hdlc(&library);
            (name, library, stats, cheaper)
        })
        .collect();
    let (_, _, SearchStats { valid, .. }, cheaper) = &searched[0];
    if *valid < 66 || *cheaper == 0 {
        let found = format!("{valid} valid rules, {cheaper} cheaper than HDLC");
        violations.push(format!("structured space: {found}; the paper found 66, some cheaper"));
    }

    // Validity under each receiver model: HDLC's pairing holds under
    // both; the paper's low-overhead pairing only under restart-scan.
    let valid = |rule, flag, m| check_rule_with(rule, flag, m).is_valid();
    let models: Vec<(&str, bool, bool)> = pairs
        .iter()
        .map(|(_, name, r, f, _)| {
            (*name, valid(r, f, ReceiverModel::RestartScan), valid(r, f, ReceiverModel::Continuous))
        })
        .collect();
    if models != [("HDLC", true, true), ("paper's low-overhead", true, false)] {
        violations.push(format!("receiver-model validity moved: {models:?}"));
    }

    let props = property_inventory();
    let cheapest = |library: &[ValidRule]| -> Vec<Vec<String>> {
        let ten = library.iter().take(10);
        ten.map(|r| vec![r.flag.to_string(), r.rule.to_string(), r.overhead.exact_rate.to_string()]).collect()
    };
    let mut tables = vec![
        Table::new(
            "Overhead of the paper's two rules (random-bit model)",
            vec!["rule", "flag", "paper (naive) rate", "exact rate (ours)"],
            overhead_rows,
        ),
        Table::new(
            "Rule library search (paper: \"it found 66 alternate stuffing rules\")",
            vec![
                "space", "candidates", "valid", "divergent", "false flag in body",
                "false flag at frame end", "valid rules cheaper than HDLC",
            ],
            searched
                .iter()
                .map(|(name, _, s, cheaper)| {
                    let counts =
                        [s.candidates, s.valid, s.divergent, s.false_flag_in_body, s.false_flag_at_end, *cheaper];
                    [vec![name.to_string()], counts.map(|c| c.to_string()).into()].concat()
                })
                .collect(),
        ),
    ];
    for (name, library, _, _) in &searched {
        let title = format!("Ten cheapest valid rules, space: {name}");
        tables.push(Table::new(title, vec!["flag", "rule", "exact overhead"], cheapest(library)));
    }
    tables.push(Table::new(
        "Receiver-model sensitivity (new finding)",
        vec!["pairing", "valid (restart-scan receiver)", "valid (continuous detector)"],
        models.iter().map(|(name, rs, c)| vec![name.to_string(), rs.to_string(), c.to_string()]).collect(),
    ));
    tables.push(Table::new(
        format!("Verified property inventory ({} named properties; paper: 57 lemmas / 1800 LoC in Coq)", props.len()),
        vec!["property", "statement"],
        props.iter().map(|p| p.split_once(": ").unwrap_or((p, ""))).map(|(a, b)| vec![a.into(), b.into()]).collect(),
    ));

    let n = |v: usize| v.to_string();
    let search_docs = searched.iter().map(|(name, library, s, cheaper)| {
        let ten = cheapest(library).into_iter().zip(library).map(|(row, r)| json::obj(&[
            ("flag", json::str(&row[0])), ("rule", json::str(&row[1])), ("exact_rate", ratio(r.overhead.exact_rate)),
        ]));
        json::obj(&[
            ("space", json::str(name)), ("candidates", n(s.candidates)), ("valid", n(s.valid)),
            ("divergent", n(s.divergent)), ("false_flag_in_body", n(s.false_flag_in_body)),
            ("false_flag_at_end", n(s.false_flag_at_end)), ("cheaper_than_hdlc", n(*cheaper)),
            ("cheapest", json::list(ten)),
        ])
    });
    let model_docs = models.iter().map(|(name, rs, c)| json::obj(&[
        ("pairing", json::str(name)), ("valid_restart_scan", rs.to_string()), ("valid_continuous", c.to_string()),
    ]));
    let sections = [
        ("overhead", overhead_docs),
        ("search", search_docs.collect()),
        ("receiver_models", model_docs.collect()),
        ("properties", props.iter().map(|p| json::str(p)).collect()),
    ];
    Report::checked(&sections, tables, violations)
}
