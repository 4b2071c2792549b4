//! Every campaign's smoke sweep, through the library API the `exp`
//! runner and CI use: zero invariant violations, and a second run
//! reproduces the JSON byte for byte.

#[test]
fn every_campaign_smoke_sweep_is_clean_and_deterministic() {
    for c in &bench::CAMPAIGNS {
        let a = (c.run)(true);
        assert!(a.violations.is_empty(), "{}: {:?}", c.name, a.violations);
        assert!(!a.tables.is_empty(), "{}: no table", c.name);
        for t in &a.tables {
            assert!(!t.rows.is_empty(), "{}: empty table {:?}", c.name, t.title);
            assert!(t.rows.iter().all(|r| r.len() == t.headers.len()), "{}: ragged table {:?}", c.name, t.title);
        }
        let b = (c.run)(true);
        assert_eq!(a.json, b.json, "{}: smoke JSON must repeat byte for byte", c.name);
    }
}
