//! Pins the full experiment report (`full_report`, seed 2004) byte for
//! byte. Every number in it flows through classad bidding, cost
//! evaluation and the VM classads the plants return, so a change to how
//! `Value` or `ClassAd` store, compare or render strings shows up here.

use vmplants::experiments::render_report;

#[test]
fn full_report_matches_committed_fixture() {
    let rendered = render_report(2004);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/full_report_seed2004.txt"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
    }
    let expected = include_str!("fixtures/full_report_seed2004.txt");
    assert!(
        rendered == expected,
        "full_report drifted from the committed fixture; bless with UPDATE_FIXTURES=1 if intended"
    );
}
