//! Every `.dcs` file shipped under `examples/scenarios/` parses,
//! compiles, and yields only points the config validator accepts — so
//! a scenario cannot go stale when a knob is renamed or retired.

use dclue_scenario::ast::SweepSpec;
use dclue_scenario::discover::discover_dir;
use dclue_scenario::{compile, parse};
use std::path::PathBuf;

#[test]
fn every_shipped_scenario_parses_compiles_and_validates() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let found = discover_dir(&dir);
    assert!(!found.is_empty(), "no scenarios found in {}", dir.display());
    for d in found {
        let path = d.path.display();
        assert_eq!(d.error, None, "{path}");
        let src = std::fs::read_to_string(&d.path).unwrap();
        let plan = compile(&parse(&src).unwrap()).unwrap_or_else(|e| panic!("{path}: {e}"));
        if plan.scenario.sweep == SweepSpec::Grid {
            assert!(!plan.points.is_empty(), "{path}: empty grid");
        }
        for p in &plan.points {
            p.cfg
                .validate()
                .unwrap_or_else(|e| panic!("{path}: point {}: {e}", p.label()));
        }
    }
}
