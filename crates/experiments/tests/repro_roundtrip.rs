//! Integration: the shrunk-repro workflow end to end — fail, shrink,
//! serialize, load, replay, same verdict, readable report.

use graybox_experiments::incident_report;
use graybox_faults::{
    failed, replay_campaign, repro, run_campaign, shrink, FaultKind, FaultPlan, RunConfig,
};
use graybox_simnet::SimTime;
use graybox_tme::Implementation;

fn failing_config() -> RunConfig {
    let noise = FaultPlan::random_mix(7, (30, 55), 6, &[FaultKind::DropMessage]);
    let burst = FaultPlan::burst(FaultKind::CorruptProcess, SimTime::from(60), 6);
    RunConfig::new(3, Implementation::RicartAgrawala)
        .faults(noise.merge(burst))
        .seed(15)
}

#[test]
fn shrunk_repro_round_trips_to_the_same_verdict() {
    // Shrink a failing campaign and serialize the minimal config.
    let config = failing_config();
    let shrunk = shrink(&config, failed).expect("fixture fails");
    let minimal = config.clone().faults(shrunk.minimal.clone());
    let file = repro::to_text(&minimal);

    // Load it back as a fresh engineer would, and re-run.
    let loaded = repro::parse(&file).expect("repro parses");
    let rerun = run_campaign(&loaded);
    assert_eq!(
        rerun.outcome.verdict, shrunk.run.outcome.verdict,
        "loaded repro must reproduce the shrunk run's verdict"
    );
    assert!(failed(&rerun.outcome));

    // And the recorded oplog of the shrunk run replays under the loaded
    // config — serialize → load → replay → same verdict.
    let replayed = replay_campaign(&loaded, &shrunk.run.oplog).expect("replay verifies");
    assert_eq!(replayed.outcome.verdict, shrunk.run.outcome.verdict);

    // The incident report names the failure and embeds the repro.
    let report = incident_report(&loaded, &rerun);
    assert!(report.contains("FAILED TO STABILIZE"));
    assert!(report.contains(repro::HEADER));
}
