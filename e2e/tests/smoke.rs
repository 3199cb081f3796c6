//! Every workload in quick mode (sub-second phases, tiny pools): the
//! service workloads against an in-process server on port 0, the sim
//! sweep in-process. All must pass their oracle checks, and a corrupted
//! oracle must be caught.

use std::sync::Arc;

use disparity_e2e::client::seat;
use disparity_e2e::inputs::{service_inputs, ServiceInputs};
use disparity_e2e::run::{drive, Driven};
use disparity_e2e::simsweep::{run_op, sim_systems};
use disparity_e2e::trace::Recorder;
use disparity_e2e::workload::{Scale, Workload};
use disparity_service::server::{serve_with, ServeOptions};
use disparity_service::service::{Service, ServiceConfig};

const QUICK: Scale = Scale {
    seconds: 1.0,
    quick: true,
};

fn drive_in_process(workload: Workload, inputs: &ServiceInputs) -> Driven {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let server = serve_with("127.0.0.1:0", Arc::clone(&service), ServeOptions::default())
        .expect("bind an ephemeral port");
    seat(server.addr(), inputs).expect("seating answers match the oracle");
    let driven = drive(
        server.addr(),
        std::process::id(),
        inputs,
        workload,
        5,
        QUICK,
    )
    .expect("phases run");
    server.shutdown();
    driven
}

#[test]
fn service_workloads_answer_every_request_with_the_oracle_bytes() {
    for workload in [
        Workload::ColdFusion,
        Workload::DesignSession,
        Workload::OptimizePlans,
    ] {
        let inputs = service_inputs(workload, 5, QUICK).expect("inputs generate");
        let tally = drive_in_process(workload, &inputs).tally();
        assert!(tally.attempted > 0, "{}: nothing sent", workload.name());
        assert_eq!(
            tally.failed,
            0,
            "{}: error_rate must be 0; first failure: {:?}",
            workload.name(),
            tally.first_failure
        );
    }
}

#[test]
fn a_corrupted_oracle_is_caught() {
    let mut inputs = service_inputs(Workload::ColdFusion, 5, QUICK).expect("inputs generate");
    for result in &mut inputs.results {
        *result = result.replacen("\"bound_ns\":", "\"bound_ns\":9", 1);
    }
    let tally = drive_in_process(Workload::ColdFusion, &inputs).tally();
    assert!(tally.attempted > 0);
    assert_eq!(
        tally.failed, tally.attempted,
        "every answer differs from the corrupted oracle"
    );
}

#[test]
fn sim_sweep_finds_no_sentinel_violation() {
    let systems = sim_systems(5, QUICK.sim_systems()).expect("systems generate");
    for (k, system) in systems.iter().enumerate() {
        let op = run_op(system, k as u64, &mut Recorder::disabled()).expect("op runs");
        assert!(op.checks > 0 && op.samples > 0, "system {k}: vacuous run");
        assert_eq!(op.violations, 0, "system {k}: sentinel violations");
    }
}
