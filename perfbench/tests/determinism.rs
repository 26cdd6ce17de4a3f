//! The workload generator is a pure function of the seed: the same seed
//! yields the same campaign specs, delta batches, labels and
//! annotation counts; another seed yields other ones.

use kgae_perfbench::campaign::{drive, Local, OpTimes};
use kgae_perfbench::gen::{self, Workload};
use kgae_perfbench::grid;
use kgae_perfbench::layers::Recorded;
use kgae_perfbench::service::{registry, Scratch};
use kgae_perfbench::Histogram;
use kgae_service::{Metrics, SessionManager, SnapshotStore};
use std::sync::Arc;

#[test]
fn same_seed_same_service_plans_and_deltas() {
    for workload in [Workload::ServiceSteady, Workload::ServiceChurn] {
        for index in 0..64 {
            let a = gen::service_plan(workload, 42, index);
            let b = gen::service_plan(workload, 42, index);
            assert_eq!(a, b, "{} campaign {index}", workload.name());
            assert_ne!(
                a.spec.seed,
                gen::service_plan(workload, 43, index).spec.seed,
                "seed must matter"
            );
        }
    }
    assert_eq!(gen::monitor_delta(7), gen::monitor_delta(7));
    assert_ne!(gen::monitor_delta(7), gen::monitor_delta(8));
}

fn grid_pass(seed: u64, campaigns: u64) -> (Vec<grid::GridCampaign>, Recorded) {
    let g = grid::setup();
    let mut latency = Histogram::new();
    let mut times = grid::CallTimes::default();
    let mut recorded = Recorded::default();
    let runs = (0..campaigns)
        .map(|index| {
            let s = gen::campaign_seed(seed, index);
            let mut c = grid::run_campaign(
                &g,
                s,
                index,
                &mut latency,
                Some((&mut times, &mut recorded)),
            )
            .expect("campaign passes its gate");
            c.call_ns = 0; // a time, not an input
            c
        })
        .collect();
    (runs, recorded)
}

#[test]
fn grid_campaigns_repeat_exactly_for_a_seed() {
    let (a, rec_a) = grid_pass(9, 36);
    let (b, rec_b) = grid_pass(9, 36);
    assert_eq!(a, b, "annotations per campaign must repeat");
    assert_eq!(rec_a, rec_b, "labels, draws and (τ, n) states must repeat");
    let (c, _) = grid_pass(10, 36);
    assert_ne!(
        a.iter().map(|x| x.annotations).collect::<Vec<_>>(),
        c.iter().map(|x| x.annotations).collect::<Vec<_>>()
    );
}

fn churn_pass(seed: u64, tag: &str) -> Vec<(u64, u64, kgae_perfbench::campaign::Final)> {
    let scratch = Scratch::new(tag).expect("scratch dir");
    let registry = registry();
    let store = SnapshotStore::open(scratch.join("store")).expect("store");
    let mut manager = SessionManager::new(&registry, store, 4);
    manager.set_metrics(Arc::new(Metrics::new()));
    let mut times = OpTimes::default();
    (0..8)
        .map(|index| {
            let plan = gen::service_plan(Workload::ServiceChurn, seed, index);
            let kg = registry.get(&plan.spec.dataset).expect("hosted");
            let mut local = Local::new(&manager, true);
            let r = drive(&mut local, &plan, index, kg, &mut times).expect("campaign passes");
            (r.index, r.annotations, r.last)
        })
        .collect()
}

#[test]
fn service_campaigns_repeat_exactly_for_a_seed() {
    let a = churn_pass(5, "det-a");
    let b = churn_pass(5, "det-b");
    assert_eq!(a, b, "finals and annotation counts must repeat bit for bit");
}
