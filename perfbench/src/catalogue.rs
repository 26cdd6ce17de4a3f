//! The metric catalogue: every metric the benchmark reports, with its
//! unit, in report order. `BENCHMARK.json` lists exactly these (a test
//! holds the two together), and a run that reports anything else, or
//! misses one, fails.

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ns_per_annotation", "ns"),
    ("campaigns_per_s", "1/s"),
    ("campaign_ms.p50", "ms"),
    ("campaign_ms.p99", "ms"),
    ("annotations_per_campaign", "count"),
    ("requests_per_s", "1/s"),
    ("request_ms.p50", "ms"),
    ("request_ms.p99", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stats.special.erfc_inv.ns_per_call", "ns"),
    ("stats.special.betainc.ns_per_call", "ns"),
    ("stats.special.betainc_inv.ns_per_call", "ns"),
    ("stats.special.ln_gamma.ns_per_call", "ns"),
    ("intervals.frequentist.z_critical.ns_per_call", "ns"),
    ("intervals.frequentist.wald.ns_per_call", "ns"),
    ("intervals.frequentist.wilson.ns_per_call", "ns"),
    ("intervals.hpd.exact.ns_per_call", "ns"),
    ("intervals.hpd.warm.ns_per_call", "ns"),
    ("intervals.hpd.cold.ns_per_call", "ns"),
    ("intervals.hpd.achievable.ns_per_call", "ns"),
    ("intervals.et.ns_per_call", "ns"),
    ("intervals.kernel.lookups_per_annotation", "ratio"),
    ("intervals.kernel.hit_rate", "ratio"),
    ("intervals.kernel.evictions", "count"),
    ("intervals.kernel.hit_ns", "ns"),
    ("intervals.kernel.miss_ns", "ns"),
    ("sampling.driver.srs.ns_per_unit", "ns"),
    ("sampling.driver.twcs.ns_per_unit", "ns"),
    ("core.cost.record.ns_per_call", "ns"),
    ("core.state.record.ns_per_call", "ns"),
    ("core.session.next_request.ns_per_call", "ns"),
    ("core.session.submit.ns_per_call", "ns"),
    ("core.session.srs_wald.ns_per_annotation", "ns"),
    ("core.session.srs_wilson.ns_per_annotation", "ns"),
    ("core.session.srs_ahpd.ns_per_annotation", "ns"),
    ("core.session.twcs3_wald.ns_per_annotation", "ns"),
    ("core.session.twcs3_wilson.ns_per_annotation", "ns"),
    ("core.session.twcs3_ahpd.ns_per_annotation", "ns"),
    ("core.session.solves_per_annotation", "ratio"),
    ("core.stratified.submit.ns_per_call", "ns"),
    ("core.comparative.submit.ns_per_call", "ns"),
    ("core.monitor.submit.ns_per_call", "ns"),
    ("core.monitor.apply_deltas.ns_per_call", "ns"),
    ("core.snapshot.encode.ns_per_call", "ns"),
    ("core.snapshot.resume.ns_per_call", "ns"),
    ("core.snapshot.bytes", "B"),
    ("service.manager.create.ns_per_call", "ns"),
    ("service.manager.next_request.ns_per_call", "ns"),
    ("service.manager.submit.ns_per_call", "ns"),
    ("service.manager.status.ns_per_call", "ns"),
    ("service.manager.suspend.ns_per_call", "ns"),
    ("service.manager.evict.ns_per_call", "ns"),
    ("service.manager.resume.ns_per_call", "ns"),
    ("service.store.save.ns_per_call", "ns"),
    ("service.store.load.ns_per_call", "ns"),
    ("service.store.bytes_written_per_session", "B"),
    ("service.store.fsyncs_per_session", "count"),
    ("service.json.encode.ns_per_call", "ns"),
    ("service.json.parse.ns_per_call", "ns"),
    ("service.json.response_bytes", "B"),
    ("service.http.parse.ns_per_call", "ns"),
    ("service.http.format.ns_per_call", "ns"),
    ("service.reactor.transport_ns", "ns"),
    ("service.reactor.slab_high_water", "count"),
    ("service.metrics.handler_share", "ratio"),
    ("service.metrics.requests", "count"),
    ("service.metrics.kernel_lookups", "count"),
    ("service.metrics.kernel_hits", "count"),
    ("service.metrics.kernel_misses", "count"),
    ("service.metrics.kernel_evictions", "count"),
    ("service.metrics.store_bytes_written", "B"),
    ("service.metrics.store_fsyncs", "count"),
    ("service.metrics.sessions_suspended", "count"),
    ("service.metrics.sessions_resumed", "count"),
    ("service.metrics.sessions_evicted", "count"),
    ("service.metrics.monitor_reopens", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("samples.campaigns", "count"),
    ("samples.requests", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_service::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        for w in &workloads {
            assert!(
                crate::gen::Workload::from_name(w).is_some(),
                "unknown workload {w}"
            );
        }
    }
}
