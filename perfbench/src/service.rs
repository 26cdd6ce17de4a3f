//! `service_steady` and `service_churn`: an in-process `Server`
//! (reactor, 2 workers, metrics on, no janitor, the manager's shared
//! kernel cache) over a `SessionManager` and a `SnapshotStore` in a
//! scratch directory, driven by two keep-alive `kgae-client` clients in
//! a closed loop with zero think time. Server and clients share one
//! process, which the benchmark pins to one CPU.
//!
//! After the measured window, every campaign is replayed in process
//! against a twin manager with the same op sequence; each final status
//! must equal the HTTP one bit for bit. `/metrics` is scraped before and
//! after the window and its counters must reconcile with the clients'.

use crate::campaign::{drive, CampaignResult, Http, Local, Op, OpTimes, Transport, WireTimes};
use crate::gen::{self, CampaignPlan, Workload};
use crate::{median, peak_rss_mb, quantile_sorted, window_rates, Done, Outcome};
use kgae_client::Client;
use kgae_core::{EngineSpec, PreparedDesign, SamplingDesign};
use kgae_graph::{DeltaKg, GroundTruth, TripleId};
use kgae_intervals::{KernelCache, KernelCacheStats};
use kgae_sampling::driver::DesignSpec;
use kgae_service::manager::DatasetRegistry;
use kgae_service::{Metrics, Server, SessionManager, SnapshotStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaigns every service run completes however fast the machine is;
/// `annotations_per_campaign` averages exactly these.
#[must_use]
pub fn min_campaigns(workload: Workload) -> u64 {
    match workload {
        Workload::ServiceChurn => 400,
        _ => 1_600,
    }
}
/// Warm-up campaigns (own ids and seed stream) before timing.
const WARMUP_CAMPAIGNS: u64 = 40;
/// Reactor workers.
const WORKERS: usize = 2;
/// Client threads, each with one keep-alive connection.
const CLIENTS: u64 = 2;
/// Lock shards of the manager (the `kgae-serve` default).
const SHARDS: usize = 16;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 15;

/// The datasets the service workloads use: the NELL twin and its
/// per-predicate stratified twin.
#[must_use]
pub fn registry() -> DatasetRegistry {
    let mut registry = DatasetRegistry::new();
    registry.insert("nell", kgae_graph::datasets::nell());
    let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
    registry.insert_stratified("nell-pred", kg, strat);
    registry
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `.perfbench-tmp/<pid>-<tag>` under the current directory.
    ///
    /// # Errors
    ///
    /// I/O failures, as text.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join(".perfbench-tmp")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A path inside the scratch directory.
    #[must_use]
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn manager<'r>(
    registry: &'r DatasetRegistry,
    dir: &Path,
    metrics: &Arc<Metrics>,
) -> Result<SessionManager<'r>, String> {
    let store = SnapshotStore::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let mut manager = SessionManager::new(registry, store, SHARDS);
    manager.set_metrics(Arc::clone(metrics));
    Ok(manager)
}

fn bind(metrics: &Arc<Metrics>) -> Result<Server, String> {
    Ok(Server::bind("127.0.0.1:0", WORKERS)
        .map_err(|e| format!("bind: {e}"))?
        .with_metrics(Arc::clone(metrics)))
}

/// Parses a Prometheus text exposition into `series → value`.
#[must_use]
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn family_sum(series: &BTreeMap<String, f64>, family: &str) -> f64 {
    series
        .iter()
        .filter(|(k, _)| {
            k.as_str() == family
                || k.strip_prefix(family)
                    .is_some_and(|rest| rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The counters the traced run reports: `(metric suffix, family, unit)`.
const COUNTERS: [(&str, &str, &str); 11] = [
    ("requests", "kgae_requests_total", "count"),
    ("kernel_lookups", "kgae_kernel_cache_lookups_total", "count"),
    ("kernel_hits", "kgae_kernel_cache_hits_total", "count"),
    ("kernel_misses", "kgae_kernel_cache_misses_total", "count"),
    (
        "kernel_evictions",
        "kgae_kernel_cache_evictions_total",
        "count",
    ),
    ("store_bytes_written", "kgae_store_bytes_written_total", "B"),
    ("store_fsyncs", "kgae_store_fsyncs_total", "count"),
    (
        "sessions_suspended",
        "kgae_sessions_suspended_total",
        "count",
    ),
    ("sessions_resumed", "kgae_sessions_resumed_total", "count"),
    ("sessions_evicted", "kgae_sessions_evicted_total", "count"),
    (
        "monitor_reopens",
        "kgae_monitor_campaigns_reopened_total",
        "count",
    ),
];

/// What the measured window produced.
struct Window {
    results: Vec<CampaignResult>,
    done: Vec<Done>,
    campaign_ms: Vec<f64>,
    times: OpTimes,
    wall_s: f64,
    requests_sent: u64,
}

/// Opens one client's transport (an HTTP connection).
type Connect<'m> = dyn Fn() -> Result<Box<dyn Transport + Send + 'm>, String> + Sync + 'm;

/// Runs the closed loop: client threads claim campaign indices from
/// one counter until `seconds` have passed and `min` campaigns were
/// claimed; every claimed campaign runs to its end.
fn window(
    workload: Workload,
    seed: u64,
    connect: &Connect<'_>,
    registry: &DatasetRegistry,
    seconds: f64,
    min: u64,
    out: &mut Outcome,
) -> Window {
    let next = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    type ClientRun = (
        Vec<CampaignResult>,
        Vec<Done>,
        Vec<f64>,
        OpTimes,
        u64,
        Vec<String>,
    );
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut results = Vec::new();
                    let mut done = Vec::new();
                    let mut campaign_ms = Vec::new();
                    let mut times = OpTimes::default();
                    let mut errors = Vec::new();
                    let mut sent = 0;
                    let mut transport = match connect() {
                        Ok(t) => t,
                        Err(e) => return (results, done, campaign_ms, times, 0, vec![e]),
                    };
                    loop {
                        if start.elapsed() >= budget && next.load(Ordering::SeqCst) >= min {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let plan = gen::service_plan(workload, seed, index);
                        let kg = registry.get(&plan.spec.dataset).expect("dataset hosted");
                        let t0 = Instant::now();
                        match drive(&mut *transport, &plan, index, kg, &mut times) {
                            Ok(r) => {
                                campaign_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                done.push(Done {
                                    annotations: r.annotations,
                                    requests: r.requests,
                                });
                                results.push(r);
                            }
                            Err(e) => {
                                errors.push(e);
                                // The failure may have broken the
                                // connection; the next campaign gets a
                                // fresh one (its requests still count).
                                if let Ok(fresh) = connect() {
                                    sent += transport.requests_sent();
                                    transport = fresh;
                                }
                            }
                        }
                    }
                    sent += transport.requests_sent();
                    (results, done, campaign_ms, times, sent, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut w = Window {
        results: Vec::new(),
        done: Vec::new(),
        campaign_ms: Vec::new(),
        times: OpTimes::default(),
        wall_s,
        requests_sent: 0,
    };
    for (results, done, campaign_ms, times, sent, errors) in runs {
        w.results.extend(results);
        w.done.extend(done);
        w.campaign_ms.extend(campaign_ms);
        w.times.merge(&times);
        w.requests_sent += sent;
        for e in errors {
            out.fail(e);
        }
    }
    out.attempted += next.load(Ordering::SeqCst);
    w.results.sort_by_key(|r| r.index);
    w
}

/// The measured part of a service run: warm-up, `/metrics` before, the
/// untraced window, the traced window when tracing, `/metrics` after.
struct Measure<'r> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    registry: &'r DatasetRegistry,
}

type Scraped = BTreeMap<String, f64>;

impl Measure<'_> {
    fn run(
        &self,
        connect: &Connect<'_>,
        scrape: &mut dyn FnMut() -> Result<Scraped, String>,
        out: &mut Outcome,
    ) -> Result<(Window, Option<Window>, Scraped, Scraped, f64), String> {
        // Warm-up: own ids, own seed stream.
        let mut warm = connect()?;
        let mut scratch_times = OpTimes::default();
        for index in 0..WARMUP_CAMPAIGNS {
            let mut plan = gen::service_plan(self.workload, self.seed ^ 0x5EED_0FF5, index);
            plan.spec.id = format!("warm{index:05}");
            let kg = self
                .registry
                .get(&plan.spec.dataset)
                .expect("dataset hosted");
            drive(&mut *warm, &plan, index, kg, &mut scratch_times)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        drop(warm);

        let before = scrape()?;
        let min = min_campaigns(self.workload) / if self.trace { 2 } else { 1 };
        let half = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let window = |out: &mut Outcome| {
            window(
                self.workload,
                self.seed,
                connect,
                self.registry,
                half,
                min,
                out,
            )
        };
        let base = window(out);
        let rss = peak_rss_mb();
        let traced = self.trace.then(|| window(out));
        let after = scrape()?;
        Ok((base, traced, before, after, rss))
    }
}

/// The in-process twin replay of campaigns `0..n` of a workload.
struct Replay {
    manager_times: OpTimes,
    wire: WireTimes,
    snapshots: u64,
    counters: BTreeMap<String, f64>,
    campaigns: u64,
    finals: Vec<CampaignResult>,
}

fn replay(
    registry: &DatasetRegistry,
    dir: &Path,
    plans: impl Iterator<Item = (u64, CampaignPlan)>,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let metrics = Arc::new(Metrics::new());
    let manager = manager(registry, dir, &metrics)?;
    let mut manager_times = OpTimes::default();
    let mut wire = WireTimes::default();
    let mut snapshots = 0;
    let mut finals = Vec::new();
    let mut scratch = OpTimes::default();
    for (index, plan) in plans {
        // Every fifth campaign also proves evict → resume leaves the
        // snapshot bytes unchanged (the index cycles the churn kinds).
        let mut local = Local::new(&manager, index % 5 == 0);
        let kg = registry.get(&plan.spec.dataset).expect("dataset hosted");
        out.attempted += 1;
        match drive(&mut local, &plan, index, kg, &mut scratch) {
            Ok(r) => finals.push(r),
            Err(e) => out.fail(format!("replay: {e}")),
        }
        manager_times.merge(&local.manager_times);
        wire.merge(&local.wire);
        snapshots += local.snapshot_checks;
    }
    let counters = crate::service::parse_exposition(
        &metrics.encode(&manager.census(), Some(&manager.kernel_stats())),
    );
    Ok(Replay {
        manager_times,
        wire,
        snapshots,
        counters,
        campaigns: finals.len() as u64,
        finals,
    })
}

/// Runs a service workload.
///
/// # Errors
///
/// Set-up failures (bind, store), as text.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = Scratch::new(workload.name())?;

    // Set-up, several times: twin generation, store open (recovery
    // sweep), manager and server bind. The last one serves.
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS - 1 {
        let t0 = Instant::now();
        let registry = registry();
        let metrics = Arc::new(Metrics::new());
        let manager = manager(&registry, &scratch.join(&format!("setup-{rep}")), &metrics)?;
        let server = bind(&metrics)?;
        setup.push(t0.elapsed().as_secs_f64());
        drop((server, manager));
    }
    let t0 = Instant::now();
    let registry = registry();
    let metrics = Arc::new(Metrics::new());
    let manager = manager(&registry, &scratch.join("store"), &metrics)?;
    let server = bind(&metrics)?;
    setup.push(t0.elapsed().as_secs_f64());
    let setup_s = median(&setup);

    let plan = Measure {
        workload,
        seed,
        seconds,
        trace,
        registry: &registry,
    };
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let measured = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run(&manager));
        let connect = move || -> Result<Box<dyn Transport + Send>, String> {
            let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            Ok(Box::new(Http(client)))
        };
        let measured = Client::connect(addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut probe| {
                let mut scrape = || probe.metrics().map_err(|e| format!("scrape: {e}"));
                plan.run(&connect, &mut scrape, &mut out)
            });
        handle.shutdown();
        let drained = server_thread.join().expect("server thread");
        if !drained.is_clean() {
            out.fail(format!("server drain was not clean: {drained:?}"));
        }
        measured
    });
    let (base, traced, before, after, rss) = measured?;
    drop(manager);

    // /metrics reconciliation: every request the clients sent (plus the
    // first scrape, recorded after its own response) is counted, and the
    // kernel cache's identity holds.
    let delta = |family: &str| family_sum(&after, family) - family_sum(&before, family);
    // Warm-up requests precede the first scrape and are not counted.
    let sent = base.requests_sent + traced.as_ref().map_or(0, |t| t.requests_sent);
    let counted = delta("kgae_requests_total");
    out.attempted += 2;
    if counted != (sent + 1) as f64 {
        out.fail(format!(
            "kgae_requests_total moved by {counted} but the clients sent {sent} (+1 scrape)"
        ));
    }
    let (hits, misses, lookups) = (
        delta("kgae_kernel_cache_hits_total"),
        delta("kgae_kernel_cache_misses_total"),
        delta("kgae_kernel_cache_lookups_total"),
    );
    if hits + misses != lookups {
        out.fail(format!(
            "kernel hits {hits} + misses {misses} != lookups {lookups}"
        ));
    }

    // The twin replay of every campaign the HTTP clients ran.
    let mut replays = Vec::new();
    for (k, w) in std::iter::once(&base).chain(traced.as_ref()).enumerate() {
        let plans = w
            .results
            .iter()
            .map(|r| (r.index, gen::service_plan(workload, seed, r.index)));
        let rep = replay(
            &registry,
            &scratch.join(&format!("twin-{k}")),
            plans,
            &mut out,
        )?;
        for (http, twin) in w.results.iter().zip(&rep.finals) {
            out.attempted += 1;
            if http.index != twin.index
                || http.last != twin.last
                || http.annotations != twin.annotations
            {
                out.fail(format!(
                    "campaign {}: HTTP final {:?} differs from its in-process twin {:?}",
                    http.index, http.last, twin.last
                ));
            }
        }
        replays.push(rep);
    }

    let annotations: u64 = base.results.iter().map(|r| r.annotations).sum();
    let rates = window_rates(&base.done, base.wall_s);
    let ns_per_annotation = rates.ns_per_annotation;
    if !trace {
        let mut campaign_ms = base.campaign_ms.clone();
        campaign_ms.sort_by(f64::total_cmp);
        let first = &base.results[..base.results.len().min(min_campaigns(workload) as usize)];
        let requests = base.times.all.count();
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", rss, "MiB");
        out.push("ns_per_annotation", ns_per_annotation, "ns");
        out.push("campaigns_per_s", rates.campaigns_per_s, "1/s");
        out.push("campaign_ms.p50", quantile_sorted(&campaign_ms, 0.5), "ms");
        out.push("campaign_ms.p99", quantile_sorted(&campaign_ms, 0.99), "ms");
        out.push(
            "annotations_per_campaign",
            first.iter().map(|r| r.annotations).sum::<u64>() as f64 / first.len().max(1) as f64,
            "count",
        );
        out.push("requests_per_s", rates.requests_per_s, "1/s");
        out.push(
            "request_ms.p50",
            base.times.all.quantile_ns(0.5) / 1e6,
            "ms",
        );
        out.push(
            "request_ms.p99",
            base.times.all.quantile_ns(0.99) / 1e6,
            "ms",
        );
        eprintln!(
            "{}: {} campaigns, {} requests (percentile samples), {} snapshot checks",
            workload.name(),
            base.results.len(),
            requests,
            replays.iter().map(|r| r.snapshots).sum::<u64>()
        );
        return Ok(out);
    }

    // ---- traced run: per-layer figures ----
    let traced = traced.expect("traced window ran");
    let rep = &replays[1];
    let traced_annotations: u64 = traced.results.iter().map(|r| r.annotations).sum();
    let traced_ns = window_rates(&traced.done, traced.wall_s).ns_per_annotation;
    let campaigns = (base.results.len() + traced.results.len()) as f64;
    let all_annotations = (annotations + traced_annotations) as f64;

    // Counters from /metrics over both windows.
    for (suffix, family, unit) in COUNTERS {
        out.push(format!("service.metrics.{suffix}"), delta(family), unit);
    }
    out.push(
        "intervals.kernel.lookups_per_annotation",
        lookups / all_annotations.max(1.0),
        "ratio",
    );
    out.push(
        "intervals.kernel.hit_rate",
        hits / lookups.max(1.0),
        "ratio",
    );
    out.push(
        "intervals.kernel.evictions",
        delta("kgae_kernel_cache_evictions_total"),
        "count",
    );
    out.push(
        "service.store.bytes_written_per_session",
        delta("kgae_store_bytes_written_total") / campaigns,
        "B",
    );
    out.push(
        "service.store.fsyncs_per_session",
        delta("kgae_store_fsyncs_total") / campaigns,
        "count",
    );
    out.push(
        "service.reactor.slab_high_water",
        after
            .get("kgae_reactor_slab_high_water")
            .copied()
            .unwrap_or(0.0),
        "count",
    );
    let handler_ns = delta("kgae_request_duration_seconds_sum") * 1e9;
    let client_ns = base.times.all.sum_ns() + traced.times.all.sum_ns();
    out.push(
        "service.metrics.handler_share",
        handler_ns / client_ns,
        "ratio",
    );

    let canonical = canonical_replay(&registry, seed, &scratch, &mut out)?;
    push_replay_layers(rep, &canonical, &mut out);
    let wire_ns = rep.wire.ns_per_exchange();
    let manager_ns = rep.manager_times.all.sum_ns() / rep.manager_times.all.count().max(1) as f64;
    let client_mean = traced.times.all.sum_ns() / traced.times.all.count().max(1) as f64;
    let transport_ns = client_mean - manager_ns - wire_ns;
    out.push("service.reactor.transport_ns", transport_ns, "ns");
    engine_layers(&registry, seed, &scratch, &mut out)?;

    out.push(
        "trace.overhead_share",
        traced_ns / ns_per_annotation - 1.0,
        "ratio",
    );
    out.push(
        "trace.unattributed_share",
        1.0 - traced.times.all.sum_ns() / (traced.wall_s * 1e9 * CLIENTS as f64),
        "ratio",
    );
    out.push("samples.campaigns", traced.results.len() as f64, "count");
    out.push("samples.requests", traced.times.all.count() as f64, "count");
    crate::grid::trace_layers_canonical(seed, 120, &mut out);
    Ok(out)
}

/// A small churn replay (two campaigns of each engine kind, snapshot
/// checks on) that every traced run makes, so the suspend/evict/resume,
/// delta and store layers have figures on workloads that never call
/// them.
fn canonical_replay(
    registry: &DatasetRegistry,
    seed: u64,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let plans = (0..8).map(|i| {
        let mut plan = gen::service_plan(Workload::ServiceChurn, seed, i);
        plan.spec.id = format!("canon{i:03}");
        (i * 5, plan) // index ≡ 0 (mod 5): every campaign checks snapshots
    });
    replay(registry, &scratch.join("canonical"), plans, out)
}

/// Manager, store, json and http figures from a workload replay, with
/// ops the workload never issues taken from the canonical replay.
fn push_replay_layers(rep: &Replay, canonical: &Replay, out: &mut Outcome) {
    for op in [
        Op::Create,
        Op::Next,
        Op::Submit,
        Op::Status,
        Op::Suspend,
        Op::Evict,
        Op::Resume,
    ] {
        let source = if rep.manager_times.per_op[op as usize].calls > 0 {
            rep
        } else {
            canonical
        };
        out.push(
            format!("service.manager.{}.ns_per_call", op.name()),
            source.manager_times.per_op[op as usize].mean_ns(),
            "ns",
        );
    }
    let w = &rep.wire;
    out.push("service.json.encode.ns_per_call", w.encode.mean_ns(), "ns");
    out.push("service.json.parse.ns_per_call", w.parse.mean_ns(), "ns");
    out.push(
        "service.json.response_bytes",
        w.encoded_bytes as f64 / w.encode.calls.max(1) as f64,
        "B",
    );
    out.push(
        "service.http.parse.ns_per_call",
        w.http_parse.mean_ns(),
        "ns",
    );
    out.push(
        "service.http.format.ns_per_call",
        w.http_format.mean_ns(),
        "ns",
    );
}

/// Engine-level replay without the manager: two campaigns of each
/// churn engine kind built straight from their `EngineSpec`, timing
/// per-kind submits, monitor delta application, and snapshot
/// encode/resume at every fourth submit (as the churn clients suspend);
/// then direct store save/load of those snapshots.
fn engine_layers(
    registry: &DatasetRegistry,
    seed: u64,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), String> {
    let cache = Arc::new(KernelCache::new());
    let mut submit: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut deltas, mut encode, mut resume) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let ns = |t0: Instant| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for index in 0..8 {
        let plan = gen::service_plan(Workload::ServiceChurn, seed, index);
        let spec = &plan.spec;
        let kg = registry.get(&spec.dataset).expect("dataset hosted");
        let config = spec.eval_config();
        let strat_config = spec.stratified_config().unwrap_or_default();
        let srs = PreparedDesign::new(kg, SamplingDesign::Srs);
        let twcs = PreparedDesign::new(kg, SamplingDesign::Twcs { m: 3 });
        let engine_spec = match spec.design {
            DesignSpec::Twcs { .. } => EngineSpec::Plain {
                kg,
                prepared: &twcs,
                method: &spec.method,
                config: &config,
                seed: spec.seed,
            },
            DesignSpec::Stratified { .. } => EngineSpec::Stratified {
                kg,
                stratification: registry
                    .stratification(&spec.dataset)
                    .expect("stratified dataset"),
                method: &spec.method,
                config: &strat_config,
                seed: spec.seed,
            },
            DesignSpec::Compare { primary } => EngineSpec::Comparative {
                kg,
                prepared: &srs,
                primary,
                config: &config,
                seed: spec.seed,
            },
            DesignSpec::Monitor { carry } => EngineSpec::Monitor {
                kg,
                method: &spec.method,
                config: &config,
                carry_weight: carry as f64,
                seed: spec.seed,
            },
            _ => EngineSpec::Plain {
                kg,
                prepared: &srs,
                method: &spec.method,
                config: &config,
                seed: spec.seed,
            },
        };
        let mut truth = DeltaKg::with_truth(kg, kg);
        let mut engine = engine_spec.build();
        engine.set_kernel_cache(Arc::clone(&cache));
        let mut delta = plan.delta.clone();
        let mut submits = 0u64;
        out.attempted += 1;
        let driven = (|| -> Result<(), String> {
            loop {
                let Some(request) = engine.next_request(plan.batch).map_err(|e| e.to_string())?
                else {
                    let Some(d) = delta.take() else { return Ok(()) };
                    let t0 = Instant::now();
                    engine.apply_deltas(&d).map_err(|e| e.to_string())?;
                    deltas.0 += 1;
                    deltas.1 += ns(t0);
                    truth
                        .apply(&d.removes, &d.adds)
                        .map_err(|e| e.to_string())?;
                    continue;
                };
                let labels: Vec<bool> = request
                    .request
                    .triples
                    .iter()
                    .map(|t| truth.is_correct(TripleId(t.triple.0)))
                    .collect();
                let t0 = Instant::now();
                engine.submit(&labels).map_err(|e| e.to_string())?;
                let slot = submit.entry(plan.kind).or_default();
                slot.0 += 1;
                slot.1 += ns(t0);
                submits += 1;
                if submits.is_multiple_of(gen::CHURN_SUSPEND_EVERY)
                    && engine.stop_reason().is_none()
                {
                    let t0 = Instant::now();
                    let bytes = engine.snapshot().map_err(|e| e.to_string())?;
                    encode.0 += 1;
                    encode.1 += ns(t0);
                    let t0 = Instant::now();
                    engine = engine_spec.resume(&bytes).map_err(|e| e.to_string())?;
                    resume.0 += 1;
                    resume.1 += ns(t0);
                    engine.set_kernel_cache(Arc::clone(&cache));
                    snapshots.push(bytes);
                }
            }
        })();
        if let Err(e) = driven {
            out.fail(format!("engine replay {}: {e}", spec.id));
        }
    }
    let per = |(calls, total): (u64, u64)| total as f64 / calls.max(1) as f64;
    for (kind, name) in [
        ("stratified", "stratified"),
        ("compare", "comparative"),
        ("monitor", "monitor"),
    ] {
        out.push(
            format!("core.{name}.submit.ns_per_call"),
            per(submit.get(kind).copied().unwrap_or_default()),
            "ns",
        );
    }
    out.push("core.monitor.apply_deltas.ns_per_call", per(deltas), "ns");
    out.push("core.snapshot.encode.ns_per_call", per(encode), "ns");
    out.push("core.snapshot.resume.ns_per_call", per(resume), "ns");
    let bytes: usize = snapshots.iter().map(Vec::len).sum();
    out.push(
        "core.snapshot.bytes",
        bytes as f64 / snapshots.len().max(1) as f64,
        "B",
    );

    // The store at those snapshots: save is temp file → fsync → rename.
    let dir = scratch.join("store-replay");
    let store = SnapshotStore::open(&dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let meta = r#"{"bench":"store replay"}"#;
    let (mut save, mut load) = ((0u64, 0u64), (0u64, 0u64));
    for (k, bytes) in snapshots.iter().enumerate().take(48) {
        let id = format!("s{k:04}");
        let t0 = Instant::now();
        store
            .save(&id, meta, Some(bytes))
            .map_err(|e| format!("store save: {e}"))?;
        save.0 += 1;
        save.1 += ns(t0);
        let t0 = Instant::now();
        let loaded = store.load(&id).map_err(|e| format!("store load: {e}"))?;
        load.0 += 1;
        load.1 += ns(t0);
        out.attempted += 1;
        if loaded.and_then(|r| r.snapshot).as_deref() != Some(bytes.as_slice()) {
            out.fail(format!("store round trip changed snapshot {id}"));
        }
    }
    out.push("service.store.save.ns_per_call", per(save), "ns");
    out.push("service.store.load.ns_per_call", per(load), "ns");
    Ok(())
}

/// The service and engine-kind layers on an engine workload's trace,
/// which has no server: the canonical churn replay and the engine-level
/// replay supply them; figures only a live server has read 0. `kernel`
/// carries the run's own kernel-cache counters and labels
/// (`engine_cached`); without it the kernel rows read 0 too.
///
/// # Errors
///
/// Store failures, as text.
pub fn canonical_layers(
    seed: u64,
    kernel: Option<(KernelCacheStats, u64)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let scratch = Scratch::new("canonical")?;
    let registry = registry();
    let canonical = canonical_replay(&registry, seed, &scratch, out)?;
    push_replay_layers(&canonical, &canonical, out);
    let c = &canonical.counters;
    for (suffix, family, unit) in COUNTERS {
        // The replay manager has no server, so it handles no requests.
        let value = if suffix == "requests" {
            0.0
        } else {
            family_sum(c, family)
        };
        out.push(format!("service.metrics.{suffix}"), value, unit);
    }
    let (stats, labels) = kernel.unwrap_or_default();
    out.push(
        "intervals.kernel.lookups_per_annotation",
        stats.lookups() as f64 / labels.max(1) as f64,
        "ratio",
    );
    out.push("intervals.kernel.hit_rate", stats.hit_rate(), "ratio");
    out.push(
        "intervals.kernel.evictions",
        stats.evictions as f64,
        "count",
    );
    let campaigns = canonical.campaigns.max(1) as f64;
    out.push(
        "service.store.bytes_written_per_session",
        family_sum(c, "kgae_store_bytes_written_total") / campaigns,
        "B",
    );
    out.push(
        "service.store.fsyncs_per_session",
        family_sum(c, "kgae_store_fsyncs_total") / campaigns,
        "count",
    );
    out.push("service.reactor.slab_high_water", 0.0, "count");
    out.push("service.metrics.handler_share", 0.0, "ratio");
    out.push("service.reactor.transport_ns", 0.0, "ns");
    engine_layers(&registry, seed, &scratch, out)
}
