//! `engine_grid`: the paper's table/library use. One thread runs
//! poll-driven [`EvaluationSession`] campaigns at batch 1 with oracle
//! labels, round robin over {SRS, TWCS(m=3)} × {Wald, Wilson, aHPD} on
//! the NELL twin, with no service and no kernel cache. `engine_cached`
//! runs the same campaigns with one posterior-kernel cache shared by
//! every session, as a server's `SessionManager` shares one.

use crate::gen::{self, GridCell};
use crate::layers::{self, Recorded};
use crate::{median, peak_rss_mb, quantile_sorted, timed, window_rates, Done, Histogram, Outcome};
use kgae_core::{
    AnnotationRequest, EvalConfig, EvaluationSession, PreparedDesign, SamplingDesign, StopReason,
};
use kgae_graph::{CompactKg, GroundTruth};
use kgae_intervals::{KernelCache, KernelCacheStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaigns every run completes however fast the machine is; the
/// `annotations_per_campaign` mean is taken over exactly these, so it
/// repeats for a seed.
pub const MIN_CAMPAIGNS: u64 = 6_000;
/// Set-ups repeated during the window, spread evenly over it, behind
/// the `setup_s` median: a set-up takes ~0.1 ms, and samples taken in
/// one burst all land in whatever state the host is in at that instant.
const SETUP_SAMPLES: usize = 32;
/// Campaigns run before timing starts (their own seed stream).
const WARMUP_CAMPAIGNS: u64 = 120;
/// Warm-up campaigns on `engine_cached`: enough for the shared cache to
/// reach its steady hit rate, so the window does not measure it filling.
const WARMUP_CAMPAIGNS_CACHED: u64 = 3_000;

/// The prepared grid: the NELL twin plus one prepared design per
/// sampling design.
pub struct Grid {
    /// The NELL twin.
    pub kg: CompactKg,
    /// `[SRS, TWCS(m=3)]`.
    pub prepared: [PreparedDesign; 2],
    /// The six cells.
    pub cells: Vec<GridCell>,
    /// α = ε = 0.05, minimum sample 30, certified lookahead.
    pub config: EvalConfig,
    /// The posterior-kernel cache every campaign shares, on
    /// `engine_cached` only.
    pub kernel: Option<Arc<KernelCache>>,
}

/// Builds the grid: twin generation plus design preparation.
#[must_use]
pub fn setup() -> Grid {
    let kg = kgae_graph::datasets::nell();
    let prepared = [
        PreparedDesign::new(&kg, SamplingDesign::Srs),
        PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 }),
    ];
    Grid {
        kg,
        prepared,
        cells: gen::grid_cells(),
        config: EvalConfig {
            alpha: gen::ALPHA,
            epsilon: gen::EPSILON,
            ..EvalConfig::default()
        },
        kernel: None,
    }
}

/// One finished campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCampaign {
    /// Grid cell index.
    pub cell: usize,
    /// Distinct triples annotated (the paper's cost).
    pub annotations: u64,
    /// Annotation rounds (poll, then submit unless stopped).
    pub requests: u64,
    /// Time spent inside engine calls, ns (traced runs only).
    pub call_ns: u64,
}

/// Per-call timing of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct CallTimes {
    /// `next_request` calls and their total ns.
    pub next: (u64, u64),
    /// `submit` calls and their total ns.
    pub submit: (u64, u64),
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs campaign `index` of the grid to its stop and checks the
/// correctness gate (stopped `MoeSatisfied` with MoE ≤ ε). With a
/// recorder, also times each engine call and records the `(τ, n)`
/// states, draws and labels the inner-layer replays run on.
///
/// # Errors
///
/// A protocol error or a failed gate, as text.
pub fn run_campaign(
    grid: &Grid,
    seed: u64,
    index: u64,
    latency: &mut Histogram,
    mut trace: Option<(&mut CallTimes, &mut Recorded)>,
) -> Result<GridCampaign, String> {
    let cell_index = gen::grid_cell_of(index);
    let cell = &grid.cells[cell_index];
    let prepared = &grid.prepared[usize::from(cell.design != SamplingDesign::Srs)];
    let mut session = EvaluationSession::from_prepared(
        &grid.kg,
        prepared,
        &cell.method,
        &grid.config,
        SmallRng::seed_from_u64(seed),
    );
    if let Some(kernel) = &grid.kernel {
        session.set_kernel_cache(Arc::clone(kernel));
    }
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::with_capacity(4);
    let (mut requests, mut call_ns) = (0u64, 0u64);
    loop {
        // One request is one annotation round: the poll and, unless the
        // campaign stopped, the submit of its labels.
        let round = Instant::now();
        let more = session
            .next_request_into(1, &mut request)
            .map_err(|e| format!("campaign {index}: next_request: {e}"))?;
        let ns = elapsed_ns(round);
        requests += 1;
        if let Some((times, _)) = trace.as_mut() {
            times.next.0 += 1;
            times.next.1 += ns;
            call_ns += ns;
        }
        if !more {
            latency.record_since(round);
            break;
        }
        labels.clear();
        labels.extend(request.triples.iter().map(|t| grid.kg.is_correct(t.triple)));
        let t0 = Instant::now();
        session
            .submit(&labels)
            .map_err(|e| format!("campaign {index}: submit: {e}"))?;
        let ns = elapsed_ns(t0);
        latency.record_since(round);
        if let Some((times, rec)) = trace.as_mut() {
            times.submit.0 += 1;
            times.submit.1 += ns;
            call_ns += ns;
            rec.observe(&request, &labels, session.sample_state());
        }
    }
    let reason = session.stop_reason();
    let result = session
        .result()
        .ok_or_else(|| format!("campaign {index}: stopped without a result"))?;
    if reason != Some(StopReason::MoeSatisfied) || result.interval.moe() > grid.config.epsilon {
        return Err(format!(
            "campaign {index} ({}): stopped {reason:?} with MoE {}",
            cell.name,
            result.interval.moe()
        ));
    }
    Ok(GridCampaign {
        cell: cell_index,
        annotations: result.annotated_triples,
        requests,
        call_ns,
    })
}

/// Kernel lookups per annotation over the first `campaigns` campaigns,
/// each with a fresh private cache attached — every interval solve and
/// lookahead certificate routed through the kernel counts once, so this
/// is the certified lookahead's solve rate (Wald solves bypass the
/// kernel and are not counted).
fn solves_per_annotation(grid: &Grid, seed: u64, campaigns: u64) -> f64 {
    let (mut lookups, mut annotations) = (0u64, 0u64);
    for index in 0..campaigns {
        let cell = &grid.cells[gen::grid_cell_of(index)];
        let prepared = &grid.prepared[usize::from(cell.design != SamplingDesign::Srs)];
        let cache = Arc::new(KernelCache::new());
        let mut session = EvaluationSession::from_prepared(
            &grid.kg,
            prepared,
            &cell.method,
            &grid.config,
            SmallRng::seed_from_u64(gen::campaign_seed(seed, index)),
        );
        session.set_kernel_cache(Arc::clone(&cache));
        let mut request = AnnotationRequest::default();
        while session.next_request_into(1, &mut request).unwrap_or(false) {
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| grid.kg.is_correct(t.triple))
                .collect();
            if session.submit(&labels).is_err() {
                break;
            }
        }
        annotations += session.annotated_triples();
        lookups += cache.stats().lookups();
    }
    lookups as f64 / annotations.max(1) as f64
}

struct Phase {
    campaigns: Vec<GridCampaign>,
    done: Vec<Done>,
    campaign_ms: Vec<f64>,
    latency: Histogram,
    wall_s: f64,
    times: CallTimes,
}

fn run_phase(
    grid: &Grid,
    seed: u64,
    seconds: f64,
    min_campaigns: u64,
    mut recorded: Option<&mut Recorded>,
    mut setup_s: Option<&mut Vec<f64>>,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        campaigns: Vec::new(),
        done: Vec::new(),
        campaign_ms: Vec::new(),
        latency: Histogram::new(),
        wall_s: 0.0,
        times: CallTimes::default(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut index = 0u64;
    let mut next_setup = Duration::ZERO;
    while index < min_campaigns || start.elapsed() < budget {
        if let Some(samples) = setup_s.as_deref_mut() {
            if start.elapsed() >= next_setup && samples.len() < SETUP_SAMPLES {
                let (secs, built) = timed(|| Ok(setup())).expect("grid set-up is infallible");
                drop(std::hint::black_box(built));
                samples.push(secs);
                next_setup += budget / SETUP_SAMPLES as u32;
            }
        }
        let t0 = Instant::now();
        let trace = recorded.as_deref_mut().map(|rec| (&mut phase.times, rec));
        let campaign_seed = gen::campaign_seed(seed, index);
        out.attempted += 1;
        match run_campaign(grid, campaign_seed, index, &mut phase.latency, trace) {
            Ok(c) => {
                phase.campaign_ms.push(elapsed_ns(t0) as f64 / 1e6);
                phase.done.push(Done {
                    annotations: c.annotations,
                    requests: c.requests,
                });
                phase.campaigns.push(c);
            }
            Err(e) => out.fail(e),
        }
        index += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

fn annotations(campaigns: &[GridCampaign]) -> u64 {
    campaigns.iter().map(|c| c.annotations).sum()
}

/// Runs `engine_grid` (`cached == false`) or `engine_cached` and
/// returns its end-to-end (`trace == false`) or per-layer
/// (`trace == true`) metrics; a traced `engine_cached` run also returns
/// its kernel-cache counters and the labels behind them.
///
/// # Errors
///
/// Set-up failures.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    cached: bool,
) -> Result<(Outcome, Option<(KernelCacheStats, u64)>), String> {
    let mut out = Outcome::default();
    let (first_setup, mut grid) = timed(|| Ok(setup()))?;
    grid.kernel = cached.then(|| Arc::new(KernelCache::new()));
    let mut setups = vec![first_setup];

    // Warm-up on its own seed stream: page in the twin and the solver
    // code before anything is timed.
    let mut scratch = Histogram::new();
    let warmup = if cached {
        WARMUP_CAMPAIGNS_CACHED
    } else {
        WARMUP_CAMPAIGNS
    };
    for index in 0..warmup {
        let s = gen::campaign_seed(seed ^ 0x5EED_0FF5, index);
        run_campaign(&grid, s, index, &mut scratch, None).map_err(|e| format!("warm-up: {e}"))?;
    }

    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let min = if trace {
        MIN_CAMPAIGNS / 2
    } else {
        MIN_CAMPAIGNS
    };
    let base = run_phase(
        &grid,
        seed,
        untraced_s,
        min,
        None,
        Some(&mut setups),
        &mut out,
    );
    let setup_s = median(&setups);
    let (lo, hi) = setups.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    eprintln!(
        "setup_s over {} set-ups: min {:.1} µs, median {:.1} µs, max {:.1} µs",
        setups.len(),
        lo * 1e6,
        setup_s * 1e6,
        hi * 1e6
    );
    let rates = window_rates(&base.done, base.wall_s);
    let base_ns_per_annotation = rates.ns_per_annotation;

    if !trace {
        let mut campaign_ms = base.campaign_ms.clone();
        campaign_ms.sort_by(f64::total_cmp);
        let first = &base.campaigns[..base.campaigns.len().min(MIN_CAMPAIGNS as usize)];
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        out.push("ns_per_annotation", base_ns_per_annotation, "ns");
        out.push("campaigns_per_s", rates.campaigns_per_s, "1/s");
        out.push("campaign_ms.p50", quantile_sorted(&campaign_ms, 0.5), "ms");
        out.push("campaign_ms.p99", quantile_sorted(&campaign_ms, 0.99), "ms");
        out.push(
            "annotations_per_campaign",
            annotations(first) as f64 / first.len().max(1) as f64,
            "count",
        );
        out.push("requests_per_s", rates.requests_per_s, "1/s");
        out.push("request_ms.p50", base.latency.quantile_ns(0.5) / 1e6, "ms");
        out.push("request_ms.p99", base.latency.quantile_ns(0.99) / 1e6, "ms");
        eprintln!(
            "engine_grid: {} campaigns, {} annotation rounds (percentile samples)",
            base.campaigns.len(),
            base.latency.count()
        );
        return Ok((out, None));
    }

    let traced = trace_layers(&grid, seed, seconds / 2.0, min, &mut out);
    let kernel = grid.kernel.as_ref().map(|k| {
        (
            k.stats(),
            annotations(&base.campaigns) + annotations(&traced.campaigns),
        )
    });
    let traced_annotations = annotations(&traced.campaigns);
    let traced_ns_per_annotation = window_rates(&traced.done, traced.wall_s).ns_per_annotation;
    let call_ns: u64 = traced.campaigns.iter().map(|c| c.call_ns).sum();
    out.push(
        "trace.overhead_share",
        traced_ns_per_annotation / base_ns_per_annotation - 1.0,
        "ratio",
    );
    out.push(
        "trace.unattributed_share",
        1.0 - (call_ns as f64 / traced_annotations.max(1) as f64) / base_ns_per_annotation,
        "ratio",
    );
    out.push("samples.campaigns", traced.campaigns.len() as f64, "count");
    out.push("samples.requests", traced.latency.count() as f64, "count");
    Ok((out, kernel))
}

/// The traced grid pass: runs campaigns `0..` for at least `seconds`
/// and `min_campaigns`, timing every engine call and recording every
/// `(τ, n)` state, draw and label; then appends the `core.session.*`
/// figures and replays the inner layers at the recorded inputs.
fn trace_layers(
    grid: &Grid,
    seed: u64,
    seconds: f64,
    min_campaigns: u64,
    out: &mut Outcome,
) -> Phase {
    let mut recorded = Recorded::default();
    let traced = run_phase(
        grid,
        seed,
        seconds,
        min_campaigns,
        Some(&mut recorded),
        None,
        out,
    );
    let times = &traced.times;
    out.push(
        "core.session.next_request.ns_per_call",
        times.next.1 as f64 / times.next.0.max(1) as f64,
        "ns",
    );
    out.push(
        "core.session.submit.ns_per_call",
        times.submit.1 as f64 / times.submit.0.max(1) as f64,
        "ns",
    );
    for (i, cell) in grid.cells.iter().enumerate() {
        let (ns, ann) = traced
            .campaigns
            .iter()
            .filter(|c| c.cell == i)
            .fold((0u64, 0u64), |(ns, a), c| {
                (ns + c.call_ns, a + c.annotations)
            });
        out.push(
            format!("core.session.{}.ns_per_annotation", cell.name),
            ns as f64 / ann.max(1) as f64,
            "ns",
        );
    }
    out.push(
        "core.session.solves_per_annotation",
        solves_per_annotation(grid, seed, 120),
        "ratio",
    );
    layers::replay_inner(&grid.kg, &recorded, gen::ALPHA, gen::EPSILON, out);
    traced
}

/// The engine-level layers measured on a service workload's trace: the
/// grid's first `campaigns` campaigns for this seed, traced, give the
/// `core.session.*` figures and the inputs of the inner-layer replays.
pub fn trace_layers_canonical(seed: u64, campaigns: u64, out: &mut Outcome) {
    let grid = setup();
    trace_layers(&grid, seed, 0.0, campaigns, out);
}
