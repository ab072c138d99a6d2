//! `masc_fig2`: the paper's figure-2 MASC hierarchy (50 top-level
//! domains × 50 children, 2,550 domains).
//!
//! A round builds the hierarchy and runs the startup claim transient to
//! `SETUP_DAY` (set-up), then advances it one simulated day at a time
//! to `END_DAY` (measured), then checkpoints and resumes its end state.
//! Every round does the same work for a seed; rounds repeat until the
//! time budget is spent. The last round's simulation is then checked
//! against its resumed copy.

use std::hint::black_box;
use std::time::{Duration, Instant};

use masc::{HierarchySim, HierarchySimParams, MascActor, MascStats};
use mcast_addr::{Prefix, SpaceTracker};

use crate::checks::{self, Continuation};
use crate::stats::{
    mb, median, median_secs, peak_rss_mb, per_round_rates, quantile, sum_of_medians,
};
use crate::trace::Tracer;
use crate::{OpKind, Report};

/// End of the set-up stretch: `HierarchySim::new` alone takes a few ms,
/// too short to time steadily, so set-up includes the start of the
/// claim transient.
const SETUP_DAY: u64 = 10;
/// Last simulated day of a round.
const END_DAY: u64 = 40;
/// Days both the original and the resumed run advance for the
/// transparency check.
const CONTINUE_DAYS: u64 = 2;
/// Checkpoint→resume samples taken at the end of every round.
const SNAP_PER_ROUND: usize = 5;
/// Replays of the final top-level ranges into a fresh `SpaceTracker`.
const CANDIDATE_REPLAYS: usize = 2_000;

struct Round {
    sim: HierarchySim,
    setup: Duration,
    days: Vec<Duration>,
    events: u64,
    timers: u64,
    messages: u64,
    queue_peak: usize,
}

fn round(params: &HierarchySimParams, tr: &mut Tracer) -> Round {
    let o = tr.begin("masc.setup");
    let mut sim = HierarchySim::new(params.clone());
    sim.run_to_day(SETUP_DAY);
    let setup = tr.end(o);

    let before = sim.engine.stats();
    let mut queue_peak = sim.engine.pending();
    let mut days = Vec::with_capacity((END_DAY - SETUP_DAY) as usize);
    for day in SETUP_DAY + 1..=END_DAY {
        let o = tr.begin("masc.day");
        sim.run_to_day(day);
        days.push(tr.end(o));
        queue_peak = queue_peak.max(sim.engine.pending());
    }
    let after = sim.engine.stats();
    Round {
        sim,
        setup,
        days,
        events: after.events - before.events,
        timers: after.timers - before.timers,
        messages: after.delivered - before.delivered,
        queue_peak,
    }
}

fn actor(sim: &HierarchySim, id: simnet::NodeId) -> &MascActor {
    sim.engine.node_as::<MascActor>(id).expect("MASC actor")
}

fn ranges(sim: &HierarchySim, id: simnet::NodeId) -> Vec<Prefix> {
    actor(sim, id).node.advertised_prefixes()
}

/// Claim–collide properties at the end of a run.
fn masc_properties(sim: &HierarchySim, report: &mut Report) {
    let per = sim.params().children_per;
    let tops: Vec<Prefix> = sim.tops.iter().flat_map(|id| ranges(sim, *id)).collect();
    let problems: Vec<String> = checks::overlapping_pairs(&tops)
        .iter()
        .map(|(a, b)| format!("top-level {a} overlaps {b}"))
        .collect();
    report.check("masc.top_level_disjoint", &problems);

    let mut sibling = Vec::new();
    let mut nesting = Vec::new();
    for (t, top) in sim.tops.iter().enumerate() {
        let parent = ranges(sim, *top);
        let kids: Vec<Prefix> = sim.children[t * per..(t + 1) * per]
            .iter()
            .flat_map(|id| ranges(sim, *id))
            .collect();
        for (a, b) in checks::overlapping_pairs(&kids) {
            sibling.push(format!("children of top {t}: {a} overlaps {b}"));
        }
        for c in checks::uncovered(&kids, &parent) {
            nesting.push(format!("child range {c} outside top {t}'s ranges"));
        }
    }
    report.check("masc.sibling_disjoint", &sibling);
    report.check("masc.child_nested_in_parent", &nesting);
}

fn continuation(sim: &mut HierarchySim) -> Continuation {
    let end = sim.engine.now().as_days_f64().round() as u64 + CONTINUE_DAYS;
    let mut observed = String::new();
    for day in end - CONTINUE_DAYS + 1..=end {
        sim.run_to_day(day);
        observed.push_str(&format!("{:?}\n", sim.sample()));
    }
    Continuation {
        observed,
        events: sim.engine.stats().events,
    }
}

/// Encodes the round's end state and resumes it `SNAP_PER_ROUND` times.
fn snapshot_samples(sim: &HierarchySim, s: &mut SnapSamples, tr: &mut Tracer) -> HierarchySim {
    let mut resumed = None;
    for _ in 0..SNAP_PER_ROUND {
        let o = tr.begin("snapshot.encode");
        s.blob = sim.checkpoint().expect("checkpoint encodes");
        s.encode.push(tr.end(o));
        let o = tr.begin("snapshot.rebuild");
        drop(black_box(HierarchySim::new(sim.params().clone())));
        s.rebuild.push(tr.end(o));
        drop(resumed.take());
        let o = tr.begin("snapshot.resume");
        resumed = Some(HierarchySim::resume(&s.blob).expect("checkpoint resumes"));
        s.resume.push(tr.end(o));
    }
    resumed.expect("SNAP_PER_ROUND > 0")
}

#[derive(Default)]
struct SnapSamples {
    blob: Vec<u8>,
    encode: Vec<Duration>,
    rebuild: Vec<Duration>,
    resume: Vec<Duration>,
}

pub fn run(seed: u64, budget: Duration, tr: &mut Tracer) -> Report {
    let params = HierarchySimParams::paper_fig2(seed);
    let mut report = Report::default();

    // Whole rounds until the budget is spent. Every round ends in the
    // same state, so each also samples checkpoint and resume of the
    // end-of-run state; spreading those samples over the run keeps a
    // slow stretch of the host from landing on all of them.
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut day_times = Vec::new();
    let mut snaps = SnapSamples::default();
    let mut peak_rss = 0.0;
    let mut rounds = 0u64;
    let (mut sim, mut resumed, counts) = loop {
        let r = round(&params, tr);
        rounds += 1;
        if rounds == 1 {
            peak_rss = peak_rss_mb();
        }
        setups.push(r.setup);
        day_times.push(r.days);
        let resumed = snapshot_samples(&r.sim, &mut snaps, tr);
        if start.elapsed() >= budget {
            break (
                r.sim,
                resumed,
                (r.events, r.timers, r.messages, r.queue_peak),
            );
        }
    };
    let days_per_round = END_DAY - SETUP_DAY;
    report.ops.push(OpKind {
        name: "days",
        attempted: rounds * days_per_round,
        failed: 0,
    });
    masc_properties(&sim, &mut report);

    // Per-layer counts (deterministic for a seed), read at END_DAY.
    let mut stats = MascStats::default();
    for id in sim.tops.iter().chain(&sim.children) {
        let s = actor(&sim, *id).node.stats;
        stats.claims_made += s.claims_made;
        stats.collisions += s.collisions;
        stats.grants += s.grants;
    }
    let (events, timers, messages, queue_peak) = counts;
    report.layer("simnet.events", events as f64);
    report.layer("simnet.timers", timers as f64);
    report.layer("simnet.messages", messages as f64);
    report.layer("simnet.queue_peak", queue_peak as f64);
    report.layer("masc.claims", stats.claims_made as f64);
    report.layer("masc.collisions", stats.collisions as f64);
    report.layer(
        "masc.grant_ratio",
        stats.grants as f64 / stats.claims_made.max(1) as f64,
    );
    report.layer("masc.grib_avg", sim.sample().grib_avg);
    let candidates = tr.enabled().then(|| candidates_ns(&sim, tr));

    let a = continuation(&mut sim);
    let b = continuation(&mut resumed);
    let differs: Vec<String> = checks::continuation_differs(&a, &b).into_iter().collect();
    report.check("checkpoint_resume_transparent", &differs);

    let checkpoint_s = median_secs(&snaps.encode);
    let resume_s = median_secs(&snaps.resume);
    let round_s = sum_of_medians(&day_times);
    report.note(format!(
        "rounds={rounds} per-round days/s: {}",
        per_round_rates(days_per_round, &day_times)
    ));
    report.e2e("setup_s", median_secs(&setups));
    report.e2e("ops_per_s", days_per_round as f64 / round_s);
    report.e2e("peak_rss_mb", peak_rss);
    report.e2e("checkpoint_s", checkpoint_s);
    report.e2e("resume_s", resume_s);
    report.e2e("snapshot_mb", mb(snaps.blob.len()));

    if tr.enabled() {
        let days_ms: Vec<f64> = tr
            .self_ns_of("masc.day")
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        report.layer("masc.day_p50_ms", median(&days_ms));
        report.layer("masc.day_p90_ms", quantile(&days_ms, 0.9));
        let day_ns: f64 = tr.self_ns_of("masc.day").iter().sum::<u64>() as f64;
        report.layer(
            "simnet.ns_per_event",
            day_ns / (rounds * events).max(1) as f64,
        );
        report.layer("mcast-addr.candidates_ns", candidates.unwrap_or(0.0));
        report.layer(
            "snapshot.encode_mb_per_s",
            mb(snaps.blob.len()) / checkpoint_s,
        );
        let rebuild_s = median_secs(&snaps.rebuild);
        report.layer("snapshot.rebuild_s", rebuild_s);
        report.layer("snapshot.restore_s", (resume_s - rebuild_s).max(0.0));
    }
    report
}

/// Mean ns of one `SpaceTracker::insert` plus `claim_candidates`,
/// replaying the run's final top-level ranges into a fresh tracker.
fn candidates_ns(sim: &HierarchySim, tr: &mut Tracer) -> f64 {
    let tops: Vec<Prefix> = sim.tops.iter().flat_map(|id| ranges(sim, *id)).collect();
    let o = tr.begin("mcast-addr.candidates");
    for _ in 0..CANDIDATE_REPLAYS {
        let mut space = SpaceTracker::new(Prefix::MULTICAST);
        for p in &tops {
            space.insert(*p);
            black_box(space.claim_candidates(p.len()));
        }
        black_box(&space);
    }
    let took = tr.end(o);
    took.as_nanos() as f64 / (CANDIDATE_REPLAYS * tops.len().max(1)) as f64
}
