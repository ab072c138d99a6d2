//! `bgmp_data` and `bgmp_churn`: BGMP shared trees on an Internet-like
//! graph with BGP, DVMRP inside each domain and static addressing.
//!
//! A round starts from the set-up state (the graph generated, the
//! `Internet` built, BGP converged and the initial joins of a seeded
//! group population settled), runs one epoch of measured work, and
//! checkpoints and resumes the end state. Every round does the same
//! work for a seed, so the end state does not depend on how many rounds
//! the host managed. Rounds repeat until the time budget is spent.
//!
//! - `bgmp_data` epochs send batches of data packets from random
//!   senders to the fixed membership (the read side: forwarding
//!   entries and G-RIB next hops, no tree mutation).
//! - `bgmp_churn` epochs apply steps of joins and leaves plus one
//!   signalled fail/heal flap of a multi-homed edge, then check the
//!   quiescent invariants and probe the touched groups (the write
//!   side: BGP resync, G-RIB invalidation, joins, prunes, repair).
//!
//! Each round's inputs are applied, then simulated time is advanced by
//! `SETTLE_SECS` (no timers run on this configuration, so the queue drains
//! well inside it), and only then is the next round issued.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use masc_bgmp_core::{
    analysis, asn_of, invariants, Addressing, BorderPlan, HostId, Internet, InternetConfig,
};
use mcast_addr::McastAddr;
use migp::MigpKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::SimDuration;
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

use crate::checks::{self, Continuation, Ledger, Sent};
use crate::stats::{mb, median, median_secs, peak_rss_mb, per_round_rates, sum_of_medians};
use crate::trace::Tracer;
use crate::{OpKind, Report};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Data,
    Churn,
}

const DOMAINS: usize = 200;
const GROUPS: usize = 600;
const MEMBERS_PER_GROUP: usize = 10;
/// Host numbers per domain that senders and members are drawn from.
/// Every domain here has three internal routers and host `h` attaches
/// to router `h % 3`, so no two member hosts of a group share a router:
/// a leave by one host on a shared router drops the other host's
/// delivery too (a fault of `DomainActor::host_leave`, see README.md).
const HOSTS_PER_DOMAIN: u32 = 3;
/// Simulated time every round is given to settle.
const SETTLE_SECS: u64 = 60;
const BATCH_PACKETS: usize = 100;
const DATA_BATCHES: usize = 200;
const CHURN_STEPS: usize = 12;
/// Joins and leaves per churn step (half each).
const CHURN_CHANGES: usize = 40;
/// Rounds that set up anew (the set-up samples).
const SETUPS: usize = 3;
/// Checkpoint→resume samples taken at the end of every round.
const SNAP_PER_ROUND: usize = 2;
const GRIB_LOOKUP_SWEEPS: usize = 20;

/// The graph is part of the workload's definition, like figure 2's
/// hierarchy: the run seed draws everything placed on it. One stub-edge
/// flap costs from ~15 ms to ~2.8 s here depending on where the edge
/// sits, so flapping a seed-drawn dozen of them made a round's work
/// differ between seeds by more than any bound worth keeping.
const TOPOLOGY_SEED: u64 = 1;

fn spec() -> InternetSpec {
    InternetSpec {
        n: DOMAINS,
        backbones: 10,
        attach: 2,
        extra_peerings: 10,
        seed: TOPOLOGY_SEED,
    }
}

fn config(seed: u64) -> InternetConfig {
    InternetConfig {
        migp: MigpKind::Dvmrp,
        borders: BorderPlan::Single,
        addressing: Addressing::Static,
        seed,
        ..Default::default()
    }
}

fn random_host(rng: &mut StdRng) -> HostId {
    HostId {
        domain: asn_of(DomainId(rng.gen_range(0..DOMAINS))),
        host: rng.gen_range(0..HOSTS_PER_DOMAIN),
    }
}

/// Graph, build, convergence and the initial joins of the population.
fn setup(seed: u64, tr: &mut Tracer) -> (Internet, Ledger, Duration) {
    let all = tr.begin("bgmp.setup");
    let o = tr.begin("topology.generate");
    let graph = internet_like(&spec());
    tr.end(o);
    let o = tr.begin("core.build");
    let mut net = Internet::build(graph, &config(seed));
    tr.end(o);
    let o = tr.begin("bgp.converge");
    net.converge();
    tr.end(o);

    let o = tr.begin("bgmp.join_phase");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908);
    let mut ledger = Ledger::new();
    for _ in 0..GROUPS {
        let root = DomainId(rng.gen_range(0..DOMAINS));
        let g = net.group_addr(root);
        let members = ledger.entry(g).or_default();
        while members.len() < MEMBERS_PER_GROUP {
            members.insert(random_host(&mut rng));
        }
        for h in members.iter() {
            net.host_join(*h, g);
        }
    }
    net.run_for(SimDuration::from_secs(SETTLE_SECS));
    tr.end(o);
    let took = tr.end(all);
    (net, ledger, took)
}

/// One churn step's inputs.
struct Step {
    joins: Vec<(HostId, McastAddr)>,
    leaves: Vec<(HostId, McastAddr)>,
    flap: (DomainId, DomainId),
    probes: Vec<(HostId, McastAddr)>,
}

/// The edges a round flaps: `CHURN_STEPS` provider–customer edges of
/// multi-homed stubs (the customer has no customers and another
/// provider, so failing the edge leaves it connected), evenly spaced
/// through the list of all of them in domain order.
fn flap_edges(graph: &DomainGraph) -> Vec<(DomainId, DomainId)> {
    let mut all = Vec::new();
    for c in graph.domains() {
        let providers: Vec<DomainId> = graph.providers(c).collect();
        if providers.len() >= 2 && graph.customers(c).next().is_none() {
            all.extend(providers.into_iter().map(|p| (p, c)));
        }
    }
    (0..CHURN_STEPS)
        .map(|i| all[i * all.len() / CHURN_STEPS])
        .collect()
}

fn data_script(seed: u64, groups: &[McastAddr]) -> Vec<Vec<(HostId, McastAddr)>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBB67_AE85_84CA_A73B);
    (0..DATA_BATCHES)
        .map(|_| {
            (0..BATCH_PACKETS)
                .map(|_| {
                    let g = groups[rng.gen_range(0..groups.len())];
                    (random_host(&mut rng), g)
                })
                .collect()
        })
        .collect()
}

fn churn_script(seed: u64, base: &Ledger, graph: &DomainGraph) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3C6E_F372_FE94_F82B);
    let mut edges = flap_edges(graph);
    // The seed orders the flaps.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let groups: Vec<McastAddr> = base.keys().copied().collect();
    let mut ledger = base.clone();
    let mut steps = Vec::with_capacity(CHURN_STEPS);
    for flap in edges {
        let mut joins = Vec::new();
        let mut leaves = Vec::new();
        let mut touched = BTreeSet::new();
        while joins.len() < CHURN_CHANGES / 2 {
            let g = groups[rng.gen_range(0..groups.len())];
            let h = random_host(&mut rng);
            if touched.contains(&g) || !ledger.get_mut(&g).expect("population group").insert(h) {
                continue;
            }
            touched.insert(g);
            joins.push((h, g));
        }
        while leaves.len() < CHURN_CHANGES / 2 {
            let g = groups[rng.gen_range(0..groups.len())];
            let members = ledger.get_mut(&g).expect("population group");
            // Keep every group alive with at least two members.
            if touched.contains(&g) || members.len() <= 2 {
                continue;
            }
            let h = *members
                .iter()
                .nth(rng.gen_range(0..members.len()))
                .expect("member");
            members.remove(&h);
            touched.insert(g);
            leaves.push((h, g));
        }
        let probes = touched
            .into_iter()
            .map(|g| (random_host(&mut rng), g))
            .collect();
        steps.push(Step {
            joins,
            leaves,
            flap,
            probes,
        });
    }
    steps
}

/// Engine counters accumulated over timed sections.
#[derive(Default, Clone, Copy)]
struct Work {
    events: u64,
    timers: u64,
    messages: u64,
    queue_peak: usize,
    /// Rounds whose events had not drained after `SETTLE_SECS`.
    unsettled: u64,
}

impl Work {
    /// Applies a round's inputs, then advances simulated time by
    /// `SETTLE_SECS`, adding the engine work it took.
    fn settle(&mut self, net: &mut Internet, apply: impl FnOnce(&mut Internet)) {
        let before = net.engine.stats();
        apply(net);
        self.queue_peak = self.queue_peak.max(net.engine.pending());
        net.run_for(SimDuration::from_secs(SETTLE_SECS));
        self.unsettled += u64::from(net.engine.pending() > 0);
        let after = net.engine.stats();
        self.events += after.events - before.events;
        self.timers += after.timers - before.timers;
        self.messages += after.delivered - before.delivered;
    }
}

/// Sends a batch and returns what was sent; does not settle.
fn send(net: &mut Internet, batch: &[(HostId, McastAddr)]) -> Vec<Sent> {
    batch
        .iter()
        .map(|(h, g)| Sent {
            id: net.send_data(*h, *g),
            sender: *h,
            group: *g,
        })
        .collect()
}

/// Delivery-log entries appended since `cursors`, which advance. Each
/// domain's log is read once per call.
fn new_deliveries(net: &Internet, cursors: &mut [usize]) -> Vec<(u64, HostId)> {
    let mut out = Vec::new();
    for d in net.graph.domains() {
        let log = &net.domain(d).log.received;
        out.extend_from_slice(&log[cursors[d.0]..]);
        cursors[d.0] = log.len();
    }
    out
}

fn log_cursors(net: &Internet) -> Vec<usize> {
    net.graph
        .domains()
        .map(|d| net.domain(d).log.received.len())
        .collect()
}

fn bgmp_totals(net: &Internet) -> (u64, u64) {
    let mut joins = 0;
    let mut prunes = 0;
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            joins += br.bgmp.stats.joins;
            prunes += br.bgmp.stats.prunes;
        }
    }
    (joins, prunes)
}

/// What one epoch did.
#[derive(Default)]
struct Epoch {
    /// Host time of each timed step (a data batch, or a churn step's
    /// joins/leaves plus its flap).
    steps: Vec<Duration>,
    /// Workload operations (packets, or membership changes plus link
    /// events).
    ops: u64,
    packets: u64,
    packets_failed: u64,
    changes: u64,
    link_events: u64,
    work: Work,
    problems: Vec<String>,
}

fn data_epoch(
    net: &mut Internet,
    ledger: &Ledger,
    script: &[Vec<(HostId, McastAddr)>],
    tr: &mut Tracer,
) -> Epoch {
    let mut e = Epoch::default();
    let mut cursors = log_cursors(net);
    for batch in script {
        let o = tr.begin("core.data_settle");
        let mut sent = Vec::new();
        e.work.settle(net, |net| sent = send(net, batch));
        e.steps.push(tr.end(o));
        let got = new_deliveries(net, &mut cursors);
        e.packets += sent.len() as u64;
        e.packets_failed += checks::misdelivered(ledger, &sent, &got).len() as u64;
    }
    e.ops = e.packets;
    e
}

fn churn_epoch(net: &mut Internet, base: &Ledger, script: &[Step], tr: &mut Tracer) -> Epoch {
    let mut e = Epoch::default();
    let mut ledger = base.clone();
    let mut cursors = log_cursors(net);
    for (i, step) in script.iter().enumerate() {
        let o = tr.begin("bgmp.churn_settle");
        e.work.settle(net, |net| {
            for (h, g) in &step.joins {
                net.host_join(*h, *g);
            }
            for (h, g) in &step.leaves {
                net.host_leave(*h, *g);
            }
        });
        let membership = tr.end(o);
        let o = tr.begin("bgp.flap_settle");
        let (a, b) = step.flap;
        e.work.settle(net, |net| net.fail_link(a, b));
        e.work.settle(net, |net| net.heal_link(a, b));
        e.steps.push(membership + tr.end(o));
        e.changes += (step.joins.len() + step.leaves.len()) as u64;
        e.link_events += 2;
        for (h, g) in &step.joins {
            ledger.get_mut(g).expect("population group").insert(*h);
        }
        for (h, g) in &step.leaves {
            ledger.get_mut(g).expect("population group").remove(h);
        }

        // Checks, outside the timed sections.
        for v in invariants::check_quiescent(net) {
            e.problems.push(format!("step {i}: {v:?}"));
        }
        let sent = send(net, &step.probes);
        net.run_for(SimDuration::from_secs(SETTLE_SECS));
        let got = new_deliveries(net, &mut cursors);
        e.packets += sent.len() as u64;
        e.packets_failed += checks::misdelivered(&ledger, &sent, &got).len() as u64;
    }
    e.ops = e.changes + e.link_events;
    e
}

/// Advances a run by one data batch and renders what it delivered.
fn continuation(net: &mut Internet, batch: &[(HostId, McastAddr)]) -> Continuation {
    let mut cursors = log_cursors(net);
    send(net, batch);
    net.run_for(SimDuration::from_secs(SETTLE_SECS));
    let mut got = new_deliveries(net, &mut cursors);
    got.sort();
    Continuation {
        observed: format!("{got:?}"),
        events: net.engine.stats().events,
    }
}

/// Mean ns of one `Rib::lookup_group`, swept over every group at every
/// router.
fn grib_lookup_ns(net: &Internet, groups: &[McastAddr], tr: &mut Tracer) -> f64 {
    let mut lookups = 0usize;
    let o = tr.begin("bgp.grib_lookup");
    for _ in 0..GRIB_LOOKUP_SWEEPS {
        for d in net.graph.domains() {
            for br in &net.domain(d).routers {
                let rib = br.speaker.rib();
                for g in groups {
                    black_box(rib.lookup_group(black_box(*g)));
                    lookups += 1;
                }
            }
        }
    }
    tr.end(o).as_nanos() as f64 / lookups.max(1) as f64
}

fn median_self(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let v: Vec<f64> = tr
        .self_ns_of(name)
        .iter()
        .map(|ns| *ns as f64 / scale)
        .collect();
    median(&v)
}

/// What one round did.
struct Round {
    /// Set-up time, for the rounds that set up anew.
    setup: Option<Duration>,
    epoch: Epoch,
    joins: u64,
    prunes: u64,
    duplicates: u64,
}

pub fn run(kind: Kind, seed: u64, budget: Duration, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let cfg = config(seed);

    // Whole rounds until the budget is spent. The first `SETUPS` rounds
    // set up anew; later ones restore the last set-up state,
    // which is the same state at a fifth of the cost. Every round then
    // does the same work and samples checkpoint and resume of its end
    // state, so those samples are spread over the run rather than
    // bunched where one slow stretch of the host could take them all.
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut base: Option<(Vec<u8>, Ledger, DomainGraph)> = None;
    let mut scripts = None;
    let mut peak_rss = 0.0;
    let mut counts = None;
    let (mut encodes, mut rebuilds, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    let mut snapshot_bytes = 0;
    // The last round's internet and its resumed copy.
    let mut last: Option<(Internet, Internet)> = None;
    loop {
        // The previous round's internets go before the next is built.
        drop(last.take());
        let (mut net, ledger, setup) = match &base {
            None => {
                let (net, ledger, took) = setup(seed, tr);
                if rounds.len() + 1 == SETUPS {
                    let blob = net.checkpoint().expect("set-up state encodes");
                    base = Some((blob, ledger.clone(), net.graph.clone()));
                }
                (net, ledger, Some(took))
            }
            Some((blob, ledger, graph)) => {
                let o = tr.begin("round.restore");
                let mut net = Internet::build(graph.clone(), &cfg);
                net.resume_from(blob).expect("set-up state restores");
                tr.end(o);
                (net, ledger.clone(), None)
            }
        };
        let (_, data, churn) = scripts.get_or_insert_with(|| {
            let groups: Vec<McastAddr> = ledger.keys().copied().collect();
            let data = data_script(seed, &groups);
            (groups, data, churn_script(seed, &ledger, &net.graph))
        });
        let (j0, p0) = bgmp_totals(&net);
        let epoch = match kind {
            Kind::Data => data_epoch(&mut net, &ledger, data, tr),
            Kind::Churn => churn_epoch(&mut net, &ledger, churn, tr),
        };
        let (j1, p1) = bgmp_totals(&net);
        if rounds.is_empty() {
            peak_rss = peak_rss_mb();
            counts = Some(layer_counts(&net));
        }
        let mut resumed = None;
        for _ in 0..SNAP_PER_ROUND {
            let o = tr.begin("snapshot.encode");
            let blob = net.checkpoint().expect("end state encodes");
            encodes.push(tr.end(o));
            snapshot_bytes = blob.len();
            drop(resumed.take());
            let graph = net.graph.clone();
            let o = tr.begin("snapshot.rebuild");
            let mut fresh = Internet::build(graph, &cfg);
            rebuilds.push(tr.end(o));
            let o = tr.begin("snapshot.restore");
            fresh.resume_from(&blob).expect("end state restores");
            restores.push(tr.end(o));
            resumed = Some(fresh);
        }
        rounds.push(Round {
            duplicates: net.total_duplicates(),
            setup,
            epoch,
            joins: j1 - j0,
            prunes: p1 - p0,
        });
        last = Some((net, resumed.expect("SNAP_PER_ROUND > 0")));
        if start.elapsed() >= budget {
            break;
        }
    }

    let n = rounds.len() as u64;
    let first = &rounds[0].epoch;
    report.ops.push(OpKind {
        name: "packets",
        attempted: rounds.iter().map(|r| r.epoch.packets).sum(),
        failed: rounds.iter().map(|r| r.epoch.packets_failed).sum(),
    });
    if kind == Kind::Churn {
        report.ops.push(OpKind {
            name: "membership_changes",
            attempted: first.changes * n,
            failed: 0,
        });
        report.ops.push(OpKind {
            name: "link_events",
            attempted: first.link_events * n,
            failed: 0,
        });
        let problems: Vec<String> = rounds
            .iter()
            .flat_map(|r| r.epoch.problems.clone())
            .collect();
        report.check("bgmp.quiescent_invariants_every_round", &problems);
    }
    let unsettled: Vec<String> = rounds
        .iter()
        .filter(|r| r.epoch.work.unsettled > 0)
        .map(|r| format!("{} settles left events queued", r.epoch.work.unsettled))
        .collect();
    report.check("bgmp.rounds_settle", &unsettled);
    let dups: Vec<String> = rounds
        .iter()
        .filter(|r| r.duplicates > 0)
        .map(|r| format!("{} duplicate deliveries", r.duplicates))
        .collect();
    report.check("core.no_duplicate_deliveries", &dups);

    // Per-layer counts: one epoch's work (every epoch does the same).
    let work = first.work;
    report.layer("simnet.events", work.events as f64);
    report.layer("simnet.timers", work.timers as f64);
    report.layer("simnet.messages", work.messages as f64);
    report.layer("simnet.queue_peak", work.queue_peak as f64);
    if kind == Kind::Data {
        report.layer(
            "core.events_per_packet",
            work.events as f64 / first.packets.max(1) as f64,
        );
    }
    report.layer("bgmp.joins", rounds[0].joins as f64);
    report.layer("bgmp.prunes", rounds[0].prunes as f64);
    let (loc, grib, star) = counts.expect("first round");
    report.layer("bgp.loc_rib_routes", loc as f64);
    report.layer("bgp.grib_routes", grib as f64);
    report.layer("bgmp.star_entries", star as f64);

    let (mut net, mut resumed) = last.expect("one round");
    let (groups, data, _) = scripts.as_ref().expect("scripts");
    let lookup_ns = tr.enabled().then(|| grib_lookup_ns(&net, groups, tr));
    let batch = &data[0];
    let a = continuation(&mut net, batch);
    let b = continuation(&mut resumed, batch);
    let differs: Vec<String> = checks::continuation_differs(&a, &b).into_iter().collect();
    report.check("checkpoint_resume_transparent", &differs);

    let steps: Vec<Vec<Duration>> = rounds.iter().map(|r| r.epoch.steps.clone()).collect();
    report.note(format!(
        "rounds={n} per-round ops/s: {}",
        per_round_rates(first.ops, &steps)
    ));
    let setups: Vec<Duration> = rounds.iter().filter_map(|r| r.setup).collect();
    let checkpoint_s = median_secs(&encodes);
    let snapshot_mb = mb(snapshot_bytes);
    let resumes: Vec<Duration> = rebuilds
        .iter()
        .zip(&restores)
        .map(|(a, b)| *a + *b)
        .collect();
    report.e2e("setup_s", median_secs(&setups));
    report.e2e("ops_per_s", first.ops as f64 / sum_of_medians(&steps));
    report.e2e("peak_rss_mb", peak_rss);
    report.e2e("checkpoint_s", checkpoint_s);
    report.e2e("resume_s", median_secs(&resumes));
    report.e2e("snapshot_mb", snapshot_mb);

    if tr.enabled() {
        report.layer(
            "topology.generate_s",
            median_self(tr, "topology.generate", 1e9),
        );
        report.layer("core.build_s", median_self(tr, "core.build", 1e9));
        report.layer("bgp.converge_s", median_self(tr, "bgp.converge", 1e9));
        report.layer("bgmp.join_phase_s", median_self(tr, "bgmp.join_phase", 1e9));
        report.layer("bgp.grib_lookup_ns", lookup_ns.unwrap_or(0.0));
        let timed: &[&str] = match kind {
            Kind::Data => {
                report.layer(
                    "core.data_settle_ms",
                    median_self(tr, "core.data_settle", 1e6),
                );
                &["core.data_settle"]
            }
            Kind::Churn => {
                report.layer(
                    "bgp.flap_settle_ms",
                    median_self(tr, "bgp.flap_settle", 1e6),
                );
                report.layer(
                    "bgmp.churn_settle_ms",
                    median_self(tr, "bgmp.churn_settle", 1e6),
                );
                &["bgp.flap_settle", "bgmp.churn_settle"]
            }
        };
        let timed_ns: u64 = timed
            .iter()
            .map(|s| tr.self_ns_of(s).iter().sum::<u64>())
            .sum();
        report.layer(
            "simnet.ns_per_event",
            timed_ns as f64 / (n * work.events).max(1) as f64,
        );
        report.layer("snapshot.encode_mb_per_s", snapshot_mb / checkpoint_s);
        report.layer("snapshot.rebuild_s", median_secs(&rebuilds));
        report.layer("snapshot.restore_s", median_secs(&restores));
    }
    report
}

/// Route and tree-state totals over every router.
fn layer_counts(net: &Internet) -> (usize, usize, usize) {
    let mut loc = 0usize;
    let mut grib = 0usize;
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            loc += br.speaker.rib().loc_rib().count();
            grib += br.speaker.rib().grib_size();
        }
    }
    (loc, grib, analysis::total_star_entries(net, None))
}
