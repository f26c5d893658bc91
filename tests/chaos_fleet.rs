//! Chaos-fleet acceptance suite: the adversarial harness must show the
//! faults biting *and* the protocol recovering.
//!
//! * Under 30% loss, a churn storm, and a healed two-way partition, the
//!   fleet reconverges to ≥95% route reachability within the horizon.
//! * A Sybil swarm running an eclipse lure ends with no attacker
//!   identity in any honest node's active view.
//! * A swarm forging only *third-party* links (invisible to the
//!   first-hand audit) ends with zero forged links in any honest
//!   routing graph and every lure origin banned by ≥90% of the fleet.
//! * Same seed + config ⇒ byte-identical robustness reports.
//!
//! The n=1000 scale scenario runs in the bench binary (`chaos_fleet
//! --quick`), not here — it needs a release build to finish quickly.

use egoist_proto::fleet::{
    run_fleet, storm_partition_profile, sybil_eclipse_profile, third_party_lure_profile,
};
use egoist_proto::node::Tally;
use std::sync::RwLock;

/// The obs registry is process-global: the one test that reads counters
/// holds this exclusively, every other fleet in this binary shares it.
static OBS: RwLock<()> = RwLock::new(());

fn shared_obs() -> std::sync::RwLockReadGuard<'static, ()> {
    OBS.read().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn storm_partition_fleet_reconverges() {
    let _obs = shared_obs();
    let cfg = storm_partition_profile(true);
    let r = run_fleet(&cfg);
    // The scheduled faults actually disturbed routing…
    assert!(
        r.min_reachability < 0.90,
        "faults never bit (min reachability {}): {:?}",
        r.min_reachability,
        r.timeline
    );
    assert!(r.fault.dropped > 0, "30% loss produced no drops?");
    assert!(r.fault.cut > 0, "partition/storm windows cut nothing?");
    // …and the fleet healed before the horizon.
    assert!(
        r.final_reachability >= 0.95,
        "fleet did not reconverge: final reachability {} timeline {:?}",
        r.final_reachability,
        r.timeline
    );
    for w in &r.windows {
        assert!(
            w.recovery_secs.is_some(),
            "window {:?} [{}, {}) never reconverged: {:?}",
            w.kind,
            w.from,
            w.to,
            r.timeline
        );
    }
}

/// Routes that deliver (ROADMAP item 19's exit test): a k-Random fleet
/// in the judge fleets' regime (`chaos_n1000_profile`'s fan-out, timers,
/// 10 ms wheel and 10% loss) at n = 40, with one churn window over a
/// quarter of the fleet, ends with at least 95% of the ordered pairs
/// delivered by following the next hops, at most 1% looping, and every
/// node linked by some other node. Before the wiring held still, every
/// node redrew its links each epoch and about half of the pairs looped.
#[test]
fn a_random_fleet_delivers_without_loops_or_orphans() {
    use egoist_graph::NodeId;
    use egoist_netsim::FaultPlan;
    use egoist_proto::fleet::{chaos_n1000_profile, run_fleet_with_views};
    use std::time::Duration;

    let _obs = shared_obs();
    let mut cfg = chaos_n1000_profile(true);
    cfg.scenario = "random_delivers".to_string();
    cfg.n = 40;
    cfg.seed = 11;
    cfg.horizon = Duration::from_secs(240);
    let storm = (0..10).map(NodeId::from_index).collect();
    cfg.plan = FaultPlan::new().churn_storm(60.0, 120.0, storm, 30.0, 0.3);
    let (r, views) = run_fleet_with_views(&cfg);
    assert!(
        r.fault.dropped > 0 && r.fault.cut > 0,
        "the faults never bit"
    );
    let d = r.delivery.expect("a k-Random fleet reports its route walk");
    assert!(
        d.final_delivered >= 0.95,
        "{d:?}, timeline {:?}",
        r.timeline
    );
    assert!(d.final_looped <= 0.01, "{d:?}");
    let mut in_degree = vec![0; cfg.n];
    for v in views.iter().flatten() {
        for w in v.wiring.iter().filter(|w| w.index() < cfg.n) {
            in_degree[w.index()] += 1;
        }
    }
    let orphans: Vec<usize> = (0..cfg.n).filter(|&i| in_degree[i] == 0).collect();
    assert!(
        orphans.is_empty(),
        "nodes no other node links to: {orphans:?}"
    );
}

#[test]
fn sybil_eclipse_is_defeated() {
    let _obs = shared_obs();
    let cfg = sybil_eclipse_profile(true);
    let r = run_fleet(&cfg);
    assert_eq!(
        r.attacker_in_active_views, 0,
        "attacker identities survive in honest active views"
    );
    assert!(
        r.attacker_ban_pairs > 0,
        "peer scoring never banned any Sybil identity"
    );
    // The swarm was really constrained by its one endpoint budget.
    let a = r.adversary.expect("adversary stats in report");
    assert!(a.sent > 0, "swarm sent nothing");
    assert!(
        a.pongs > 0,
        "swarm answered no pings (the lure needs measurable identities)"
    );
    // Honest routing survives the attack.
    assert!(
        r.final_reachability >= 0.95,
        "attack degraded honest routing: {}",
        r.final_reachability
    );
}

#[test]
fn third_party_forgery_is_quarantined_and_banned() {
    let _obs = shared_obs();
    let cfg = third_party_lure_profile(true);
    let r = run_fleet(&cfg);
    // The ranking engine actually fired on the forged claims…
    assert!(
        r.tallies[Tally::ClaimsContradicted] > 0,
        "no third-party claim was ever contradicted"
    );
    assert!(
        r.tallies[Tally::LinksQuarantined] > 0,
        "no forged link was ever quarantined from route computation"
    );
    // …and no forged link survives in any honest routing graph.
    assert_eq!(
        r.forged_links_in_routes, 0,
        "forged third-party links leaked into honest routing graphs"
    );
    // Repeatedly-contradicted origins end up banned fleet-wide.
    let frac = r.lure_ban_frac.expect("sybil scenario has a ban fraction");
    assert!(
        frac >= 0.9,
        "lure origins banned by only {:.0}% of honest nodes",
        frac * 100.0
    );
    assert_eq!(
        r.attacker_in_active_views, 0,
        "attacker identities survive in honest active views"
    );
    // Honest routing survives the attack.
    assert!(
        r.final_reachability >= 0.95,
        "attack degraded honest routing: {}",
        r.final_reachability
    );
}

#[test]
fn chaos_reports_are_byte_identical_across_runs() {
    let _obs = shared_obs();
    let cfg = storm_partition_profile(true);
    let a = run_fleet(&cfg).to_json();
    let b = run_fleet(&cfg).to_json();
    assert_eq!(a, b, "same-seed chaos reports must be byte-identical");
}

/// FNV-1a over a report's JSON bytes.
fn fnv(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a fleet put on the wire, as counts every runner reproduces:
/// `(class, frames, bytes)` per message class, then the `[ae_pushed,
/// ae_pulls, gossip_forwards, ae_refreshed, ae_refresh_pulls]` sums. The
/// report fingerprints cover these too; pinned by name, a codec or LSDB
/// change that alters what is sent says *which* class moved instead of
/// "the hash changed".
type WireTotals = (Vec<(String, u64, u64)>, [u64; 5]);

fn wire_totals(r: &egoist_proto::fleet::RobustnessReport) -> WireTotals {
    (
        r.overhead.clone(),
        [
            r.tallies[Tally::AePushed],
            r.tallies[Tally::AePulls],
            r.tallies[Tally::GossipForwards],
            r.tallies[Tally::AeRefreshed],
            r.tallies[Tally::AeRefreshPulls],
        ],
    )
}

fn wire_golden(classes: [(&str, u64, u64); 6], sums: [u64; 5]) -> WireTotals {
    let classes = classes.map(|(class, frames, bytes)| (class.to_string(), frames, bytes));
    (classes.to_vec(), sums)
}

/// The best-response golden below: `golden_br`'s report bytes, what it
/// put on the wire, and the work behind those bytes — the rows per-row
/// sweeps computed before they were batched (commit fa8f973), all of them
/// now announced to one batch per job, and a label-correcting pass that
/// stays near-linear on announced graphs. Reads the process-global obs
/// registry: the caller holds `OBS` for writing.
fn assert_golden_br(after: &str) {
    use egoist_proto::fleet::FleetConfig;
    use std::time::Duration;

    let mut br = FleetConfig::new("golden_br", 24, 3, 2024);
    br.horizon = Duration::from_secs(90);
    br.ping_sample = 4;
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();
    let report = run_fleet(&br);
    egoist::obs::disable();
    assert_eq!(
        fnv(&report.to_json()),
        0x9dcf_8b69_b54f_0a52,
        "best-response fleet{after}"
    );
    assert_eq!(
        wire_totals(&report),
        wire_golden(
            [
                ("bootstrap", 35, 560),
                ("sync", 358, 12_809),
                ("link_state", 94_575, 2_078_126),
                ("measurement", 3_945, 205_140),
                ("heartbeat", 2_239, 116_428),
                ("control", 0, 0),
            ],
            [24, 0, 19_098, 18, 0],
        ),
        "best-response fleet{after}: frames and bytes on the wire"
    );
    let (batches, _) = reg.span_value("proto.rewire.job");
    let rows = reg.counter_value("proto.rewire.rows_materialised");
    let pops = reg.counter_value("graph.sweep_many.pops");
    assert_eq!(
        (batches, rows),
        (231, 4142),
        "jobs, residual rows computed{after}"
    );
    assert_eq!(reg.counter_value("graph.sweep_many.sources"), rows);
    assert!(
        0 < pops && pops <= 8 * br.n as u64 * batches,
        "{pops} pops over {batches} batches of n={}{after}",
        br.n
    );
}

/// The node's route computation moved from dense `apsp` + `dijkstra` on
/// a `DiGraph` to on-demand residual rows and one CSR sweep; the pins
/// were the report bytes the dense path produced (commit 5146b53).
/// One best-response fleet in the bounded-measurement regime, where most
/// residual rows are never read ([`assert_golden_br`]), and one
/// oblivious-wiring fleet under a fault plan, where only `publish()`
/// computes routes.
///
/// Since anti-entropy sends refreshes as refreshes (codec v3), the only
/// change to either fleet is the `sync` bytes, and the report's two new
/// anti-entropy fields. Frames, every other class and every other sum
/// are the dense path's:
///
/// | fleet | `sync` bytes | refreshed | refresh pulls | fingerprint |
/// |---|---|---|---|---|
/// | best response | 60 884 → 60 622 | 13 | 0 | `0x7eb4d846fa38b2bf` → `0x4d8f6c1ec9f1113d` |
/// | Random, faults | 63 314 → 63 074 | 12 | 0 | `0x7582898f4d4b7021` → `0x0c8bdf4792c581b7` |
///
/// Codec v4 packs the anti-entropy frames into varints: again only the
/// `sync` bytes and the fingerprints move, every frame count and sum
/// stays:
///
/// | fleet | `sync` bytes | fingerprint |
/// |---|---|---|
/// | best response | 60 622 → 18 822 | `0x4d8f6c1ec9f1113d` → `0x067de6e63a40802e` |
/// | Random, faults | 63 074 → 21 072 | `0x0c8bdf4792c581b7` → `0xaf957ebf12f0ad4f` |
///
/// Probing before announcing is a behaviour change: a node holds an LSA
/// that would price a never-pinged wired link until that link's pong
/// lands, so what is announced, and when, moves, and the report gains
/// `gossip.unmeasured_links`. The best-response fleet announces as often
/// (907 LSAs) but each release goes out a pong later, to a larger
/// in-neighbor set; its jobs see two more residual rows (4 140 → 4 142).
/// The Random fleet re-announces no placeholder corrections:
///
/// | fleet | announces | `link_state` bytes | `sync` bytes | fingerprint |
/// |---|---|---|---|---|
/// | best response | 907 → 907 | 4 672 383 → 4 813 229 | 18 822 → 18 499 | `0x067de6e63a40802e` → `0x71912b02e5062c74` |
/// | Random, faults | 905 → 871 | 3 883 166 → 3 815 796 | 21 072 → 19 062 | `0xaf957ebf12f0ad4f` → `0x340ed87ea0e302b4` |
///
/// Codec v5 writes a pushed link's cost as a one-byte cost word and a
/// digest's origins as runs: only the `sync` bytes and the fingerprints
/// move, every frame count and sum stays:
///
/// | fleet | `sync` bytes | fingerprint |
/// |---|---|---|
/// | best response | 18 499 → 12 809 | `0x71912b02e5062c74` → `0xf04a0b4ec70d05d3` |
/// | Random, faults | 19 062 → 13 500 | `0x340ed87ea0e302b4` → `0x974746c1d754b917` |
///
/// Codec v6 writes the gossiped `LinkState` frame in the pushed-LSA
/// layout: only the `link_state` bytes and the fingerprints move, every
/// frame count (94 575 and 75 284 `link_state` frames), every other class
/// and every sum stays:
///
/// | fleet | `link_state` bytes | fingerprint |
/// |---|---|---|
/// | best response | 4 813 229 → 2 078 126 | `0xf04a0b4ec70d05d3` → `0x9dcf8b69b54f0a52` |
/// | Random, faults | 3 815 796 → 1 650 326 | `0x974746c1d754b917` → `0x0852909a0696fdf5` |
///
/// A k-Random report carries the route walk (`final_delivered`,
/// `min_delivered`, `final_looped`); a best-response report does not, so
/// `golden_br` keeps its bytes. The walk alone moves only the Random
/// fingerprint (`0x0852909a0696fdf5` → `0x9ae6590427b219b3`; delivered
/// 0.699, looped 0.168). Then a k-Random node stops redrawing its wiring
/// every epoch — it keeps its links to known peers and gives free slots
/// to orphans first — a behaviour change that moves every class:
///
/// | Random, faults | before | after |
/// |---|---|---|
/// | rewirings | 231 | 68 |
/// | announces | 871 | 880 |
/// | `link_state` frames / bytes | 75 284 / 1 650 326 | 74 738 / 1 639 140 |
/// | `sync` frames / bytes | 401 / 13 500 | 386 / 14 151 |
/// | all bytes | 2 455 134 | 2 442 875 |
/// | `final_reachability` | 0.900 | 1.000 |
/// | `final_delivered` / `final_looped` | 0.699 / 0.168 | 1.000 / 0.000 |
/// | fingerprint | `0x9ae6590427b219b3` | `0x029fce16d21df7f5` |
#[test]
fn fleet_reports_match_the_dense_route_computation() {
    use egoist_core::policies::PolicyKind;
    use egoist_graph::NodeId;
    use egoist_netsim::{FaultConfig, FaultPlan};
    use egoist_proto::fleet::FleetConfig;
    use std::time::Duration;

    let _obs = OBS.write().unwrap_or_else(|e| e.into_inner());
    assert_golden_br("");

    let mut random = FleetConfig::new("golden_random_faults", 24, 3, 2025);
    random.horizon = Duration::from_secs(90);
    random.policy = PolicyKind::Random;
    random.fault = FaultConfig {
        drop_chance: 0.1,
        ..FaultConfig::default()
    };
    random.plan = FaultPlan::new()
        .churn_storm(20.0, 45.0, (0..6).map(NodeId).collect(), 10.0, 0.4)
        .partition(50.0, 65.0, vec![vec![], (20..24).map(NodeId).collect()]);
    let report = run_fleet(&random);
    assert_eq!(
        fnv(&report.to_json()),
        0x029f_ce16_d21d_f7f5,
        "Random-wiring fleet under a fault plan"
    );
    assert_eq!(
        wire_totals(&report),
        wire_golden(
            [
                ("bootstrap", 53, 848),
                ("sync", 386, 14_151),
                ("link_state", 74_738, 1_639_140),
                ("measurement", 13_231, 688_012),
                ("heartbeat", 1_937, 100_724),
                ("control", 0, 0),
            ],
            [104, 13, 15_770, 27, 0],
        ),
        "Random-wiring fleet: frames and bytes on the wire"
    );
}

/// A re-wiring job keeps its policy object (with its solver arena) and
/// its residual rows' storage per thread, and a fleet runs every job on
/// the thread that runs it. Fleets run one after another on one thread —
/// a larger best-response fleet, then one whose policy is Random — must
/// leak nothing through that scratch: `golden_br` keeps its bytes, wire
/// totals and job / row counts after each. Holds `OBS` for writing, as
/// the golden reads the registry.
#[test]
fn per_thread_scratch_cannot_leak_between_fleets() {
    use egoist_core::policies::PolicyKind;
    use egoist_proto::fleet::FleetConfig;
    use std::time::Duration;

    let _obs = OBS.write().unwrap_or_else(|e| e.into_inner());
    let mut br = FleetConfig::new("br_n60", 60, 4, 60);
    br.horizon = Duration::from_secs(60);
    br.ping_sample = 8;
    assert!(run_fleet(&br).final_reachability > 0.0);
    assert_golden_br(" after an n = 60 BR fleet");
    let mut random = FleetConfig::new("random_n60", 60, 3, 61);
    random.horizon = Duration::from_secs(60);
    random.policy = PolicyKind::Random;
    assert!(run_fleet(&random).final_reachability > 0.0);
    assert_golden_br(" after a Random fleet");
}

/// Refreshes as refreshes, in the benchmark's best-response regime
/// (`fleet_br_n300`'s knobs — `chaos_n1000_profile`'s fan-out, ttl,
/// timers and 10 ms wheel — with BR wiring on a pristine network, at
/// n = 40). A best-response fleet keeps re-announcing a stable wiring, so
/// most of what anti-entropy pushes is a refresh; the rule must catch
/// those and almost never guess wrong:
///
/// * pulls for entries whose links the receiver did not hold stay
///   under 1% of the entries sent;
/// * LSAs that still arrived in full with links byte-equal to the stored
///   copy (`proto.ae.recv_equal`) stay under 10% of the entries applied.
///   Pull answers are always full, and at n = 40 they are where those
///   arrive: seed 11 has 102 against 1 240 applied, and at n = 300 it is
///   5 227 against 464 678. Before nodes probed before announcing it was
///   99 against 1 232, none of them in a digest answer, and 3 907 against
///   472 540, 803 of them in digest answers after an A-B-A link history.
#[test]
fn best_response_fleet_sends_refreshes_as_refreshes() {
    use egoist_core::policies::PolicyKind;
    use egoist_netsim::{FaultConfig, FaultPlan};
    use egoist_proto::fleet::chaos_n1000_profile;
    use std::time::Duration;

    let _obs = OBS.write().unwrap_or_else(|e| e.into_inner());
    let mut cfg = chaos_n1000_profile(true);
    cfg.scenario = "refresh_br".to_string();
    cfg.n = 40;
    cfg.seed = 11;
    cfg.horizon = Duration::from_secs(200);
    cfg.policy = PolicyKind::BestResponse;
    cfg.fault = FaultConfig::default();
    cfg.plan = FaultPlan::new();
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();
    let r = run_fleet(&cfg);
    egoist::obs::disable();

    let count = |name: &str| reg.counter_value(&format!("proto.ae.{name}"));
    let (sent, applied, pulled) = (
        count("refresh_sent"),
        count("refresh_applied"),
        count("refresh_pulled"),
    );
    let equal = count("recv_equal");
    assert!(
        applied > 0 && applied <= sent,
        "{applied} applied of {sent} sent"
    );
    assert!(100 * pulled <= sent, "{pulled} pulled of {sent} sent");
    assert!(
        10 * equal <= applied,
        "{equal} equal full LSAs, {applied} applied entries"
    );
    // The report carries the same tallies as of each node's last
    // published view, as a subset of what was pushed; a pull frame goes
    // out only when some entry was pulled.
    assert!(0 < r.tallies[Tally::AeRefreshed] && r.tallies[Tally::AeRefreshed] <= sent);
    assert!(r.tallies[Tally::AeRefreshed] <= r.tallies[Tally::AePushed]);
    assert!(r.tallies[Tally::AeRefreshPulls] <= pulled);
    assert!(r.final_reachability >= 0.95, "{}", r.final_reachability);
}

/// Probe before announcing, in the judge fleets' regime
/// (`chaos_n1000_profile`'s k-Random wiring, fan-out, timers and 10 ms
/// wheel) at n = 24 with no loss and no faults: every probe is answered,
/// so every held announcement is released priced as measured and no LSA
/// ever carries the placeholder cost, from the first join on. Holds do
/// happen (k-Random re-draws its wiring every epoch), and nobody is
/// evicted: seed 11 holds 36 of its 189 announcements until their
/// probes return, and bans no one.
#[test]
fn a_loss_free_random_fleet_announces_only_measured_links() {
    use egoist_netsim::{FaultConfig, FaultPlan};
    use egoist_proto::fleet::chaos_n1000_profile;
    use std::time::Duration;

    let _obs = OBS.write().unwrap_or_else(|e| e.into_inner());
    let mut cfg = chaos_n1000_profile(true);
    cfg.scenario = "measured_links".to_string();
    cfg.n = 24;
    cfg.seed = 11;
    cfg.horizon = Duration::from_secs(120);
    cfg.fault = FaultConfig::default();
    cfg.plan = FaultPlan::new();
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();
    let r = run_fleet(&cfg);
    egoist::obs::disable();

    let held = reg.counter_value("proto.announce.held");
    assert!(held > 0, "no announcement was held for a probe");
    assert_eq!(reg.counter_value("proto.announce.unmeasured_links"), 0);
    assert_eq!(
        r.tallies[Tally::UnmeasuredLinks],
        0,
        "{} announces",
        r.tallies[Tally::Announces]
    );
    assert_eq!(
        (
            r.tallies[Tally::Evictions],
            r.tallies[Tally::LinksQuarantined]
        ),
        (0, 0)
    );
    assert!(r.final_reachability >= 0.95, "{}", r.final_reachability);
}
