//! Scale report: the weighted-fair scheduler's trajectory from 4 to
//! 10,000 tenants under seeded fault profiles. Sweeps users ∈ {4, 100,
//! 1k, 10k} × profiles {none, light, heavy} through `run_scaled` with a
//! bounded resident set (sealed-state parking), prints the markdown
//! table behind the EXPERIMENTS.md scale section, and emits
//! `BENCH_scale.json` — the repo's perf-trajectory file. Every cell is
//! self-checked: same-seed reruns must be bit-identical (outcome and
//! metrics snapshot), healthy tenants must finish within the fairness
//! bound, degraded profiles must never starve a healthy tenant, and the
//! makespan must stay sublinear in the tenant count.
//!
//! Usage:
//!   scale_report [OUT.json]            full sweep (10k included)
//!   scale_report --smoke [OUT.json]    4- and 100-user columns only
//!   scale_report --check FILE.json     check a report against its declaration

use hix_bench::json::Json;
use hix_bench::ledger::row;
use hix_bench::ledgers::scale::{CELLS, LEDGER};
use hix_bench::{bp_like_task, fail, vals};
use hix_core::multiuser::{
    run_scaled, seeded_session_faults, FaultProfile, Mode, ScaleOutcome, SchedulerConfig,
    SessionFaults, SessionSpec,
};
use hix_obs::{fmt_ns, percentile_sorted, percentile_sorted_pm, Metrics};
use hix_sim::CostModel;

/// One seed drives the whole sweep (per-cell populations are derived
/// from it and the cell coordinates, so cells stay independent).
const SEED: u64 = 7;
/// Admission bound for the sweep: 1k and 10k columns must park.
const MAX_RESIDENT: usize = 256;
/// Healthy tenants must all finish within this completion-time ratio.
const FAIR_BOUND: f64 = 2.0;
/// Degraded-profile slack: a healthy tenant under heavy faults may pay
/// at most this factor over the fault-free makespan of the same column.
const DEGRADED_SLACK: f64 = 1.5;

struct Cell {
    users: usize,
    profile: FaultProfile,
    outcome: ScaleOutcome,
    faults: Vec<SessionFaults>,
    /// Fairness over strictly healthy tenants (no fault burden at all):
    /// max/min completion-time ratio.
    fairness: f64,
    healthy_wait_p99: u64,
    healthy_wait_p999: u64,
}

fn healthy_indices(faults: &[SessionFaults]) -> Vec<usize> {
    faults
        .iter()
        .enumerate()
        .filter(|(_, f)| **f == SessionFaults::default())
        .map(|(i, _)| i)
        .collect()
}

fn run_cell(model: &CostModel, users: usize, profile: FaultProfile) -> Cell {
    let faults = seeded_session_faults(SEED ^ (users as u64).rotate_left(17), users, profile);
    let t = bp_like_task();
    let sessions: Vec<SessionSpec> = faults
        .iter()
        .map(|f| SessionSpec {
            task: t.clone(),
            weight: 1,
            faults: *f,
        })
        .collect();
    let mut cfg = SchedulerConfig::new(model);
    cfg.max_resident = MAX_RESIDENT;

    // Same-seed determinism: two fresh runs must agree bit-for-bit in
    // outcome and in every recorded metric.
    let m1 = Metrics::new();
    let outcome = run_scaled(model, &sessions, Mode::Hix, &cfg, Some(&m1));
    let m2 = Metrics::new();
    let again = run_scaled(model, &sessions, Mode::Hix, &cfg, Some(&m2));
    if outcome != again {
        fail(&format!("{users}/{}: rerun diverged", profile.name()));
    }
    if m1.snapshot() != m2.snapshot() {
        fail(&format!(
            "{users}/{}: metrics snapshot not deterministic",
            profile.name()
        ));
    }

    let healthy = healthy_indices(&faults);
    let fairness = {
        let comps: Vec<u64> = healthy
            .iter()
            .map(|&i| outcome.completions[i].as_nanos())
            .collect();
        match (comps.iter().max(), comps.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => 1.0,
        }
    };
    let mut waits: Vec<u64> = healthy
        .iter()
        .map(|&i| outcome.gpu_wait[i].as_nanos())
        .collect();
    waits.sort_unstable();
    let healthy_wait_p99 = percentile_sorted(&waits, 99).unwrap_or(0);
    // The p99.9 tail only separates from p99 past a thousand healthy
    // tenants — exactly the 10k column this sweep exists for.
    let healthy_wait_p999 = percentile_sorted_pm(&waits, 999).unwrap_or(0);
    Cell {
        users,
        profile,
        outcome,
        faults,
        fairness,
        healthy_wait_p99,
        healthy_wait_p999,
    }
}

fn check_cells(model: &CostModel, cells: &[Cell]) {
    let single = run_scaled(
        model,
        &[SessionSpec::new(bp_like_task())],
        Mode::Hix,
        &SchedulerConfig::new(model),
        None,
    )
    .makespan;
    for c in cells {
        let tag = format!("{}/{}", c.users, c.profile.name());
        // Fairness: every healthy tenant finishes within one round.
        if c.fairness > FAIR_BOUND {
            fail(&format!("{tag}: fairness ratio {:.3} > {FAIR_BOUND}", c.fairness));
        }
        // Sublinear trajectory: the per-user makespan must shrink as the
        // population grows (host work overlaps; only the serialized GPU
        // time scales), even with the parking churn of the bounded
        // resident set. The smallest column anchors each profile.
        let base = cells
            .iter()
            .filter(|b| b.profile == c.profile)
            .min_by_key(|b| b.users)
            .expect("cells nonempty");
        if c.users > base.users
            && c.outcome.makespan.as_nanos() * base.users as u64
                >= base.outcome.makespan.as_nanos() * c.users as u64
        {
            fail(&format!(
                "{tag}: per-user makespan {} not below the {}-user anchor {}",
                fmt_ns(c.outcome.makespan.as_nanos() / c.users as u64),
                base.users,
                fmt_ns(base.outcome.makespan.as_nanos() / base.users as u64),
            ));
        }
        // Absolute bound at scale: n tenants through one GPU must beat n
        // serial single-tenant runs outright.
        if c.users > MAX_RESIDENT
            && c.outcome.makespan.as_nanos() >= single.as_nanos() * c.users as u64
        {
            fail(&format!(
                "{tag}: makespan {} not sublinear vs {} x single {}",
                c.outcome.makespan, c.users, single
            ));
        }
        // Residency never exceeds the admission bound; oversubscribed
        // columns must actually exercise parking.
        if c.outcome.peak_resident > MAX_RESIDENT {
            fail(&format!("{tag}: peak resident {}", c.outcome.peak_resident));
        }
        if c.users > MAX_RESIDENT && c.outcome.parks == 0 {
            fail(&format!("{tag}: oversubscribed column never parked"));
        }
        // Evictions appear exactly where the population has repeat
        // offenders.
        let expected_evicted = c
            .faults
            .iter()
            .filter(|f| f.tdr_resets >= hix_core::multiuser::EVICT_AFTER)
            .count();
        let got_evicted = c.outcome.evicted.iter().filter(|e| **e).count();
        if expected_evicted != got_evicted {
            fail(&format!(
                "{tag}: {got_evicted} evicted, population has {expected_evicted} repeat offenders"
            ));
        }
    }
    // Degraded profiles never starve a healthy tenant: the slowest
    // healthy completion under faults stays within slack of the
    // fault-free makespan at the same scale.
    for c in cells {
        if c.profile == FaultProfile::None {
            continue;
        }
        let baseline = cells
            .iter()
            .find(|b| b.users == c.users && b.profile == FaultProfile::None)
            .expect("none column exists");
        let worst_healthy = healthy_indices(&c.faults)
            .iter()
            .map(|&i| c.outcome.completions[i].as_nanos())
            .max()
            .unwrap_or(0) as f64;
        let bound = baseline.outcome.makespan.as_nanos() as f64 * DEGRADED_SLACK;
        if worst_healthy > bound {
            fail(&format!(
                "{}/{}: healthy tenant starved ({} > {:.0})",
                c.users,
                c.profile.name(),
                worst_healthy,
                bound
            ));
        }
    }
}

fn ledger(model: &CostModel, cells: &[Cell]) -> Json {
    let cells: Vec<Json> = cells
        .iter()
        .map(|c| {
            let o = &c.outcome;
            row(CELLS, vals![
                c.users,
                c.profile.name(),
                o.makespan.as_nanos(),
                o.makespan.as_nanos() / c.users as u64,
                c.fairness,
                o.ctx_switches,
                o.parks,
                o.unparks,
                o.peak_resident,
                o.evicted.iter().filter(|e| **e).count(),
                c.healthy_wait_p99,
                c.healthy_wait_p999,
            ])
        })
        .collect();
    LEDGER.doc(vals![SEED, model.sched_quantum.as_nanos(), MAX_RESIDENT, cells])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, paths) = LEDGER.cli(&args);
    let out_path = paths.first().cloned().unwrap_or_else(|| "BENCH_scale.json".into());

    let model = CostModel::paper();
    let sizes: &[usize] = if smoke { &[4, 100] } else { &[4, 100, 1_000, 10_000] };
    let profiles = [FaultProfile::None, FaultProfile::Light, FaultProfile::Heavy];

    let mut cells = Vec::new();
    for &users in sizes {
        for profile in profiles {
            cells.push(run_cell(&model, users, profile));
        }
    }
    check_cells(&model, &cells);

    println!("# Scale sweep (bp-like tenants, max_resident = {MAX_RESIDENT}, seed {SEED})\n");
    println!("| users | profile | makespan | per-user | fairness | ctx switches | parks | evicted | healthy wait p99 | p99.9 |");
    println!("|------:|---------|---------:|---------:|---------:|-------------:|------:|--------:|-----------------:|------:|");
    for c in &cells {
        let o = &c.outcome;
        println!(
            "| {} | {} | {} | {} | {:.3} | {} | {} | {} | {} | {} |",
            c.users,
            c.profile.name(),
            fmt_ns(o.makespan.as_nanos()),
            fmt_ns(o.makespan.as_nanos() / c.users as u64),
            c.fairness,
            o.ctx_switches,
            o.parks,
            o.evicted.iter().filter(|e| **e).count(),
            fmt_ns(c.healthy_wait_p99),
            fmt_ns(c.healthy_wait_p999),
        );
    }

    if let Err(e) = LEDGER.write(&out_path, &ledger(&model, &cells)) {
        fail(&e);
    }
    println!("\nscale_report: all self-checks passed; wrote {out_path}");
}
