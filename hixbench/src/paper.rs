//! `paper`: the workload that drives `hix-workloads` and the
//! `core::multiuser`/`sched` model engine. Each pass runs the nine
//! Rodinia apps functionally at test size over HIX and over Gdev (each
//! verified against its CPU reference by `Workload::run`) and the
//! Fig 8/9 multi-user model through `run_scaled`.
//!
//! [`fidelity`] computes the model-accuracy metrics from the same
//! measurements the `fig6_matrix`/`fig7_rodinia`/`fig8_multiuser2`/
//! `fig9_multiuser4` binaries print.

use std::time::Instant;

use hix_bench::{measure_both, MatrixAt};
use hix_core::multiuser::{run_multiuser, run_scaled, Mode, SchedulerConfig, SessionSpec};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::GPU_BDF;
use hix_driver::Gdev;
use hix_obs::Metrics;
use hix_platform::Machine;
use hix_sim::CostModel;
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::matrix::MatrixOp;
use hix_workloads::{rodinia_suite, Workload};

use crate::serve::MIN_SETUPS;
use crate::{rig, Ledger, Run, Window};

/// Paper overheads (percent) the cost model was tuned against: Fig 6
/// mul-11264 and add-11264 (~2.5x), Fig 7 BP, NW, PF and the Rodinia
/// average.
const TUNING_ANCHORS: [(&str, f64); 6] = [
    ("mul-11264", 6.34),
    ("add-11264", 150.0),
    ("BP", 81.5),
    ("NW", 70.1),
    ("PF", 154.0),
    ("rodinia-avg", 26.8),
];

/// Held-out paper results: average HIX/Gdev ratio at 2 and 4 users
/// (Figs 8 and 9), never used in calibration.
const HOLDOUT: [(u32, f64); 2] = [(2, 1.452), (4, 1.397)];

/// Average HIX/Gdev makespan ratio over the Rodinia suite at `users`
/// concurrent users, through `run_scaled` (the Fig 8/9 path). With
/// `metrics`, the scheduler's counters land there.
pub fn multiuser_ratio(model: &CostModel, users: u32, metrics: Option<&Metrics>) -> f64 {
    let suite = rodinia_suite();
    let mut sum = 0.0;
    for w in &suite {
        let spec = w.profile(model).task_spec();
        let sessions = vec![SessionSpec::new(spec); users as usize];
        let cfg = SchedulerConfig::new(model);
        let g = run_scaled(model, &sessions, Mode::Gdev, &cfg, metrics).makespan;
        let h = run_scaled(model, &sessions, Mode::Hix, &cfg, metrics).makespan;
        sum += h.as_nanos() as f64 / g.as_nanos() as f64;
    }
    sum / suite.len() as f64
}

/// `(fit_err_pts, holdout_err_pct)`: mean absolute error of the modeled
/// overheads against the tuning anchors, and mean relative error of the
/// Fig 8/9 averages against the held-out paper ratios.
pub fn fidelity(run: &mut Run) -> (f64, f64) {
    let model = CostModel::paper();
    let mut modeled: Vec<(String, f64)> = Vec::new();
    for (op, label) in [(MatrixOp::Mul, "mul-11264"), (MatrixOp::Add, "add-11264")] {
        modeled.push((
            label.into(),
            measure_both(&MatrixAt { op, n: 11264 }, label).overhead_pct(),
        ));
    }
    let mut rodinia_sum = 0.0;
    let suite = rodinia_suite();
    for w in &suite {
        let abbrev = w.profile(&model).abbrev;
        let pct = measure_both(w.as_ref(), abbrev).overhead_pct();
        rodinia_sum += pct;
        modeled.push((abbrev.into(), pct));
    }
    modeled.push(("rodinia-avg".into(), rodinia_sum / suite.len() as f64));

    println!("fidelity anchors (tuning set):");
    let mut fit = 0.0;
    for (label, paper) in TUNING_ANCHORS {
        let ours = modeled
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        println!("  {label:<12} model {ours:>+8.2}%  paper {paper:>+8.2}%");
        fit += (ours - paper).abs();
    }
    fit /= TUNING_ANCHORS.len() as f64;

    println!("fidelity held out (Figs 8/9, average HIX/Gdev):");
    let mut holdout = 0.0;
    for (users, paper) in HOLDOUT {
        let ours = multiuser_ratio(&model, users, None);
        // The figure binaries go through the legacy wrapper; both paths
        // must give the same number.
        let suite = rodinia_suite();
        let legacy: f64 = suite
            .iter()
            .map(|w| {
                let spec = w.profile(&model).task_spec();
                let g = run_multiuser(&model, &spec, users, Mode::Gdev).makespan;
                let h = run_multiuser(&model, &spec, users, Mode::Hix).makespan;
                h.as_nanos() as f64 / g.as_nanos() as f64
            })
            .sum::<f64>()
            / suite.len() as f64;
        if legacy != ours {
            run.violation(format!(
                "run_scaled ratio {ours} != fig{} ratio {legacy}",
                users + 6
            ));
        }
        println!("  {users} users     model {ours:.3}x  paper {paper:.3}x");
        holdout += (ours - paper).abs() / paper;
    }
    (fit, holdout / HOLDOUT.len() as f64 * 100.0)
}

struct PassOut {
    hix: Ledger,
    gdev_vt_ns: u64,
    ratios: (f64, f64),
}

fn hix_app(
    run: &mut Run,
    m: &mut Machine,
    e: &mut GpuEnclave,
    s: &mut HixSession,
    w: &dyn Workload,
) -> Result<(u64, u64), String> {
    let stats = run
        .tracer
        .span("rodinia_hix", || {
            w.run(m, &mut HixExec::new(s, e), w.test_size())
        })
        .map_err(|x| x.to_string())?;
    Ok((stats.htod_bytes, stats.dtoh_bytes))
}

fn gdev_app(run: &mut Run, m: &mut Machine, w: &dyn Workload) -> Result<(), String> {
    let pid = m.create_process();
    let mut gdev = run
        .tracer
        .span("gdev_open", || Gdev::open(m, pid, GPU_BDF))
        .map_err(|x| x.to_string())?;
    run.tracer
        .span("rodinia_gdev", || {
            w.run(m, &mut GdevExec::new(&mut gdev), w.test_size())
        })
        .map_err(|x| x.to_string())?;
    run.tracer
        .span("gdev_close", || gdev.close(m))
        .map_err(|x| x.to_string())?;
    Ok(())
}

/// Host seconds of one pass on the reference machine; the pass count is
/// `--seconds` over this, so every run does the same work whatever the
/// host's speed.
const NOMINAL_PASS_S: f64 = 0.08;

/// One measured pass: a unit per app (its HIX run, then its Gdev run),
/// then the Fig 8/9 model. Returns `None` after recording a violation.
fn pass(run: &mut Run, index: u64) -> Option<PassOut> {
    let suite = rodinia_suite();
    let t = Instant::now();
    let open = run.tracer.enter("setup");
    let mut hm = run.tracer.span("rig", rig);
    let launched = run.tracer.span("enclave_launch", || {
        GpuEnclave::launch(&mut hm, GpuEnclaveOptions::default())
    });
    let mut gm = run.tracer.span("rig", rig);
    // One HIX session serves the pass's nine apps, as one user would.
    let connected = launched.and_then(|mut e| {
        run.timed_connect(|| HixSession::connect(&mut hm, &mut e))
            .map(|s| (e, s))
    });
    run.tracer.exit(open);
    let (mut e, mut s) = match connected {
        Ok(x) => x,
        Err(err) => {
            run.violation(format!("set-up failed: {err}"));
            return None;
        }
    };
    run.setup_s.push(t.elapsed().as_secs_f64());

    let start = run.totals;
    let t0 = Instant::now();
    let hix_window = Window::open(&hm);
    let gdev_vt0 = gm.clock().now().as_nanos();
    // Whole passes alternate traced/untraced, so both halves see the
    // same app mix.
    let traced = index.is_multiple_of(2);
    for (i, w) in suite.iter().enumerate() {
        run.tracer
            .begin_unit(index * suite.len() as u64 + i as u64, traced);
        let open = run.tracer.enter("app");
        let ts = Instant::now();
        let vts = hm.clock().now().as_nanos() + gm.clock().now().as_nanos();
        run.attempted += 1;
        let result = hix_app(run, &mut hm, &mut e, &mut s, w.as_ref())
            .map(|(htod, dtoh)| run.totals.bytes += htod + dtoh)
            .map_err(|msg| format!("HIX: {msg}"))
            .and_then(|()| {
                gdev_app(run, &mut gm, w.as_ref()).map_err(|msg| format!("Gdev: {msg}"))
            });
        let vt = hm.clock().now().as_nanos() + gm.clock().now().as_nanos() - vts;
        run.vt_unit_us.push(vt as f64 / 1e3);
        run.tracer.exit(open);
        run.tracer.end_unit();
        run.unit_us.push((
            ts.elapsed().as_secs_f64() * 1e6,
            run.tracer.enabled() && traced,
        ));
        match result {
            Ok(()) => run.totals.ops += 2,
            Err(msg) => {
                // Workload::run verifies every app against its CPU
                // reference; a failure here is a wrong output.
                run.record_failure("app".into());
                run.violation(format!("{} on {msg}", w.name()));
            }
        }
    }
    run.journal_len_max = run.journal_len_max.max(s.journal_len() as u64);
    match run.tracer.span("close", || s.close(&mut hm, &mut e)) {
        Ok(()) => run.totals.sessions += 1,
        Err(err) => run.violation(format!("close failed: {err}")),
    }
    let hix = Ledger::capture(&hm, &hix_window, 1);
    let gdev_vt_ns = gm.clock().now().as_nanos() - gdev_vt0;

    let model = CostModel::paper();
    let sched = Metrics::new();
    let ratios = run.tracer.span("run_scaled", || {
        (
            multiuser_ratio(&model, 2, Some(&sched)),
            multiuser_ratio(&model, 4, Some(&sched)),
        )
    });
    // Each ratio runs both modes for every app.
    run.totals.ops += 4 * suite.len() as u64;
    run.totals.secs += t0.elapsed().as_secs_f64();
    run.totals.vt_s += (hix.makespan_ns + gdev_vt_ns) as f64 / 1e9;
    run.end_slice(start);
    let mut hix = hix;
    for name in ["sched.slices", "sched.ctx_switches"] {
        hix.counters.insert(name.into(), sched.counter(name));
    }
    Some(PassOut {
        hix,
        gdev_vt_ns,
        ratios,
    })
}

pub fn run(run: &mut Run) {
    let mut first: Option<(u64, (f64, f64))> = None;
    for index in 0..crate::instances(run.seconds, NOMINAL_PASS_S, MIN_SETUPS) {
        let Some(out) = pass(run, index as u64) else {
            return;
        };
        match first {
            None => first = Some((out.gdev_vt_ns, out.ratios)),
            Some(f) if f == (out.gdev_vt_ns, out.ratios) => {}
            Some(_) => run.violation(
                "a repeated pass changed Gdev virtual time or the Fig 8/9 ratios".into(),
            ),
        }
        run.instance_ledger(out.hix);
        if !run.violations.is_empty() {
            return;
        }
    }
    run.peak_rss_mb = crate::peak_rss_mb();
}
