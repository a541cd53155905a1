//! `churn`: one client in a closed loop over full session lifecycles —
//! default `HixSession::connect`, `malloc` 4 KiB, HtoD, verified DtoH,
//! `close`. The control plane (attestation, DH, shared-window
//! allocation, enclave accept/close) dominates; bulk OCB is negligible.

use std::time::Instant;

use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixCoreError, HixSession};
use hix_platform::Machine;
use hix_sim::Payload;
use hix_testkit::rng::Rng;

use crate::{error_kind, rig, Ledger, Run, Window};

/// Lifecycles per instance.
const LIFECYCLES: usize = 20;
/// Host seconds of one instance on the reference machine.
const NOMINAL_INSTANCE_S: f64 = 1.0;
const LEN: u64 = 4 << 10;
/// Public calls per lifecycle: connect, malloc, htod, dtoh, close.
const LIFECYCLE_OPS: u64 = 5;
/// Set-ups per run at least, spread over the run; `setup_s` is their
/// 10th percentile. A churn set-up takes ~1 ms, so many are cheap.
const MIN_SETUPS: usize = 48;

/// One set-up, timed; `None` after recording a violation.
fn setup(run: &mut Run) -> Option<(Machine, GpuEnclave)> {
    let t = Instant::now();
    let open = run.tracer.enter("setup");
    let mut m = run.tracer.span("rig", rig);
    let launched = run.tracer.span("enclave_launch", || {
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default())
    });
    run.tracer.exit(open);
    match launched {
        Ok(e) => {
            run.setup_s.push(t.elapsed().as_secs_f64());
            Some((m, e))
        }
        Err(err) => {
            run.violation(format!("set-up failed: {err}"));
            None
        }
    }
}

fn lifecycle(
    run: &mut Run,
    m: &mut Machine,
    e: &mut GpuEnclave,
    p: &Payload,
) -> Result<(), HixCoreError> {
    let mut s = run.timed_connect(|| HixSession::connect(m, e))?;
    let tr = &mut run.tracer;
    let a = tr.span("malloc", || s.malloc(m, e, LEN))?;
    let id = tr.span("submit_htod", || s.submit_htod(m, e, a, p))?;
    tr.span("flush", || s.flush(m, e))?;
    let comps = tr.span("take_completions", || s.take_completions());
    let out = tr.span("dtoh", || s.memcpy_dtoh(m, e, a, LEN))?;
    run.journal_len_max = run.journal_len_max.max(s.journal_len() as u64);
    let tr = &mut run.tracer;
    tr.span("close", || s.close(m, e))?;
    if comps != [(id, CmdStatus::Ok)] {
        run.violation(format!(
            "expected one Ok completion for {id}, got {comps:?}"
        ));
    }
    if out.bytes() != p.bytes() {
        run.violation("DtoH differs from the bytes uploaded".into());
    }
    Ok(())
}

pub fn run(run: &mut Run) {
    let mut rng = Rng::new(run.seed);
    let pool: Vec<Payload> = (0..8)
        .map(|_| Payload::from_bytes(rng.bytes(LEN as usize)))
        .collect();
    let tape: Vec<usize> = (0..LIFECYCLES)
        .map(|_| rng.gen_range_usize(0..pool.len()))
        .collect();
    let instances = crate::instances(run.seconds, NOMINAL_INSTANCE_S, 2);
    for index in 0..instances {
        // Whole instances alternate traced/untraced in a traced run.
        let traced = index.is_multiple_of(2);
        // The spare set-ups are spread over the run, so `setup_s` sees
        // all of it; the last one serves the instance.
        for _ in 1..MIN_SETUPS.div_ceil(instances) {
            if setup(run).is_none() {
                return;
            }
        }
        let Some((mut m, mut e)) = setup(run) else {
            return;
        };
        let start = run.totals;
        let window = Window::open(&m);
        let t0 = Instant::now();
        for (i, &k) in tape.iter().enumerate() {
            run.tracer
                .begin_unit((index * LIFECYCLES + i) as u64, traced);
            let open = run.tracer.enter("lifecycle");
            let ts = Instant::now();
            let vts = m.clock().now().as_nanos();
            run.attempted += 1;
            match lifecycle(run, &mut m, &mut e, &pool[k]) {
                Ok(()) => {
                    run.totals.ops += LIFECYCLE_OPS;
                    run.totals.bytes += 2 * LEN;
                    run.totals.sessions += 1;
                }
                Err(err) => run.record_failure(error_kind(&err)),
            }
            run.tracer.exit(open);
            run.tracer.end_unit();
            run.unit_us.push((
                ts.elapsed().as_secs_f64() * 1e6,
                run.tracer.enabled() && traced,
            ));
            run.vt_unit_us
                .push((m.clock().now().as_nanos() - vts) as f64 / 1e3);
        }
        run.totals.secs += t0.elapsed().as_secs_f64();
        let ledger = Ledger::capture(&m, &window, LIFECYCLES as u64);
        run.totals.vt_s += ledger.makespan_ns as f64 / 1e9;
        run.end_slice(start);
        run.instance_ledger(ledger);
        if !run.violations.is_empty() {
            return;
        }
    }
    run.peak_rss_mb = crate::peak_rss_mb();
    if run.failed > 0 {
        run.violation(format!(
            "{} fault-free lifecycles failed: {:?}",
            run.failed, run.fail_kinds
        ));
    }
}
