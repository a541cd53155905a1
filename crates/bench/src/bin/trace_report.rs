//! End-to-end trace report: runs the matrix microbenchmark on both
//! stacks with span recording on, exports a Perfetto-loadable Chrome
//! trace plus the secure-DMA phase table, and self-checks the result
//! (non-empty trace, category coverage, accounting reconciliation,
//! same-seed determinism). Used by `scripts/ci.sh` as a smoke test.
//!
//! Usage: `trace_report [output-dir]` (default `target/trace-report`).
//! Open the emitted `*.trace.json` at <https://ui.perfetto.dev>.

use hix_bench::json::{parse_json, Json};
use hix_bench::{bench_rig, fail, MatrixAt};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::GPU_BDF;
use hix_driver::Gdev;
use hix_obs::chrome_trace_json;
use hix_sim::EventKind;
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::matrix::MatrixOp;
use hix_workloads::Workload;

/// One traced run of a stack: Perfetto JSON + obs snapshot + phase table.
struct TracedRun {
    json: String,
    snapshot: String,
    phase_table: String,
    categories: Vec<&'static str>,
}

fn run_gdev(workload: &dyn Workload) -> TracedRun {
    let mut machine = bench_rig();
    machine.trace().set_recording(true);
    let model = machine.model().clone();
    let pid = machine.create_process();
    let mut gdev = Gdev::open(&mut machine, pid, GPU_BDF).expect("gdev open");
    gdev.set_pageable(workload.gdev_pageable());
    workload
        .run_synthetic(&mut machine, &mut GdevExec::new(&mut gdev), &model)
        .expect("gdev run");
    gdev.close(&mut machine).expect("gdev close");
    collect(&machine, "gdev")
}

fn run_hix(workload: &dyn Workload) -> TracedRun {
    let mut machine = bench_rig();
    machine.trace().set_recording(true);
    let model = machine.model().clone();
    let mut enclave =
        GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).expect("enclave");
    let profile = workload.profile(&model);
    let window =
        hix_core::runtime::shared_window_for(&model, profile.htod.max(profile.dtoh));
    let mut session =
        HixSession::connect_with(&mut machine, &mut enclave, window, b"trace-user")
            .expect("session");
    workload
        .run_synthetic(
            &mut machine,
            &mut HixExec::new(&mut session, &mut enclave),
            &model,
        )
        .expect("hix run");
    session.close(&mut machine, &mut enclave).expect("close");
    collect(&machine, "hix")
}

fn collect(machine: &hix_platform::Machine, tag: &str) -> TracedRun {
    let trace = machine.trace();
    let obs = trace.obs();

    // Reconciliation: the legacy per-kind accounting and the obs span
    // totals must agree exactly — they are the same accumulator, so any
    // drift here means double counting.
    for kind in EventKind::ALL {
        let legacy = trace.total(kind).as_nanos();
        let span_ns = obs.category_ns(kind.as_str());
        if legacy != span_ns {
            fail(&format!(
                "{tag}: accounting drift for {kind}: trace={legacy} obs={span_ns}"
            ));
        }
    }

    let spans = obs.spans();
    let mut categories: Vec<&'static str> =
        spans.iter().map(|s| s.category).collect();
    categories.sort_unstable();
    categories.dedup();

    TracedRun {
        json: chrome_trace_json(&spans, tag),
        snapshot: obs.snapshot(),
        phase_table: hix_obs::phase_table(obs),
        categories,
    }
}

/// Structural self-check of the exported Chrome trace: the file must be
/// one well-formed JSON object whose `traceEvents` rows Perfetto can
/// actually render — anything malformed exits non-zero instead of
/// shipping a trace the UI would silently reject.
fn check_perfetto(tag: &str, text: &str) {
    let json = match parse_json(text) {
        Ok(j) => j,
        Err(e) => fail(&format!("{tag} trace is not valid JSON: {e}")),
    };
    let Some(events) = json.get("traceEvents").and_then(Json::as_arr) else {
        fail(&format!("{tag} trace has no traceEvents array"));
    };
    if events.is_empty() {
        fail(&format!("{tag} trace is empty"));
    }
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph").and_then(Json::as_str) {
            Some(ph) => ph,
            None => fail(&format!("{tag} trace event {i} has no phase")),
        };
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(Json::as_num).is_none() {
                fail(&format!("{tag} trace event {i} ({ph}) has no numeric {key}"));
            }
        }
        if ph == "X" {
            // Complete spans need a renderable placement: non-negative
            // timestamp and duration, and a name for the track label.
            for key in ["ts", "dur"] {
                match ev.get(key).and_then(Json::as_num) {
                    Some(x) if x >= 0.0 => {}
                    _ => fail(&format!("{tag} trace event {i} has bad {key}")),
                }
            }
            if ev.get("name").and_then(Json::as_str).is_none_or(str::is_empty) {
                fail(&format!("{tag} trace event {i} has no name"));
            }
            complete += 1;
        }
    }
    if complete == 0 {
        fail(&format!("{tag} trace parsed but has no complete spans"));
    }
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace-report".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let workload = MatrixAt { op: MatrixOp::Add, n: 2048 };

    let gdev = run_gdev(&workload);
    let hix = run_hix(&workload);

    // Same-seed determinism: a second run of each stack must be
    // byte-identical in both the exported trace and the snapshot.
    let gdev2 = run_gdev(&workload);
    let hix2 = run_hix(&workload);
    if gdev.json != gdev2.json || gdev.snapshot != gdev2.snapshot {
        fail("gdev trace is not deterministic across same-seed runs");
    }
    if hix.json != hix2.json || hix.snapshot != hix2.snapshot {
        fail("hix trace is not deterministic across same-seed runs");
    }

    for (tag, run) in [("gdev", &gdev), ("hix", &hix)] {
        if !run.json.contains("\"ph\":\"X\"") {
            fail(&format!("{tag} trace contains no complete spans"));
        }
        check_perfetto(tag, &run.json);
    }
    if hix.categories.len() < 6 {
        fail(&format!(
            "hix trace covers only {} categories ({:?}); expected at least 6",
            hix.categories.len(),
            hix.categories
        ));
    }

    for (name, run) in [("gdev", &gdev), ("hix", &hix)] {
        let path = format!("{out_dir}/{name}.trace.json");
        std::fs::write(&path, &run.json).expect("write trace");
        std::fs::write(format!("{out_dir}/{name}.metrics.txt"), &run.snapshot)
            .expect("write metrics");
        println!(
            "{name}: {} span categories {:?} -> {path}",
            run.categories.len(),
            run.categories
        );
    }

    println!("\n== HIX metrics snapshot ==\n{}", hix.snapshot);
    println!("{}", hix.phase_table);
    println!("trace_report: OK (open the .trace.json files at https://ui.perfetto.dev)");
}
