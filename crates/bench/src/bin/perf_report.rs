//! Perf-trajectory report for the serving path: request-level latency
//! attribution, per-tenant SLO tables, and the critical-path profiler,
//! swept across fault profiles — each profile in *both* submission
//! engines. Four tenants serve a seeded round-robin op mix (one
//! transfer, six compute-plane fillers, a kernel, a sync per round)
//! through the full HIX stack with span recording and request
//! attribution on, once via the synchronous wrappers (one channel wake
//! per op) and once via explicit batch-8 submission rings; the report
//! prints the per-stage attribution, SLO, and doorbell-amortization
//! tables behind EXPERIMENTS.md, emits `BENCH_perf.json` (the
//! serving-path perf-trajectory file, now with a `batched` column per
//! profile) plus a folded-stacks flamegraph export, and self-checks
//! every cell:
//!
//! * **reconciliation (±0)** — attributed + unattributed charged time
//!   equals the legacy per-category accumulator exactly, and the stage
//!   rollup tiles the category sums;
//! * **critical path ≤ e2e** — every request's longest charged chain
//!   fits inside its end-to-end window (so queue = e2e − service ≥ 0);
//! * **determinism** — same-seed reruns are byte-identical in requests,
//!   snapshot, and emitted JSON;
//! * **engine equivalence** — batched and sync runs of a profile
//!   return byte-identical GPU results;
//! * **amortization** — on the clean profile batching cuts channel
//!   wakes per queued op by ≥ 4× at batch size 8, with a data-plane
//!   p99 end-to-end latency no worse than sync.
//!
//! Usage:
//!   perf_report [OUT.json [FOLDED.txt]]    full sweep
//!   perf_report --smoke [OUT.json]         fewer rounds, no folded file
//!   perf_report --check FILE.json          check a report against its declaration
//!
//! The folded-stacks file loads directly into `flamegraph.pl` or
//! speedscope; the Perfetto timeline of the same spans comes from
//! `trace_report`.

use hix_bench::json::Json;
use hix_bench::ledger::row;
use hix_bench::ledgers::perf::{BATCHED, LEDGER, PROFILES, SLO, STAGES};
use hix_bench::{fail, vals};
use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_obs::{
    critical_chain, critical_path_ns, fmt_ns, folded_stacks, roll_up_stages, RequestRecord,
    SloRow, Stage,
};
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::Payload;
use hix_workloads::all_kernels;

/// One seed drives the whole sweep.
const SEED: u64 = 11;
/// Concurrently-served tenants (sessions on one enclave).
const TENANTS: u64 = 4;
/// Matrix dimension of the kernel work (24×24 i32, multi-message).
const N: u64 = 24;
/// Compute-plane fillers per round; with the transfer, launch, and
/// sync the queueable stretch is 9 ops — two batch-8 frames, versus 9
/// doorbell rings for one-wake-per-op sync.
const FILLERS: usize = 6;
/// Queueable ops per tenant round (htod + fillers + launch + sync).
const MIX_OPS: u64 = FILLERS as u64 + 3;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One (profile, engine) cell's worth of serving-path evidence.
struct Cell {
    profile: &'static str,
    requests: Vec<RequestRecord>,
    /// Per-stage `(ns, spans)` across attributed + unattributed charge,
    /// in [`Stage::ALL`] order.
    stages: Vec<(Stage, u64, u64)>,
    unattributed_ns: u64,
    slo: Vec<SloRow>,
    makespan_ns: u64,
    /// The single longest critical path of the run and its request.
    longest_ns: u64,
    longest_op: String,
    snapshot: String,
    folded: String,
    /// Every round's DtoH result bytes — the engine-equivalence oracle.
    results: Vec<Vec<u8>>,
    /// Channel wakes accumulated inside the queueable stretches only
    /// (barrier ops ring the doorbell identically in both engines).
    mix_wakes: u64,
    /// Queueable ops across the run (`MIX_OPS` × tenants × rounds).
    mix_ops: u64,
    /// Submission frames served inside the queueable stretches (the
    /// synchronous wrappers ride single-command frames).
    frames: u64,
    /// p99 end-to-end latency of the cell's data-plane requests.
    data_p99_ns: u64,
}

impl Cell {
    /// Summed end-to-end, service and queue time over all requests.
    fn totals(&self) -> (u64, u64, u64) {
        (
            self.requests.iter().map(RequestRecord::e2e_ns).sum(),
            self.slo.iter().map(|r| r.service_ns).sum(),
            self.slo.iter().map(|r| r.queue_ns).sum(),
        )
    }
}

/// Requests batching can move; connect, load, malloc and close are the
/// same control-plane round trips in both engines.
const DATA_PLANE: [&str; 6] = ["memcpy_htod", "memcpy_dtoh", "memset", "memcpy_dtod", "launch", "sync"];

/// p99 over the data-plane requests' end-to-end windows (nearest-rank).
fn data_p99(requests: &[RequestRecord]) -> u64 {
    let mut v: Vec<u64> = requests
        .iter()
        .filter(|r| DATA_PLANE.contains(&r.name.as_str()))
        .map(RequestRecord::e2e_ns)
        .collect();
    v.sort_unstable();
    v[((v.len() * 99).div_ceil(100)).saturating_sub(1)]
}

fn run_cell(profile: &'static str, cfg: Option<FaultConfig>, rounds: u32, batched: bool) -> Cell {
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    if let Some(cfg) = cfg {
        m.set_fault_plan(FaultPlan::new(SEED ^ 0x9E4F, cfg));
    }
    m.trace().obs().set_recording(true);
    m.trace().obs().set_attributing(true);

    let mut enclave =
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launch");
    let mut sessions: Vec<HixSession> = (0..TENANTS)
        .map(|_| HixSession::connect(&mut m, &mut enclave).expect("connect"))
        .collect();
    for s in &mut sessions {
        s.load_module(&mut m, &mut enclave, "matrix.mul").expect("module");
    }
    let bytes = N * N * 4;
    let bufs: Vec<[hix_gpu::vram::DevAddr; 3]> = sessions
        .iter_mut()
        .map(|s| {
            [
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
                s.malloc(&mut m, &mut enclave, bytes).expect("malloc"),
            ]
        })
        .collect();

    // Seeded round-robin op mix: every tenant serves `rounds` requests
    // of htod → 6 compute fillers (memset | dtod) → launch → sync →
    // dtoh, with fillers drawn from a splitmix stream so profiles and
    // engines share the exact op tape (the fault plan has its own
    // stream). The queueable stretch is metered for channel wakes; the
    // dtoh barrier sits outside it (it costs one wake in both engines).
    let mut rng = SEED ^ 0x5EC5_E55A;
    let mut results = Vec::new();
    let mut mix_wakes = 0u64;
    let mut mix_frames = 0u64;
    let mut mix_ops = 0u64;
    for round in 0..rounds {
        for (t, s) in sessions.iter_mut().enumerate() {
            let [a, b, c] = bufs[t];
            let input: Vec<u8> = (0..bytes)
                .map(|i| (splitmix64(&mut rng) ^ i ^ round as u64) as u8)
                .collect();
            let fillers: Vec<bool> =
                (0..FILLERS).map(|_| splitmix64(&mut rng) % 2 == 0).collect();
            let wakes0 = m.trace().metrics().counter("cmdq.wakes");
            let frames0 = m.trace().metrics().counter("cmdq.frames");
            if batched {
                let mut ids = Vec::new();
                ids.push(
                    s.submit_htod(&mut m, &mut enclave, a, &Payload::from_bytes(input))
                        .expect("htod"),
                );
                for &memset in &fillers {
                    ids.push(if memset {
                        s.submit_memset(&mut m, &mut enclave, b, bytes, 0x2A).expect("memset")
                    } else {
                        s.submit_dtod(&mut m, &mut enclave, a, b, bytes).expect("dtod")
                    });
                }
                ids.push(
                    s.submit_launch(&mut m, &mut enclave, "matrix.mul", &[
                        a.value(),
                        b.value(),
                        c.value(),
                        N,
                    ])
                    .expect("launch"),
                );
                ids.push(s.submit_sync(&mut m, &mut enclave).expect("sync"));
                s.flush(&mut m, &mut enclave).expect("flush");
                let comps = s.take_completions();
                if comps.iter().map(|(id, _)| *id).collect::<Vec<_>>() != ids {
                    fail(&format!("{profile}: tenant {t} round {round}: non-FIFO completions"));
                }
                if comps.iter().any(|(_, st)| *st != CmdStatus::Ok) {
                    fail(&format!("{profile}: tenant {t} round {round}: command failed"));
                }
            } else {
                s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(input))
                    .expect("htod");
                for &memset in &fillers {
                    if memset {
                        s.memset(&mut m, &mut enclave, b, bytes, 0x2A).expect("memset");
                    } else {
                        s.memcpy_dtod(&mut m, &mut enclave, a, b, bytes).expect("dtod");
                    }
                }
                s.launch(&mut m, &mut enclave, "matrix.mul", &[
                    a.value(),
                    b.value(),
                    c.value(),
                    N,
                ])
                .expect("launch");
                s.sync(&mut m, &mut enclave).expect("sync");
            }
            mix_wakes += m.trace().metrics().counter("cmdq.wakes") - wakes0;
            mix_frames += m.trace().metrics().counter("cmdq.frames") - frames0;
            mix_ops += MIX_OPS;
            let out = s.memcpy_dtoh(&mut m, &mut enclave, c, bytes).expect("dtoh");
            if out.bytes().len() as u64 != bytes {
                fail(&format!("{profile}: tenant {t} round {round}: short dtoh"));
            }
            results.push(out.bytes().to_vec());
        }
    }
    for s in sessions.drain(..) {
        s.close(&mut m, &mut enclave).expect("close");
    }

    let obs = m.trace().obs();
    // Reconciliation invariant, checked on every cell: attributed +
    // unattributed charge equals the per-category accumulator ±0.
    if let Err(e) = obs.check_attribution() {
        fail(&format!("{profile}: {e}"));
    }
    let requests = obs.requests();
    if requests.is_empty() {
        fail(&format!("{profile}: no requests recorded"));
    }

    // Stage rollup across everything charged (requests + outside), and
    // a second tiling check: stage sums must equal the category sums.
    let mut by_category: Vec<(&'static str, u64, u64)> = obs.unattributed_totals();
    for rec in &requests {
        for (c, ns, n) in &rec.by_category {
            match by_category.iter_mut().find(|(lc, _, _)| lc == c) {
                Some((_, t, k)) => {
                    *t += ns;
                    *k += n;
                }
                None => by_category.push((c, *ns, *n)),
            }
        }
    }
    let stages = roll_up_stages(&by_category);
    let stage_ns: u64 = stages.iter().map(|(_, ns, _)| ns).sum();
    let category_ns: u64 = obs.totals().iter().map(|(_, ns, _)| ns).sum();
    if stage_ns != category_ns {
        fail(&format!(
            "{profile}: stage rollup {stage_ns} ns does not tile category totals {category_ns} ns"
        ));
    }

    // Critical path ≤ e2e for every request; track the run's longest.
    let mut longest_ns = 0u64;
    let mut longest_op = String::new();
    for rec in &requests {
        let path = critical_path_ns(rec);
        if path > rec.e2e_ns() {
            fail(&format!(
                "{profile}: request {} ({}): critical path {} ns exceeds e2e {} ns",
                rec.id,
                rec.name,
                path,
                rec.e2e_ns()
            ));
        }
        if path > longest_ns {
            longest_ns = path;
            longest_op = format!("{} (t{}, {} links)", rec.name, rec.tenant,
                critical_chain(rec).len());
        }
    }

    Cell {
        profile,
        slo: hix_obs::slo_table(&requests),
        stages,
        unattributed_ns: obs.unattributed_totals().iter().map(|(_, ns, _)| ns).sum(),
        makespan_ns: m.clock().now().as_nanos(),
        longest_ns,
        longest_op,
        snapshot: obs.snapshot(),
        folded: folded_stacks(&obs.spans(), "hix"),
        results,
        mix_wakes,
        mix_ops,
        frames: mix_frames,
        data_p99_ns: data_p99(&requests),
        requests,
    }
}

fn ledger(cells: &[(Cell, Cell)], rounds: u32) -> Json {
    let profiles: Vec<Json> = cells
        .iter()
        .map(|(c, batched)| {
            let stages: Vec<Json> = c
                .stages
                .iter()
                .map(|(stage, ns, count)| row(STAGES, vals![stage.as_str(), *ns, *count]))
                .collect();
            let slo: Vec<Json> = c
                .slo
                .iter()
                .map(|r| {
                    row(SLO, vals![
                        r.tenant.as_str(),
                        r.requests,
                        r.p50_ns,
                        r.p95_ns,
                        r.p99_ns,
                        r.p999_ns,
                        r.max_ns,
                        r.service_ns,
                        r.queue_ns,
                    ])
                })
                .collect();
            let (e2e, service, queue) = c.totals();
            row(PROFILES, vals![
                c.profile,
                c.requests.len(),
                c.makespan_ns,
                e2e,
                service,
                queue,
                c.data_p99_ns,
                c.mix_ops,
                c.mix_wakes,
                row(BATCHED, vals![
                    batched.mix_wakes,
                    batched.frames,
                    batched.data_p99_ns,
                    batched.requests.len(),
                ]),
                c.longest_ns,
                c.unattributed_ns,
                stages,
                slo,
            ])
        })
        .collect();
    LEDGER.doc(vals![SEED, TENANTS, rounds, profiles])
}

// ---- tables ----

fn print_cells(cells: &[(Cell, Cell)]) {
    println!("# Serving-path attribution ({TENANTS} tenants, seed {SEED})\n");
    println!("| profile | requests | e2e | service | queue | longest critical path | unattributed |");
    println!("|---------|---------:|----:|--------:|------:|-----------------------|-------------:|");
    for (c, _) in cells {
        let (e2e, service, queue) = c.totals();
        println!(
            "| {} | {} | {} | {} | {} | {} in {} | {} |",
            c.profile,
            c.requests.len(),
            fmt_ns(e2e),
            fmt_ns(service),
            fmt_ns(queue),
            fmt_ns(c.longest_ns),
            c.longest_op,
            fmt_ns(c.unattributed_ns),
        );
    }
    println!("\n## Doorbell amortization — sync vs batch-8 submission\n");
    println!(
        "| profile | ops | sync wakes | batched wakes | wakes/op sync | wakes/op batched | reduction | data p99 sync | data p99 batched |"
    );
    println!(
        "|---------|----:|-----------:|--------------:|--------------:|-----------------:|----------:|---------:|------------:|"
    );
    for (c, b) in cells {
        println!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {:.1}x | {} | {} |",
            c.profile,
            c.mix_ops,
            c.mix_wakes,
            b.mix_wakes,
            c.mix_wakes as f64 / c.mix_ops as f64,
            b.mix_wakes as f64 / b.mix_ops as f64,
            c.mix_wakes as f64 / b.mix_wakes as f64,
            fmt_ns(c.data_p99_ns),
            fmt_ns(b.data_p99_ns),
        );
    }
    for (c, _) in cells {
        println!("\n## {} — per-stage attribution\n", c.profile);
        println!("| stage | charged | spans |");
        println!("|-------|--------:|------:|");
        for (stage, ns, count) in &c.stages {
            if *count > 0 {
                println!("| {stage} | {} | {count} |", fmt_ns(*ns));
            }
        }
        println!("\n## {} — per-tenant SLO\n", c.profile);
        println!("| tenant | requests | p50 | p95 | p99 | p99.9 | max | service | queue |");
        println!("|--------|---------:|----:|----:|----:|------:|----:|--------:|------:|");
        for r in &c.slo {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                r.tenant,
                r.requests,
                fmt_ns(r.p50_ns),
                fmt_ns(r.p95_ns),
                fmt_ns(r.p99_ns),
                fmt_ns(r.p999_ns),
                fmt_ns(r.max_ns),
                fmt_ns(r.service_ns),
                fmt_ns(r.queue_ns),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, paths) = LEDGER.cli(&args);
    let rounds: u32 = if smoke { 3 } else { 8 };
    let out_path = paths.first().cloned().unwrap_or_else(|| "BENCH_perf.json".into());
    let folded_path = paths.get(1).cloned();

    let profiles: [(&str, Option<FaultConfig>); 3] = [
        ("none", None),
        ("light", Some(FaultConfig::light())),
        ("heavy", Some(FaultConfig::heavy())),
    ];
    let mut cells = Vec::new();
    for (tag, cfg) in profiles {
        let mut engines = Vec::new();
        for batched in [false, true] {
            let cell = run_cell(tag, cfg.clone(), rounds, batched);
            // Same-seed determinism: requests, snapshot, and folded
            // stacks must replay byte-identically — in both engines.
            let again = run_cell(tag, cfg.clone(), rounds, batched);
            if cell.requests != again.requests
                || cell.snapshot != again.snapshot
                || cell.folded != again.folded
            {
                fail(&format!("{tag} (batched={batched}): rerun diverged"));
            }
            engines.push(cell);
        }
        let batched = engines.pop().unwrap();
        let cell = engines.pop().unwrap();
        // Engine equivalence: the batched rings must not change a
        // single result byte, on any fault profile.
        if cell.results != batched.results {
            fail(&format!("{tag}: batched engine changed GPU results"));
        }
        cells.push((cell, batched));
    }

    print_cells(&cells);

    // The batching gates (fewer wakes on every profile; ≥4× and data p99 no
    // worse on the clean one) are ledger invariants, run on this write.
    if let Err(e) = LEDGER.write(&out_path, &ledger(&cells, rounds)) {
        fail(&e);
    }
    if let Some(folded_path) = &folded_path {
        // The heavy profile has the richest stacks (recovery frames).
        if let Err(e) = std::fs::write(folded_path, &cells.last().unwrap().0.folded) {
            fail(&format!("cannot write {folded_path}: {e}"));
        }
        println!("\nperf_report: wrote folded stacks to {folded_path}");
    }
    println!("\nperf_report: all self-checks passed; wrote {out_path}");
}
