//! # hix-bench — figure and table harnesses
//!
//! One binary per table/figure of the paper's evaluation (§5). All
//! measurements come from the simulator's virtual clock with the
//! calibrated cost model and *synthetic* payloads (paper-scale sizes
//! without paper-scale byte work); see DESIGN.md for the two-plane
//! design. Each binary prints the paper's reported numbers next to the
//! reproduction's.

#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod ledgers;

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_driver::Gdev;
use hix_gpu::device::GpuConfig;
use hix_platform::Machine;
use hix_sim::stats::Samples;
use hix_sim::{CostModel, Nanos, Payload};
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::{all_kernels, Profile, Workload};

/// Reports a failed self-check on stderr as `<bin>: FAILED: <msg>` and
/// exits non-zero.
pub fn fail(msg: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&argv0).file_stem().unwrap_or_default();
    // cargo names bench executables `<name>-<hash>`.
    let bin = stem.to_string_lossy().split('-').next().unwrap_or_default().to_string();
    eprintln!("{bin}: FAILED: {msg}");
    std::process::exit(1);
}

/// The Figure 8/9 "bp-like" profile every tenant of the scale and
/// fabric model sweeps runs.
pub fn bp_like_task() -> hix_core::multiuser::TaskSpec {
    hix_core::multiuser::TaskSpec {
        name: "bp-like".into(),
        htod: 117 << 20,
        dtoh: 42 << 20,
        kernel_time: Nanos::from_millis(22),
        launches: 2,
    }
}

/// Matrix dimension of the fault and watchdog smoke rounds (24×24 i32:
/// multi-message transfers, fast sweeps).
pub const MATRIX_N: u64 = 24;

/// Deterministic input bytes — a fixed arithmetic texture, so clean and
/// faulted runs of the same seed see identical matrices without any RNG
/// stream shared with the fault plan.
pub fn matrix_bytes(seed: u64, round: u32, which: u64) -> Vec<u8> {
    (0..MATRIX_N * MATRIX_N)
        .flat_map(|i| {
            let v = (seed ^ (round as u64) << 7 ^ which << 3)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(1442695040888963407));
            (((v >> 33) % 64) as i32).to_le_bytes()
        })
        .collect()
}

/// One secure matrix-multiply session: connect → load → 3× malloc → 2×
/// htod → launch → sync → dtoh → close. Returns the product's bytes.
pub fn matrix_round(m: &mut Machine, enclave: &mut GpuEnclave, seed: u64, round: u32) -> Vec<u8> {
    let n = MATRIX_N;
    let mut s = HixSession::connect(m, enclave).expect("connect");
    s.load_module(m, enclave, "matrix.mul").expect("module");
    let bytes = n * n * 4;
    let a = s.malloc(m, enclave, bytes).expect("malloc");
    let b = s.malloc(m, enclave, bytes).expect("malloc");
    let c = s.malloc(m, enclave, bytes).expect("malloc");
    s.memcpy_htod(m, enclave, a, &Payload::from_bytes(matrix_bytes(seed, round, 0)))
        .expect("htod a");
    s.memcpy_htod(m, enclave, b, &Payload::from_bytes(matrix_bytes(seed, round, 1)))
        .expect("htod b");
    s.launch(m, enclave, "matrix.mul", &[a.value(), b.value(), c.value(), n])
        .expect("launch");
    s.sync(m, enclave).expect("sync");
    let out = s.memcpy_dtoh(m, enclave, c, bytes).expect("dtoh");
    s.close(m, enclave).expect("close");
    out.bytes().to_vec()
}

/// Number of repetitions per measurement (the paper averages five runs).
pub const RUNS: usize = 5;

/// Builds the synthetic-mode benchmark machine.
pub fn bench_rig() -> Machine {
    bench_rig_with(CostModel::paper())
}

/// Builds the synthetic-mode benchmark machine with a custom cost model
/// (ablations and calibration sweeps).
pub fn bench_rig_with(model: CostModel) -> Machine {
    standard_rig(RigOptions {
        kernels: all_kernels(),
        gpu: GpuConfig {
            synthetic: true,
            ..GpuConfig::default()
        },
        machine: hix_platform::MachineConfig {
            model,
            ..hix_platform::MachineConfig::default()
        },
        ..RigOptions::default()
    })
}

/// Measures one full Gdev task (open → transfers/kernels → close),
/// averaged over [`RUNS`] repetitions.
pub fn measure_gdev(workload: &dyn Workload) -> Nanos {
    measure_gdev_with(workload, CostModel::paper())
}

/// [`measure_gdev`] under a custom cost model.
pub fn measure_gdev_with(workload: &dyn Workload, model: CostModel) -> Nanos {
    let mut machine = bench_rig_with(model);
    let model = machine.model().clone();
    let mut samples = Samples::new();
    for _ in 0..RUNS {
        let pid = machine.create_process();
        let start = machine.clock().now();
        let mut gdev = Gdev::open(&mut machine, pid, GPU_BDF).expect("gdev open");
        gdev.set_pageable(workload.gdev_pageable());
        workload
            .run_synthetic(&mut machine, &mut GdevExec::new(&mut gdev), &model)
            .expect("gdev run");
        gdev.close(&mut machine).expect("gdev close");
        samples.push(machine.clock().now() - start);
    }
    samples.mean()
}

/// Measures one full HIX task (session connect → transfers/kernels →
/// close) against a resident GPU enclave, averaged over [`RUNS`].
pub fn measure_hix(workload: &dyn Workload) -> Nanos {
    measure_hix_with(workload, CostModel::paper())
}

/// [`measure_hix`] under a custom cost model.
pub fn measure_hix_with(workload: &dyn Workload, model: CostModel) -> Nanos {
    let mut machine = bench_rig_with(model);
    let model = machine.model().clone();
    let mut enclave =
        GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default()).expect("enclave");
    let mut samples = Samples::new();
    for run in 0..RUNS {
        let profile = workload.profile(&model);
        let window = hix_core::runtime::shared_window_for(
            &model,
            profile.htod.max(profile.dtoh),
        );
        let start = machine.clock().now();
        let mut session = HixSession::connect_with(
            &mut machine,
            &mut enclave,
            window,
            format!("bench-user-{run}").as_bytes(),
        )
        .expect("session");
        workload
            .run_synthetic(
                &mut machine,
                &mut HixExec::new(&mut session, &mut enclave),
                &model,
            )
            .expect("hix run");
        session.close(&mut machine, &mut enclave).expect("close");
        samples.push(machine.clock().now() - start);
    }
    samples.mean()
}

/// A single figure row: workload, Gdev time, HIX time.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Short label.
    pub label: String,
    /// Baseline time.
    pub gdev: Nanos,
    /// HIX time.
    pub hix: Nanos,
}

impl FigureRow {
    /// HIX overhead in percent.
    pub fn overhead_pct(&self) -> f64 {
        hix_sim::stats::overhead_pct(self.hix, self.gdev)
    }

    /// HIX slowdown factor.
    pub fn slowdown(&self) -> f64 {
        hix_sim::stats::slowdown(self.hix, self.gdev)
    }
}

/// Measures a workload on both stacks.
pub fn measure_both(workload: &dyn Workload, label: impl Into<String>) -> FigureRow {
    measure_both_with(workload, label, CostModel::paper())
}

/// [`measure_both`] under a custom cost model.
pub fn measure_both_with(
    workload: &dyn Workload,
    label: impl Into<String>,
    model: CostModel,
) -> FigureRow {
    FigureRow {
        label: label.into(),
        gdev: measure_gdev_with(workload, model.clone()),
        hix: measure_hix_with(workload, model),
    }
}

/// Runs and prints one multi-user figure (Figures 8 and 9).
pub fn print_multiuser(users: u32, paper_ratio: f64) {
    use hix_core::multiuser::{run_multiuser, Mode};
    let model = CostModel::paper();
    println!("== Rodinia with {users} concurrent users ==");
    println!(
        "(normalized to 1-user Gdev; paper: HIX ~{:.1}% worse than Gdev at {users} users)\n",
        (paper_ratio - 1.0) * 100.0
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "bench", "Gdev-1u", "Gdev", "HIX", "HIX/Gdev", "switches"
    );
    let mut ratio_sum = 0.0;
    let mut count = 0u32;
    for w in hix_workloads::rodinia_suite() {
        let spec = w.profile(&model).task_spec();
        let base = run_multiuser(&model, &spec, 1, Mode::Gdev).makespan;
        let g = run_multiuser(&model, &spec, users, Mode::Gdev);
        let h = run_multiuser(&model, &spec, users, Mode::Hix);
        let ratio = h.makespan.as_nanos() as f64 / g.makespan.as_nanos() as f64;
        ratio_sum += ratio;
        count += 1;
        println!(
            "{:<6} {:>12} {:>11.2}x {:>11.2}x {:>11.2}x {:>10}",
            spec.name,
            base.to_string(),
            g.makespan.as_nanos() as f64 / base.as_nanos() as f64,
            h.makespan.as_nanos() as f64 / base.as_nanos() as f64,
            ratio,
            h.ctx_switches
        );
    }
    println!(
        "\naverage HIX/Gdev at {users} users: {:.3}x (paper: {:.3}x)\n",
        ratio_sum / count as f64,
        paper_ratio
    );
}

/// Prints a standard figure table with paper-reference annotations.
pub fn print_rows(title: &str, rows: &[FigureRow], paper_note: &str) {
    println!("== {title} ==");
    println!("{paper_note}\n");
    println!(
        "{:<8} {:>14} {:>14} {:>10} {:>10}",
        "bench", "Gdev", "HIX", "slowdown", "overhead"
    );
    for row in rows {
        println!(
            "{:<8} {:>14} {:>14} {:>9.2}x {:>+9.1}%",
            row.label,
            row.gdev.to_string(),
            row.hix.to_string(),
            row.slowdown(),
            row.overhead_pct()
        );
    }
    let avg: f64 =
        rows.iter().map(FigureRow::overhead_pct).sum::<f64>() / rows.len().max(1) as f64;
    println!("{:<8} {:>14} {:>14} {:>10} {:>+9.1}%", "average", "", "", "", avg);
    println!();
}

/// The workload wrapper used by Fig. 6: a matrix op at a specific size.
#[derive(Debug, Clone, Copy)]
pub struct MatrixAt {
    /// Which operation.
    pub op: hix_workloads::matrix::MatrixOp,
    /// Matrix dimension.
    pub n: usize,
}

impl Workload for MatrixAt {
    fn name(&self) -> &'static str {
        "matrix microbenchmark"
    }

    fn kernels(&self) -> Vec<Box<dyn hix_gpu::GpuKernel>> {
        vec![
            Box::new(hix_workloads::matrix::MatrixAddKernel),
            Box::new(hix_workloads::matrix::MatrixMulKernel),
        ]
    }

    fn profile(&self, model: &CostModel) -> Profile {
        hix_workloads::matrix::matrix_profile(self.op, self.n, model)
    }

    fn run(
        &self,
        machine: &mut Machine,
        exec: &mut dyn hix_workloads::GpuExecutor,
        n: usize,
    ) -> Result<hix_workloads::RunStats, hix_workloads::ExecError> {
        match self.op {
            hix_workloads::matrix::MatrixOp::Add => {
                hix_workloads::matrix::MatrixAdd.run(machine, exec, n)
            }
            hix_workloads::matrix::MatrixOp::Mul => {
                hix_workloads::matrix::MatrixMul.run(machine, exec, n)
            }
        }
    }

    fn test_size(&self) -> usize {
        32
    }

    fn paper_size(&self) -> usize {
        self.n
    }

    fn gdev_pageable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hix_workloads::matrix::MatrixOp;

    #[test]
    fn matrix_measurement_produces_sane_ratio() {
        let row = measure_both(&MatrixAt { op: MatrixOp::Add, n: 2048 }, "add-2048");
        assert!(row.gdev > Nanos::ZERO);
        assert!(row.hix > row.gdev, "secure path must cost more for add");
    }

    #[test]
    fn mul_overhead_shrinks_with_size() {
        // From 4096 up, compute dominance hides the crypto (below that,
        // the task-init advantage muddies the trend, as in Fig. 6b).
        let small = measure_both(&MatrixAt { op: MatrixOp::Mul, n: 4096 }, "s");
        let large = measure_both(&MatrixAt { op: MatrixOp::Mul, n: 11264 }, "l");
        assert!(
            large.overhead_pct() < small.overhead_pct(),
            "compute-dominance hides crypto: {} vs {}",
            large.overhead_pct(),
            small.overhead_pct()
        );
    }
}
