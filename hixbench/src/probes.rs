//! Layer probes, run after the measured region of a traced run so they
//! cannot perturb it: the public functions of `crypto`, `platform` and
//! `driver` timed standalone at the sizes the workloads use, plus the
//! calls a workload does not make itself (so every traced run reports
//! every layer).

use std::time::Instant;

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_crypto::bignum::Uint;
use hix_crypto::dh::DhGroup;
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_driver::driver::os_map_bar0;
use hix_driver::rig::GPU_BDF;
use hix_driver::{DmaBuffer, Gdev};
use hix_gpu::regs::bar0;
use hix_obs::Metrics;
use hix_platform::VirtAddr;
use hix_sim::{CostModel, Payload};
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::rodinia_suite;

use crate::report::Metric;
use crate::stats::median;
use crate::{rig, Run};

/// Host time per probe: repeat batches until this much has elapsed.
const BUDGET_S: f64 = 0.15;
const MIB: f64 = (1 << 20) as f64;

/// Median per-iteration host nanoseconds of `f`, over batches of `batch`
/// calls repeated for [`BUDGET_S`] (at least five batches).
fn ns_per_iter(batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

fn put(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

fn crypto(out: &mut Vec<Metric>) {
    let group = DhGroup::sim();
    let mut rng = HmacDrbg::new(b"hixbench-probe");
    let base = Uint::from_be_bytes(&rng.bytes(32)).rem(group.prime());
    let exp = Uint::from_be_bytes(&rng.bytes(32));
    let ns = ns_per_iter(1, || {
        std::hint::black_box(base.modpow(&exp, group.prime()));
    });
    put(out, "crypto.modpow_us", ns / 1e3, "us");
    let ns = ns_per_iter(1, || {
        std::hint::black_box(group.generate(&mut rng));
    });
    put(out, "crypto.dh_generate_us", ns / 1e3, "us");
    let ours = group.generate(&mut rng);
    let theirs = group.generate(&mut rng);
    let ns = ns_per_iter(1, || {
        std::hint::black_box(group.agree(&ours, &theirs.public).expect("valid public"));
    });
    put(out, "crypto.dh_agree_us", ns / 1e3, "us");

    let data = rng.bytes(64 << 10);
    let ns = ns_per_iter(4, || {
        std::hint::black_box(hix_crypto::sha256::digest(&data));
    });
    put(
        out,
        "crypto.sha256_mib_s",
        mib_per_s(data.len(), ns),
        "MiB/s",
    );

    let ocb = Ocb::new(&Key::from_bytes([7; 16]));
    let nonce = Nonce::from_counter(1);
    for (len, size, batch) in [(4 << 10, "4k", 64), (1 << 20, "1m", 2)] {
        let pt = rng.bytes(len);
        let mut sealed = vec![0u8; pt.len() + TAG_LEN];
        let ns = ns_per_iter(batch, || ocb.seal_into(&nonce, b"", &pt, &mut sealed));
        let name = format!("crypto.ocb_seal_mib_s.{size}");
        put(out, &name, mib_per_s(pt.len(), ns), "MiB/s");
        let mut opened = vec![0u8; pt.len()];
        let ns = ns_per_iter(batch, || {
            ocb.open_into(&nonce, b"", &sealed, &mut opened)
                .expect("tag verifies");
        });
        let name = format!("crypto.ocb_open_mib_s.{size}");
        put(out, &name, mib_per_s(pt.len(), ns), "MiB/s");
    }
}

fn platform(out: &mut Vec<Metric>) {
    let mut m = rig();
    let pid = m.create_process();
    let va = os_map_bar0(&mut m, pid, GPU_BDF, 4);
    let mut buf = [0u8; 8];
    let ns = ns_per_iter(256, || {
        m.read(pid, va.offset(bar0::ID), &mut buf).expect("mapped");
    });
    put(out, "platform.mmio_read_ns", ns, "ns");
    let frames = m.alloc_frames(1);
    let page = VirtAddr::new(0x10_0000);
    m.os_map(pid, page, frames[0], true);
    let data = vec![0x5Au8; 4096];
    let ns = ns_per_iter(64, || m.write(pid, page, &data).expect("mapped"));
    put(
        out,
        "platform.dram_write_mib_s",
        mib_per_s(data.len(), ns),
        "MiB/s",
    );
}

fn driver(out: &mut Vec<Metric>) {
    // Each allocation takes frames for good, so every sample gets a
    // fresh machine (built outside the timed call).
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut m = rig();
        let pid = m.create_process();
        let t = Instant::now();
        std::hint::black_box(DmaBuffer::alloc(&mut m, pid, 64 << 20));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put(out, "driver.dma_alloc_ms", median(&samples), "ms");

    let mut m = rig();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let pid = m.create_process();
        let t = Instant::now();
        let gdev = Gdev::open(&mut m, pid, GPU_BDF).expect("gdev open");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        gdev.close(&mut m).expect("gdev close");
    }
    put(out, "driver.gdev_open_ms", median(&samples), "ms");
}

/// One session through every public call a workload might not make,
/// recorded as spans after the workload's own.
fn core_calls(run: &mut Run) {
    let mut m = rig();
    let mut e = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launch");
    let p = Payload::from_bytes(vec![0xC3; 4 << 10]);
    let tr = &mut run.tracer;
    for _ in 0..3 {
        let mut s = tr
            .span("connect", || HixSession::connect(&mut m, &mut e))
            .expect("connect");
        tr.span("load_module", || {
            s.load_module(&mut m, &mut e, "matrix.mul")
        })
        .expect("module");
        let a = tr
            .span("malloc", || s.malloc(&mut m, &mut e, p.len()))
            .expect("malloc");
        tr.span("submit_htod", || s.submit_htod(&mut m, &mut e, a, &p))
            .expect("htod");
        tr.span("flush", || s.flush(&mut m, &mut e)).expect("flush");
        tr.span("take_completions", || s.take_completions());
        let out = tr
            .span("dtoh", || s.memcpy_dtoh(&mut m, &mut e, a, p.len()))
            .expect("dtoh");
        assert_eq!(out.bytes(), p.bytes(), "probe round trip");
        tr.span("close", || s.close(&mut m, &mut e)).expect("close");
    }
}

/// One functional Rodinia pass over HIX and Gdev plus the Fig 8/9 model,
/// for the workloads that do not drive `hix-workloads` themselves.
fn workloads(run: &mut Run, sched: &Metrics) {
    let tr = &mut run.tracer;
    let mut m = rig();
    let mut e = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launch");
    for w in rodinia_suite() {
        let mut s = HixSession::connect(&mut m, &mut e).expect("connect");
        tr.span("rodinia_hix", || {
            w.run(&mut m, &mut HixExec::new(&mut s, &mut e), w.test_size())
        })
        .expect("functional HIX run");
        s.close(&mut m, &mut e).expect("close");
    }
    let mut m = rig();
    for w in rodinia_suite() {
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).expect("gdev open");
        tr.span("rodinia_gdev", || {
            w.run(&mut m, &mut GdevExec::new(&mut gdev), w.test_size())
        })
        .expect("functional Gdev run");
        gdev.close(&mut m).expect("gdev close");
    }
    let model = CostModel::paper();
    tr.span("run_scaled", || {
        crate::paper::multiuser_ratio(&model, 2, Some(sched));
        crate::paper::multiuser_ratio(&model, 4, Some(sched));
    });
}

/// Probe results plus the span mark where the probes' spans begin.
pub struct Probes {
    pub values: Vec<Metric>,
    pub mark: usize,
    pub sched: Metrics,
}

pub fn run(run: &mut Run) -> Probes {
    let mark = run.tracer.len();
    let mut values = Vec::new();
    crypto(&mut values);
    platform(&mut values);
    driver(&mut values);
    core_calls(run);
    let sched = Metrics::new();
    if run.workload != "paper" {
        workloads(run, &sched);
    }
    Probes {
        values,
        mark,
        sched,
    }
}
