//! Lifecycle integration: session churn, enclave restarts, cold boots,
//! and resource reclamation across the whole stack.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_platform::Machine;
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::Payload;

fn rig() -> Machine {
    standard_rig(RigOptions::default())
}

#[test]
fn many_sessions_sequentially() {
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    for i in 0..10u32 {
        let mut s = HixSession::connect_with(
            &mut m,
            &mut enclave,
            1 << 20,
            format!("churn-{i}").as_bytes(),
        )
        .unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 8192).unwrap();
        let data = vec![i as u8; 8192];
        s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::from_bytes(data.clone()))
            .unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 8192).unwrap();
        assert_eq!(back.bytes(), &data[..]);
        s.close(&mut m, &mut enclave).unwrap();
        assert_eq!(enclave.session_count(), 0, "iteration {i}");
    }
}

#[test]
fn interleaved_concurrent_sessions() {
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut sessions: Vec<HixSession> = (0..4u32)
        .map(|i| {
            HixSession::connect_with(&mut m, &mut enclave, 1 << 20, format!("u{i}").as_bytes())
                .unwrap()
        })
        .collect();
    let devs: Vec<_> = sessions
        .iter_mut()
        .enumerate()
        .map(|(i, s)| {
            let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
            s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::from_bytes(vec![i as u8 + 1; 4096]))
                .unwrap();
            dev
        })
        .collect();
    // Interleave readbacks in reverse order.
    for (i, s) in sessions.iter_mut().enumerate().rev() {
        let back = s.memcpy_dtoh(&mut m, &mut enclave, devs[i], 4096).unwrap();
        assert!(back.bytes().iter().all(|&b| b == i as u8 + 1));
    }
    for s in sessions {
        s.close(&mut m, &mut enclave).unwrap();
    }
}

#[test]
fn enclave_shutdown_and_relaunch_cycles() {
    let mut m = rig();
    for cycle in 0..3 {
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default())
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        let mut s = HixSession::connect_with(
            &mut m,
            &mut enclave,
            1 << 20,
            format!("cycle-{cycle}").as_bytes(),
        )
        .unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
        s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::from_bytes(vec![7; 4096]))
            .unwrap();
        s.close(&mut m, &mut enclave).unwrap();
        enclave.shutdown(&mut m).unwrap();
    }
}

#[test]
fn cold_boot_recovers_from_forced_kill() {
    let mut m = rig();
    for boot in 0..2 {
        let enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default())
            .unwrap_or_else(|e| panic!("boot {boot}: {e}"));
        m.kill_process(enclave.pid());
        // GPU is now locked until reboot.
        assert!(GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).is_err());
        m.cold_boot();
    }
    // After the final boot a healthy enclave works again.
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
    s.memcpy_htod(&mut m, &mut enclave, dev, &Payload::from_bytes(vec![1; 4096]))
        .unwrap();
}

#[test]
fn vram_is_reclaimed_across_sessions() {
    // Alloc/free a large buffer repeatedly: without frame reclamation the
    // 1.5 GiB device would run out after a few iterations.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    for i in 0..8u32 {
        let mut s = HixSession::connect_with(
            &mut m,
            &mut enclave,
            1 << 20,
            format!("big-{i}").as_bytes(),
        )
        .unwrap();
        let dev = s.malloc(&mut m, &mut enclave, 400 << 20).unwrap();
        let _ = dev;
        s.close(&mut m, &mut enclave).unwrap();
    }
}

#[test]
fn gdev_and_hix_can_alternate_with_graceful_handoff() {
    use hix_driver::Gdev;
    let mut m = rig();
    // Gdev first (OS-owned GPU).
    let pid = m.create_process();
    let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
    let dev = gdev.malloc(&mut m, 4096).unwrap();
    gdev.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1; 4096])).unwrap();
    gdev.close(&mut m).unwrap();
    // HIX takes over; the enclave resets the device at init.
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 4096).unwrap();
    let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap();
    assert!(
        back.bytes().iter().all(|&b| b == 0),
        "fresh HIX allocation must not see Gdev-era residue (device was reset)"
    );
    s.close(&mut m, &mut enclave).unwrap();
    enclave.shutdown(&mut m).unwrap();
    // And back to Gdev after graceful release.
    let pid2 = m.create_process();
    let gdev2 = Gdev::open(&mut m, pid2, GPU_BDF);
    assert!(gdev2.is_ok(), "GPU returned to the OS after graceful termination");
}

#[test]
fn gpu_enclave_mappings_return_to_baseline_after_churn() {
    // Each session maps its 64 MiB window into the GPU enclave; closing
    // must take all of it back out.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let baseline = m.mapped_pages(enclave.pid());
    for i in 0..100 {
        let s = HixSession::connect(&mut m, &mut enclave).unwrap();
        assert!(m.mapped_pages(enclave.pid()) > baseline, "cycle {i}: window not mapped");
        s.close(&mut m, &mut enclave).unwrap();
        assert_eq!(m.mapped_pages(enclave.pid()), baseline, "cycle {i}");
    }
}

#[test]
fn reconnecting_tenant_never_clobbers_a_live_peer() {
    // Tenant 0 closes and reconnects under a message-fault plan while
    // tenant 1 stays connected. A fresh window may reuse tenant 0's old
    // frames, but never an address of a live (or any earlier) window, so
    // tenant 1's channel afterwards carries no foreign frame.
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut t0 = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"t0").unwrap();
    let mut t1 = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, b"t1").unwrap();
    let dev = t1.malloc(&mut m, &mut enclave, 4096).unwrap();
    m.set_fault_plan(FaultPlan::new(0x5eed, FaultConfig::light()));
    for i in 0..4 {
        t0.close(&mut m, &mut enclave).unwrap();
        t0 = HixSession::connect_with(&mut m, &mut enclave, 1 << 20, format!("t0-{i}").as_bytes())
            .unwrap();
    }
    m.clear_fault_plan();
    let discarded = m.trace().metrics().counter("recovery.msgs_discarded");
    let data = Payload::from_bytes((0..=255u8).cycle().take(4096).collect());
    t1.memcpy_htod(&mut m, &mut enclave, dev, &data).unwrap();
    let back = t1.memcpy_dtoh(&mut m, &mut enclave, dev, 4096).unwrap();
    assert_eq!(back.bytes(), data.bytes());
    assert_eq!(m.trace().metrics().counter("recovery.msgs_discarded"), discarded);
    t1.close(&mut m, &mut enclave).unwrap();
    t0.close(&mut m, &mut enclave).unwrap();
}
