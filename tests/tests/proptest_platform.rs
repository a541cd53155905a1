//! Property-based tests over the platform substrate: page tables, the
//! IOMMU and TLB coherence, sparse RAM and its run allocator, VRAM, and
//! the cost model's monotonicity — on the in-tree `hix-testkit` harness.

use std::collections::BTreeMap;

use hix_pcie::addr::{PhysAddr, PhysRange};
use hix_platform::iommu::Iommu;
use hix_platform::mem::{layout, Ram, PAGE_SIZE};
use hix_platform::mmu::{PageTable, Pte, Tlb};
use hix_platform::VirtAddr;
use hix_sim::{CostModel, Nanos};
use hix_testkit::prop::{prop, Source};

/// One edit of a translation table. Ranges reach past the 32 checked
/// pages and overlap freely, so the ops exercise single-page remaps and
/// partial unmaps inside a range as well as whole-range edits.
#[derive(Debug, Clone)]
enum MmuOp {
    Map { vpn: u64, ppn: u64, writable: bool },
    Unmap { vpn: u64 },
    MapRange { vpn: u64, pages: u64, ppn: u64, writable: bool },
    UnmapRange { vpn: u64, pages: u64 },
}

fn mmu_op(s: &mut Source) -> MmuOp {
    match s.choice(4) {
        0 => MmuOp::Map {
            vpn: s.in_range(0..32),
            ppn: s.in_range(0..64),
            writable: s.bool(),
        },
        1 => MmuOp::Unmap { vpn: s.in_range(0..32) },
        2 => MmuOp::MapRange {
            vpn: s.in_range(0..32),
            pages: s.in_range(0..16),
            ppn: s.in_range(0..64),
            writable: s.bool(),
        },
        _ => MmuOp::UnmapRange {
            vpn: s.in_range(0..32),
            pages: s.in_range(0..16),
        },
    }
}

/// Applies `op` to the per-page reference model: vpn → (ppn, writable).
fn apply_reference(reference: &mut BTreeMap<u64, (u64, bool)>, op: &MmuOp) {
    match *op {
        MmuOp::Map { vpn, ppn, writable } => {
            reference.insert(vpn, (ppn, writable));
        }
        MmuOp::Unmap { vpn } => {
            reference.remove(&vpn);
        }
        MmuOp::MapRange { vpn, pages, ppn, writable } => {
            for i in 0..pages {
                reference.insert(vpn + i, (ppn + i, writable));
            }
        }
        MmuOp::UnmapRange { vpn, pages } => {
            for i in 0..pages {
                reference.remove(&(vpn + i));
            }
        }
    }
}

fn va(vpn: u64) -> VirtAddr {
    VirtAddr::new(vpn * PAGE_SIZE)
}

fn pa(ppn: u64) -> PhysAddr {
    PhysAddr::new(ppn * PAGE_SIZE)
}

#[test]
fn page_table_matches_reference_model() {
    prop("page_table_matches_reference_model").run(|s| {
        let ops = s.collect(0..64, mmu_op);
        let mut pt = PageTable::new();
        let mut reference = BTreeMap::new();
        for op in ops {
            match op {
                MmuOp::Map { vpn, ppn, writable } => pt.map(va(vpn), pa(ppn), writable),
                MmuOp::Unmap { vpn } => pt.unmap(va(vpn)),
                MmuOp::MapRange { vpn, pages, ppn, writable } => {
                    pt.map_range(va(vpn), pa(ppn), pages, writable)
                }
                MmuOp::UnmapRange { vpn, pages } => pt.unmap_range(va(vpn), pages),
            }
            apply_reference(&mut reference, &op);
            assert_eq!(pt.len(), reference.len(), "mapped page count after {op:?}");
        }
        for vpn in 0..48u64 {
            let got = pt.walk(VirtAddr::new(vpn * PAGE_SIZE + 123));
            let want = reference.get(&vpn).map(|&(ppn, writable)| Pte { ppn, writable });
            assert_eq!(got, want, "vpn {vpn}");
        }
    });
}

#[test]
fn iommu_matches_reference_model() {
    prop("iommu_matches_reference_model").run(|s| {
        let ops = s.collect(0..64, mmu_op);
        let mut iommu = Iommu::new();
        let mut reference = BTreeMap::new();
        for op in ops {
            match op {
                MmuOp::Map { vpn, ppn, .. } => iommu.map(pa(vpn), pa(ppn)),
                MmuOp::Unmap { vpn } => iommu.unmap(pa(vpn)),
                MmuOp::MapRange { vpn, pages, ppn, .. } => iommu.map_range(pa(vpn), pa(ppn), pages),
                MmuOp::UnmapRange { vpn, pages } => iommu.unmap_range(pa(vpn), pages),
            }
            apply_reference(&mut reference, &op);
        }
        for bus in 0..48u64 {
            let got = iommu.translate(PhysAddr::new(bus * PAGE_SIZE + 77));
            let want = reference
                .get(&bus)
                .map(|&(ppn, _)| PhysAddr::new(ppn * PAGE_SIZE + 77));
            assert_eq!(got, want, "bus page {bus}");
        }
    });
}

#[test]
fn tlb_never_contradicts_inserts() {
    prop("tlb_never_contradicts_inserts").run(|s| {
        // Whatever the eviction pattern, a hit must return the most
        // recently inserted translation for that page.
        let inserts = s.collect(1..128, |s| (s.in_range(0..16), s.in_range(0..64)));
        let capacity = s.usize_in(1..16);
        let mut tlb = Tlb::new(capacity);
        let mut last = std::collections::BTreeMap::new();
        for (vpn, ppn) in inserts {
            tlb.insert(VirtAddr::new(vpn * PAGE_SIZE), Pte { ppn, writable: true });
            last.insert(vpn, ppn);
        }
        for (vpn, ppn) in last {
            if let Some(pte) = tlb.lookup(VirtAddr::new(vpn * PAGE_SIZE)) {
                assert_eq!(pte.ppn, ppn, "stale TLB entry for vpn {vpn}");
            }
        }
    });
}

#[test]
fn ram_rw_roundtrip() {
    prop("ram_rw_roundtrip").run(|s| {
        let offset = s.in_range(0..1 << 20);
        let data = s.vec_u8(1..256);
        let mut ram = Ram::new();
        let base = PhysAddr::new(0x50_0000 + offset);
        ram.write(base, &data);
        let mut back = vec![0u8; data.len()];
        ram.read(base, &mut back);
        assert_eq!(back, data);
    });
}

#[test]
fn vram_rw_roundtrip() {
    prop("vram_rw_roundtrip").run(|s| {
        let offset = s.in_range(0..1 << 18);
        let data = s.vec_u8(1..256);
        let mut vram = hix_gpu::vram::Vram::new(1 << 20);
        vram.write(offset.min((1 << 20) - 256), &data);
        let mut back = vec![0u8; data.len()];
        vram.read(offset.min((1 << 20) - 256), &mut back);
        assert_eq!(back, data);
    });
}

#[test]
fn pipelined_transfer_bounds() {
    prop("pipelined_transfer_bounds").run(|s| {
        // The pipelined duration is at least the slowest stage and at
        // most the serial sum.
        let bytes = s.in_range(1..512 << 20);
        let m = CostModel::paper();
        let t = m.pipelined_transfer(bytes, m.enclave_crypto_bw, m.pcie_bw, m.dma_setup);
        let crypto = m.enclave_crypt(bytes);
        let chunks = bytes.div_ceil(m.pipeline_chunk);
        let wire = Nanos::for_throughput(bytes, m.pcie_bw) + m.dma_setup * chunks;
        assert!(t >= crypto.max(wire));
        assert!(t <= crypto + wire);
    });
}

#[test]
fn transfer_costs_are_monotonic() {
    prop("transfer_costs_are_monotonic").run(|s| {
        let a = s.in_range(1..256 << 20);
        let b = s.in_range(1..256 << 20);
        let m = CostModel::paper();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(m.hix_htod(lo) <= m.hix_htod(hi));
        assert!(m.hix_dtoh(lo) <= m.hix_dtoh(hi));
        assert!(m.pcie_transfer(lo) <= m.pcie_transfer(hi));
    });
}

#[test]
fn single_copy_beats_naive_everywhere() {
    prop("single_copy_beats_naive_everywhere").run(|s| {
        let bytes = s.in_range(1 << 12..512 << 20);
        let m = CostModel::paper();
        assert!(m.hix_htod(bytes) < m.naive_htod(bytes));
    });
}

#[test]
fn frame_allocator_never_hands_out_epc_or_duplicates() {
    let mut ram = Ram::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..10_000 {
        let f = ram.alloc_frames(1)[0];
        assert!(!Ram::is_epc(f), "EPC frame leaked into general pool: {f}");
        assert!(seen.insert(f.value()), "duplicate frame {f}");
    }
    // Freed frames may be reused — but only after being freed.
    let some: Vec<PhysAddr> = seen.iter().take(16).map(|&v| PhysAddr::new(v)).collect();
    for f in some {
        ram.free_run(f, 1);
    }
    for _ in 0..16 {
        let f = ram.alloc_frames(1)[0];
        assert!(!Ram::is_epc(f));
    }
}

#[test]
fn run_allocator_hands_out_disjoint_runs_outside_the_epc() {
    prop("run_allocator_hands_out_disjoint_runs_outside_the_epc").run(|s| {
        // Live runs, as (base, pages), alloc'd and freed in random order.
        // At most 96 live runs of < 8 MiB leave > 1 GiB of the ~1.85 GiB
        // of general DRAM free in at most 98 pieces, so one always fits.
        let mut ram = Ram::new();
        let mut live: Vec<(PhysAddr, u64)> = Vec::new();
        for _ in 0..s.usize_in(1..96) {
            if live.is_empty() || s.choice(3) > 0 {
                let pages = s.in_range(1..2048);
                let base = ram.alloc_run(pages);
                let run = PhysRange { base, len: pages * PAGE_SIZE };
                assert!(!run.overlaps(&layout::EPC), "run {base} x{pages} touches the EPC");
                assert!(layout::DRAM.contains_span(base, run.len), "run {base} leaves DRAM");
                for &(other, n) in &live {
                    let o = PhysRange { base: other, len: n * PAGE_SIZE };
                    assert!(!run.overlaps(&o), "run {base} x{pages} overlaps live run {other} x{n}");
                }
                live.push((base, pages));
            } else {
                let (base, pages) = live.swap_remove(s.index(live.len()));
                ram.free_run(base, pages);
                // A freed run is handed out again: the lowest free run
                // that fits comes first, and this one fits.
                let again = ram.alloc_run(pages);
                assert!(again <= base, "freed run at {base} was not reused");
                live.push((again, pages));
            }
        }
    });
}

#[test]
fn window_runs_are_reused_and_dram_stays_bounded() {
    // 2,000 alloc/free cycles of a 64 MiB window: the same run comes
    // back every time and only the pages last written stay resident.
    let mut ram = Ram::new();
    let pages = (64 << 20) / PAGE_SIZE;
    let first = ram.alloc_run(pages);
    ram.free_run(first, pages);
    for i in 0..2000u64 {
        let run = ram.alloc_run(pages);
        assert_eq!(run, first, "cycle {i}: the freed window run was not reused");
        let mut header = [0xffu8; 8];
        ram.read(run, &mut header);
        assert_eq!(header, [0u8; 8], "cycle {i}: window not handed out zeroed");
        ram.write(run, &i.to_le_bytes());
        ram.write(run.offset((pages - 1) * PAGE_SIZE), b"tail");
        ram.free_run(run, pages);
    }
    assert_eq!(ram.resident_pages(), 2);
}
