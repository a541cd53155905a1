//! Physical address map and sparse DRAM.
//!
//! Layout (constants in [`layout`]):
//!
//! ```text
//! 0x0000_0000 ┌───────────────────────┐
//!             │ DRAM (general)        │
//! 0x4000_0000 ├───────────────────────┤
//!             │ EPC (processor        │  SGX-protected; device DMA and
//!             │ reserved memory)      │  non-owner software denied
//! 0x4800_0000 ├───────────────────────┤
//!             │ DRAM (general)        │
//! 0x8000_0000 ├───────────────────────┤
//!             │ (unpopulated)         │
//! 0xc000_0000 ├───────────────────────┤
//!             │ MMIO hole (PCIe)      │  routed by the root complex
//! 0xe000_0000 └───────────────────────┘
//! ```
//!
//! DRAM is stored sparsely (per-page boxes) so paper-scale simulations do
//! not allocate gigabytes up front. General DRAM is handed out by one
//! run allocator: first fit over coalesced free runs, so a freed run is
//! reused whole.

use std::collections::BTreeMap;
use std::fmt;

use hix_pcie::addr::{PhysAddr, PhysRange};

/// Page size (4 KiB, matching SGX EPC granularity).
pub const PAGE_SIZE: u64 = 4096;

/// Address-map constants.
pub mod layout {
    use super::*;

    /// All of DRAM (includes the EPC carve-out).
    pub const DRAM: PhysRange = PhysRange {
        base: PhysAddr::new(0),
        len: 0x8000_0000,
    };

    /// The EPC carve-out (128 MiB).
    pub const EPC: PhysRange = PhysRange {
        base: PhysAddr::new(0x4000_0000),
        len: 0x0800_0000,
    };

    /// The PCIe MMIO hole.
    pub const MMIO: PhysRange = PhysRange {
        base: PhysAddr::new(0xc000_0000),
        len: 0x2000_0000,
    };
}

/// A virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Wraps a raw address.
    pub const fn new(addr: u64) -> Self {
        VirtAddr(addr)
    }

    /// Raw value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Virtual page number.
    pub const fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// This address offset by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn offset(self, delta: u64) -> Self {
        VirtAddr(self.0.checked_add(delta).expect("virtual address overflow"))
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

/// Sparse physical DRAM with a contiguous-run frame allocator.
pub struct Ram {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    /// Free general-DRAM runs: first page number → page count. Runs are
    /// coalesced on free and never cover the EPC.
    free: BTreeMap<u64, u64>,
    epc_next_free: u64,
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ram")
            .field("resident_pages", &self.pages.len())
            .field("free_runs", &self.free.len())
            .finish()
    }
}

impl Default for Ram {
    fn default() -> Self {
        Ram::new()
    }
}

impl Ram {
    /// Creates empty DRAM.
    pub fn new() -> Self {
        // Leave the first 16 MiB for "firmware/kernel" so tests using
        // tiny addresses don't collide with allocations.
        let first = 0x0100_0000 / PAGE_SIZE;
        let epc_first = layout::EPC.base.value() / PAGE_SIZE;
        let epc_end = layout::EPC.end() / PAGE_SIZE;
        let dram_end = layout::DRAM.end() / PAGE_SIZE;
        Ram {
            pages: BTreeMap::new(),
            free: BTreeMap::from([(first, epc_first - first), (epc_end, dram_end - epc_end)]),
            epc_next_free: epc_first,
        }
    }

    /// Whether `addr` is backed by DRAM (EPC included).
    pub fn contains(addr: PhysAddr) -> bool {
        layout::DRAM.contains(addr)
    }

    /// Whether `addr` lies in the EPC carve-out.
    pub fn is_epc(addr: PhysAddr) -> bool {
        layout::EPC.contains(addr)
    }

    /// Whether `addr` lies in the MMIO hole.
    pub fn is_mmio(addr: PhysAddr) -> bool {
        layout::MMIO.contains(addr)
    }

    /// Allocates a run of `pages` consecutive general DRAM frames and
    /// returns its base. The run reads as zeros, as pinned pages an OS
    /// hands a process do: whatever a previous owner left resident in
    /// it is dropped.
    ///
    /// # Panics
    ///
    /// Panics for an empty run, and when no free run is long enough
    /// (simulation bug, not a modeled condition).
    pub fn alloc_run(&mut self, pages: u64) -> PhysAddr {
        assert!(pages > 0, "empty frame run");
        let (start, len) = self
            .free
            .iter()
            .map(|(&start, &len)| (start, len))
            .find(|&(_, len)| len >= pages)
            .expect("simulated DRAM exhausted");
        self.free.remove(&start);
        if len > pages {
            self.free.insert(start + pages, len - pages);
        }
        let stale: Vec<u64> = self
            .pages
            .range(start..start + pages)
            .map(|(&ppn, _)| ppn)
            .collect();
        for ppn in stale {
            self.pages.remove(&ppn);
        }
        PhysAddr::new(start * PAGE_SIZE)
    }

    /// Returns the run of `pages` frames at `base` to the allocator,
    /// merging it with free neighbours. Contents are left in place
    /// (freed memory is not scrubbed — realistically; the next
    /// [`Ram::alloc_run`] over it drops them).
    ///
    /// # Panics
    ///
    /// Panics for unaligned, empty or EPC runs and on a double free.
    pub fn free_run(&mut self, base: PhysAddr, pages: u64) {
        assert_eq!(base.value() % PAGE_SIZE, 0, "frame must be page-aligned");
        assert!(pages > 0, "empty frame run");
        let run = PhysRange {
            base,
            len: pages * PAGE_SIZE,
        };
        assert!(!run.overlaps(&layout::EPC), "EPC frames have their own lifecycle");
        let (mut start, mut len) = (base.value() / PAGE_SIZE, pages);
        if let Some((&s, &l)) = self.free.range(..=start).next_back() {
            assert!(s + l <= start, "double free of frame {base}");
            if s + l == start {
                self.free.remove(&s);
                (start, len) = (s, l + len);
            }
        }
        let end = start + len;
        if let Some((&s, &l)) = self.free.range(base.value() / PAGE_SIZE + 1..).next() {
            assert!(s >= end, "double free of frame {base}");
            if s == end {
                self.free.remove(&s);
                len += l;
            }
        }
        self.free.insert(start, len);
    }

    /// Allocates `n` general DRAM frames (one run), returning their base
    /// addresses.
    ///
    /// # Panics
    ///
    /// As [`Ram::alloc_run`].
    pub fn alloc_frames(&mut self, n: usize) -> Vec<PhysAddr> {
        if n == 0 {
            return Vec::new();
        }
        let base = self.alloc_run(n as u64);
        (0..n as u64).map(|i| base.offset(i * PAGE_SIZE)).collect()
    }

    /// Allocates one EPC frame.
    ///
    /// # Panics
    ///
    /// Panics when the EPC is exhausted.
    pub fn alloc_epc_frame(&mut self) -> PhysAddr {
        let ppn = self.epc_next_free;
        assert!(ppn * PAGE_SIZE < layout::EPC.end(), "EPC exhausted");
        self.epc_next_free += 1;
        PhysAddr::new(ppn * PAGE_SIZE)
    }

    /// Reads raw physical memory (no protection checks — callers go
    /// through the MMU/DMA layers for that).
    ///
    /// # Panics
    ///
    /// Panics if the span leaves DRAM.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        assert!(
            layout::DRAM.contains_span(addr, buf.len() as u64),
            "physical read outside DRAM at {addr}"
        );
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.value() + off as u64;
            let ppn = a / PAGE_SIZE;
            let po = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - po).min(buf.len() - off);
            match self.pages.get(&ppn) {
                Some(page) => buf[off..off + take].copy_from_slice(&page[po..po + take]),
                None => buf[off..off + take].fill(0),
            }
            off += take;
        }
    }

    /// Writes raw physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves DRAM.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        assert!(
            layout::DRAM.contains_span(addr, data.len() as u64),
            "physical write outside DRAM at {addr}"
        );
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.value() + off as u64;
            let ppn = a / PAGE_SIZE;
            let po = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - po).min(data.len() - off);
            let page = self
                .pages
                .entry(ppn)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[po..po + take].copy_from_slice(&data[off..off + take]);
            off += take;
        }
    }

    /// Number of resident (materialized) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_consistent() {
        assert!(layout::DRAM.contains(layout::EPC.base));
        assert!(!layout::DRAM.contains(layout::MMIO.base));
        assert!(!layout::EPC.overlaps(&layout::MMIO));
    }

    #[test]
    fn virt_addr_decomposition() {
        let va = VirtAddr::new(0x12345);
        assert_eq!(va.vpn(), 0x12);
        assert_eq!(va.page_offset(), 0x345);
        assert_eq!(va.offset(0x10).value(), 0x12355);
    }

    #[test]
    fn rw_roundtrip_cross_page() {
        let mut ram = Ram::new();
        let addr = PhysAddr::new(PAGE_SIZE - 3);
        ram.write(addr, &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        ram.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let ram = Ram::new();
        let mut buf = [7u8; 16];
        ram.read(PhysAddr::new(0x5000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn alloc_skips_epc() {
        let mut ram = Ram::new();
        // Leave one free frame just below the EPC: a 3-frame run cannot
        // straddle the carve-out, so it lands above it.
        let low = layout::EPC.base.value() / PAGE_SIZE - 0x0100_0000 / PAGE_SIZE;
        ram.alloc_run(low - 1);
        let frames = ram.alloc_frames(3);
        assert_eq!(frames[0].value(), layout::EPC.end());
        assert!(frames.iter().all(|f| !Ram::is_epc(*f)));
        assert_eq!(ram.alloc_frames(1)[0].value(), layout::EPC.base.value() - PAGE_SIZE);
    }

    #[test]
    fn freed_runs_coalesce_and_are_reused_zeroed() {
        let mut ram = Ram::new();
        let a = ram.alloc_run(4);
        let b = ram.alloc_run(4);
        ram.write(a, b"stale");
        ram.free_run(b, 4);
        ram.free_run(a, 4);
        // The two runs merged back, so an 8-frame run fits at `a` again.
        assert_eq!(ram.alloc_run(8), a);
        let mut buf = [7u8; 5];
        ram.read(a, &mut buf);
        assert_eq!(buf, [0u8; 5]);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught() {
        let mut ram = Ram::new();
        let a = ram.alloc_run(2);
        ram.free_run(a, 2);
        ram.free_run(a.offset(PAGE_SIZE), 1);
    }

    #[test]
    fn epc_frames_come_from_epc() {
        let mut ram = Ram::new();
        let f = ram.alloc_epc_frame();
        assert!(Ram::is_epc(f));
        let g = ram.alloc_epc_frame();
        assert_ne!(f, g);
    }

    #[test]
    #[should_panic(expected = "outside DRAM")]
    fn mmio_hole_not_backed() {
        let mut ram = Ram::new();
        ram.write(layout::MMIO.base, &[1]);
    }

    #[test]
    fn classification() {
        assert!(Ram::is_mmio(PhysAddr::new(0xc000_1000)));
        assert!(!Ram::is_mmio(PhysAddr::new(0x1000)));
        assert!(Ram::is_epc(PhysAddr::new(0x4000_0000)));
        assert!(Ram::contains(PhysAddr::new(0x7fff_ffff)));
        assert!(!Ram::contains(PhysAddr::new(0x8000_0000)));
    }
}
