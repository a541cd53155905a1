//! Pinned DMA-able host buffers.
//!
//! A `DmaBuffer` is one contiguous run of physical frames, allocated by
//! the OS and mapped by one extent each into the owning process's
//! address space and into the IOMMU. Its virtual and bus addresses come
//! from the machine's window cursor, so no two buffers ever share an
//! address. Both the baseline runtime and HIX's inter-enclave
//! shared memory use these.

use hix_pcie::addr::PhysAddr;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::mmu::AccessFault;
use hix_platform::{Machine, ProcessId, VirtAddr};
use hix_sim::Payload;

/// A pinned, DMA-visible host buffer.
#[derive(Debug, Clone)]
pub struct DmaBuffer {
    pid: ProcessId,
    va: VirtAddr,
    bus: PhysAddr,
    /// Base of the buffer's frame run.
    frames: PhysAddr,
    pages: u64,
    len: u64,
}

impl DmaBuffer {
    /// Allocates a `len`-byte buffer for `pid`: a zeroed frame run, one
    /// process mapping and one IOMMU mapping over it.
    pub fn alloc(machine: &mut Machine, pid: ProcessId, len: u64) -> Self {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let frames = machine.alloc_run(pages);
        let (va, bus) = machine.alloc_window_addrs(pages);
        machine.os_map_range(pid, va, frames, pages, true);
        machine.iommu_mut().map_range(bus, frames, pages);
        DmaBuffer {
            pid,
            va,
            bus,
            frames,
            pages,
            len,
        }
    }

    /// Maps the same buffer into another process (shared memory). The
    /// mapping is at the same virtual address for simplicity.
    pub fn share_with(&self, machine: &mut Machine, other: ProcessId) {
        machine.os_map_range(other, self.va, self.frames, self.pages, true);
    }

    /// Undoes [`DmaBuffer::share_with`]: `other` no longer maps the
    /// buffer.
    pub fn unshare(&self, machine: &mut Machine, other: ProcessId) {
        machine.os_unmap_range(other, self.va, self.pages);
    }

    /// The buffer's bus address (what DMA descriptors use).
    pub fn bus(&self) -> PhysAddr {
        self.bus
    }

    /// The buffer's virtual address in the owning process.
    pub fn va(&self) -> VirtAddr {
        self.va
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `payload` into the buffer as process `pid` (no-op for
    /// synthetic payloads — the time plane charges elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the payload exceeds capacity.
    pub fn write(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        payload: &Payload,
    ) -> Result<(), AccessFault> {
        assert!(offset + payload.len() <= self.len, "payload exceeds buffer");
        if payload.is_synthetic() {
            return Ok(());
        }
        machine.write(pid, self.va.offset(offset), payload.bytes())
    }

    /// Reads `len` bytes from the buffer as process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the span exceeds capacity.
    pub fn read(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, AccessFault> {
        assert!(offset + len <= self.len, "read exceeds buffer");
        let mut buf = vec![0u8; len as usize];
        machine.read(pid, self.va.offset(offset), &mut buf)?;
        Ok(buf)
    }

    /// The process that allocated the buffer.
    pub fn owner(&self) -> ProcessId {
        self.pid
    }

    /// Releases the buffer: IOMMU and owner mappings removed, the frame
    /// run returned to the OS allocator. Processes it was shared with
    /// must be [`unshare`](DmaBuffer::unshare)d by their owners.
    pub fn release(self, machine: &mut Machine) {
        machine.iommu_mut().unmap_range(self.bus, self.pages);
        machine.os_unmap_range(self.pid, self.va, self.pages);
        machine.free_run(self.frames, self.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{standard_rig, RigOptions};

    #[test]
    fn alloc_write_read() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, pid, 10_000);
        let payload = Payload::from_bytes((0..255u8).cycle().take(10_000).collect());
        buf.write(&mut m, pid, 0, &payload).unwrap();
        let back = buf.read(&mut m, pid, 0, 10_000).unwrap();
        assert_eq!(back, payload.bytes());
    }

    #[test]
    fn synthetic_write_is_noop() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, pid, 4096);
        buf.write(&mut m, pid, 0, &Payload::synthetic(4096)).unwrap();
        let back = buf.read(&mut m, pid, 0, 16).unwrap();
        assert_eq!(back, vec![0u8; 16]);
    }

    #[test]
    fn shared_mapping_sees_same_bytes() {
        let mut m = standard_rig(RigOptions::default());
        let a = m.create_process();
        let b = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, a, 4096);
        buf.share_with(&mut m, b);
        buf.write(&mut m, a, 10, &Payload::from_bytes(b"shared".to_vec()))
            .unwrap();
        let back = buf.read(&mut m, b, 10, 6).unwrap();
        assert_eq!(back, b"shared");
    }

    #[test]
    fn distinct_buffers_do_not_overlap() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let b1 = DmaBuffer::alloc(&mut m, pid, 8192);
        let b2 = DmaBuffer::alloc(&mut m, pid, 8192);
        assert_ne!(b1.bus(), b2.bus());
        b1.write(&mut m, pid, 0, &Payload::from_bytes(vec![1; 8192])).unwrap();
        b2.write(&mut m, pid, 0, &Payload::from_bytes(vec![2; 8192])).unwrap();
        assert_eq!(b1.read(&mut m, pid, 0, 1).unwrap(), vec![1]);
        assert_eq!(b2.read(&mut m, pid, 0, 1).unwrap(), vec![2]);
    }

    #[test]
    fn windows_stay_disjoint_after_a_release() {
        // alloc A, alloc B, release A, alloc C: C may reuse A's frames,
        // but its VA and bus ranges must not touch B's.
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let len = 64 << 20;
        let a = DmaBuffer::alloc(&mut m, pid, len);
        let b = DmaBuffer::alloc(&mut m, pid, len);
        a.release(&mut m);
        let c = DmaBuffer::alloc(&mut m, pid, len);
        let disjoint = |x: u64, y: u64| x + len <= y || y + len <= x;
        assert!(disjoint(b.va().value(), c.va().value()), "VA ranges overlap");
        assert!(disjoint(b.bus().value(), c.bus().value()), "bus ranges overlap");
        b.write(&mut m, pid, 0, &Payload::from_bytes(vec![0xb; 64])).unwrap();
        c.write(&mut m, pid, 0, &Payload::from_bytes(vec![0xc; 64])).unwrap();
        assert_eq!(b.read(&mut m, pid, 0, 1).unwrap(), vec![0xb]);
        let bus_b = m.iommu_mut().translate(b.bus()).unwrap();
        let mut byte = [0u8; 1];
        m.os_read_phys(bus_b, &mut byte);
        assert_eq!(byte, [0xb], "B's IOMMU entry was overwritten");
    }

    #[test]
    fn unshare_and_release_unmap_everything() {
        let mut m = standard_rig(RigOptions::default());
        let (a, b) = (m.create_process(), m.create_process());
        let buf = DmaBuffer::alloc(&mut m, a, 3 * PAGE_SIZE);
        buf.share_with(&mut m, b);
        // Fill b's TLB, then unshare: the stale entry must not survive.
        buf.read(&mut m, b, 0, 1).unwrap();
        buf.unshare(&mut m, b);
        assert!(matches!(buf.read(&mut m, b, 0, 1), Err(AccessFault::NotMapped(_))));
        assert_eq!(m.mapped_pages(b), 0);
        let bus = buf.bus();
        let frame = m.iommu_mut().translate(bus);
        buf.release(&mut m);
        assert_eq!(m.mapped_pages(a), 0);
        // (The rig's IOMMU passes unmapped pages through as identity.)
        assert_ne!(m.iommu_mut().translate(bus), frame);
    }
}
