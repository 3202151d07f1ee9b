//! Device specifications for the simulated GPUs.
//!
//! The paper evaluates on an NVIDIA A100 (108 SMs, 40 GB HBM2) and an
//! RTX A4000 (40 SMs, 16 GB GDDR6). The throughput model in
//! [`crate::perf`] consumes these numbers; everything else in the simulator
//! is architecture-independent.

/// Number of lanes per warp. Fixed at 32 on every CUDA architecture the
/// paper targets; the warp-ballot bitshuffle design depends on it.
pub const WARP_SIZE: usize = 32;

/// Shared-memory bank count; successive 4-byte words map to successive banks.
pub const SMEM_BANKS: usize = 32;

/// Size in bytes of one global-memory sector (the granularity at which the
/// memory system moves data on Ampere-class GPUs).
pub const SECTOR_BYTES: usize = 32;

/// Static description of a simulated GPU.
///
/// All throughput figures are *device peaks*; the performance model applies
/// achievable-fraction derates, so the numbers here should come straight
/// from the datasheet / the paper's hardware table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Streaming-multiprocessor count.
    pub sm_count: u32,
    /// Peak global-memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Fraction of peak bandwidth achievable by a well-tuned streaming
    /// kernel (empirically ~0.85 on Ampere).
    pub mem_efficiency: f64,
    /// Peak shared-memory bandwidth in bytes/second (all SMs aggregated:
    /// 128 bytes/clock/SM).
    pub smem_bandwidth: f64,
    /// Aggregate simple-integer/logic instruction throughput in
    /// warp-instructions/second (per-SM issue rate x SM count x clock).
    pub warp_instr_rate: f64,
    /// Fixed cost of one kernel launch in seconds (driver + dispatch).
    pub launch_overhead: f64,
    /// Shared memory available per thread block, bytes.
    pub smem_per_block: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Peak per-GPU PCIe bandwidth, bytes/second (16-lane PCIe 4.0).
    pub pcie_peak: f64,
    /// Congested per-GPU PCIe bandwidth when all four GPUs of the paper's
    /// node transfer simultaneously (measured 11.4 GB/s in the paper).
    pub pcie_congested: f64,
    /// Asynchronous copy (DMA) engines: the number of host<->device
    /// transfers the device can drive concurrently with compute. Bounds
    /// copy/compute overlap in [`crate::stream::StreamSim`].
    pub copy_engines: u32,
    /// Fixed cost of one `cudaMalloc` in seconds. Device allocation takes
    /// an implicit device synchronization plus driver bookkeeping; reusing
    /// buffers through [`crate::mempool::MemPool`] avoids it. Only charged
    /// when a [`crate::grid::Gpu`] opts into allocation accounting.
    pub alloc_overhead: f64,
}

impl DeviceSpec {
    /// Effective (derated) global-memory bandwidth.
    #[inline]
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.mem_efficiency
    }

    /// Single-thread scalar instruction rate (one scheduler's issue rate) —
    /// the speed at which a serial, unparallelizable stage runs on device.
    pub fn scalar_rate(&self) -> f64 {
        self.warp_instr_rate / (self.sm_count as f64 * 4.0)
    }

    /// Resident warps that saturate a streaming kernel: empirically ~16
    /// per SM.
    pub fn saturating_warps(&self) -> f64 {
        self.sm_count as f64 * 16.0
    }

    /// Occupancy factor in `(0, 1]` of a launch of `total_warps` warps: a
    /// grid too small to fill the device cannot reach peak throughput, so
    /// the roofline's pipe times are divided by this (see
    /// [`crate::perf::TimeBreakdown::attribute`]).
    pub fn occupancy(&self, total_warps: f64) -> f64 {
        let saturating = self.saturating_warps();
        (total_warps / saturating).min(1.0).max(1.0 / saturating)
    }
}

/// NVIDIA A100-40GB (SXM) as used on the paper's HPC-cluster node.
pub const A100: DeviceSpec = DeviceSpec {
    name: "A100",
    sm_count: 108,
    mem_bandwidth: 1555.0e9,
    mem_efficiency: 0.85,
    // 108 SMs * 128 B/clock * 1.41 GHz
    smem_bandwidth: 108.0 * 128.0 * 1.41e9,
    // 108 SMs * 4 schedulers * 1.41 GHz
    warp_instr_rate: 108.0 * 4.0 * 1.41e9,
    launch_overhead: 4.0e-6,
    smem_per_block: 164 * 1024,
    max_threads_per_block: 1024,
    mem_capacity: 40 * 1024 * 1024 * 1024,
    pcie_peak: 32.0e9,
    pcie_congested: 11.4e9,
    // GA100 exposes 5 async copy engines.
    copy_engines: 5,
    alloc_overhead: 10.0e-6,
};

/// NVIDIA RTX A4000 as used in the paper's in-house workstation
/// (the paper lists 40 SMs, 16 GB GDDR6).
pub const A4000: DeviceSpec = DeviceSpec {
    name: "A4000",
    sm_count: 40,
    mem_bandwidth: 448.0e9,
    mem_efficiency: 0.85,
    smem_bandwidth: 40.0 * 128.0 * 1.56e9,
    warp_instr_rate: 40.0 * 4.0 * 1.56e9,
    launch_overhead: 4.0e-6,
    smem_per_block: 100 * 1024,
    max_threads_per_block: 1024,
    mem_capacity: 16 * 1024 * 1024 * 1024,
    pcie_peak: 32.0e9,
    pcie_congested: 11.4e9,
    // GA104 workstation parts expose 2 async copy engines.
    copy_engines: 2,
    alloc_overhead: 10.0e-6,
};

/// Look a device preset up by case-insensitive name (`"a100"`, `"a4000"`).
pub fn by_name(name: &str) -> Option<DeviceSpec> {
    match name.to_ascii_lowercase().as_str() {
        "a100" => Some(A100),
        "a4000" => Some(A4000),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // cross-checks the preset tables
    fn a100_outclasses_a4000() {
        assert!(A100.mem_bandwidth > A4000.mem_bandwidth);
        assert!(A100.sm_count > A4000.sm_count);
        assert!(A100.warp_instr_rate > A4000.warp_instr_rate);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("A100").unwrap().name, "A100");
        assert_eq!(by_name("a4000").unwrap().name, "A4000");
        assert!(by_name("h100").is_none());
    }

    #[test]
    fn effective_bandwidth_is_derated() {
        assert!(A100.effective_bandwidth() < A100.mem_bandwidth);
        assert!(A100.effective_bandwidth() > 0.5 * A100.mem_bandwidth);
    }

    #[test]
    fn copy_engines_are_positive_everywhere() {
        for spec in [A100, A4000] {
            assert!(spec.copy_engines >= 1, "{}", spec.name);
            assert!(spec.alloc_overhead > 0.0, "{}", spec.name);
        }
        let (a100, a4000) = (A100.copy_engines, A4000.copy_engines);
        assert!(a100 > a4000, "A100 has more DMA engines than A4000: {a100} vs {a4000}");
    }

    #[test]
    fn pcie_congestion_matches_paper() {
        // The paper measures 11.4 GB/s per GPU when 4 GPUs transfer at once.
        assert_eq!(A100.pcie_congested, 11.4e9);
        assert_eq!(A100.pcie_peak, 32.0e9);
    }
}
