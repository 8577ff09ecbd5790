//! Dependency-chained memory-access traces.
//!
//! Each genomics kernel can *execute functionally* while recording the
//! memory accesses its hardware implementation would perform. A
//! [`TaskTrace`] is the unit the NDP simulator replays: an ordered list of
//! [`Step`]s, where the accesses inside a step are independent (issued in
//! parallel by the PE) and step *n+1* cannot start before step *n*'s data
//! has returned — exactly the data dependence of e.g. FM-index backward
//! search, where the next Occ position depends on the current Occ values.

/// The application a trace belongs to (determines the PE engine and its
/// compute latency; paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// FM-index based DNA seeding (BWA-MEM style).
    FmSeeding,
    /// Hash-index based DNA seeding (SMALT style).
    HashSeeding,
    /// k-mer counting (BFCounter style).
    KmerCounting,
    /// DNA pre-alignment filtering (Shouji style).
    PreAlignment,
}

impl AppKind {
    /// PE computation latency per step in DRAM cycles (paper §VI-A: 16,
    /// 10, 59 and 82 cycles).
    pub fn pe_latency_cycles(&self) -> u32 {
        match self {
            AppKind::FmSeeding => 16,
            AppKind::HashSeeding => 10,
            AppKind::KmerCounting => 59,
            AppKind::PreAlignment => 82,
        }
    }

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            AppKind::FmSeeding => "FM-index seeding",
            AppKind::HashSeeding => "Hash-index seeding",
            AppKind::KmerCounting => "k-mer counting",
            AppKind::PreAlignment => "DNA pre-alignment",
        }
    }
}

/// Logical memory regions a kernel touches. The BEACON memory-management
/// framework decides where each region physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// FM-index Occ buckets (32 B each, fine-grained random access).
    FmIndex,
    /// Hash-index bucket headers (fine-grained random access).
    HashTable,
    /// Hash-index candidate-location lists (contiguous, spatially local).
    CandidateLists,
    /// Counting-Bloom-filter counters (byte-grained random RMW access).
    Bloom,
    /// Packed reference windows (sequential access).
    Reference,
    /// Input read staging buffers (sequential streaming).
    ReadBuf,
}

impl Region {
    /// True for regions the paper identifies as having spatial locality
    /// (placed row-by-row by the address-mapping scheme, §IV-C
    /// principle 2).
    pub fn has_spatial_locality(&self) -> bool {
        matches!(
            self,
            Region::CandidateLists | Region::Reference | Region::ReadBuf
        )
    }
}

/// Access direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain read.
    Read,
    /// Plain write.
    Write,
    /// Atomic read-modify-write (k-mer counter increments).
    Rmw,
}

/// One memory access within a region's flat address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Which logical region.
    pub region: Region,
    /// Byte offset within the region.
    pub offset: u64,
    /// Access size in bytes.
    pub bytes: u32,
    /// Direction.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `bytes` at `offset`.
    pub fn read(region: Region, offset: u64, bytes: u32) -> Self {
        Access {
            region,
            offset,
            bytes,
            kind: AccessKind::Read,
        }
    }

    /// A write of `bytes` at `offset`.
    pub fn write(region: Region, offset: u64, bytes: u32) -> Self {
        Access {
            region,
            offset,
            bytes,
            kind: AccessKind::Write,
        }
    }

    /// An atomic RMW of `bytes` at `offset`.
    pub fn rmw(region: Region, offset: u64, bytes: u32) -> Self {
        Access {
            region,
            offset,
            bytes,
            kind: AccessKind::Rmw,
        }
    }
}

/// One dependency step of a task: the PE computes for
/// [`AppKind::pe_latency_cycles`] cycles, issues `accesses` in parallel
/// and, when `wait_for_data` is set, blocks until all of them return
/// before the next step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Accesses issued together.
    pub accesses: Vec<Access>,
    /// Whether the next step depends on this step's data (true for index
    /// walks; false for fire-and-forget counter updates).
    pub wait_for_data: bool,
}

impl Step {
    /// A blocking step (next step needs this data).
    pub fn blocking(accesses: Vec<Access>) -> Self {
        Step {
            accesses,
            wait_for_data: true,
        }
    }

    /// A posted step (fire-and-forget stores/RMWs).
    pub fn posted(accesses: Vec<Access>) -> Self {
        Step {
            accesses,
            wait_for_data: false,
        }
    }
}

/// The full access trace of one task (one read / one candidate pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTrace {
    /// Application that produced the trace.
    pub app: AppKind,
    /// Ordered dependency steps.
    pub steps: Vec<Step>,
}

impl TaskTrace {
    /// Creates a trace.
    pub fn new(app: AppKind, steps: Vec<Step>) -> Self {
        TaskTrace { app, steps }
    }

    /// Total number of accesses across all steps.
    pub fn access_count(&self) -> usize {
        self.steps.iter().map(|s| s.accesses.len()).sum()
    }

    /// Total bytes requested across all steps.
    pub fn total_bytes(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| &s.accesses)
            .map(|a| a.bytes as u64)
            .sum()
    }

    /// Accesses per region, for placement statistics.
    pub fn bytes_by_region(&self) -> std::collections::BTreeMap<Region, u64> {
        let mut m = std::collections::BTreeMap::new();
        for a in self.steps.iter().flat_map(|s| &s.accesses) {
            *m.entry(a.region).or_insert(0) += a.bytes as u64;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_latencies_match_paper() {
        assert_eq!(AppKind::FmSeeding.pe_latency_cycles(), 16);
        assert_eq!(AppKind::HashSeeding.pe_latency_cycles(), 10);
        assert_eq!(AppKind::KmerCounting.pe_latency_cycles(), 59);
        assert_eq!(AppKind::PreAlignment.pe_latency_cycles(), 82);
    }

    #[test]
    fn trace_accounting() {
        let t = TaskTrace::new(
            AppKind::FmSeeding,
            vec![
                Step::blocking(vec![
                    Access::read(Region::FmIndex, 0, 32),
                    Access::read(Region::FmIndex, 64, 32),
                ]),
                Step::posted(vec![Access::rmw(Region::Bloom, 7, 1)]),
            ],
        );
        assert_eq!(t.access_count(), 3);
        assert_eq!(t.total_bytes(), 65);
        assert_eq!(t.bytes_by_region()[&Region::FmIndex], 64);
        assert_eq!(t.bytes_by_region()[&Region::Bloom], 1);
    }

    #[test]
    fn locality_classification() {
        assert!(Region::CandidateLists.has_spatial_locality());
        assert!(Region::Reference.has_spatial_locality());
        assert!(!Region::FmIndex.has_spatial_locality());
        assert!(!Region::Bloom.has_spatial_locality());
    }

    #[test]
    fn step_constructors_set_wait_flag() {
        let b = Step::blocking(vec![]);
        let p = Step::posted(vec![]);
        assert!(b.wait_for_data);
        assert!(!p.wait_for_data);
    }
}
