//! Configuration structs for the simulated machine (paper Table II).

use crate::addr::{BlockAddr, BLOCK_BYTES, BLOCK_OFFSET_BITS};
use crate::MemCycle;

/// Geometry of the memory regions BuMP tracks (1KB in the paper; 512B
/// and 2KB appear in the Figure 11 design-space sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionConfig {
    bytes: u64,
}

impl RegionConfig {
    /// Creates a region geometry of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is smaller than one
    /// cache block (64B).
    pub fn new(bytes: u64) -> Self {
        assert!(
            bytes.is_power_of_two() && bytes >= BLOCK_BYTES,
            "region size must be a power of two of at least {BLOCK_BYTES} bytes, got {bytes}"
        );
        RegionConfig { bytes }
    }

    /// The paper's default geometry: 1KB regions (16 blocks).
    pub fn kilobyte() -> Self {
        RegionConfig::new(1024)
    }

    /// Region size in bytes.
    pub const fn bytes(self) -> u64 {
        self.bytes
    }

    /// Number of cache blocks per region.
    pub const fn blocks_per_region(self) -> u32 {
        (self.bytes / BLOCK_BYTES) as u32
    }

    /// Number of address bits covered by a region.
    pub const fn offset_bits(self) -> u32 {
        self.bytes.trailing_zeros()
    }

    /// Number of address bits selecting a block within a region.
    pub const fn block_bits(self) -> u32 {
        self.offset_bits() - BLOCK_OFFSET_BITS
    }

    /// The block offset (0-based position) of `block` within its region.
    pub fn block_offset(self, block: BlockAddr) -> u32 {
        (block.index() & (u64::from(self.blocks_per_region()) - 1)) as u32
    }
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig::kilobyte()
    }
}

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating that the set count is a power of two.
    ///
    /// # Panics
    ///
    /// Panics if the derived number of sets is not a positive power of two.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        let g = CacheGeometry {
            capacity_bytes,
            ways,
        };
        let sets = g.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache of {capacity_bytes}B / {ways} ways yields invalid set count {sets}"
        );
        g
    }

    /// The paper's L1-D: 32KB, 2-way.
    pub fn l1d() -> Self {
        CacheGeometry::new(32 * 1024, 2)
    }

    /// The paper's LLC: 4MB, 16-way.
    pub fn llc() -> Self {
        CacheGeometry::new(4 * 1024 * 1024, 16)
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        self.capacity_bytes / BLOCK_BYTES / u64::from(self.ways)
    }

    /// Total number of blocks the cache can hold.
    pub fn blocks(self) -> u64 {
        self.capacity_bytes / BLOCK_BYTES
    }
}

/// DRAM channel/rank/bank geometry (paper Table II: 16GB, 2 channels,
/// 4 ranks per channel, 8 banks per rank, 8KB row buffer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of independent memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row buffer (DRAM page at rank level) size in bytes.
    pub row_bytes: u64,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

impl DramGeometry {
    /// The paper's configuration: 16GB, 2 channels × 4 ranks × 8 banks, 8KB rows.
    pub fn paper() -> Self {
        DramGeometry {
            channels: 2,
            ranks_per_channel: 4,
            banks_per_rank: 8,
            row_bytes: 8 * 1024,
            capacity_bytes: 16 * 1024 * 1024 * 1024,
        }
    }

    /// Total number of banks across the whole memory system.
    pub fn total_banks(self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Number of rows per bank implied by the capacity.
    pub fn rows_per_bank(self) -> u64 {
        self.capacity_bytes / u64::from(self.total_banks()) / self.row_bytes
    }

    /// Blocks per row buffer.
    pub fn blocks_per_row(self) -> u64 {
        self.row_bytes / BLOCK_BYTES
    }
}

/// Physical-address-to-DRAM-coordinate interleaving schemes (paper §IV.D
/// and §V.A).
///
/// Both schemes follow `Row:ColHi:Rank:Bank:Channel:ColLo:ByteOffset`
/// with an 8-byte DRAM column word; they differ in how the column bits
/// are split around the rank/bank/channel bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Interleaving {
    /// Block-level interleaving (`ColLo` covers one cache block):
    /// consecutive blocks rotate across channels/banks/ranks. Used by
    /// Base-close to maximize parallelism.
    Block,
    /// Region-level interleaving (`ColLo` covers one 1KB region): an
    /// entire region maps to a single DRAM row. Used by Base-open and
    /// BuMP.
    #[default]
    Region,
}

/// DRAM timing parameters, in memory-bus clock cycles.
///
/// One complete inter-command constraint set: the paper's Table II
/// parameters plus the JEDEC parameters the table omits but the
/// scheduler needs (CAS write latency, refresh interval/cycle time,
/// bus turnaround). Concrete timing sets are constructed by
/// [`MemSpec`]; nothing else in the workspace hard-codes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency: column command to first data beat.
    pub t_cas: u64,
    /// RAS-to-CAS delay: activation to column command.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Minimum row-active time (activate to precharge).
    pub t_ras: u64,
    /// Activate-to-activate delay within a bank.
    pub t_rc: u64,
    /// Write recovery: end of write burst to precharge.
    pub t_wr: u64,
    /// Write-to-read turnaround within a rank.
    pub t_wtr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Activate-to-activate delay across banks of one rank.
    pub t_rrd: u64,
    /// Four-activate window per rank.
    pub t_faw: u64,
    /// Data burst occupancy in bus cycles (one 64B cache block; BL8 on
    /// a 64-bit bus = 4 cycles, BL16 on a 16-bit LPDDR4 channel = 16).
    pub t_burst: u64,
    /// CAS write latency: write command to first data beat.
    pub t_cwl: u64,
    /// Average refresh interval (tREFI) in bus cycles.
    pub t_refi: u64,
    /// Refresh cycle time (tRFC) in bus cycles.
    pub t_rfc: u64,
    /// Bus turnaround penalty when the data bus switches direction.
    pub t_turnaround: u64,
}

impl DramTiming {
    /// CAS write latency (write command to first data beat).
    pub const fn cwl(&self) -> MemCycle {
        self.t_cwl
    }

    /// Average refresh interval.
    pub const fn refi(&self) -> MemCycle {
        self.t_refi
    }

    /// Refresh cycle time.
    pub const fn rfc(&self) -> MemCycle {
        self.t_rfc
    }

    /// Bus turnaround penalty when the data bus switches direction.
    pub const fn turnaround(&self) -> MemCycle {
        self.t_turnaround
    }
}

/// A complete, named memory-technology platform: timing set, DRAM
/// geometry, and the CPU:memory clock ratio. This is the single place
/// concrete timing sets are constructed — the memory controller, the
/// figure binaries, and the wire protocol all select platforms through
/// a `MemSpec`, never by hard-coding `DramTiming` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemSpec {
    /// Canonical spec name (`ddr3_1600`, `ddr4_2400`, `lpddr4_3200`),
    /// used in scenario labels and the wire protocol.
    pub name: &'static str,
    /// The inter-command constraint set, in bus cycles.
    pub timing: DramTiming,
    /// Channel/rank/bank geometry.
    pub geometry: DramGeometry,
    /// CPU clock cycles per memory bus cycle, times 1000 (3125 =
    /// 3.125, i.e. a 2.5GHz core over an 800MHz bus).
    pub freq_ratio_milli: u64,
}

impl MemSpec {
    /// The paper's platform (Table II): DDR3-1600 11-11-11-28,
    /// 39-12-6-6, 5-24 over 16GB of 2 channels × 4 ranks × 8 banks
    /// with 8KB rows; 800MHz bus under a 2.5GHz core (ratio 3.125).
    pub fn ddr3_1600() -> Self {
        MemSpec {
            name: "ddr3_1600",
            timing: DramTiming {
                t_cas: 11,
                t_rcd: 11,
                t_rp: 11,
                t_ras: 28,
                t_rc: 39,
                t_wr: 12,
                t_wtr: 6,
                t_rtp: 6,
                t_rrd: 5,
                t_faw: 24,
                t_burst: 4,
                t_cwl: 8,
                t_refi: 6240,
                t_rfc: 128,
                t_turnaround: 2,
            },
            geometry: DramGeometry::paper(),
            freq_ratio_milli: 3125,
        }
    }

    /// DDR4-2400 (17-17-17-39 datasheet-style timings at a 1.2GHz bus):
    /// 32GB of 2 channels × 4 ranks × 16 banks with 8KB rows; clock
    /// ratio 2.083 under the 2.5GHz core.
    pub fn ddr4_2400() -> Self {
        MemSpec {
            name: "ddr4_2400",
            timing: DramTiming {
                t_cas: 17,
                t_rcd: 17,
                t_rp: 17,
                t_ras: 39,
                t_rc: 56,
                t_wr: 18,
                t_wtr: 9,
                t_rtp: 9,
                t_rrd: 6,
                t_faw: 26,
                t_burst: 4,
                t_cwl: 12,
                t_refi: 9360,
                t_rfc: 420,
                t_turnaround: 2,
            },
            geometry: DramGeometry {
                channels: 2,
                ranks_per_channel: 4,
                banks_per_rank: 16,
                row_bytes: 8 * 1024,
                capacity_bytes: 32 * 1024 * 1024 * 1024,
            },
            freq_ratio_milli: 2083,
        }
    }

    /// LPDDR4-3200 (28-29-29-67 datasheet-style timings at a 1.6GHz
    /// bus clock): 8GB of 4 single-rank 16-bit channels × 8 banks with
    /// 2KB rows. A 64B block occupies 16 bus cycles on the narrow
    /// channel (BL16); clock ratio 1.563 under the 2.5GHz core.
    pub fn lpddr4_3200() -> Self {
        MemSpec {
            name: "lpddr4_3200",
            timing: DramTiming {
                t_cas: 28,
                t_rcd: 29,
                t_rp: 29,
                t_ras: 67,
                t_rc: 96,
                t_wr: 29,
                t_wtr: 16,
                t_rtp: 12,
                t_rrd: 16,
                t_faw: 64,
                t_burst: 16,
                t_cwl: 14,
                t_refi: 6246,
                t_rfc: 448,
                t_turnaround: 2,
            },
            geometry: DramGeometry {
                channels: 4,
                ranks_per_channel: 1,
                banks_per_rank: 8,
                row_bytes: 2 * 1024,
                capacity_bytes: 8 * 1024 * 1024 * 1024,
            },
            freq_ratio_milli: 1563,
        }
    }

    /// Every supported memory spec, default platform first.
    pub fn all() -> [MemSpec; 3] {
        [
            MemSpec::ddr3_1600(),
            MemSpec::ddr4_2400(),
            MemSpec::lpddr4_3200(),
        ]
    }

    /// Parses a spec from its canonical name, matched with
    /// [`normalized_name`] (so `DDR4-2400`, `ddr4_2400`, and `ddr42400`
    /// all resolve).
    pub fn from_name(s: &str) -> Option<MemSpec> {
        let wanted = normalized_name(s);
        MemSpec::all()
            .into_iter()
            .find(|m| normalized_name(m.name) == wanted)
    }

    /// The energy parameter set for this platform: each named spec
    /// carries its own Table-III-style constants (DDR3's numbers would
    /// misprice DDR4/LPDDR4 by their voltage and row-size differences).
    /// A hand-built spec reusing an unknown name falls back to the
    /// paper's DDR3 values.
    pub fn energy(&self) -> crate::DramEnergyParams {
        match self.name {
            "ddr4_2400" => crate::DramEnergyParams::ddr4_2400(),
            "lpddr4_3200" => crate::DramEnergyParams::lpddr4_3200(),
            _ => crate::DramEnergyParams::paper(),
        }
    }
}

/// Lowercases `s` and strips the separator characters that name
/// matching ignores (` `, `-`, `_`, `+`). Shared by
/// [`MemSpec::from_name`], `Workload::from_name` in `bump-workloads`,
/// and `Preset::from_name` in `bump-sim`, so the parsers can never
/// drift apart in what they forgive.
pub fn normalized_name(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_' | '+'))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Parameters of the lean out-of-order core model (paper Table II:
/// 3-way OoO, 48-entry ROB and LSQ, modelled after a mobile-class core).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreParams {
    /// Maximum instructions retired per cycle.
    pub retire_width: u32,
    /// Reorder buffer capacity (bounds in-flight instructions).
    pub rob_entries: u32,
    /// Load/store queue capacity (bounds in-flight memory ops).
    pub lsq_entries: u32,
    /// Store buffer capacity (store misses drain in the background).
    pub store_buffer_entries: u32,
    /// L1 load-to-use latency in CPU cycles.
    pub l1_latency: u64,
    /// Number of L1 MSHRs (bounds memory-level parallelism per core).
    pub l1_mshrs: u32,
}

impl CoreParams {
    /// The paper's core: 3-way, 48-entry ROB/LSQ, 2-cycle L1, 10 MSHRs.
    pub fn paper() -> Self {
        CoreParams {
            retire_width: 3,
            rob_entries: 48,
            lsq_entries: 48,
            store_buffer_entries: 16,
            l1_latency: 2,
            l1_mshrs: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kilobyte_region_is_sixteen_blocks() {
        let r = RegionConfig::kilobyte();
        assert_eq!(r.blocks_per_region(), 16);
        assert_eq!(r.offset_bits(), 10);
        assert_eq!(r.block_bits(), 4);
    }

    #[test]
    fn region_sweep_sizes_are_valid() {
        for bytes in [512, 1024, 2048] {
            let r = RegionConfig::new(bytes);
            assert_eq!(u64::from(r.blocks_per_region()) * BLOCK_BYTES, bytes);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn region_rejects_non_power_of_two() {
        RegionConfig::new(1000);
    }

    #[test]
    fn paper_l1_and_llc_geometry() {
        assert_eq!(CacheGeometry::l1d().sets(), 256);
        assert_eq!(CacheGeometry::llc().sets(), 4096);
        assert_eq!(CacheGeometry::llc().blocks(), 65536);
    }

    #[test]
    fn paper_dram_geometry_row_math() {
        let g = DramGeometry::paper();
        assert_eq!(g.total_banks(), 64);
        assert_eq!(g.blocks_per_row(), 128);
        // 16GB / 64 banks / 8KB rows = 32768 rows per bank.
        assert_eq!(g.rows_per_bank(), 32768);
    }

    #[test]
    fn mem_spec_from_name_round_trips_and_forgives_separators() {
        for m in MemSpec::all() {
            assert_eq!(MemSpec::from_name(m.name), Some(m));
        }
        assert_eq!(
            MemSpec::from_name("DDR4-2400").map(|m| m.name),
            Some("ddr4_2400")
        );
        assert_eq!(
            MemSpec::from_name("lpddr4 3200").map(|m| m.name),
            Some("lpddr4_3200")
        );
        assert_eq!(MemSpec::from_name("ddr5_4800"), None);
    }

    #[test]
    fn mem_spec_names_are_distinct_and_geometries_valid() {
        let names: std::collections::HashSet<&str> =
            MemSpec::all().iter().map(|m| m.name).collect();
        assert_eq!(names.len(), 3);
        for m in MemSpec::all() {
            assert!(m.geometry.channels.is_power_of_two(), "{}", m.name);
            assert!(m.geometry.ranks_per_channel.is_power_of_two(), "{}", m.name);
            assert!(m.geometry.banks_per_rank.is_power_of_two(), "{}", m.name);
            assert!(m.geometry.row_bytes.is_power_of_two(), "{}", m.name);
            assert!(m.geometry.rows_per_bank() > 0, "{}", m.name);
            assert!(m.freq_ratio_milli >= 1000, "{}", m.name);
            // Basic JEDEC sanity: tRC covers tRAS + tRP, tFAW covers
            // four tRRD-spaced activates.
            assert!(m.timing.t_rc >= m.timing.t_ras, "{}", m.name);
            assert!(m.timing.t_faw >= 3 * m.timing.t_rrd, "{}", m.name);
        }
    }

    #[test]
    fn every_spec_has_consistent_energy_parameters() {
        // Each named spec resolves to its own constants, and the bus
        // cycle time agrees with the spec's clock ratio (a 2.5GHz CPU
        // cycle is 0.4ns, so mem cycle = ratio × 0.4ns).
        let params: Vec<_> = MemSpec::all().iter().map(|m| m.energy()).collect();
        assert_ne!(params[0], params[1]);
        assert_ne!(params[1], params[2]);
        assert_eq!(
            MemSpec::ddr3_1600().energy(),
            crate::DramEnergyParams::paper()
        );
        for m in MemSpec::all() {
            let expected_ns = m.freq_ratio_milli as f64 * 0.4 / 1000.0;
            let got = m.energy().cycle_ns;
            assert!(
                (got - expected_ns).abs() / expected_ns < 0.01,
                "{}: cycle {got}ns vs clock-ratio {expected_ns}ns",
                m.name
            );
        }
        // A tweaked spec under an unknown name falls back to Table III.
        let mut odd = MemSpec::ddr4_2400();
        odd.name = "ddr5_4800";
        assert_eq!(odd.energy(), crate::DramEnergyParams::paper());
    }

    #[test]
    fn paper_spec_keeps_table_ii_values() {
        let m = MemSpec::ddr3_1600();
        let t = m.timing;
        assert_eq!(
            (t.t_cas, t.t_rcd, t.t_rp, t.t_ras),
            (11, 11, 11, 28),
            "Table II CAS timings"
        );
        assert_eq!(
            (t.cwl(), t.refi(), t.rfc(), t.turnaround()),
            (8, 6240, 128, 2)
        );
        assert_eq!(m.geometry, DramGeometry::paper());
        assert_eq!(m.freq_ratio_milli, 3125);
    }
}
