//! The Virtex-II technology library.
//!
//! **Substitution note:** the paper synthesized with Xilinx
//! ISE 6.2 onto an XC2V3000-4. We cannot run ISE; this library carries
//! per-primitive area/delay characterizations in the spirit of the
//! Virtex-II data sheet (LUT4 + carry-chain slices, dedicated MULT18X18
//! and 18-kbit BRAM columns) plus two calibration constants documented
//! below. Absolute numbers are estimates; the resource *mix* (2 MULTs,
//! 2 BRAMs, a few hundred slices) is structural.

use crate::primitive::{CellInfo, Primitive};

/// Device capacity limits (for utilization percentages, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Device {
    /// Device name.
    pub name: &'static str,
    /// Total CLB slices.
    pub slices: u32,
    /// Total MULT18X18 blocks.
    pub mult18: u32,
    /// Total 18-kbit block RAMs.
    pub bram18: u32,
}

/// The paper's device: Xilinx Virtex-II XC2V3000.
pub const XC2V3000: Device = Device {
    name: "XC2V3000",
    slices: 14336,
    mult18: 96,
    bram18: 96,
};

/// Area/timing characterization rules for a Virtex-II-class fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechLibrary {
    /// LUT4 propagation delay (ns).
    pub lut_delay: f64,
    /// Average routing delay per net hop (ns).
    pub net_delay: f64,
    /// Carry-chain delay per bit (ns).
    pub carry_per_bit: f64,
    /// Flip-flop clock-to-out (ns).
    pub clk_to_q: f64,
    /// Flip-flop setup time (ns).
    pub setup: f64,
    /// Block-RAM clock-to-data-out (ns).
    pub bram_clk_to_out: f64,
    /// MULT18X18 combinational delay (ns).
    pub mult_delay: f64,
    /// Slice packing efficiency: fraction of the 2 LUT + 2 FF capacity a
    /// placed slice actually uses. **Calibration constant**: set to the
    /// packing the paper's Stateflow→JVHDLgen→ISE flow achieved on its one
    /// published data point (441 slices); machine-generated RTL packs far
    /// worse than hand-mapped code.
    pub packing: f64,
    /// Control-path overhead levels added by generated (non-hand-mapped)
    /// RTL on every register-to-register path, in LUT levels.
    /// **Calibration constant** matched to the ~75 MHz of Table 2.
    pub generated_control_levels: u32,
}

impl Default for TechLibrary {
    /// Virtex-II speed grade -4 style values.
    fn default() -> TechLibrary {
        TechLibrary {
            lut_delay: 0.44,
            net_delay: 0.90,
            carry_per_bit: 0.055,
            clk_to_q: 0.50,
            setup: 0.42,
            bram_clk_to_out: 3.0,
            mult_delay: 4.9,
            packing: 0.49,
            generated_control_levels: 1,
        }
    }
}

impl TechLibrary {
    /// Characterizes one primitive instance.
    pub fn characterize(&self, prim: Primitive) -> CellInfo {
        match prim {
            Primitive::Register { bits } => CellInfo {
                ffs: bits,
                delay_ns: self.clk_to_q,
                sequential: true,
                ..CellInfo::default()
            },
            Primitive::Adder { bits } => CellInfo {
                luts: bits,
                delay_ns: self.lut_delay + self.carry_per_bit * f64::from(bits),
                ..CellInfo::default()
            },
            Primitive::AbsDiff { bits } => CellInfo {
                // Subtract, conditional negate (mux + increment chain).
                luts: 2 * bits + 1,
                delay_ns: 2.0 * self.lut_delay
                    + 2.0 * self.carry_per_bit * f64::from(bits)
                    + self.net_delay,
                ..CellInfo::default()
            },
            Primitive::Comparator { bits } => CellInfo {
                luts: bits / 2 + 1,
                delay_ns: self.lut_delay + self.carry_per_bit * f64::from(bits),
                ..CellInfo::default()
            },
            Primitive::Saturator { bits } => CellInfo {
                // Constant compare + 2:1 mux.
                luts: bits / 2 + bits,
                delay_ns: 2.0 * self.lut_delay
                    + self.carry_per_bit * f64::from(bits)
                    + self.net_delay,
                ..CellInfo::default()
            },
            Primitive::Mux { bits, inputs } => {
                // LUT4 builds a 2:1 mux per bit; wider muxes tree up.
                let levels = u32::max(1, inputs.saturating_sub(1).next_power_of_two().trailing_zeros());
                CellInfo {
                    luts: bits * inputs.saturating_sub(1),
                    delay_ns: f64::from(levels) * self.lut_delay + self.net_delay,
                    ..CellInfo::default()
                }
            }
            Primitive::Counter { bits } => CellInfo {
                // Increment adder + register + load mux.
                luts: 2 * bits,
                ffs: bits,
                delay_ns: self.clk_to_q,
                sequential: true,
                ..CellInfo::default()
            },
            Primitive::Mult18x18 => CellInfo {
                mult18: 1,
                delay_ns: self.mult_delay,
                ..CellInfo::default()
            },
            Primitive::Bram18 => CellInfo {
                bram18: 1,
                delay_ns: self.bram_clk_to_out,
                sequential: true,
                ..CellInfo::default()
            },
            Primitive::Fsm { states, outputs } => CellInfo {
                // One-hot: one FF per state, ~1.5 LUT per state for
                // next-state logic, ~1 LUT per control output.
                luts: states + states / 2 + outputs,
                ffs: states,
                delay_ns: self.clk_to_q,
                sequential: true,
                ..CellInfo::default()
            },
            Primitive::Glue { luts } => CellInfo {
                luts,
                delay_ns: self.lut_delay + self.net_delay,
                ..CellInfo::default()
            },
        }
    }

    /// Extra path delay contributed by generated-RTL control muxing.
    pub fn generated_overhead_ns(&self) -> f64 {
        f64::from(self.generated_control_levels) * (self.lut_delay + self.net_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_blocks_have_no_fabric_area() {
        let lib = TechLibrary::default();
        let m = lib.characterize(Primitive::Mult18x18);
        assert_eq!((m.luts, m.ffs, m.mult18), (0, 0, 1));
        let b = lib.characterize(Primitive::Bram18);
        assert_eq!((b.luts, b.bram18, b.sequential), (0, 1, true));
    }

    #[test]
    fn adder_delay_grows_with_width() {
        let lib = TechLibrary::default();
        let a8 = lib.characterize(Primitive::Adder { bits: 8 });
        let a16 = lib.characterize(Primitive::Adder { bits: 16 });
        assert!(a16.delay_ns > a8.delay_ns);
        assert_eq!(a16.luts, 16);
    }

    #[test]
    fn registers_are_sequential() {
        let lib = TechLibrary::default();
        assert!(lib.characterize(Primitive::Register { bits: 4 }).sequential);
        assert!(!lib.characterize(Primitive::Adder { bits: 4 }).sequential);
    }

    #[test]
    fn fsm_area_scales_with_states() {
        let lib = TechLibrary::default();
        let small = lib.characterize(Primitive::Fsm { states: 8, outputs: 10 });
        let big = lib.characterize(Primitive::Fsm { states: 32, outputs: 10 });
        assert!(big.luts > small.luts);
        assert!(big.ffs > small.ffs);
    }

    #[test]
    fn device_capacities() {
        assert_eq!(XC2V3000.slices, 14336);
        assert_eq!(XC2V3000.mult18, 96);
    }
}
