//! Implementation variants: one realization of a function type on a
//! specific execution resource, described by its QoS attribute set and a
//! resource footprint used by the run-time feasibility check.

use core::fmt;

use crate::attribute::{check_sorted_unique, AttrBinding};
use crate::error::CoreError;
use crate::ids::{AttrId, ImplId};

/// The execution resource an implementation variant targets.
///
/// The paper's example offers the FIR equalizer on an FPGA (reconfigurable
/// hardware), a DSP and a general-purpose processor (fig. 3); additional
/// dedicated devices can exist in a multi-device system (fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[non_exhaustive]
pub enum ExecutionTarget {
    /// Partially run-time reconfigurable FPGA fabric.
    Fpga,
    /// Digital signal processor.
    Dsp,
    /// General-purpose / soft-core processor running software.
    #[default]
    GpProcessor,
    /// A dedicated hardware device (ASIC etc.) identified by a small tag.
    Dedicated(u8),
}

impl ExecutionTarget {
    /// The 16-bit word this target travels and rests as — in WAL records,
    /// snapshot containers and wire replies alike: `0` FPGA, `1` DSP, `2`
    /// general-purpose processor, `0x0100 | tag` dedicated hardware.
    pub const fn word(self) -> u16 {
        match self {
            ExecutionTarget::Fpga => 0,
            ExecutionTarget::Dsp => 1,
            ExecutionTarget::GpProcessor => 2,
            ExecutionTarget::Dedicated(tag) => DEDICATED_WORD | tag as u16,
        }
    }

    /// The target a word encodes ([`ExecutionTarget::word`]'s inverse),
    /// `None` for a word no target encodes to.
    pub const fn from_word(word: u16) -> Option<ExecutionTarget> {
        match word {
            0 => Some(ExecutionTarget::Fpga),
            1 => Some(ExecutionTarget::Dsp),
            2 => Some(ExecutionTarget::GpProcessor),
            w if w & 0xFF00 == DEDICATED_WORD => Some(ExecutionTarget::Dedicated(w as u8)),
            _ => None,
        }
    }
}

/// The high byte marking a dedicated device's target word.
const DEDICATED_WORD: u16 = 0x0100;

impl fmt::Display for ExecutionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionTarget::Fpga => write!(f, "FPGA"),
            ExecutionTarget::Dsp => write!(f, "DSP"),
            ExecutionTarget::GpProcessor => write!(f, "GP-Proc"),
            ExecutionTarget::Dedicated(tag) => write!(f, "HW#{tag}"),
        }
    }
}

/// Static resource demand of an implementation variant.
///
/// The retrieval step only ranks by QoS similarity; the allocation manager
/// afterwards checks *feasibility* against the current system load (§3).
/// These numbers feed that check and the repository model:
/// configuration-data sizes determine reconfiguration latency, area and
/// power determine placement feasibility and the energy account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Footprint {
    /// FPGA partial bitstream size in bytes (0 for software variants).
    pub bitstream_bytes: u32,
    /// Processor/DSP opcode size in bytes (0 for pure hardware variants).
    pub opcode_bytes: u32,
    /// Occupied CLB slices when placed on FPGA fabric.
    pub slices: u32,
    /// Processor/DSP utilization in 1/1000 of one core (software variants).
    pub cpu_permille: u32,
    /// Dynamic power draw while active, in milliwatts.
    pub dynamic_mw: u32,
    /// Nominal execution latency per function call, in microseconds.
    pub exec_us: u32,
}

impl Footprint {
    /// A zero footprint (useful for retrieval-only experiments).
    pub const fn none() -> Footprint {
        Footprint {
            bitstream_bytes: 0,
            opcode_bytes: 0,
            slices: 0,
            cpu_permille: 0,
            dynamic_mw: 0,
            exec_us: 0,
        }
    }

    /// Total configuration payload the repository must deliver before the
    /// variant can start (bitstream plus opcode).
    pub fn config_bytes(&self) -> u32 {
        self.bitstream_bytes + self.opcode_bytes
    }
}

/// One implementation variant: a *case* of the case base.
///
/// Invariants enforced on construction:
/// * attribute bindings strictly sorted by ascending [`AttrId`]
///   (the "presorted by ID" requirement of fig. 4/5);
/// * no duplicate attribute ids.
///
/// ```
/// use rqfa_core::{AttrBinding, AttrId, ExecutionTarget, ImplId, ImplVariant};
///
/// let dsp = ImplVariant::new(
///     ImplId::new(2)?,
///     ExecutionTarget::Dsp,
///     vec![
///         AttrBinding::new(AttrId::new(1)?, 16),
///         AttrBinding::new(AttrId::new(4)?, 44),
///     ],
/// )?;
/// assert_eq!(dsp.attr(AttrId::new(4)?), Some(44));
/// assert_eq!(dsp.attr(AttrId::new(9)?), None);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplVariant {
    id: ImplId,
    target: ExecutionTarget,
    attrs: Vec<AttrBinding>,
    footprint: Footprint,
}

impl ImplVariant {
    /// Creates a variant; bindings are sorted by attribute id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateAttr`] on duplicate attribute ids.
    pub fn new(
        id: ImplId,
        target: ExecutionTarget,
        attrs: Vec<AttrBinding>,
    ) -> Result<ImplVariant, CoreError> {
        Self::with_footprint(id, target, attrs, Footprint::none())
    }

    /// Creates a variant with an explicit resource footprint.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateAttr`] on duplicate attribute ids.
    pub fn with_footprint(
        id: ImplId,
        target: ExecutionTarget,
        attrs: Vec<AttrBinding>,
        footprint: Footprint,
    ) -> Result<ImplVariant, CoreError> {
        let attrs = crate::attribute::sort_unique(attrs)?;
        check_sorted_unique(&attrs)?;
        Ok(ImplVariant {
            id,
            target,
            attrs,
            footprint,
        })
    }

    /// The variant identifier.
    pub fn id(&self) -> ImplId {
        self.id
    }

    /// The execution resource this variant runs on.
    pub fn target(&self) -> ExecutionTarget {
        self.target
    }

    /// The sorted attribute bindings.
    pub fn attrs(&self) -> &[AttrBinding] {
        &self.attrs
    }

    /// The resource footprint.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// Looks up the value bound to `attr`, if present.
    ///
    /// Binary search is allowed here because bindings are sorted; the
    /// hardware instead performs the resumable linear scan (§4.1), which the
    /// simulators model faithfully.
    pub fn attr(&self, attr: AttrId) -> Option<u16> {
        self.attrs
            .binary_search_by_key(&attr, |b| b.attr)
            .ok()
            .map(|idx| self.attrs[idx].value)
    }

    /// Number of attribute bindings.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }
}

impl fmt::Display for ImplVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {} {{", self.id, self.target)?;
        for (i, b) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(raw: u16) -> AttrId {
        AttrId::new(raw).unwrap()
    }

    #[test]
    fn target_words_roundtrip() {
        for target in [
            ExecutionTarget::Fpga,
            ExecutionTarget::Dsp,
            ExecutionTarget::GpProcessor,
            ExecutionTarget::Dedicated(0),
            ExecutionTarget::Dedicated(255),
        ] {
            assert_eq!(ExecutionTarget::from_word(target.word()), Some(target));
        }
        assert_eq!(ExecutionTarget::Dedicated(7).word(), 0x0107);
        assert_eq!(ExecutionTarget::from_word(0x0200), None);
        assert_eq!(ExecutionTarget::from_word(0xFFFF), None);
    }

    #[test]
    fn construction_sorts_attrs() {
        let v = ImplVariant::new(
            ImplId::new(1).unwrap(),
            ExecutionTarget::Fpga,
            vec![AttrBinding::new(aid(4), 44), AttrBinding::new(aid(1), 16)],
        )
        .unwrap();
        assert_eq!(v.attrs()[0].attr, aid(1));
        assert_eq!(v.attr_count(), 2);
    }

    #[test]
    fn duplicate_attrs_rejected() {
        let err = ImplVariant::new(
            ImplId::new(1).unwrap(),
            ExecutionTarget::Dsp,
            vec![AttrBinding::new(aid(1), 1), AttrBinding::new(aid(1), 2)],
        );
        assert!(matches!(err, Err(CoreError::DuplicateAttr { .. })));
    }

    #[test]
    fn attr_lookup() {
        let v = ImplVariant::new(
            ImplId::new(3).unwrap(),
            ExecutionTarget::GpProcessor,
            vec![AttrBinding::new(aid(1), 8), AttrBinding::new(aid(4), 22)],
        )
        .unwrap();
        assert_eq!(v.attr(aid(1)), Some(8));
        assert_eq!(v.attr(aid(2)), None);
    }

    #[test]
    fn footprint_payload() {
        let fp = Footprint {
            bitstream_bytes: 1000,
            opcode_bytes: 24,
            ..Footprint::none()
        };
        assert_eq!(fp.config_bytes(), 1024);
        assert_eq!(Footprint::default(), Footprint::none());
    }

    #[test]
    fn display_targets() {
        assert_eq!(ExecutionTarget::Fpga.to_string(), "FPGA");
        assert_eq!(ExecutionTarget::Dedicated(3).to_string(), "HW#3");
        assert_eq!(ExecutionTarget::default(), ExecutionTarget::GpProcessor);
    }
}
