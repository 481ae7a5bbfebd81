//! Data-wrapper layout: the paper's "common data structure" for DMA.
//!
//! Paper §3.3: *"Wrap all the required member data of the original class
//! into a common data structure, and preserve/enforce data alignment for
//! future DMA operations."* The C version does this with `__attribute__
//! ((aligned(16)))` structs; here [`StructLayout`] computes the same packed
//! layout explicitly, so both the PPE stub and the SPE kernel agree on
//! field offsets without sharing Rust types across the simulated DMA
//! boundary (which would defeat the exercise).

use cell_core::{align_up, CellError, CellResult, QUADWORD};

/// Identifies a field added to a [`StructLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId(usize);

#[derive(Debug, Clone)]
struct Field {
    name: &'static str,
    offset: usize,
    size: usize,
}

/// An explicit, DMA-aligned struct layout built field by field.
///
/// Offsets are assigned in insertion order with each field aligned to its
/// requested alignment (minimum 1, but the struct as a whole is always
/// padded to a 16-byte multiple so it is a legal DMA payload).
#[derive(Debug, Clone, Default)]
pub struct StructLayout {
    fields: Vec<Field>,
    size: usize,
    max_align: usize,
}

impl StructLayout {
    pub fn new() -> Self {
        StructLayout {
            fields: Vec::new(),
            size: 0,
            max_align: QUADWORD,
        }
    }

    /// Append a field of `size` bytes aligned to `align` (power of two).
    pub fn field(&mut self, name: &'static str, size: usize, align: usize) -> CellResult<FieldId> {
        if !align.is_power_of_two() {
            return Err(CellError::Misaligned {
                what: "field alignment",
                addr: align as u64,
                required: 1,
            });
        }
        if size == 0 {
            return Err(CellError::BadData {
                message: format!("field `{name}` has zero size"),
            });
        }
        if self.fields.iter().any(|f| f.name == name) {
            return Err(CellError::BadData {
                message: format!("duplicate field `{name}`"),
            });
        }
        let offset = align_up(self.size, align);
        self.fields.push(Field { name, offset, size });
        self.size = offset + size;
        self.max_align = self.max_align.max(align);
        Ok(FieldId(self.fields.len() - 1))
    }

    /// Append a `u32` field (mailbox-word sized scalars: opcodes, lengths).
    pub fn field_u32(&mut self, name: &'static str) -> CellResult<FieldId> {
        self.field(name, 4, 4)
    }

    /// Append a `u64` field (effective addresses).
    pub fn field_addr(&mut self, name: &'static str) -> CellResult<FieldId> {
        self.field(name, 8, 8)
    }

    /// Append a quadword-aligned byte buffer (image slices, model blocks,
    /// output buffers — paper §3.3's "allocate the output buffers for
    /// kernel results … included in the data wrapper structure").
    pub fn field_buffer(&mut self, name: &'static str, size: usize) -> CellResult<FieldId> {
        self.field(name, align_up(size, QUADWORD), QUADWORD)
    }

    /// Total size padded to a quadword multiple — the DMA payload size.
    pub fn size(&self) -> usize {
        align_up(self.size, QUADWORD)
    }

    /// Largest alignment any field requested (and thus the allocation
    /// alignment the wrapper block needs).
    pub fn align(&self) -> usize {
        self.max_align
    }

    /// Offset of a field within the wrapper.
    pub fn offset(&self, id: FieldId) -> usize {
        self.fields[id.0].offset
    }

    /// Declared byte size of a field.
    pub fn field_size(&self, id: FieldId) -> usize {
        self.fields[id.0].size
    }

    /// Look a field up by name (useful in tests and debug dumps).
    pub fn find(&self, name: &str) -> Option<FieldId> {
        self.fields.iter().position(|f| f.name == name).map(FieldId)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate `(name, offset, size)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize, usize)> + '_ {
        self.fields.iter().map(|f| (f.name, f.offset, f.size))
    }

    /// Check a candidate base address is aligned for this layout.
    pub fn check_base(&self, addr: u64) -> CellResult<()> {
        if !addr.is_multiple_of(self.max_align as u64) {
            return Err(CellError::Misaligned {
                what: "wrapper base address",
                addr,
                required: self.max_align,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_get_sequential_aligned_offsets() {
        let mut l = StructLayout::new();
        let op = l.field_u32("opcode").unwrap();
        let addr = l.field_addr("image_ea").unwrap();
        let buf = l.field_buffer("histogram", 166 * 4).unwrap();
        assert_eq!(l.offset(op), 0);
        assert_eq!(l.offset(addr), 8); // aligned up from 4
        assert_eq!(l.offset(buf), 16);
        assert_eq!(l.field_size(buf), align_up(166 * 4, 16));
        assert_eq!(l.size() % 16, 0);
    }

    #[test]
    fn total_size_is_quadword_padded() {
        let mut l = StructLayout::new();
        l.field_u32("a").unwrap();
        assert_eq!(l.size(), 16);
    }

    #[test]
    fn duplicate_field_names_rejected() {
        let mut l = StructLayout::new();
        l.field_u32("x").unwrap();
        assert!(l.field_u32("x").is_err());
    }

    #[test]
    fn zero_size_field_rejected() {
        let mut l = StructLayout::new();
        assert!(l.field("empty", 0, 4).is_err());
    }

    #[test]
    fn non_pot_alignment_rejected() {
        let mut l = StructLayout::new();
        assert!(l.field("odd", 8, 12).is_err());
    }

    #[test]
    fn find_by_name() {
        let mut l = StructLayout::new();
        let a = l.field_u32("alpha").unwrap();
        assert_eq!(l.find("alpha"), Some(a));
        assert_eq!(l.find("beta"), None);
    }

    #[test]
    fn check_base_respects_max_align() {
        let mut l = StructLayout::new();
        l.field("big", 64, 128).unwrap();
        assert!(l.check_base(0x1_0040).is_err());
        assert!(l.check_base(0x1_0000).is_ok());
        assert_eq!(l.align(), 128);
    }

    #[test]
    fn iter_reports_declaration_order() {
        let mut l = StructLayout::new();
        l.field_u32("one").unwrap();
        l.field_addr("two").unwrap();
        let names: Vec<_> = l.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["one", "two"]);
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
    }
}
