//! Cell accessors: object-oriented manipulation of blob data.
//!
//! "A cell accessor is not a data container, but a data mapper. It maps the
//! fields declared in the data structure to the correct memory locations in
//! the blob. Any data accessing operation to a data field will be correctly
//! mapped to the correct memory location with zero memory copy overhead."
//! (paper §4.3, Figure 6.)
//!
//! [`CellAccessor`] reads fields out of a borrowed blob without decoding
//! the rest of the cell; [`CellAccessorMut`] additionally writes
//! fixed-width fields (and fixed-width list elements) in place. Operations
//! that change a cell's size — string replacement, list append — go
//! through re-encoding and the trunk's update path, which is exactly the
//! paper's split: in-place mutation when the blob layout allows it,
//! reallocation otherwise.

use crate::error::TslError;
use crate::layout::{read_u32, ResolvedType, StructLayout};
use crate::value::Value;

fn truncated(layout: &StructLayout, at: usize) -> TslError {
    TslError::Truncated {
        struct_name: layout.name.clone(),
        at,
    }
}

/// Read-only zero-copy view of a struct blob.
#[derive(Debug, Clone, Copy)]
pub struct CellAccessor<'a> {
    layout: &'a StructLayout,
    blob: &'a [u8],
    base: usize,
}

impl<'a> CellAccessor<'a> {
    /// View `blob` as an instance of `layout`.
    pub fn new(layout: &'a StructLayout, blob: &'a [u8]) -> Self {
        CellAccessor {
            layout,
            blob,
            base: 0,
        }
    }

    /// The layout this accessor maps.
    pub fn layout(&self) -> &'a StructLayout {
        self.layout
    }

    fn field_at(&self, name: &str) -> Result<(usize, &'a ResolvedType), TslError> {
        let idx = self.layout.field_index(name)?;
        let off = self.layout.field_offset(self.blob, self.base, idx)?;
        Ok((off, &self.layout.fields[idx].ty))
    }

    fn scalar<T, const N: usize>(
        &self,
        name: &str,
        expected: &str,
        matches: impl Fn(&ResolvedType) -> bool,
        convert: impl Fn([u8; N]) -> T,
    ) -> Result<T, TslError> {
        let (off, ty) = self.field_at(name)?;
        if !matches(ty) {
            return Err(TslError::TypeMismatch {
                field: name.into(),
                expected: expected.into(),
                got: ty.name(),
            });
        }
        self.array_at(off).map(convert)
    }

    /// The `N` bytes at `at`, or `Truncated` when the blob ends first.
    fn array_at<const N: usize>(&self, at: usize) -> Result<[u8; N], TslError> {
        self.blob
            .get(at..)
            .and_then(<[u8]>::first_chunk)
            .copied()
            .ok_or_else(|| truncated(self.layout, at))
    }

    /// Read a `long` field.
    pub fn get_long(&self, name: &str) -> Result<i64, TslError> {
        self.scalar(
            name,
            "long",
            |t| matches!(t, ResolvedType::Long),
            i64::from_le_bytes,
        )
    }

    /// Read an `int` field.
    pub fn get_int(&self, name: &str) -> Result<i32, TslError> {
        self.scalar(
            name,
            "int",
            |t| matches!(t, ResolvedType::Int),
            i32::from_le_bytes,
        )
    }

    /// Read a `double` field.
    pub fn get_double(&self, name: &str) -> Result<f64, TslError> {
        self.scalar(
            name,
            "double",
            |t| matches!(t, ResolvedType::Double),
            f64::from_le_bytes,
        )
    }

    /// Read a `float` field.
    pub fn get_float(&self, name: &str) -> Result<f32, TslError> {
        self.scalar(
            name,
            "float",
            |t| matches!(t, ResolvedType::Float),
            f32::from_le_bytes,
        )
    }

    /// Read a `byte` field.
    pub fn get_byte(&self, name: &str) -> Result<u8, TslError> {
        self.scalar(
            name,
            "byte",
            |t| matches!(t, ResolvedType::Byte),
            |b: [u8; 1]| b[0],
        )
    }

    /// Read a `bool` field.
    pub fn get_bool(&self, name: &str) -> Result<bool, TslError> {
        self.scalar(
            name,
            "bool",
            |t| matches!(t, ResolvedType::Bool),
            |b: [u8; 1]| b[0] != 0,
        )
    }

    /// Borrow a `string` field (zero-copy).
    pub fn get_str(&self, name: &str) -> Result<&'a str, TslError> {
        let (off, ty) = self.field_at(name)?;
        if !matches!(ty, ResolvedType::Str) {
            return Err(TslError::TypeMismatch {
                field: name.into(),
                expected: "string".into(),
                got: ty.name(),
            });
        }
        let len = read_u32(self.blob, off)? as usize;
        let bytes = self
            .blob
            .get(off + 4..off + 4 + len)
            .ok_or_else(|| truncated(self.layout, off))?;
        std::str::from_utf8(bytes)
            .map_err(|_| TslError::Validate(format!("field {name} is not valid UTF-8")))
    }

    /// Number of elements in a `List<T>` or `Array<T, N>` field (or bits
    /// in a `BitArray`).
    pub fn list_len(&self, name: &str) -> Result<usize, TslError> {
        let (off, ty) = self.field_at(name)?;
        match ty {
            ResolvedType::List(_) | ResolvedType::BitArray => {
                Ok(read_u32(self.blob, off)? as usize)
            }
            ResolvedType::Array(_, n) => Ok(*n),
            other => Err(TslError::TypeMismatch {
                field: name.into(),
                expected: "List, Array, or BitArray".into(),
                got: other.name(),
            }),
        }
    }

    /// Resolve a fixed-element sequence field (`List<want>` or
    /// `Array<want, N>`) to `(data offset, element count, element size)`.
    fn list_fixed_elem(&self, name: &str, want: &str) -> Result<(usize, usize, usize), TslError> {
        let (off, ty) = self.field_at(name)?;
        match ty {
            ResolvedType::List(elem) if elem.name() == want => {
                let len = read_u32(self.blob, off)? as usize;
                let sz = elem.fixed_size().expect("want is a fixed type");
                Ok((off + 4, len, sz))
            }
            ResolvedType::Array(elem, n) if elem.name() == want => {
                let sz = elem.fixed_size().expect("want is a fixed type");
                Ok((off, *n, sz))
            }
            other => Err(TslError::TypeMismatch {
                field: name.into(),
                expected: format!("List<{want}> or Array<{want}, _>"),
                got: other.name(),
            }),
        }
    }

    /// Read element `i` of a `List<long>` field — the representation of
    /// `SimpleEdge` adjacency (paper §4.1).
    pub fn list_get_long(&self, name: &str, i: usize) -> Result<i64, TslError> {
        let (data, len, sz) = self.list_fixed_elem(name, "long")?;
        if i >= len {
            return Err(TslError::IndexOutOfRange {
                field: name.into(),
                index: i,
                len,
            });
        }
        self.array_at(data + i * sz).map(i64::from_le_bytes)
    }

    /// Iterate a `List<long>` field without materializing a `Vec`
    /// (the `Outlinks.Foreach(...)` pattern from paper Figure 2).
    pub fn list_longs(&self, name: &str) -> Result<impl Iterator<Item = i64> + 'a, TslError> {
        let (data, len, sz) = self.list_fixed_elem(name, "long")?;
        let words = self
            .blob
            .get(data..data + len * sz)
            .ok_or_else(|| truncated(self.layout, data))?;
        Ok(words.as_chunks().0.iter().map(|w| i64::from_le_bytes(*w)))
    }

    /// Read element `i` of a `List<int>` field.
    pub fn list_get_int(&self, name: &str, i: usize) -> Result<i32, TslError> {
        let (data, len, sz) = self.list_fixed_elem(name, "int")?;
        if i >= len {
            return Err(TslError::IndexOutOfRange {
                field: name.into(),
                index: i,
                len,
            });
        }
        self.array_at(data + i * sz).map(i32::from_le_bytes)
    }

    /// Read bit `i` of a `BitArray` field.
    pub fn bit_get(&self, name: &str, i: usize) -> Result<bool, TslError> {
        let (off, ty) = self.field_at(name)?;
        if !matches!(ty, ResolvedType::BitArray) {
            return Err(TslError::TypeMismatch {
                field: name.into(),
                expected: "BitArray".into(),
                got: ty.name(),
            });
        }
        let bits = read_u32(self.blob, off)? as usize;
        if i >= bits {
            return Err(TslError::IndexOutOfRange {
                field: name.into(),
                index: i,
                len: bits,
            });
        }
        let [byte] = self.array_at(off + 4 + i / 8)?;
        Ok(byte >> (i % 8) & 1 == 1)
    }

    /// Descend into a nested struct field, returning an accessor scoped to
    /// it (still zero-copy over the same blob).
    pub fn get_struct(&self, name: &str) -> Result<CellAccessor<'a>, TslError> {
        let (off, ty) = self.field_at(name)?;
        match ty {
            ResolvedType::Struct(s) => Ok(CellAccessor {
                // SAFETY-free lifetime note: `s` is an Arc owned by the
                // layout, which outlives `'a` because the layout does.
                layout: s.as_ref(),
                blob: self.blob,
                base: off,
            }),
            other => Err(TslError::TypeMismatch {
                field: name.into(),
                expected: "struct".into(),
                got: other.name(),
            }),
        }
    }

    /// Decode a single field into an owned [`Value`] (any type).
    pub fn get_value(&self, name: &str) -> Result<Value, TslError> {
        let (off, ty) = self.field_at(name)?;
        ty.decode(self.blob, off).map(|(v, _)| v)
    }
}

/// Mutable zero-copy view: in-place writes to fixed-width fields.
#[derive(Debug)]
pub struct CellAccessorMut<'a> {
    layout: &'a StructLayout,
    blob: &'a mut [u8],
    base: usize,
}

impl<'a> CellAccessorMut<'a> {
    /// View `blob` mutably as an instance of `layout`.
    pub fn new(layout: &'a StructLayout, blob: &'a mut [u8]) -> Self {
        CellAccessorMut {
            layout,
            blob,
            base: 0,
        }
    }

    /// Read-only view of the same blob.
    pub fn reader(&self) -> CellAccessor<'_> {
        CellAccessor {
            layout: self.layout,
            blob: self.blob,
            base: self.base,
        }
    }

    fn fixed_field_at(
        &self,
        name: &str,
        expected: &str,
        want: impl Fn(&ResolvedType) -> bool,
    ) -> Result<usize, TslError> {
        let idx = self.layout.field_index(name)?;
        let info = &self.layout.fields[idx];
        if !want(&info.ty) {
            return Err(TslError::TypeMismatch {
                field: name.into(),
                expected: expected.into(),
                got: info.ty.name(),
            });
        }
        self.layout.field_offset(self.blob, self.base, idx)
    }

    /// Overwrite the bytes at `at`, or `Truncated` when the blob ends first.
    fn write_at(&mut self, at: usize, bytes: &[u8]) -> Result<(), TslError> {
        self.blob
            .get_mut(at..)
            .and_then(|b| b.get_mut(..bytes.len()))
            .ok_or_else(|| truncated(self.layout, at))?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// Overwrite a `long` field in place.
    pub fn set_long(&mut self, name: &str, v: i64) -> Result<(), TslError> {
        let off = self.fixed_field_at(name, "long", |t| matches!(t, ResolvedType::Long))?;
        self.write_at(off, &v.to_le_bytes())
    }

    /// Overwrite an `int` field in place — the paper's Figure 6
    /// `cell.Links[1] = 2` class of update.
    pub fn set_int(&mut self, name: &str, v: i32) -> Result<(), TslError> {
        let off = self.fixed_field_at(name, "int", |t| matches!(t, ResolvedType::Int))?;
        self.write_at(off, &v.to_le_bytes())
    }

    /// Overwrite a `double` field in place.
    pub fn set_double(&mut self, name: &str, v: f64) -> Result<(), TslError> {
        let off = self.fixed_field_at(name, "double", |t| matches!(t, ResolvedType::Double))?;
        self.write_at(off, &v.to_le_bytes())
    }

    /// Overwrite a `bool` field in place.
    pub fn set_bool(&mut self, name: &str, v: bool) -> Result<(), TslError> {
        let off = self.fixed_field_at(name, "bool", |t| matches!(t, ResolvedType::Bool))?;
        self.write_at(off, &[v as u8])
    }

    /// Overwrite element `i` of a `List<long>` field in place.
    pub fn set_list_long(&mut self, name: &str, i: usize, v: i64) -> Result<(), TslError> {
        let (data, len, sz) = self.reader().list_fixed_elem(name, "long")?;
        if i >= len {
            return Err(TslError::IndexOutOfRange {
                field: name.into(),
                index: i,
                len,
            });
        }
        self.write_at(data + i * sz, &v.to_le_bytes())
    }

    /// Flip bit `i` of a `BitArray` field in place.
    pub fn set_bit(&mut self, name: &str, i: usize, v: bool) -> Result<(), TslError> {
        let idx = self.layout.field_index(name)?;
        let info = &self.layout.fields[idx];
        if !matches!(info.ty, ResolvedType::BitArray) {
            return Err(TslError::TypeMismatch {
                field: name.into(),
                expected: "BitArray".into(),
                got: info.ty.name(),
            });
        }
        let off = self.layout.field_offset(self.blob, self.base, idx)?;
        let bits = read_u32(self.blob, off)? as usize;
        if i >= bits {
            return Err(TslError::IndexOutOfRange {
                field: name.into(),
                index: i,
                len: bits,
            });
        }
        let at = off + 4 + i / 8;
        let [byte] = self.reader().array_at(at)?;
        let mask = 1 << (i % 8);
        self.write_at(at, &[if v { byte | mask } else { byte & !mask }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse};
    use proptest::prelude::*;

    fn schema() -> crate::Schema {
        compile(
            &parse(
                "struct Pos { double X; double Y; } \
                 [CellType: NodeCell] \
                 cell struct Node { long Id; bool Active; string Name; \
                 [EdgeType: SimpleEdge, ReferencedCell: Node] List<long> Out; \
                 Pos Location; BitArray Visited; double Rank; }",
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn sample_blob(schema: &crate::Schema) -> Vec<u8> {
        schema
            .struct_layout("Node")
            .unwrap()
            .build()
            .set("Id", 77i64)
            .set("Active", Value::Bool(true))
            .set("Name", "node-77")
            .set("Out", vec![5i64, 6, 7])
            .set(
                "Location",
                Value::Struct(vec![Value::Double(1.5), Value::Double(-2.5)]),
            )
            .set("Visited", Value::Bits(vec![true, false, true]))
            .set("Rank", 0.25f64)
            .encode()
            .unwrap()
    }

    #[test]
    fn reads_every_field_kind() {
        let schema = schema();
        let blob = sample_blob(&schema);
        let layout = schema.struct_layout("Node").unwrap();
        let acc = CellAccessor::new(layout, &blob);
        assert_eq!(acc.get_long("Id").unwrap(), 77);
        assert!(acc.get_bool("Active").unwrap());
        assert_eq!(acc.get_str("Name").unwrap(), "node-77");
        assert_eq!(acc.list_len("Out").unwrap(), 3);
        assert_eq!(acc.list_get_long("Out", 2).unwrap(), 7);
        assert_eq!(
            acc.list_longs("Out").unwrap().collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        let pos = acc.get_struct("Location").unwrap();
        assert_eq!(pos.get_double("X").unwrap(), 1.5);
        assert_eq!(pos.get_double("Y").unwrap(), -2.5);
        assert!(acc.bit_get("Visited", 0).unwrap());
        assert!(!acc.bit_get("Visited", 1).unwrap());
        assert_eq!(acc.get_double("Rank").unwrap(), 0.25);
        assert_eq!(acc.get_value("Name").unwrap(), Value::Str("node-77".into()));
    }

    #[test]
    fn type_and_bounds_errors() {
        let schema = schema();
        let blob = sample_blob(&schema);
        let layout = schema.struct_layout("Node").unwrap();
        let acc = CellAccessor::new(layout, &blob);
        assert!(matches!(
            acc.get_int("Id"),
            Err(TslError::TypeMismatch { .. })
        ));
        assert!(matches!(
            acc.get_long("Missing"),
            Err(TslError::NoSuchField(_))
        ));
        assert!(matches!(
            acc.list_get_long("Out", 3),
            Err(TslError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            acc.bit_get("Visited", 3),
            Err(TslError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            acc.get_struct("Id"),
            Err(TslError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn in_place_writes_are_visible_and_size_preserving() {
        let schema = schema();
        let mut blob = sample_blob(&schema);
        let before = blob.len();
        let layout = schema.struct_layout("Node").unwrap();
        let mut acc = CellAccessorMut::new(layout, &mut blob);
        acc.set_long("Id", 1234).unwrap();
        acc.set_bool("Active", false).unwrap();
        acc.set_list_long("Out", 1, 99).unwrap();
        acc.set_double("Rank", 0.875).unwrap();
        acc.set_bit("Visited", 1, true).unwrap();
        acc.set_bit("Visited", 0, false).unwrap();
        assert_eq!(blob.len(), before, "in-place writes must not resize");
        let acc = CellAccessor::new(layout, &blob);
        assert_eq!(acc.get_long("Id").unwrap(), 1234);
        assert!(!acc.get_bool("Active").unwrap());
        assert_eq!(
            acc.list_longs("Out").unwrap().collect::<Vec<_>>(),
            vec![5, 99, 7]
        );
        assert_eq!(acc.get_double("Rank").unwrap(), 0.875);
        assert!(acc.bit_get("Visited", 1).unwrap());
        assert!(!acc.bit_get("Visited", 0).unwrap());
        // Untouched variable-length fields survive in-place writes around them.
        assert_eq!(acc.get_str("Name").unwrap(), "node-77");
    }

    #[test]
    fn arrays_have_fixed_offsets_and_in_place_access() {
        // An Array of fixed elements keeps every following field at a
        // static offset — the whole struct is fixed-width.
        let schema = crate::compile(
            &crate::parse("cell struct Fixed { long Id; Array<long, 3> Coords; double W; }")
                .unwrap(),
        )
        .unwrap();
        let layout = schema.struct_layout("Fixed").unwrap();
        assert_eq!(layout.fixed_size, Some(8 + 24 + 8));
        assert_eq!(
            layout.fields[2].fixed_offset,
            Some(32),
            "field after an Array stays static"
        );
        let mut blob = layout
            .build()
            .set("Id", 1i64)
            .set("Coords", vec![10i64, 20, 30])
            .set("W", 0.5f64)
            .encode()
            .unwrap();
        let acc = CellAccessor::new(layout, &blob);
        assert_eq!(acc.list_len("Coords").unwrap(), 3);
        assert_eq!(acc.list_get_long("Coords", 1).unwrap(), 20);
        assert_eq!(
            acc.list_longs("Coords").unwrap().collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert!(matches!(
            acc.list_get_long("Coords", 3),
            Err(TslError::IndexOutOfRange { .. })
        ));
        assert_eq!(acc.get_double("W").unwrap(), 0.5);
        // In-place element write.
        let mut m = CellAccessorMut::new(layout, &mut blob);
        m.set_list_long("Coords", 2, 99).unwrap();
        let acc = CellAccessor::new(layout, &blob);
        assert_eq!(acc.list_get_long("Coords", 2).unwrap(), 99);
        // Wrong arity is rejected at encode time.
        assert!(layout.build().set("Coords", vec![1i64]).encode().is_err());
    }

    #[test]
    fn mutable_writes_reject_variable_width_targets() {
        let schema = schema();
        let mut blob = sample_blob(&schema);
        let layout = schema.struct_layout("Node").unwrap();
        let mut acc = CellAccessorMut::new(layout, &mut blob);
        assert!(matches!(
            acc.set_long("Name", 1),
            Err(TslError::TypeMismatch { .. })
        ));
    }

    /// Every getter and setter on every field of `layout`, element `i`
    /// where one is indexed. Results are dropped: only a panic fails.
    fn touch_every_field(layout: &StructLayout, blob: &mut [u8], i: usize) {
        let acc = CellAccessor::new(layout, blob);
        for f in &layout.fields {
            let name = f.name.as_str();
            let _ = (acc.get_long(name), acc.get_int(name), acc.get_double(name));
            let _ = (acc.get_float(name), acc.get_byte(name), acc.get_bool(name));
            let _ = (acc.get_str(name), acc.get_value(name), acc.list_len(name));
            let _ = (acc.list_get_long(name, i), acc.list_get_int(name, i));
            let _ = (
                acc.list_longs(name).map(Iterator::count),
                acc.bit_get(name, i),
            );
            if let Ok(inner) = acc.get_struct(name) {
                for g in &inner.layout().fields {
                    let _ = (inner.get_double(&g.name), inner.get_value(&g.name));
                }
            }
        }
        let mut acc = CellAccessorMut::new(layout, blob);
        for f in &layout.fields {
            let name = f.name.as_str();
            let _ = (
                acc.set_long(name, 1),
                acc.set_int(name, 1),
                acc.set_double(name, 1.0),
            );
            let _ = (acc.set_bool(name, true), acc.set_list_long(name, i, 1));
            let _ = acc.set_bit(name, i, true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A blob cut short, with damaged bytes, or arbitrary: every
        /// accessor answers `Ok` or `Err`.
        #[test]
        fn damaged_blobs_never_panic_an_accessor(
            cut in 0usize..96,
            flips in proptest::collection::vec((0usize..96, any::<u8>()), 0..4),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            arbitrary in any::<bool>(),
            i in 0usize..64,
        ) {
            let schema = schema();
            let layout = schema.struct_layout("Node").unwrap();
            let mut blob = if arbitrary { noise } else { sample_blob(&schema) };
            blob.truncate(cut);
            for (at, x) in flips {
                if let Some(b) = blob.get_mut(at) {
                    *b ^= x;
                }
            }
            touch_every_field(layout, &mut blob, i);
        }
    }
}
