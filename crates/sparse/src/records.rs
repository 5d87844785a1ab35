//! Packed per-entry records: one interleaved, fixed-stride block of topic ids
//! per matrix entry, stored at the narrowest width that holds every id.
//!
//! WarpLDA keeps a topic assignment *and* `M` pending MH proposals per token.
//! Storing the assignments in one array and the proposals in another, both
//! indexed by [`TokenMatrix`](crate::TokenMatrix) entry id, means every token
//! touch streams two arrays at once —
//! twice the number of hardware prefetch streams and twice the TLB pressure
//! for state that is always read and written together. A [`PackedRecords`]
//! stores the whole per-token record contiguously instead:
//!
//! ```text
//! record e (stride S = 1 + M):   [ z_e | p_0 | p_1 | … | p_{M-1} ]
//! data layout:                   record 0, record 1, record 2, …
//! ```
//!
//! Entry ids are CSC positions, so a column's records form one contiguous
//! block and a column visit is a single sequential stream; row visits hop
//! between records but each hop lands on one cache-resident record instead of
//! two distant ones.
//!
//! # Width
//!
//! Every value of a record is a topic id, and a model with `K` topics needs
//! `⌈log₂₅₆ K⌉` bytes for one. The buffer therefore stores ids as `u8`, `u16`
//! or `u32` — the **width**, 1, 2 or 4 bytes, chosen once at construction —
//! in little-endian byte order, which makes the buffer's bytes
//! ([`as_bytes`](PackedRecords::as_bytes)) exactly the form records take on a
//! wire or in a file: exporting a contiguous run of records is one `memcpy`,
//! and so is adopting a validated one.
//!
//! Code that reads or writes ids picks the element type **once per
//! operation** with [`with_topic_type!`](crate::with_topic_type) and then runs
//! monomorphized over [`Topic`]; nothing matches on the width per record.
//! A `PackedRecords` does not know `K`, so it validates shape (width, stride,
//! length) and leaves the range check of ids arriving from outside to its
//! owner.

/// A topic id as a [`PackedRecords`] stores it: an unsigned integer of
/// [`WIDTH`](Self::WIDTH) bytes in little-endian byte order.
///
/// Implemented for `u8`, `u16` and `u32` and nothing else.
pub trait Topic: Copy + Send + Sync + sealed::Sealed + 'static {
    /// Bytes per id.
    const WIDTH: usize;

    /// The stored id as a host integer.
    fn get(self) -> u32;

    /// `topic` in stored form. The caller guarantees it fits the width (it is
    /// below a `K` the width was derived from).
    fn put(topic: u32) -> Self;

    /// The id in the first [`WIDTH`](Self::WIDTH) bytes of `bytes`: how ids
    /// are read off a payload from outside, where nothing is aligned.
    fn read(bytes: &[u8]) -> u32;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

macro_rules! impl_topic {
    ($($t:ty),*) => {$(
        impl Topic for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn get(self) -> u32 {
                <$t>::from_le(self) as u32
            }

            #[inline(always)]
            fn put(topic: u32) -> Self {
                debug_assert!(topic <= <$t>::MAX as u32, "topic {topic} does not fit the width");
                (topic as $t).to_le()
            }

            #[inline(always)]
            fn read(bytes: &[u8]) -> u32 {
                <$t>::from_le_bytes(*bytes.first_chunk().expect("an id is WIDTH bytes")) as u32
            }
        }
    )*};
}
impl_topic!(u8, u16, u32);

/// Evaluates `$body` with the type alias `$T` bound to the [`Topic`] type of
/// `$width` bytes. This is the one place a width turns into a type: call it
/// once per operation (a phase, a gather, a validation scan), never per
/// record.
///
/// # Panics
/// Panics if `$width` is not 1, 2 or 4 — widths reaching it come from a
/// [`PackedRecords`], which admits no other.
#[macro_export]
macro_rules! with_topic_type {
    ($width:expr, $T:ident => $body:expr) => {
        match $width {
            1 => {
                type $T = u8;
                $body
            }
            2 => {
                type $T = u16;
                $body
            }
            4 => {
                type $T = u32;
                $body
            }
            w => unreachable!("record width {w} is not 1, 2 or 4 bytes"),
        }
    };
}

/// Fixed-stride packed records of topic ids, indexed by entry id.
///
/// The value at offset 0 of each record is the *primary* value (WarpLDA's
/// topic assignment); offsets `1..stride` are auxiliary (the MH proposals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRecords {
    stride: usize,
    width: usize,
    /// Ids stored: records × stride.
    len: usize,
    /// The backing store: `len × width` bytes of ids, rounded up to whole
    /// words. Held as `u32`s so every id type is aligned in it.
    words: Vec<u32>,
}

impl PackedRecords {
    /// `num_records` zero-initialized records of `stride` ids, each id
    /// `width` bytes.
    ///
    /// # Panics
    /// Panics if `stride` is zero or `width` is not 1, 2 or 4.
    pub fn new(num_records: usize, stride: usize, width: usize) -> Self {
        assert!(stride >= 1, "records need at least the primary id");
        assert!(matches!(width, 1 | 2 | 4), "record width {width} is not 1, 2 or 4 bytes");
        let len = num_records * stride;
        Self { stride, width, len, words: vec![0; (len * width).div_ceil(4)] }
    }

    /// Ids per record.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bytes per id: 1, 2 or 4.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bytes per record.
    pub fn record_bytes(&self) -> usize {
        self.stride * self.width
    }

    /// Bytes of heap the buffer holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        4 * self.words.capacity()
    }

    /// The whole buffer, record-major, as the little-endian bytes of its
    /// ids: record `e` is bytes `e × record_bytes .. (e + 1) × record_bytes`.
    pub fn as_bytes(&self) -> &[u8] {
        self.view()
    }

    /// Mutable form of [`as_bytes`](Self::as_bytes). Any byte pattern is a
    /// well-formed buffer; whether its ids are in range is the owner's
    /// invariant.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        self.view_mut()
    }

    /// The whole buffer as ids of type `T`, record-major.
    ///
    /// # Panics
    /// Panics if `T` is not the buffer's width.
    pub fn ids<T: Topic>(&self) -> &[T] {
        assert_eq!(T::WIDTH, self.width, "ids are stored at another width");
        self.view()
    }

    /// Mutable form of [`ids`](Self::ids).
    pub fn ids_mut<T: Topic>(&mut self) -> &mut [T] {
        assert_eq!(T::WIDTH, self.width, "ids are stored at another width");
        self.view_mut()
    }

    /// The `len × width` bytes of ids as `U`s, where `U` is a byte or the
    /// buffer's id type.
    fn view<U: Topic>(&self) -> &[U] {
        debug_assert!(U::WIDTH == 1 || U::WIDTH == self.width);
        // SAFETY: the store holds at least `len × width` initialized bytes
        // (see `new`), it is 4-byte aligned, `U` is `u8`, `u16` or `u32` (the
        // trait is sealed), for which every bit pattern is a value, and the
        // borrow of `self` covers the returned slice.
        unsafe {
            std::slice::from_raw_parts(self.words.as_ptr().cast(), self.len * self.width / U::WIDTH)
        }
    }

    /// Mutable form of [`view`](Self::view).
    fn view_mut<U: Topic>(&mut self) -> &mut [U] {
        debug_assert!(U::WIDTH == 1 || U::WIDTH == self.width);
        let len = self.len * self.width / U::WIDTH;
        // SAFETY: as in `view`, with the exclusive borrow of `self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast(), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills record `e`, slot `j` with `10e + j` and returns the buffer.
    fn numbered<T: Topic>(records: usize, stride: usize) -> PackedRecords {
        let mut r = PackedRecords::new(records, stride, T::WIDTH);
        for (i, slot) in r.ids_mut::<T>().iter_mut().enumerate() {
            *slot = T::put((10 * (i / stride) + i % stride) as u32);
        }
        r
    }

    #[test]
    fn layout_is_interleaved_at_every_width() {
        for width in [1usize, 2, 4] {
            let r = with_topic_type!(width, T => numbered::<T>(3, 3));
            assert_eq!((r.stride(), r.width(), r.record_bytes()), (3, width, 3 * width));
            let ids: Vec<u32> =
                with_topic_type!(width, T => r.ids::<T>().iter().map(|t| t.get()).collect());
            assert_eq!(ids, [0, 1, 2, 10, 11, 12, 20, 21, 22]);
            assert_eq!(r.as_bytes().len(), 9 * width);
        }
    }

    #[test]
    fn bytes_are_the_little_endian_ids() {
        let mut r = PackedRecords::new(2, 2, 2);
        r.ids_mut::<u16>().copy_from_slice(&[1, 0x0203, 0xffff, 7].map(u16::put));
        assert_eq!(r.as_bytes(), &[1, 0, 3, 2, 0xff, 0xff, 7, 0]);
        // And back: bytes written are ids read.
        r.as_bytes_mut()[..2].copy_from_slice(&[0x34, 0x12]);
        assert_eq!(r.ids::<u16>()[0].get(), 0x1234);
    }

    #[test]
    fn a_record_range_is_one_contiguous_byte_range() {
        let r = numbered::<u8>(4, 2);
        let rb = r.record_bytes();
        assert_eq!(&r.as_bytes()[rb..3 * rb], &[10, 11, 20, 21]);
    }

    #[test]
    fn odd_byte_lengths_round_the_store_up() {
        // 3 records × 1 id × 1 byte = 3 bytes in a one-word store.
        let r = PackedRecords::new(3, 1, 1);
        assert_eq!(r.as_bytes().len(), 3);
        assert_eq!(r.heap_bytes(), 4);
        assert_eq!(PackedRecords::new(0, 3, 2).as_bytes().len(), 0);
    }

    #[test]
    #[should_panic(expected = "another width")]
    fn typed_access_at_the_wrong_width_panics() {
        let _ = PackedRecords::new(2, 2, 1).ids::<u16>();
    }

    #[test]
    #[should_panic(expected = "not 1, 2 or 4")]
    fn three_byte_ids_rejected() {
        let _ = PackedRecords::new(2, 2, 3);
    }

    #[test]
    #[should_panic(expected = "at least the primary")]
    fn zero_stride_rejected() {
        let _ = PackedRecords::new(4, 0, 1);
    }
}
