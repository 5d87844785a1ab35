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
        }
    )*};
}
impl_topic!(u8, u16, u32);

/// Evaluates `$body` with the type alias `$T` bound to the [`Topic`] type of
/// `$width` bytes. This is the one place a width turns into a type: call it
/// once per operation (a visit, a gather, a validation scan), never per
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

    /// Number of records.
    pub fn num_records(&self) -> usize {
        self.len / self.stride
    }

    /// Bytes of heap the buffer holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        4 * self.words.capacity()
    }

    /// The whole buffer, record-major, as the little-endian bytes of its
    /// ids: record `e` is bytes `e × record_bytes .. (e + 1) × record_bytes`.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the store holds at least `len × width` initialized bytes
        // (see `new`), `u8` has no alignment requirement, and the borrow of
        // `self` covers the returned slice.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast(), self.len * self.width) }
    }

    /// Mutable form of [`as_bytes`](Self::as_bytes). Any byte pattern is a
    /// well-formed buffer; whether its ids are in range is the owner's
    /// invariant.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, with the exclusive borrow of `self`.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast(), self.len * self.width)
        }
    }

    /// The whole buffer as ids of type `T`, record-major.
    ///
    /// # Panics
    /// Panics if `T` is not the buffer's width.
    pub fn ids<T: Topic>(&self) -> &[T] {
        assert_eq!(T::WIDTH, self.width, "ids are stored at another width");
        // SAFETY: the store holds `len` ids of `T::WIDTH` bytes each, it is
        // 4-byte aligned and `T` is `u8`, `u16` or `u32` (the trait is
        // sealed), for which every bit pattern is a value.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast(), self.len) }
    }

    /// Mutable form of [`ids`](Self::ids).
    pub fn ids_mut<T: Topic>(&mut self) -> &mut [T] {
        assert_eq!(T::WIDTH, self.width, "ids are stored at another width");
        // SAFETY: as in `ids`, with the exclusive borrow of `self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast(), self.len) }
    }

    /// Raw pointer to the first byte of the buffer, for parallel visitors
    /// that hand disjoint record sets to different workers.
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.words.as_mut_ptr().cast()
    }

    /// Every id widened to `u32`, record-major: the buffer as tests and
    /// diagnostics want to look at it. Allocates `4 × len` bytes.
    pub fn to_u32_vec(&self) -> Vec<u32> {
        with_topic_type!(self.width, T => self.ids::<T>().iter().map(|t| t.get()).collect())
    }
}

/// A copyable raw-pointer wrapper for sharing a base pointer across scoped
/// worker threads. The single home of the idiom used by every parallel
/// driver in the workspace (parallel WarpLDA over
/// [`PackedRecords::as_mut_ptr`], batch inference): each copy must only be
/// dereferenced at indices the holding thread exclusively owns — disjoint
/// rows/columns/chunks — which is what the `Send`/`Sync` impls rely on. A
/// soundness argument accompanies every use site.
pub struct SendPtr<T>(pub *mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced at indices owned by a single
// thread; see the struct documentation.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

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
            assert_eq!((r.stride(), r.width(), r.num_records()), (3, width, 3));
            assert_eq!(r.record_bytes(), 3 * width);
            assert_eq!(r.to_u32_vec(), [0, 1, 2, 10, 11, 12, 20, 21, 22]);
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
