//! 64-byte-aligned growable buffers for kernel pack panels.
//!
//! The explicit-SIMD micro-kernels in [`crate::simd`] and [`crate::quant`]
//! read their packed A/B panels with aligned vector loads. `Vec<f32>`
//! only guarantees the allocator's default alignment, so panels live in
//! an [`AlignedVec`]: a minimal, dependency-free buffer whose storage is
//! always aligned to [`AlignedVec::ALIGN`] bytes (64 — one cache line,
//! what the AVX-512 kernels' aligned loads need, and therefore enough
//! for the 32-byte AVX2 loads). Every micro-kernel `debug_assert!`s its
//! panel pointers: the 512-bit ones against the full line, the 256-bit
//! ones against [`is_panel_aligned`].

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Alignment, in bytes, of every [`AlignedVec`] allocation.
pub const PANEL_ALIGN: usize = 64;

/// Returns whether `ptr` meets the 32-byte alignment the AVX2 panel
/// loads require (allocations actually provide [`PANEL_ALIGN`]).
#[inline]
pub fn is_panel_aligned<T>(ptr: *const T) -> bool {
    (ptr as usize).is_multiple_of(32)
}

/// Returns whether `ptr` sits on a [`PANEL_ALIGN`] (64-byte) boundary,
/// which the 512-bit kernels' aligned B-panel loads fault without.
#[inline]
pub(crate) fn is_line_aligned<T>(ptr: *const T) -> bool {
    (ptr as usize).is_multiple_of(PANEL_ALIGN)
}

/// A growable, 64-byte-aligned buffer of plain-old-data elements.
///
/// Unlike `Vec`, growing never preserves contents: pack buffers are
/// fully rewritten before each use, so [`AlignedVec::ensure_len`]
/// documents its contents as unspecified after a grow.
///
/// # Examples
///
/// ```
/// use eugene_tensor::AlignedVec;
///
/// let mut buf: AlignedVec<f32> = AlignedVec::new();
/// buf.ensure_len(100);
/// buf.as_mut_slice()[..100].fill(1.0);
/// assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
/// ```
pub struct AlignedVec<T: Copy + Default> {
    ptr: Option<NonNull<T>>,
    len: usize,
    cap: usize,
}

impl<T: Copy + Default> AlignedVec<T> {
    /// Alignment, in bytes, of the backing allocation.
    pub const ALIGN: usize = PANEL_ALIGN;

    /// Creates an empty buffer (no allocation yet).
    pub const fn new() -> Self {
        Self {
            ptr: None,
            len: 0,
            cap: 0,
        }
    }

    /// Creates a buffer of `len` default-filled elements.
    pub fn zeroed(len: usize) -> Self {
        let mut v = Self::new();
        v.ensure_len(len);
        v.as_mut_slice().fill(T::default());
        v
    }

    /// Current length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<T>(), Self::ALIGN)
            .expect("aligned panel layout")
    }

    /// Makes the buffer exactly `len` elements long, reallocating if the
    /// capacity is too small. Contents are **unspecified** after a call
    /// that grows capacity — callers fully rewrite pack panels anyway.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.cap {
            let new_cap = len.next_power_of_two().max(64);
            let layout = Self::layout(new_cap);
            // SAFETY: layout has non-zero size (new_cap >= 64, T is a
            // non-ZST numeric in practice; ZSTs never reach here because
            // size 0 layouts are rejected by the alloc call guard below).
            assert!(layout.size() > 0, "AlignedVec of zero-sized type");
            let raw = unsafe { alloc(layout) };
            let Some(new_ptr) = NonNull::new(raw.cast::<T>()) else {
                handle_alloc_error(layout);
            };
            if let Some(old) = self.ptr.take() {
                // SAFETY: old was allocated with layout(self.cap).
                unsafe { dealloc(old.as_ptr().cast(), Self::layout(self.cap)) };
            }
            self.ptr = Some(new_ptr);
            self.cap = new_cap;
        }
        self.len = len;
    }

    /// The buffer as an immutable slice.
    pub fn as_slice(&self) -> &[T] {
        match self.ptr {
            // SAFETY: ptr is valid for cap >= len elements.
            Some(p) => unsafe { std::slice::from_raw_parts(p.as_ptr(), self.len) },
            None => &[],
        }
    }

    /// The buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self.ptr {
            // SAFETY: ptr is valid for cap >= len elements and uniquely
            // borrowed through &mut self.
            Some(p) => unsafe { std::slice::from_raw_parts_mut(p.as_ptr(), self.len) },
            None => &mut [],
        }
    }

    /// Raw base pointer (null-dangling when empty); always 64-byte
    /// aligned when non-empty.
    pub fn as_ptr(&self) -> *const T {
        match self.ptr {
            Some(p) => p.as_ptr(),
            None => std::ptr::NonNull::dangling().as_ptr(),
        }
    }
}

impl<T: Copy + Default> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if let Some(p) = self.ptr.take() {
            // SAFETY: allocated with layout(self.cap) in ensure_len.
            unsafe { dealloc(p.as_ptr().cast(), Self::layout(self.cap)) };
        }
    }
}

// SAFETY: AlignedVec owns its allocation; T: Copy has no interior
// mutability or thread affinity.
unsafe impl<T: Copy + Default + Send> Send for AlignedVec<T> {}
unsafe impl<T: Copy + Default + Sync> Sync for AlignedVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_64_byte_aligned() {
        for len in [1usize, 7, 64, 1000, 4097] {
            let mut v: AlignedVec<f32> = AlignedVec::new();
            v.ensure_len(len);
            assert_eq!(v.as_ptr() as usize % 64, 0, "len {len}");
            assert!(is_panel_aligned(v.as_ptr()));
            assert_eq!(v.len(), len);
            v.as_mut_slice().fill(3.0);
            assert!(v.as_slice().iter().all(|&x| x == 3.0));
        }
        // The 512-bit kernels load panels *inside* a pack with aligned
        // 64-byte loads, so every k block and column panel must start on
        // a line too — also at an odd k (a one-row last k block) and an
        // n that is no multiple of the panel width.
        let (k, n) = (257, 70);
        let weights = vec![0.25f32; k * n];
        for ptr in crate::PackedRhs::pack(k, n, &weights).panel_ptrs() {
            assert!(is_line_aligned(ptr), "f32 panel at {ptr:p}");
        }
        for ptr in crate::QuantizedRhs::pack(k, n, &weights).panel_ptrs() {
            assert!(is_line_aligned(ptr), "i8 panel at {ptr:p}");
        }
    }

    #[test]
    fn growth_and_shrink_track_len() {
        let mut v: AlignedVec<i16> = AlignedVec::new();
        assert!(v.is_empty());
        v.ensure_len(10);
        v.as_mut_slice().fill(5);
        v.ensure_len(4);
        assert_eq!(v.as_slice(), &[5i16; 4][..]);
        v.ensure_len(2000);
        assert_eq!(v.len(), 2000);
        assert_eq!(v.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn zeroed_is_default_filled() {
        let v: AlignedVec<i32> = AlignedVec::zeroed(33);
        assert!(v.as_slice().iter().all(|&x| x == 0));
    }
}
