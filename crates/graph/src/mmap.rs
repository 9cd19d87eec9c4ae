//! Read-only memory mapping of graph container files, and the array type
//! a [`crate::Csr`] keeps its offsets, targets and weights in.
//!
//! [`MmapBuf`] maps a file `PROT_READ`/`MAP_PRIVATE` on unix targets (no
//! external mmap crate — the two syscalls are declared directly against
//! libc) and falls back to an 8-byte-aligned heap read elsewhere, so the
//! container layer is portable while the fast path stays zero-copy.
//!
//! The mapping is immutable and page-aligned; since every container section
//! starts on a 64-byte boundary *within* the file, a section's absolute
//! address is at least 8-byte aligned, and an [`Array`] views it as
//! `&[u64]` or `&[u32]` without copying.

use julienne_primitives::error::Error;
use std::fs::File;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// An immutable byte buffer backed by a memory-mapped file (unix) or an
/// aligned heap copy (other targets / explicit fallback).
pub struct MmapBuf {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    /// A live `mmap(2)` region; unmapped on drop.
    #[cfg(unix)]
    Mapped,
    /// Heap storage in `u64` units so the base pointer is 8-byte aligned.
    Heap(#[allow(dead_code)] Vec<u64>),
}

// SAFETY: the buffer is immutable for its whole lifetime — the mapping is
// PROT_READ and the heap variant is never written after construction — so
// shared references may cross threads freely.
unsafe impl Send for MmapBuf {}
unsafe impl Sync for MmapBuf {}

#[cfg(unix)]
mod sys {
    //! Minimal libc surface for read-only file mapping (Linux/macOS ABI).
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl MmapBuf {
    /// Maps `path` read-only. On unix this is a true `mmap` — the call does
    /// no I/O beyond `open`/`fstat`, and pages fault in on first access, so
    /// opening a multi-GB file costs microseconds and graphs larger than
    /// RAM remain loadable. Elsewhere the whole file is read into aligned
    /// heap memory (correct, not zero-copy).
    pub fn open(path: &Path) -> Result<MmapBuf, Error> {
        let file = File::open(path).map_err(|e| Error::io_at(path, e))?;
        let len = file
            .metadata()
            .map_err(|e| Error::io_at(path, e))?
            .len()
            .try_into()
            .map_err(|_| Error::parse("file too large for this address space").with_path(path))?;
        Self::from_file(&file, len, path)
    }

    #[cfg(unix)]
    fn from_file(file: &File, len: usize, path: &Path) -> Result<MmapBuf, Error> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap rejects zero-length maps; an empty buffer needs no backing.
            return Ok(MmapBuf {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                backing: Backing::Heap(Vec::new()),
            });
        }
        // SAFETY: fd is a valid open file, len is its exact size, and the
        // requested protection is read-only; the kernel picks the address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(Error::io_at(path, std::io::Error::last_os_error()));
        }
        Ok(MmapBuf {
            ptr: ptr as *const u8,
            len,
            backing: Backing::Mapped,
        })
    }

    #[cfg(not(unix))]
    fn from_file(file: &File, len: usize, path: &Path) -> Result<MmapBuf, Error> {
        let mut file = file;
        Self::read_aligned(&mut file, len, path)
    }

    /// Reads the whole file into 8-byte-aligned heap memory — the portable
    /// fallback; also useful in tests to force the non-mmap path.
    #[allow(dead_code)]
    pub(crate) fn read_fallback(path: &Path) -> Result<MmapBuf, Error> {
        let mut file = File::open(path).map_err(|e| Error::io_at(path, e))?;
        let len = file
            .metadata()
            .map_err(|e| Error::io_at(path, e))?
            .len()
            .try_into()
            .map_err(|_| Error::parse("file too large for this address space").with_path(path))?;
        Self::read_aligned(&mut file, len, path)
    }

    fn read_aligned(file: &mut File, len: usize, path: &Path) -> Result<MmapBuf, Error> {
        use std::io::Read as _;
        let words = len.div_ceil(8);
        let mut storage: Vec<u64> = vec![0; words];
        // SAFETY: the Vec owns `words * 8 >= len` initialized bytes.
        let dst = unsafe { std::slice::from_raw_parts_mut(storage.as_mut_ptr() as *mut u8, len) };
        file.read_exact(dst).map_err(|e| Error::io_at(path, e))?;
        Ok(MmapBuf {
            ptr: storage.as_ptr() as *const u8,
            len,
            backing: Backing::Heap(storage),
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe the live mapping (or heap buffer) owned
        // by `backing` for as long as `self` exists.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if matches!(self.backing, Backing::Mapped) {
            // SAFETY: ptr/len are exactly what mmap returned; the region is
            // unmapped once, here.
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

/// A read-only array over a `Vec<T>` of its own or a section of a shared
/// mapping. It keeps a pointer and a length beside its owner, so reading it
/// never asks which owner it has, and a clone shares the elements.
#[derive(Clone)]
pub struct Array<T> {
    ptr: *const T,
    len: usize,
    /// What keeps `ptr` valid: the array's Vec, or the mapping.
    _owner: Arc<dyn Send + Sync>,
}

/// The element types an [`Array`] may view in mapped bytes: every bit
/// pattern is a value, and the alignment is at most the mapping's 8 bytes.
pub(crate) trait Plain: Copy {}
impl Plain for u32 {}
impl Plain for u64 {}

// SAFETY: an Array hands out only `&[T]`, and nothing writes what it points
// at — its Vec is never handed out again and the mapping is read-only — so
// it may move and be shared across threads whenever `T` may.
unsafe impl<T: Send + Sync> Send for Array<T> {}
unsafe impl<T: Send + Sync> Sync for Array<T> {}

impl<T: Send + Sync + 'static> From<Vec<T>> for Array<T> {
    fn from(v: Vec<T>) -> Self {
        let v = Arc::new(v);
        Array {
            ptr: v.as_ptr(),
            len: v.len(),
            _owner: v,
        }
    }
}

impl<T> Array<T> {
    /// Views bytes `at` of `buf` as `T`s, or `None` when the range is out
    /// of bounds, misaligned for `T`, or not a whole number of `T`s.
    pub(crate) fn mapped(buf: &Arc<MmapBuf>, at: Range<usize>) -> Option<Self>
    where
        T: Plain,
    {
        let bytes = buf.bytes().get(at)?;
        let (ptr, size) = (bytes.as_ptr().cast::<T>(), std::mem::size_of::<T>());
        if !bytes.len().is_multiple_of(size) || !ptr.is_aligned() {
            return None;
        }
        Some(Array {
            ptr,
            len: bytes.len() / size,
            _owner: buf.clone(),
        })
    }
}

impl<T> std::ops::Deref for Array<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` and `len` describe `len` initialized, aligned `T`s
        // that `_owner` keeps alive and unwritten: the buffer of its Vec, or
        // mapped bytes that `mapped` checked for bounds and alignment and
        // that any bit pattern of a `Plain` type may hold.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Array<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("julienne-mmap-{name}-{}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let p = tmp("basic");
        std::fs::write(&p, b"hello mapped world").unwrap();
        let m = MmapBuf::open(&p).unwrap();
        assert_eq!(m.bytes(), b"hello mapped world");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_buffer() {
        let p = tmp("empty");
        std::fs::write(&p, b"").unwrap();
        let m = MmapBuf::open(&p).unwrap();
        assert_eq!(m.bytes(), b"");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_io_error_with_path() {
        let p = tmp("nope-does-not-exist");
        let err = MmapBuf::open(&p).err().expect("a missing file");
        assert_eq!(err.code(), "io");
        assert!(err.to_string().contains("nope-does-not-exist"));
    }

    #[test]
    fn fallback_matches_mmap() {
        let p = tmp("fallback");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&p, &data).unwrap();
        let a = MmapBuf::open(&p).unwrap();
        let b = MmapBuf::read_fallback(&p).unwrap();
        assert_eq!(a.bytes(), b.bytes());
        // The fallback base pointer is 8-byte aligned, like a page-aligned map.
        assert_eq!(b.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn arrays_view_mapped_words_and_refuse_misaligned_ones() {
        let p = tmp("array");
        let words: Vec<u8> = (1..=4u64).flat_map(u64::to_le_bytes).collect();
        std::fs::write(&p, &words).unwrap();
        let buf = Arc::new(MmapBuf::open(&p).unwrap());
        let a = Array::<u64>::mapped(&buf, 8..32).unwrap();
        assert_eq!(&*a, &[2, 3, 4]);
        assert_eq!(&*a.clone(), &*a);
        assert!(Array::<u64>::mapped(&buf, 4..12).is_none(), "misaligned");
        assert!(Array::<u32>::mapped(&buf, 0..6).is_none(), "a partial word");
        assert!(Array::<u32>::mapped(&buf, 0..40).is_none(), "past the end");
        drop(buf);
        // The array keeps the mapping alive on its own.
        assert_eq!(a.iter().sum::<u64>(), 9);
        std::fs::remove_file(&p).ok();
    }
}
