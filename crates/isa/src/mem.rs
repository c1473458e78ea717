//! Sparse, paged byte-addressable memory.
//!
//! Both ISAs are little-endian and share this memory model, which mirrors
//! the Popcorn Linux design point that *data* has a common layout across
//! ISAs — only ISA-specific state (stack frames, registers) needs run-time
//! transformation.
//!
//! # Access paths
//!
//! Pages live in a **slab**: a `Vec` of boxed 4 KiB pages in allocation
//! order. A page's position is its id; pages are never freed and a boxed
//! page does not move when the `Vec` grows, so an id stays good for the
//! [`Memory`]'s life. A hash map (`PageHasher`, one multiply: page numbers
//! come from the guest's own layout, are well spread and are no attack
//! surface, so SipHash bought only latency) takes a page number to its id.
//!
//! The popcorn code generator keeps every value in a stack slot, so some
//! 70 % of retired guest instructions are loads and stores (see
//! [`crate::vm`]) and a hash probe per access was most of what a guest
//! instruction cost. Every access path therefore asks a small
//! direct-mapped **software TLB** first — `TLB_SLOTS` `(page number,
//! id)` pairs indexed by the low page-number bits — and reaches the map
//! from two places only: `miss`, on a TLB miss, and `alloc`, when a write
//! lands on a page that does not exist yet. Both fill the TLB.
//!
//! The TLB holds **present pages only**. A page that is not mapped is
//! never remembered as absent: a read of it keeps returning zeroes
//! without allocating (and keeps going to the map), and the next write
//! allocates it. Since ids never change meaning, an entry never goes
//! stale — there is no invalidation, eviction is overwriting the slot —
//! and a clone, which copies the pages' bytes, the map and the TLB
//! together, starts as warm as its original.
//!
//! Guest loads and stores land in [`Memory::read_uint`] /
//! [`Memory::write_uint`]: an access inside one page is one TLB compare
//! and a copy (of a fixed eight bytes for the common width); only one
//! that crosses a page edge takes the [`Memory::read_bytes`] /
//! [`Memory::write_bytes`] loop, which asks the TLB once per page.
//!
//! A page's bytes sit in an `UnsafeCell`, and every access path reaches
//! them through a raw pointer taken from the cell for the length of one
//! call: no reference to page bytes is ever made, so none outlives a
//! call. That is what lets the VM hold a pointer into one page across
//! many calls. On entering a translated block, [`crate::vm`] asks for its
//! **stack window** — the bytes the block's fused spill forms address
//! relative to the entry `sp` — and, when they lie in one resident page
//! (`Memory::window`), reads and writes them through that pointer while
//! heap loads and stores, `enter` and `leave` keep going through `Memory`
//! to the same page. Otherwise the block runs instruction by instruction
//! through the paths above.
//! Boxed pages never move or free while the `Memory` lives, the VM holds
//! the `Memory` by `&mut` for the whole block, and a `Memory` is never
//! shared between threads, so the pointer stays good and no access races
//! another.
//!
//! Addresses are modular: an access that runs past `u64::MAX` continues at
//! address 0, on every path.

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ptr::NonNull;

/// Page size in bytes. Matches the 4 KiB pages of the paper's Popcorn
/// Linux kernel and is the granularity of the DSM model in `xar-popcorn`.
pub const PAGE_SIZE: u64 = 4096;

/// One page. Its bytes are only reached through raw pointers taken from
/// the cell (see the module docs, "Access paths").
#[derive(Debug)]
struct PageCell(UnsafeCell<[u8; PAGE_SIZE as usize]>);

type Page = Box<PageCell>;

impl PageCell {
    fn zeroed() -> Page {
        Box::new(PageCell(UnsafeCell::new([0; PAGE_SIZE as usize])))
    }

    /// The page's first byte.
    #[inline]
    fn base(&self) -> *mut u8 {
        self.0.get().cast()
    }

    /// Copies the page's bytes from offset `po` into `dst`.
    #[inline]
    fn read(&self, po: usize, dst: &mut [u8]) {
        assert!(po + dst.len() <= PAGE_SIZE as usize);
        // SAFETY: the range is inside the page (asserted). The pointer
        // comes from the cell and lives for this call only; no reference
        // to the bytes exists, and the owning `Memory` is not shared
        // between threads, so nothing writes them during the copy.
        unsafe { std::ptr::copy_nonoverlapping(self.base().add(po), dst.as_mut_ptr(), dst.len()) }
    }

    /// Copies `src` into the page's bytes from offset `po`.
    #[inline]
    fn write(&self, po: usize, src: &[u8]) {
        assert!(po + src.len() <= PAGE_SIZE as usize);
        // SAFETY: as in `read`: in bounds, and no reference to the bytes
        // and no other thread can observe them during the copy.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(po), src.len()) }
    }
}

impl Clone for PageCell {
    fn clone(&self) -> Self {
        let mut bytes = [0; PAGE_SIZE as usize];
        self.read(0, &mut bytes);
        PageCell(UnsafeCell::new(bytes))
    }
}

/// One multiply by 2^64/φ: spreads consecutive page numbers over the high
/// bits (the map's control bytes) and the low bits (its bucket index).
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Required by the trait; the map's `u64` keys go through `write_u64`.
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }

    fn write_u64(&mut self, pno: u64) {
        self.0 = (self.0 ^ pno).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `len` bytes of one resident page, from [`Memory::window`]: the VM's
/// stack window. Reads and writes go through the page's cell pointer,
/// like every `Memory` access, so they interleave with the `Memory`'s
/// own. A window is neither `Send` nor `Sync`: it is used on the thread
/// that owns its `Memory`.
pub(crate) struct Window {
    start: NonNull<u8>,
    len: usize,
}

impl Window {
    /// The little-endian `i64` at offset `at`.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller keeps `at + 8 <= len`, and keeps the `Memory`
    /// the window came from alive.
    #[inline(always)]
    pub(crate) unsafe fn read_i64(&self, at: usize) -> i64 {
        debug_assert!(at + 8 <= self.len);
        // SAFETY: by the contract, `[at, at + 8)` lies in one page of a
        // live `Memory`, whose boxed pages never move or free while it
        // lives. The pointer comes from the page's cell, no reference to
        // the page's bytes exists, and only this thread can reach them (a
        // `Memory` is not `Sync`, a window neither `Send` nor `Sync`).
        i64::from_le_bytes(unsafe { self.start.as_ptr().add(at).cast::<[u8; 8]>().read() })
    }

    /// Writes `val` little-endian at offset `at`.
    ///
    /// # Safety
    ///
    /// SAFETY: as for [`Window::read_i64`].
    #[inline(always)]
    pub(crate) unsafe fn write_i64(&self, at: usize, val: i64) {
        debug_assert!(at + 8 <= self.len);
        // SAFETY: as in `read_i64`; the page is resident, so the write
        // needs no allocation.
        unsafe { self.start.as_ptr().add(at).cast::<[u8; 8]>().write(val.to_le_bytes()) }
    }
}

/// Slots in the software TLB (a power of two). Measured, not tuned: on
/// FaceDet320 (155 pages: the hot stack page, and a 150-page integral
/// image read a window of ~15 pages at a time) 8 to 1024 slots run within
/// 3 % of one another, 64 ahead by a hair. 64 keeps a 256 KiB window
/// conflict-free and a clone's copy of the table at 1 KiB.
pub(crate) const TLB_SLOTS: usize = 64;

/// A cached `page number → slab id` pair.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    pno: u64,
    id: u32,
}

/// The direct-mapped TLB. `&self` reads fill it, hence the `Cell`s.
#[derive(Debug, Clone)]
struct Tlb([Cell<TlbEntry>; TLB_SLOTS]);

impl Default for Tlb {
    fn default() -> Self {
        // An id no slab reaches marks a slot empty: a hit checks the id
        // against the slab's length anyway, and that rejects it.
        Tlb([const { Cell::new(TlbEntry { pno: 0, id: u32::MAX }) }; TLB_SLOTS])
    }
}

impl Tlb {
    #[inline]
    fn slot(&self, pno: u64) -> &Cell<TlbEntry> {
        &self.0[pno as usize % TLB_SLOTS]
    }
}

/// A sparse 64-bit address space backed by 4 KiB pages.
///
/// Reads of unmapped addresses return zeroes (pages are zero-filled on
/// first touch); writes allocate pages on demand. Unaligned and
/// page-crossing accesses are supported, and addresses wrap at 2^64.
///
/// A `Memory` is `Send` and has one owner, the executor running the
/// guest. It is deliberately not `Sync`: reads through `&self` update the
/// software TLB (see the module docs), so a `&Memory` must not be shared
/// between threads. Move it or clone it instead. Its pages are
/// `UnsafeCell`s that [`crate::vm`] also writes through a raw pointer
/// (see the module docs), which rests on the same rule:
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<xar_isa::Memory>();
/// ```
#[derive(Debug, Default, Clone)]
pub struct Memory {
    /// Every page ever allocated, in allocation order.
    slab: Vec<Page>,
    /// Page number → position in `slab`.
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    tlb: Tlb,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages that have been written to.
    pub fn resident_pages(&self) -> usize {
        self.slab.len()
    }

    /// Total pages allocated over the memory's lifetime (pages are never
    /// freed, so this is [`Memory::resident_pages`]).
    pub fn pages_touched(&self) -> u64 {
        self.slab.len() as u64
    }

    /// Returns the page numbers of all resident pages, unordered.
    pub fn resident_page_numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// Where page `pno` sits in the slab, if a write has created it.
    #[inline]
    fn lookup(&self, pno: u64) -> Option<usize> {
        let hit = self.tlb.slot(pno).get();
        if hit.pno == pno && (hit.id as usize) < self.slab.len() {
            Some(hit.id as usize)
        } else {
            self.miss(pno)
        }
    }

    /// The page numbered `pno`, if a write has created it.
    #[inline]
    fn page(&self, pno: u64) -> Option<&PageCell> {
        self.lookup(pno).map(|id| &*self.slab[id])
    }

    /// The page numbered `pno`, created zero-filled if it does not exist.
    /// Pages are written through `&PageCell`: a `&mut` to a page would
    /// invalidate the VM's window into it.
    #[inline]
    fn page_mut(&mut self, pno: u64) -> &PageCell {
        let id = self.lookup(pno).unwrap_or_else(|| self.alloc(pno));
        &self.slab[id]
    }

    /// The bytes `[addr, addr + len)`, if they lie in one resident page
    /// (and so do not wrap), as a [`Window`] that reads and writes them
    /// directly, interleaved with this `Memory`'s own accesses.
    #[inline]
    pub(crate) fn window(&self, addr: u64, len: u64) -> Option<Window> {
        let po = addr % PAGE_SIZE;
        if po + len > PAGE_SIZE {
            return None;
        }
        let start = self.page(addr / PAGE_SIZE)?.base().wrapping_add(po as usize);
        Some(Window { start: NonNull::new(start)?, len: len as usize })
    }

    /// TLB miss: asks the map, and caches the page if there is one.
    #[cold]
    fn miss(&self, pno: u64) -> Option<usize> {
        let id = *self.index.get(&pno)?;
        self.tlb.slot(pno).set(TlbEntry { pno, id });
        Some(id as usize)
    }

    /// First write to page `pno`: a zeroed page at the end of the slab.
    #[cold]
    fn alloc(&mut self, pno: u64) -> usize {
        let id = u32::try_from(self.slab.len()).expect("fewer than 2^32 resident pages");
        self.slab.push(PageCell::zeroed());
        self.index.insert(pno, id);
        self.tlb.slot(pno).set(TlbEntry { pno, id });
        id as usize
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_uint(addr, 1) as u8
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr / PAGE_SIZE).write((addr % PAGE_SIZE) as usize, &[val]);
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let pno = a / PAGE_SIZE;
            let po = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - po).min(buf.len() - done);
            match self.page(pno) {
                Some(p) => p.read(po, &mut buf[done..done + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr.wrapping_add(done as u64);
            let pno = a / PAGE_SIZE;
            let po = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - po).min(data.len() - done);
            self.page_mut(pno).write(po, &data[done..done + n]);
            done += n;
        }
    }

    /// Writes `len` zero bytes starting at `addr` (allocating the pages
    /// they land on, like any write).
    pub fn zero(&mut self, addr: u64, len: usize) {
        const ZEROES: [u8; 256] = [0; 256];
        for done in (0..len).step_by(ZEROES.len()) {
            let n = ZEROES.len().min(len - done);
            self.write_bytes(addr.wrapping_add(done as u64), &ZEROES[..n]);
        }
    }

    /// Reads a little-endian unsigned value of `size` bytes, zero-extended.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> u64 {
        debug_assert!(size <= 8);
        let (po, n) = ((addr % PAGE_SIZE) as usize, size as usize);
        let mut buf = [0u8; 8];
        if po + n <= PAGE_SIZE as usize {
            if let Some(p) = self.page(addr / PAGE_SIZE) {
                match n {
                    8 => p.read(po, &mut buf), // eight bytes: one load, no `memcpy`
                    _ => p.read(po, &mut buf[..n]),
                }
            }
        } else {
            self.read_bytes(addr, &mut buf[..n]);
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `size` bytes of `val`, little-endian.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, val: u64, size: u64) {
        debug_assert!(size <= 8);
        let (po, n) = ((addr % PAGE_SIZE) as usize, size as usize);
        let bytes = val.to_le_bytes();
        if po + n <= PAGE_SIZE as usize {
            let page = self.page_mut(addr / PAGE_SIZE);
            match n {
                8 => page.write(po, &bytes), // eight bytes: one store, no `memcpy`
                _ => page.write(po, &bytes[..n]),
            }
        } else {
            self.write_bytes(addr, &bytes[..n]);
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_uint(addr, val, 8)
    }

    /// Reads a little-endian `i64`.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `i64`.
    pub fn write_i64(&mut self, addr: u64, val: i64) {
        self.write_u64(addr, val as u64)
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_u64(addr, val.to_bits())
    }

    /// Copies `image` into memory starting at `base` (e.g. a linked text
    /// or data segment).
    pub fn load_image(&mut self, base: u64, image: &[u8]) {
        self.write_bytes(base, image);
    }

    /// Copies `len` bytes out of memory starting at `addr`.
    pub fn dump(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_bytes(addr, &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_u8(u64::MAX - 9), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_various_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xAB);
        assert_eq!(m.read_u8(10), 0xAB);
        m.write_uint(100, 0xDEAD, 2);
        assert_eq!(m.read_uint(100, 2), 0xDEAD);
        m.write_u64(200, u64::MAX - 3);
        assert_eq!(m.read_u64(200), u64::MAX - 3);
        m.write_i64(300, -42);
        assert_eq!(m.read_i64(300), -42);
        m.write_f64(400, -1.5e300);
        assert_eq!(m.read_f64(400), -1.5e300);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 3;
        m.write_u64(addr, 0x0102030405060708);
        assert_eq!(m.read_u64(addr), 0x0102030405060708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn addresses_wrap_at_the_top_of_the_address_space() {
        // A page-crossing u64 whose low bytes sit in the last page and
        // whose high bytes sit in page 0: an unchecked `addr + done`
        // overflows on the second chunk.
        let mut m = Memory::new();
        let addr = u64::MAX - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0, 4), 0x1122_3344);
        assert_eq!(m.read_u8(u64::MAX), 0x55);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.dump(u64::MAX - 1, 4), vec![0x66, 0x55, 0x44, 0x33]);
    }

    #[test]
    fn single_page_access_at_the_page_edge_allocates_one_page() {
        let mut m = Memory::new();
        m.write_u64(PAGE_SIZE - 8, u64::MAX);
        assert_eq!((m.resident_pages(), m.pages_touched()), (1, 1));
        assert_eq!(m.read_u64(PAGE_SIZE - 8), u64::MAX);
        // Reads never allocate, on either path.
        assert_eq!(m.read_u64(3 * PAGE_SIZE - 4), 0);
        assert_eq!(m.read_uint(5 * PAGE_SIZE, 8), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn zero_clears_and_allocates_like_a_write() {
        let mut m = Memory::new();
        m.write_bytes(PAGE_SIZE - 2, &[0xAA; 600]);
        m.zero(PAGE_SIZE - 1, 300);
        assert_eq!(m.read_u8(PAGE_SIZE - 2), 0xAA);
        assert_eq!(m.dump(PAGE_SIZE - 1, 300), vec![0; 300]);
        assert_eq!(m.read_u8(PAGE_SIZE + 299), 0xAA);
        m.zero(8 * PAGE_SIZE, 1);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn image_load_and_dump() {
        let mut m = Memory::new();
        let img: Vec<u8> = (0..=255).collect();
        m.load_image(0x40_0000, &img);
        assert_eq!(m.dump(0x40_0000, 256), img);
        // Partial dump past the image reads zeroes.
        assert_eq!(m.dump(0x40_00FF, 2), vec![255, 0]);
    }

    #[test]
    fn truncating_small_writes() {
        let mut m = Memory::new();
        m.write_u64(0, u64::MAX);
        m.write_uint(0, 0, 1);
        assert_eq!(m.read_u64(0), u64::MAX << 8);
    }

    #[test]
    fn a_page_made_by_one_access_path_is_seen_by_the_others_at_once() {
        // Pages that share a TLB slot, each created by a different path
        // right after a read found it absent (absence must not stick).
        let stride = TLB_SLOTS as u64 * PAGE_SIZE;
        let bases = [0x10_0000, 0x10_0000 + stride, 0x10_0000 + 2 * stride];
        let mut m = Memory::new();
        for (k, base) in bases.into_iter().enumerate() {
            assert_eq!((m.read_uint(base + 5, 8), m.resident_pages()), (0, k));
            match k {
                0 => m.write_u8(base + 5, 0xA5),
                1 => m.write_bytes(base + 5, &[0xA5]),
                _ => m.write_uint(base + 5, 0xA5, 1),
            }
            assert_eq!(m.read_uint(base + 5, 8), 0xA5);
            assert_eq!(m.read_u8(base + 5), 0xA5);
            assert_eq!(m.dump(base + 4, 3), vec![0, 0xA5, 0]);
        }
        // And back: all three are still what they were once the slot has
        // been taken over twice.
        for base in bases {
            assert_eq!(m.read_uint(base, 8), 0xA5 << 40);
        }
        assert_eq!((m.resident_pages(), m.pages_touched()), (3, 3));
    }

    #[test]
    fn every_width_at_and_across_a_page_edge_agrees_with_dump() {
        for size in 1..=8u64 {
            for back in 0..=8u64 {
                let mut m = Memory::new();
                m.write_bytes(2 * PAGE_SIZE - 16, &[0xEE; 32]);
                let addr = 2 * PAGE_SIZE - back;
                let val = 0x8877_6655_4433_2211u64;
                m.write_uint(addr, val, size);
                let mut want = [0xEE; 32];
                let at = (16 - back) as usize;
                want[at..at + size as usize].copy_from_slice(&val.to_le_bytes()[..size as usize]);
                assert_eq!(m.dump(2 * PAGE_SIZE - 16, 32), want, "size {size} at edge - {back}");
                let mut le = [0u8; 8];
                le[..size as usize].copy_from_slice(&want[at..at + size as usize]);
                assert_eq!(m.read_uint(addr, size), u64::from_le_bytes(le));
                assert_eq!(m.resident_pages(), 2);
            }
        }
    }

    #[test]
    fn memory_moves_between_threads() {
        // What the VM's stack window relies on besides `&mut Memory`: a
        // `Memory` is moved to a thread, never shared with one (`!Sync`
        // is the `compile_fail` example on the type).
        fn moves<T: Send>(_: &T) {}
        let mut m = Memory::new();
        m.write_u64(0x3000, 7);
        moves(&m);
        assert_eq!(std::thread::spawn(move || m.read_u64(0x3000)).join().unwrap(), 7);
    }

    #[test]
    fn a_clone_taken_warm_diverges_from_its_original() {
        let mut a = Memory::new();
        a.write_u64(0x3000, 1);
        assert_eq!(a.read_u64(0x3000), 1); // TLB warm on page 3
        let mut b = a.clone();
        b.write_u64(0x3000, 2);
        a.write_u64(0x3008, 3);
        b.write_u64(0x9000, 4); // a page only the clone has
        assert_eq!((a.read_u64(0x3000), a.read_u64(0x3008), a.read_u64(0x9000)), (1, 3, 0));
        assert_eq!((b.read_u64(0x3000), b.read_u64(0x3008), b.read_u64(0x9000)), (2, 0, 4));
        assert_eq!((a.resident_pages(), b.resident_pages()), (1, 2));
    }
}
