//! Sparse, paged byte-addressable memory.
//!
//! Both ISAs are little-endian and share this memory model, which mirrors
//! the Popcorn Linux design point that *data* has a common layout across
//! ISAs — only ISA-specific state (stack frames, registers) needs run-time
//! transformation.
//!
//! # Access paths
//!
//! Guest loads and stores land in [`Memory::read_uint`] /
//! [`Memory::write_uint`]. An access inside one page is one page-map
//! lookup and one slice copy; only one that crosses a page edge takes the
//! [`Memory::read_bytes`] / [`Memory::write_bytes`] loop. The map hashes a
//! page number with a single multiply (`PageHasher`): page numbers come
//! from the guest's own layout, are well spread and are no attack surface,
//! so SipHash bought only latency.
//!
//! Addresses are modular: an access that runs past `u64::MAX` continues at
//! address 0, on every path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size in bytes. Matches the 4 KiB pages of the paper's Popcorn
/// Linux kernel and is the granularity of the DSM model in `xar-popcorn`.
pub const PAGE_SIZE: u64 = 4096;

type Page = Box<[u8; PAGE_SIZE as usize]>;

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

/// A sparse 64-bit address space backed by 4 KiB pages.
///
/// Reads of unmapped addresses return zeroes (pages are zero-filled on
/// first touch); writes allocate pages on demand. Unaligned and
/// page-crossing accesses are supported, and addresses wrap at 2^64.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
    /// Count of pages allocated over the lifetime of this memory.
    pages_touched: u64,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages that have been written to.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total pages allocated over the memory's lifetime.
    pub fn pages_touched(&self) -> u64 {
        self.pages_touched
    }

    /// Returns the page numbers of all resident pages, unordered.
    pub fn resident_page_numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }

    fn page_mut(&mut self, pno: u64) -> &mut Page {
        self.pages.entry(pno).or_insert_with(|| {
            self.pages_touched += 1;
            Box::new([0u8; PAGE_SIZE as usize])
        })
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_uint(addr, 1) as u8
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let pno = a / PAGE_SIZE;
            let po = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - po).min(buf.len() - done);
            match self.pages.get(&pno) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[po..po + n]),
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
            self.page_mut(pno)[po..po + n].copy_from_slice(&data[done..done + n]);
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
            if let Some(p) = self.pages.get(&(addr / PAGE_SIZE)) {
                buf[..n].copy_from_slice(&p[po..po + n]);
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
            self.page_mut(addr / PAGE_SIZE)[po..po + n].copy_from_slice(&bytes[..n]);
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
}
