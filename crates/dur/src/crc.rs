//! CRC-32 (IEEE 802.3 polynomial), table-driven, no dependencies.
//!
//! Why a real CRC and not a cheaper mixing hash: the torn-write tests
//! assert that *any* single-bit flip in a record is detected, and that
//! is a mathematical property of CRCs (any error burst up to 32 bits
//! is caught), not of ad-hoc hashes. The tables are built in `const`
//! context so there is no startup work.
//!
//! Slicing-by-8: eight bytes are folded per step through eight tables
//! (`TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes),
//! so the serial dependency is one xor-chain per eight bytes instead of
//! one table lookup per byte. Same polynomial, same parameters, same
//! checksums — recovery reads every WAL byte through this.

/// Reflected CRC-32 lookup tables for the IEEE polynomial 0xEDB88320;
/// `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `!0` — the same
/// parameterization as zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic zlib check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bytewise loop slicing-by-8 replaced, kept as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0u32, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize])
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop_at_every_alignment() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 24
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| draw() as u8).collect();
        // Every start offset 0..8, so the eight-byte steps land on
        // every alignment; every length up to 64 (each remainder after
        // each small step count) and 64 drawn lengths up to 4 096.
        for start in 0..8 {
            let drawn: Vec<usize> = (0..64).map(|_| draw() as usize % 4097).collect();
            for len in (0..=64).chain(drawn).chain([4096]) {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let base = b"xar-dur single bit flip coverage probe".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
