//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) with a
//! compile-time lookup table, and the one envelope it guards: every
//! format that leaves memory — the WAL record, the snapshot container,
//! `rqfa-net`'s wire frame — is `magic (u16 LE) | body | CRC-32 of the
//! body (u32 LE)`. [`seal`] writes one and [`open`] checks one; each
//! format keeps its own length rule and maps [`Unsealed`] to its own
//! errors. Dependency-free by design: the container builds offline.

/// The byte-indexed CRC table, built at compile time.
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// Computes the CRC-32 checksum of `bytes`.
///
/// ```
/// // The canonical check value of CRC-32/ISO-HDLC.
/// assert_eq!(rqfa_persist::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[usize::from((crc as u8) ^ b)];
    }
    !crc
}

/// Appends one envelope to `out`: `magic`, whatever `body` appends, then
/// the CRC-32 of what `body` appended. `body` sees all of `out` and may
/// back-patch its own fields (a length known once the payload is
/// written) before the CRC is taken.
///
/// # Errors
///
/// What `body` fails with; the envelope is then left unsealed.
#[inline]
pub fn seal<E>(
    out: &mut Vec<u8>,
    magic: u16,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    out.extend_from_slice(&magic.to_le_bytes());
    let start = out.len();
    body(out)?;
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Why [`open`] refused a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unsealed {
    /// Too short to hold a magic word and a CRC.
    Short,
    /// The first word is not the format's magic.
    BadMagic {
        /// The word found where the magic belongs.
        found: u16,
    },
    /// The CRC does not cover the body.
    BadCrc {
        /// CRC-32 recomputed over the body.
        expected: u32,
        /// CRC-32 the envelope carries.
        found: u32,
    },
}

/// Checks that `bytes` is **exactly one** envelope of the format `magic`
/// names, and hands out its body.
///
/// # Errors
///
/// [`Unsealed`]: too short, the wrong magic, or a CRC mismatch.
pub fn open(bytes: &[u8], magic: u16) -> Result<&[u8], Unsealed> {
    // Magic word ahead of the body, CRC behind it.
    let Some((head, rest)) = bytes.split_first_chunk::<2>() else {
        return Err(Unsealed::Short);
    };
    let Some((body, tail)) = rest.split_last_chunk::<4>() else {
        return Err(Unsealed::Short);
    };
    let found = u16::from_le_bytes(*head);
    if found != magic {
        return Err(Unsealed::BadMagic { found });
    }
    let expected = crc32(body);
    let found = u32::from_le_bytes(*tail);
    if expected != found {
        return Err(Unsealed::BadCrc { expected, found });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_hands_out_what_seal_wrapped_and_refuses_any_damage() {
        let mut bytes = vec![0xEE];
        seal(&mut bytes, 0xCB1C, |body| {
            body.extend_from_slice(b"body");
            Ok::<_, ()>(())
        })
        .unwrap();
        let envelope = &bytes[1..];
        assert_eq!(envelope.len(), 2 + 4 + 4);
        assert_eq!(&envelope[..2], &[0x1C, 0xCB]);
        assert_eq!(&envelope[6..], &crc32(b"body").to_le_bytes());
        assert_eq!(open(envelope, 0xCB1C), Ok(&b"body"[..]));
        let wrong_magic = Err(Unsealed::BadMagic { found: 0xCB1C });
        assert_eq!(open(envelope, 0xCB55), wrong_magic);
        for keep in 0..6 {
            assert_eq!(open(&envelope[..keep], 0xCB1C), Err(Unsealed::Short));
        }
        for keep in 6..envelope.len() {
            assert!(open(&envelope[..keep], 0xCB1C).is_err(), "{keep}");
        }
        let mut flipped = envelope.to_vec();
        flipped[3] ^= 0x10;
        let flipped = open(&flipped, 0xCB1C);
        assert!(matches!(flipped, Err(Unsealed::BadCrc { .. })));
        // A failing body leaves no CRC behind.
        let mut failed = Vec::new();
        assert_eq!(seal(&mut failed, 1, |_| Err("no")), Err("no"));
        assert_eq!(failed.len(), 2);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = b"write-ahead log record".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8u8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
