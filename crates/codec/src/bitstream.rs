//! Low-level bitstream primitives: varint and zig-zag coding plus a
//! zero-run-length coder for quantized residuals.
//!
//! The simulated codecs serialize quantized prediction residuals with this
//! module. The format is deliberately simple (no arithmetic coding) but is a
//! real entropy-reducing representation: long zero runs — which dominate
//! temporally coherent video — collapse to a couple of bytes.

use crate::CodecError;

/// Appends an unsigned LEB128 varint to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
#[inline]
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| CodecError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overflow".into()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed value to unsigned so small magnitudes stay small.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Encodes a slice of quantized residuals using zero-run-length + zig-zag
/// varint coding. The output begins with the residual count so the decoder
/// knows when to stop.
pub fn encode_residuals(residuals: &[i32], out: &mut Vec<u8>) {
    let mut writer = ResidualWriter::new(out, residuals.len());
    for &r in residuals {
        writer.push(r);
    }
    writer.finish();
}

/// The streaming form of [`encode_residuals`], for a block whose length is
/// known before its residuals are: the codecs code each residual as soon as
/// it is quantized instead of buffering the block.
pub(crate) struct ResidualWriter<'a> {
    out: &'a mut Vec<u8>,
    zero_run: u64,
}

impl<'a> ResidualWriter<'a> {
    /// Starts a block of `count` residuals on `out`.
    pub(crate) fn new(out: &'a mut Vec<u8>, count: usize) -> Self {
        write_varint(out, count as u64);
        Self { out, zero_run: 0 }
    }

    /// Appends the next residual of the block.
    #[inline(always)]
    pub(crate) fn push(&mut self, r: i32) {
        if r == 0 {
            self.zero_run += 1;
        } else {
            write_varint(self.out, self.zero_run);
            write_varint(self.out, zigzag(i64::from(r)));
            self.zero_run = 0;
        }
    }

    /// Ends a block into which exactly `count` residuals were pushed.
    pub(crate) fn finish(self) {
        if self.zero_run > 0 {
            // Trailing zero run, marked by a zig-zag value of 0 (which cannot
            // be produced by a non-zero residual).
            write_varint(self.out, self.zero_run);
            write_varint(self.out, zigzag(0));
        }
    }
}

/// Reads the residual count that opens a block, rejecting counts beyond
/// 2^28 (one 16384 × 16384 plane) before anything is allocated for them.
fn read_residual_count(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let count = read_varint(data, pos)?;
    if count > 1 << 28 {
        return Err(CodecError::Corrupt(format!("residual count {count} implausibly large")));
    }
    Ok(count as usize)
}

/// Decodes a residual slice produced by [`encode_residuals`], advancing `pos`.
pub fn decode_residuals(data: &[u8], pos: &mut usize) -> Result<Vec<i32>, CodecError> {
    let count = read_residual_count(data, pos)?;
    // Cap the pre-allocation: a corrupt header claiming a huge (but
    // below-limit) count must not commit gigabytes before the payload check
    // fails. Legitimate blocks grow past the cap via ordinary resizing.
    let mut out = Vec::with_capacity(count.min(1 << 16));
    while out.len() < count {
        let zero_run = read_varint(data, pos)?;
        if zero_run > (count - out.len()) as u64 {
            return Err(CodecError::Corrupt("zero run exceeds residual count".into()));
        }
        out.resize(out.len() + zero_run as usize, 0);
        if let Some(v) = read_run_value(data, pos, out.len() == count)? {
            out.push(v);
        }
    }
    Ok(out)
}

/// Decodes a residual slice that must hold exactly `expected` residuals,
/// appending them to `out` and advancing `pos`.
///
/// The count is checked (against `expected` and the 2^28 cap) before `out`
/// grows, so a slice whose header disagrees with the caller's size fails
/// without allocating. `out` is then zero-extended once and only the
/// non-zero residuals are written: zero runs are skipped, not filled.
pub(crate) fn decode_residuals_into(
    data: &[u8],
    pos: &mut usize,
    expected: usize,
    out: &mut Vec<i32>,
) -> Result<(), CodecError> {
    let count = read_residual_count(data, pos)?;
    if count != expected {
        return Err(CodecError::Corrupt(format!(
            "plane residual count {count} does not match plane size {expected}"
        )));
    }
    let start = out.len();
    out.resize(start + expected, 0);
    let block = &mut out[start..];
    let mut filled = 0usize;
    while filled < block.len() {
        let zero_run = read_varint(data, pos)?;
        if zero_run > (block.len() - filled) as u64 {
            return Err(CodecError::Corrupt("zero run exceeds residual count".into()));
        }
        filled += zero_run as usize;
        if let Some(v) = read_run_value(data, pos, filled == block.len())? {
            block[filled] = v;
            filled += 1;
        }
    }
    Ok(())
}

/// Reads the value that ends a zero run: `Some` residual, or `None` for the
/// trailing-run marker, which is only legal when the run completed the
/// block (`full`).
#[inline(always)]
fn read_run_value(data: &[u8], pos: &mut usize, full: bool) -> Result<Option<i32>, CodecError> {
    let value = unzigzag(read_varint(data, pos)?);
    match (value, full) {
        (0, true) => Ok(None),
        (0, false) => Err(CodecError::Corrupt("premature trailing-run marker".into())),
        (_, true) => Err(CodecError::Corrupt("residual value after full count".into())),
        (v, false) => i32::try_from(v)
            .map(Some)
            .map_err(|_| CodecError::Corrupt("residual out of i32 range".into())),
    }
}

/// Writes a little-endian u32 (used for fixed header fields).
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian u32, advancing `pos`.
pub fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let bytes = data
        .get(*pos..*pos + 4)
        .ok_or_else(|| CodecError::Corrupt("truncated u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_is_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-1_000_000i64, -255, -1, 0, 1, 255, 1_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-1) <= 2);
        assert!(zigzag(1) <= 2);
    }

    #[test]
    fn residual_round_trip_with_runs() {
        let cases: Vec<Vec<i32>> = vec![
            vec![],
            vec![0; 1000],
            vec![1, -1, 2, -2, 0, 0, 0, 5],
            vec![0, 0, 0, 0, 7],
            vec![7, 0, 0, 0, 0],
            (-50..50).collect(),
        ];
        for case in cases {
            let mut buf = Vec::new();
            encode_residuals(&case, &mut buf);
            let mut pos = 0;
            let decoded = decode_residuals(&buf, &mut pos).unwrap();
            assert_eq!(decoded, case);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zero_heavy_residuals_compress_well() {
        let mut residuals = vec![0i32; 10_000];
        residuals[5000] = 3;
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        assert!(buf.len() < 20, "10k zero residuals should take a handful of bytes, got {}", buf.len());
    }

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF);
        write_u32(&mut buf, 7);
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 7);
        assert!(read_u32(&buf, &mut pos).is_err());
    }

    #[test]
    fn corrupt_residuals_are_rejected_not_panicked() {
        // Claim 5 residuals but provide a zero run of 10.
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        write_varint(&mut buf, 10);
        write_varint(&mut buf, zigzag(1));
        let mut pos = 0;
        assert!(decode_residuals(&buf, &mut pos).is_err());
    }
}
