//! Minimal binary codec for session snapshots.
//!
//! Deliberately serde-free: a snapshot is a short-lived operational
//! artifact (suspend an in-flight evaluation, ship it to another
//! worker, resume), not an interchange format, so the encoding is a
//! hand-rolled little-endian byte stream with an explicit version tag.
//! Floats are encoded via `f64::to_bits`, so fingerprints compare bit
//! for bit. A session's dynamic state is not encoded at all: the record
//! carries its starting RNG state and its [`LabelLog`], and resume
//! replays them; a monitor record carries its event log, which resume
//! replays through the live calls.

/// The shared container magic of every snapshot record — plain session
/// records (design tags 0–3) and the stratified coordinator record
/// (tag 4) carry the same header, so the constants live in one place.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"KGAESNAP";
/// The shared container version; bumping it re-gates every record type
/// at once (readers reject every other version).
pub(crate) const SNAPSHOT_VERSION: u16 = 5;

/// Append-only snapshot writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor-based snapshot reader; every accessor fails loudly on
/// truncated input instead of panicking.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

pub(crate) type ReadResult<T> = Result<T, &'static str>;

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    fn take(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        let end = self
            .cursor
            .checked_add(n)
            .ok_or("snapshot cursor overflow")?;
        let chunk = self
            .bytes
            .get(self.cursor..end)
            .ok_or("snapshot truncated")?;
        self.cursor = end;
        Ok(chunk)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        self.take(n)
    }

    pub(crate) fn u8(&mut self) -> ReadResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> ReadResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2b")))
    }

    pub(crate) fn u32(&mut self) -> ReadResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4b")))
    }

    pub(crate) fn u64(&mut self) -> ReadResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8b")))
    }

    pub(crate) fn f64(&mut self) -> ReadResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> ReadResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("invalid bool byte"),
        }
    }

    pub(crate) fn opt_u64(&mut self) -> ReadResult<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    pub(crate) fn opt_f64(&mut self) -> ReadResult<Option<f64>> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// A `u64` length prefix validated against a sanity cap before any
    /// allocation sized by it.
    pub(crate) fn len_capped(&mut self, cap: u64) -> ReadResult<usize> {
        let len = self.u64()?;
        if len > cap {
            return Err("snapshot length field exceeds sanity cap");
        }
        usize::try_from(len).map_err(|_| "snapshot length exceeds usize")
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cursor == self.bytes.len()
    }

    /// The unread bytes; the reader is then at its end.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.cursor..];
        self.cursor = self.bytes.len();
        rest
    }

    pub(crate) fn finish(self) -> ReadResult<()> {
        if self.cursor == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after snapshot payload")
        }
    }
}

/// Labels in order, one bit each: the fresh labels a session consumed
/// (the only per-annotation state a session record stores), and a
/// monitor's poll labels and added triples' flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LabelLog {
    /// Bits LSB-first; the bits past `len` in the last byte are zero.
    bytes: Vec<u8>,
    len: u64,
}

impl LabelLog {
    #[inline]
    pub(crate) fn push(&mut self, label: bool) {
        let bit = (self.len % 8) as u8;
        if bit == 0 {
            self.bytes.push(0);
        }
        *self.bytes.last_mut().expect("a byte was pushed") |= u8::from(label) << bit;
        self.len += 1;
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Label `i` (`i < len`).
    pub(crate) fn get(&self, i: u64) -> bool {
        (self.bytes[(i / 8) as usize] >> (i % 8)) & 1 == 1
    }

    /// `u64` label count, then the bits, zero-padded to a byte.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.u64(self.len);
        w.bytes(&self.bytes);
    }

    /// Inverse of [`LabelLog::write`]; the count is checked against
    /// `cap` before any allocation, and padding bits must be zero.
    pub(crate) fn read(r: &mut Reader<'_>, cap: u64) -> ReadResult<Self> {
        let len = r.len_capped(cap)? as u64;
        let bytes = r.bytes(len.div_ceil(8) as usize)?.to_vec();
        if !len.is_multiple_of(8) && bytes.last().is_some_and(|&b| b >> (len % 8) != 0) {
            return Err("non-zero label padding bits");
        }
        Ok(Self { bytes, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = Writer::new();
        w.bytes(b"HDR");
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.f64(-0.123_456_789);
        w.bool(true);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.opt_f64(Some(f64::NAN));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes(3).unwrap(), b"HDR");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.123_456_789);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert!(r.opt_f64().unwrap().unwrap().is_nan());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(r.u64().is_err());
        let mut r2 = Reader::new(&bytes);
        let _ = r2.u32().unwrap();
        assert!(r2.finish().is_err(), "4 bytes left unread");
    }

    #[test]
    fn length_caps_guard_allocations() {
        let mut w = Writer::new();
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.len_capped(1 << 20).is_err());
    }

    #[test]
    fn label_log_round_trips_and_rejects_bad_padding() {
        let labels = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        let mut log = LabelLog::default();
        for &l in &labels {
            log.push(l);
        }
        assert_eq!(log.len(), 10);
        assert!(labels
            .iter()
            .enumerate()
            .all(|(i, &l)| log.get(i as u64) == l));
        let mut w = Writer::new();
        log.write(&mut w);
        let mut bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 2);
        let mut r = Reader::new(&bytes);
        assert_eq!(LabelLog::read(&mut r, 10).unwrap(), log);
        r.finish().unwrap();
        assert!(LabelLog::read(&mut Reader::new(&bytes), 9).is_err(), "cap");
        bytes[9] |= 0x80; // a padding bit of the last byte
        assert!(LabelLog::read(&mut Reader::new(&bytes), 10).is_err());
    }
}
