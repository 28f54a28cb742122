//! Safe scalar encoding for shared-memory accesses.
//!
//! All application data moves through the simulated shared address space as
//! little-endian bytes; the [`Scalar`] trait provides the conversions
//! without any `unsafe` code. The trait is sealed: the protocol's fault
//! handling assumes scalars never straddle a page when naturally aligned.

mod private {
    pub trait Sealed {}
}

/// A plain fixed-size value that can live in simulated shared memory.
///
/// Implemented for the primitive integer and float types. Sealed — the DSM
/// layers rely on the exact encodings below.
pub trait Scalar: private::Sealed + Copy + Send + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Writes the little-endian encoding into `out` (`out.len() == SIZE`).
    fn store(self, out: &mut [u8]);
    /// Reads a value from its little-endian encoding.
    fn load(bytes: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn store(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn load(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(bytes);
                <$t>::from_le_bytes(buf)
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl private::Sealed for usize {}
impl Scalar for usize {
    const SIZE: usize = 8;
    #[inline]
    fn store(self, out: &mut [u8]) {
        out.copy_from_slice(&(self as u64).to_le_bytes());
    }
    #[inline]
    fn load(bytes: &[u8]) -> Self {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        u64::from_le_bytes(buf) as usize
    }
}

impl private::Sealed for bool {}
impl Scalar for bool {
    const SIZE: usize = 1;
    #[inline]
    fn store(self, out: &mut [u8]) {
        out[0] = self as u8;
    }
    #[inline]
    fn load(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.store(&mut buf);
        assert_eq!(T::load(&buf), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(0xABu8);
        roundtrip(-7i8);
        roundtrip(0xBEEFu16);
        roundtrip(-30000i16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(-123456789i32);
        roundtrip(u64::MAX - 3);
        roundtrip(i64::MIN + 5);
        roundtrip(3.5f32);
        roundtrip(-2.25e300f64);
        roundtrip(12345usize);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn usize_is_8_bytes() {
        assert_eq!(<usize as Scalar>::SIZE, 8);
    }

    #[test]
    fn nan_payload_preserved() {
        let v = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut buf = [0u8; 8];
        v.store(&mut buf);
        assert_eq!(f64::load(&buf).to_bits(), v.to_bits());
    }
}
