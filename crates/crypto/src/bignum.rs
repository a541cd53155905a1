//! Minimal arbitrary-precision unsigned integers for Diffie–Hellman.
//!
//! Only the operations modular exponentiation needs: comparison,
//! addition, subtraction, word-level schoolbook multiplication, Knuth
//! Algorithm D remainder, and a fixed 4-bit-window `modpow` whose
//! multiply-reduce step is Montgomery (CIOS) for odd moduli. A 256-bit
//! `modpow` takes tens of microseconds and an RFC 3526 group-14 one with
//! a 256-bit exponent about a millisecond; `tests/tests/differential_bignum.rs`
//! pins every operation to a bit-serial oracle and to fixed constants.

use std::cmp::Ordering;

/// An unsigned big integer, little-endian `u64` limbs, no leading zero
/// limbs (canonical form; zero is an empty limb vector).
///
/// ```
/// use hix_crypto::bignum::Uint;
/// let a = Uint::from_be_bytes(&[0x01, 0x00]); // 256
/// assert_eq!(a.to_be_bytes(), vec![0x01, 0x00]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Uint {
    limbs: Vec<u64>,
}

impl Uint {
    /// Zero.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Constructs from a small value.
    pub fn from_u64(v: u64) -> Self {
        Uint::from_limbs(vec![v])
    }

    /// Parses big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Uint::from_limbs(limbs)
    }

    /// Parses a hex string (whitespace allowed).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters.
    pub fn from_hex(s: &str) -> Self {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let clean = if clean.len() % 2 == 1 {
            format!("0{clean}")
        } else {
            clean
        };
        let bytes: Vec<u8> = (0..clean.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&clean[i..i + 2], 16).expect("invalid hex digit"))
            .collect();
        Uint::from_be_bytes(&bytes)
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.split_off(first_nonzero)
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Canonical form of little-endian `limbs`.
    fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut u = Uint { limbs };
        u.normalize();
        u
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    fn add_assign(&mut self, rhs: &Uint) {
        let n = self.limbs.len().max(rhs.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let r = *rhs.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = self.limbs[i].overflowing_add(r);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    pub(crate) fn sub_assign(&mut self, rhs: &Uint) {
        assert!(*self >= *rhs, "bignum subtraction underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = *rhs.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// `(self + rhs) mod m`; requires `self < m` and `rhs < m`.
    pub fn modadd(&self, rhs: &Uint, m: &Uint) -> Uint {
        debug_assert!(self < m && rhs < m);
        let mut out = self.clone();
        out.add_assign(rhs);
        if out >= *m {
            out.sub_assign(m);
        }
        out
    }

    /// `self * rhs`, word-level schoolbook.
    fn mul(&self, rhs: &Uint) -> Uint {
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                (out[i + j], carry) = mac(out[i + j], a, b, carry);
            }
            out[i + rhs.limbs.len()] = carry;
        }
        Uint::from_limbs(out)
    }

    /// `(self * rhs) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modmul(&self, rhs: &Uint, m: &Uint) -> Uint {
        self.mul(rhs).rem(m)
    }

    /// `self^exp mod m` by a fixed 4-bit-window ladder whose
    /// multiply-reduce step is Montgomery for odd `m` (every DH group)
    /// and multiply-then-[`Uint::rem`] for even `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if *m == Uint::one() {
            return Uint::zero();
        }
        let base = self.rem(m);
        if m.bit(0) {
            ladder(&mut Montgomery::new(m), &base, exp)
        } else {
            ladder(&mut RemReducer(m), &base, exp)
        }
    }

    /// `self mod m` by Knuth's Algorithm D (TAOCP vol. 2, §4.3.1).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if self < m {
            return self.clone();
        }
        Uint::from_limbs(rem_limbs(&self.limbs, &m.limbs))
    }

    /// Exponent digit `w`: bits `[WINDOW·w, WINDOW·(w+1))`.
    fn window(&self, w: usize) -> usize {
        let bit = w * WINDOW;
        let limb = self.limbs.get(bit / 64).map_or(0, |l| l >> (bit % 64));
        (limb & ((1 << WINDOW) - 1)) as usize
    }

    /// The value as exactly `n` little-endian limbs; requires
    /// `self.limbs.len() <= n`.
    fn padded(&self, n: usize) -> Vec<u64> {
        let mut limbs = self.limbs.clone();
        limbs.resize(n, 0);
        limbs
    }
}

/// Exponent bits consumed per ladder step. Divides 64, so a digit never
/// straddles two limbs.
const WINDOW: usize = 4;

/// `a + b·c + carry` as (low, high) limbs; cannot overflow.
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 * c as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `x << s` for `s < 64`, one limb longer than `x`.
fn shl_limbs(x: &[u64], s: u32) -> Vec<u64> {
    let mut out = Vec::with_capacity(x.len() + 1);
    let mut carry = 0;
    for &limb in x {
        out.push(limb << s | carry);
        carry = if s == 0 { 0 } else { limb >> (64 - s) };
    }
    out.push(carry);
    out
}

/// `u mod v` for `u >= v`, `v` canonical (nonzero top limb): Algorithm D
/// with the remainder kept and the quotient dropped.
fn rem_limbs(u: &[u64], v: &[u64]) -> Vec<u64> {
    let n = v.len();
    if n == 1 {
        let d = v[0] as u128;
        let r = u
            .iter()
            .rev()
            .fold(0u128, |r, &x| ((r << 64) | x as u128) % d);
        return vec![r as u64];
    }
    // D1: shift both so the divisor's top bit is set.
    let s = v[n - 1].leading_zeros();
    let vn = shl_limbs(v, s);
    let mut un = shl_limbs(u, s);
    let (v_top, v_next) = (vn[n - 1] as u128, vn[n - 2] as u128);
    for j in (0..=u.len() - n).rev() {
        // D3: estimate the quotient digit from the top two limbs, then
        // correct it with the third; it is then exact or one too large.
        let top = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
        let (mut qhat, mut rhat) = (top / v_top, top % v_top);
        while qhat >> 64 != 0 || qhat * v_next > (rhat << 64 | un[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_top;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // D4: un[j..=j+n] -= qhat · vn.
        let (mut carry, mut borrow) = (0u128, false);
        for i in 0..=n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let (d, b1) = un[i + j].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            un[i + j] = d;
            borrow = b1 || b2;
        }
        // D6: the digit was one too large; add the divisor back.
        if borrow {
            let mut carry = false;
            for i in 0..=n {
                let (s1, c1) = un[i + j].overflowing_add(vn[i]);
                let (s2, c2) = s1.overflowing_add(carry as u64);
                un[i + j] = s2;
                carry = c1 || c2;
            }
        }
    }
    // D8: the remainder is the low n limbs, shifted back.
    un.truncate(n);
    if s > 0 {
        for i in 0..n {
            un[i] = un[i] >> s | un.get(i + 1).map_or(0, |h| h << (64 - s));
        }
    }
    un
}

/// The multiply-reduce step of [`Uint::modpow`]'s ladder. Values in the
/// reducer's domain are residues held as exactly `n` limbs, `n` being
/// the modulus's limb count.
trait Reducer {
    /// Limb count of the modulus.
    fn limbs(&self) -> usize;
    /// Maps a residue `x < m` into the domain.
    fn enter(&mut self, x: &Uint) -> Vec<u64>;
    /// `out = a · b` in the domain.
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]);
    /// Maps a domain value back to its residue.
    fn leave(&mut self, x: &[u64]) -> Uint;
}

/// Left-to-right fixed-window exponentiation: square `WINDOW` times,
/// then multiply by the precomputed power for the next exponent digit.
fn ladder(r: &mut impl Reducer, base: &Uint, exp: &Uint) -> Uint {
    let n = r.limbs();
    // table[d] = base^d for every digit d.
    let mut table = vec![r.enter(&Uint::one()), r.enter(base)];
    for d in 2..1 << WINDOW {
        let mut power = vec![0; n];
        r.mul(&table[d - 1], &table[1], &mut power);
        table.push(power);
    }
    let mut acc = table[0].clone();
    let mut tmp = vec![0; n];
    for w in (0..exp.bits().div_ceil(WINDOW)).rev() {
        for _ in 0..WINDOW {
            r.mul(&acc, &acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        let digit = exp.window(w);
        if digit != 0 {
            r.mul(&acc, &table[digit], &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
    }
    r.leave(&acc)
}

/// Plain residues, reduced by [`Uint::rem`] after every product: the
/// even-modulus path, where Montgomery's `m⁻¹ mod 2^64` does not exist.
struct RemReducer<'a>(&'a Uint);

impl Reducer for RemReducer<'_> {
    fn limbs(&self) -> usize {
        self.0.limbs.len()
    }

    fn enter(&mut self, x: &Uint) -> Vec<u64> {
        x.padded(self.limbs())
    }

    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let product = Uint::from_limbs(a.to_vec()).mul(&Uint::from_limbs(b.to_vec()));
        out.copy_from_slice(&product.rem(self.0).padded(out.len()));
    }

    fn leave(&mut self, x: &[u64]) -> Uint {
        Uint::from_limbs(x.to_vec())
    }
}

/// Montgomery form modulo an odd `m`: `x` is held as `x·R mod m` with
/// `R = 2^(64n)`, so a product reduces by word-wise additions of
/// multiples of `m` and one final subtraction, with no division.
struct Montgomery<'a> {
    m: &'a [u64],
    /// `-m⁻¹ mod 2^64`.
    m_inv: u64,
    /// `R² mod m`, as `n` limbs: multiplying by it enters the domain.
    r2: Vec<u64>,
    /// CIOS accumulator, `n + 2` limbs.
    t: Vec<u64>,
}

impl<'a> Montgomery<'a> {
    fn new(m: &'a Uint) -> Self {
        let n = m.limbs.len();
        // Newton's iteration x ← x(2 − m·x) doubles the correct low bits
        // of m⁻¹ each step; x = 1 is correct to one bit for odd m.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.limbs[0].wrapping_mul(inv)));
        }
        let mut r_squared = vec![0; 2 * n];
        r_squared.push(1);
        Montgomery {
            m: &m.limbs,
            m_inv: inv.wrapping_neg(),
            r2: Uint::from_limbs(r_squared).rem(m).padded(n),
            t: vec![0; n + 2],
        }
    }
}

impl Reducer for Montgomery<'_> {
    fn limbs(&self) -> usize {
        self.m.len()
    }

    fn enter(&mut self, x: &Uint) -> Vec<u64> {
        let mut out = vec![0; self.limbs()];
        self.mul(&x.padded(out.len()), &self.r2.clone(), &mut out);
        out
    }

    /// `out = a·b·R⁻¹ mod m` by coarsely integrated operand scanning
    /// (CIOS); requires `a, b < m`.
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let n = self.m.len();
        // Equal-length views let the compiler drop the bounds checks.
        let (m, a, b, t) = (&self.m[..n], &a[..n], &b[..n], &mut self.t[..n + 2]);
        t.fill(0);
        for &bi in b {
            // t += a·b[i]
            let mut c = 0;
            for j in 0..n {
                (t[j], c) = mac(t[j], a[j], bi, c);
            }
            let (sum, over) = t[n].overflowing_add(c);
            (t[n], t[n + 1]) = (sum, over as u64);
            // t = (t + q·m) / 2^64, with q chosen to zero the low limb.
            let q = t[0].wrapping_mul(self.m_inv);
            (_, c) = mac(t[0], q, m[0], 0);
            for j in 1..n {
                (t[j - 1], c) = mac(t[j], q, m[j], c);
            }
            let (sum, over) = t[n].overflowing_add(c);
            (t[n - 1], t[n]) = (sum, t[n + 1] + over as u64);
        }
        // t < 2m: at most one subtraction of m.
        if t[n] != 0 || cmp_limbs(&t[..n], m) != Ordering::Less {
            let mut borrow = false;
            for j in 0..n {
                let (d1, b1) = t[j].overflowing_sub(m[j]);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                t[j] = d2;
                borrow = b1 || b2;
            }
        }
        out.copy_from_slice(&t[..n]);
    }

    fn leave(&mut self, x: &[u64]) -> Uint {
        let mut one = vec![0; x.len()];
        one[0] = 1;
        let mut out = vec![0; x.len()];
        self.mul(x, &one, &mut out);
        Uint::from_limbs(out)
    }
}

/// Compares equal-length little-endian limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.limbs.len().cmp(&other.limbs.len()))
            .then_with(|| cmp_limbs(&self.limbs, &other.limbs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let cases: [&[u8]; 4] = [&[], &[1], &[0xff; 9], &[1, 0, 0, 0, 0, 0, 0, 0, 0]];
        for bytes in cases {
            let u = Uint::from_be_bytes(bytes);
            let back = u.to_be_bytes();
            // canonical: strips leading zeros
            let want: Vec<u8> = bytes
                .iter()
                .copied()
                .skip_while(|&b| b == 0)
                .collect();
            assert_eq!(back, want);
        }
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(Uint::from_hex("ff"), Uint::from_u64(255));
        assert_eq!(Uint::from_hex("1 00"), Uint::from_u64(256));
        assert_eq!(Uint::from_hex("f"), Uint::from_u64(15)); // odd length
    }

    #[test]
    fn comparison_and_bits() {
        let a = Uint::from_hex("ffffffffffffffffff"); // 72 bits
        let b = Uint::from_hex("1000000000000000000"); // 2^72
        assert!(a < b);
        assert_eq!(a.bits(), 72);
        assert!(a.bit(0) && a.bit(71) && !a.bit(72));
        assert_eq!(Uint::zero().bits(), 0);
    }

    #[test]
    fn modadd_wraps() {
        let m = Uint::from_u64(100);
        let a = Uint::from_u64(70);
        let b = Uint::from_u64(50);
        assert_eq!(a.modadd(&b, &m), Uint::from_u64(20));
    }

    #[test]
    fn modmul_small() {
        let m = Uint::from_u64(97);
        let a = Uint::from_u64(53);
        let b = Uint::from_u64(88);
        assert_eq!(a.modmul(&b, &m), Uint::from_u64(53 * 88 % 97));
        assert_eq!(a.modmul(&Uint::zero(), &m), Uint::zero());
    }

    #[test]
    fn modpow_small() {
        let m = Uint::from_u64(1_000_000_007);
        let base = Uint::from_u64(2);
        let exp = Uint::from_u64(100);
        // 2^100 mod 1e9+7 = 976371285
        assert_eq!(base.modpow(&exp, &m), Uint::from_u64(976_371_285));
        assert_eq!(base.modpow(&Uint::zero(), &m), Uint::one());
        assert_eq!(Uint::zero().modpow(&Uint::from_u64(5), &m), Uint::zero());
    }

    #[test]
    fn modpow_multilimb_fermat() {
        // Fermat's little theorem on a 127-bit Mersenne prime:
        // a^(p-1) = 1 (mod p) for p = 2^127 - 1.
        let p = Uint::from_hex("7fffffffffffffffffffffffffffffff");
        let mut pm1 = p.clone();
        pm1.sub_assign(&Uint::one());
        let a = Uint::from_hex("123456789abcdef0fedcba9876543210");
        assert_eq!(a.modpow(&pm1, &p), Uint::one());
    }

    #[test]
    fn rem_matches_u128() {
        let a = Uint::from_hex("123456789abcdef0123456789abcdef");
        let m = Uint::from_u64(1_000_003);
        let a128 = 0x123456789abcdef0123456789abcdefu128;
        assert_eq!(a.rem(&m), Uint::from_u64((a128 % 1_000_003) as u64));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut a = Uint::from_u64(1);
        a.sub_assign(&Uint::from_u64(2));
    }
}
