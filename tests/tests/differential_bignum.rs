//! Pinned-tape differential suite for the bignum under Diffie–Hellman:
//! `Uint::rem` (Knuth Algorithm D), `Uint::modmul` (schoolbook multiply,
//! then `rem`) and `Uint::modpow` (fixed-window ladder, Montgomery for
//! odd moduli) are checked against the bit-serial shift-and-add oracle
//! below, on moduli of 1–32 limbs, odd and even. Known answers on the
//! simulator's prime and on RFC 3526 group 14 pin the results to numbers
//! as well as to the oracle. `differential_bignum.seeds` is replayed
//! before any new cases are generated.

use hix_crypto::bignum::Uint;
use hix_crypto::dh::DhGroup;
use hix_crypto::drbg::HmacDrbg;
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/differential_bignum.seeds"
);

/// Widest modulus drawn, in 64-bit limbs (group 14 is 32).
const MAX_LIMBS: usize = 32;

/// Bound on `exponent bits × modulus limbs²` for an oracle `modpow`:
/// the oracle does one shift-and-add pass per modulus bit for each
/// exponent bit, so wide moduli get short exponents and narrow ones get
/// multi-limb exponents.
const ORACLE_BUDGET: usize = 4096;

/// A fixed 256-bit exponent, the size of a DH private key.
const EXP: &str = "0123456789abcdeffedcba98765432100f1e2d3c4b5a69788796a5b4c3d2e1f0";

/// A 384-bit base, longer than the simulator's prime.
const LONG_BASE: &str = "c0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffee";

/// `u mod v = r` cases where Algorithm D's quotient-digit estimate is
/// still one too large after its correction step, so it must add the
/// divisor back; random operands get there with probability ~2^-63.
const ADD_BACK: &[(&str, &str, &str)] = &[
    (
        "10000000000000000fffffffffffffffefffffffffffffffe0000000000000001fffffffffffffffe",
        "80000000000000007fffffffffffffff8000000000000001ffffffffffffffff",
        "80000000000000007ffffffffffffff98000000000000005fffffffffffffffd",
    ),
    (
        "ffffffffffffffff8000000000000000800000000000000100000000000000008000000000000000",
        "80000000000000010000000000000002fffffffffffffffe",
        "14fffffffffffffff97ffffffffffffffe",
    ),
    (
        "1fffffffffffffffe00000000000000010000000000000000",
        "280000000000000000000000000000002",
        "27fffffffffffffff666666666666666a",
    ),
];

/// `DhGroup::sim`: the public value drawn from `HmacDrbg::new(b"a")`.
const SIM_PUBLIC_A: &str = "4b3b03d3d6a4f3f5a780345353186a30cf3aa0de62c5760d9c9fd41e5d1335a0";
/// `DhGroup::sim`: the secret agreed between the `a` and `b` keypairs.
const SIM_SHARED: &str = "a94754aec99097d7a4c0d91e913877c7b0f595da645ebc1a06516b3b920d81a5";
/// `DhGroup::modp2048`: the public value drawn from `HmacDrbg::new(b"a")`.
const MODP2048_PUBLIC_A: &str = "\
    b570e9f0780edd63adf5ccc3f9465815156a656e654cb4dbd6f01eb310083fb6\
    b8ddb72f5f9c81f4e01e1fd12e1a8326b6effc469ce1fd7782e96c9dec30cb47\
    9ee40c02a5e1250d8ef5a679f3fb24554eb01e56fd44cedf0063897bc3f77766\
    ec152746474f876356e2ce64bc4c8e2086c4c816118bd55cd50193a280b350e3\
    0e6a171974d453f35ad4179ec18f36dc400991961ff09770ab6c05802cd1bb8b\
    200000a1d27bb30b9ec642aaa8958520eacdea6975d7190600d477f97e634177\
    5bd5cc8ef49244b2dbec7e89a914da45d2e54a9136c78cabc19a0aded20c6f17\
    42c245d39f4b946f11612231ba38b3028ae247b552d332e55319443a8f9eab60";
/// `DhGroup::modp2048`: the secret agreed between `a` and `b`.
const MODP2048_SHARED: &str = "\
    79c3cd9feb37137295db2644a8cb6bef026e9eae9656cbd59002d43075bf97c9\
    2e04ddd3d579c6db6a4fed8efb1e3533adcb5db9264ce5adf2cc81fed69455d8\
    78e57732be3ab4ced2fe94d98e8706d0f3f6dd1cec53954811e1de5449e19d44\
    11f1a354b3e353465f9bb30c05327aa3d76353ea6928f4ab66b6fa40cec138d1\
    2831328c530ccb25a4b8988358b632030213d7d146907d931153490744063083\
    b614654b3ae185eee6baee641ed98af623fe56e1b868a3a74aa2ac68c56741e5\
    a5f971110d1593d06c94f85124cf93d7e766bddd5d7d235d400368ca4f326787\
    cc0f0196fa072b2ea796b9d5d757de91a489aafd3be0d23f609ce5e56ddf6f22";
/// `2^EXP` mod the group-14 prime.
const G14_TWO_TO_EXP: &str = "\
    3ecbcbc408658733b351f2c3e9eb7d2af7476dfb33a9880d0e09e093b336984b\
    bfb761fde21ffe4c008e22dafd2a6530bf9da982a2fa12b6bff6a60da1f2ba6c\
    d06d9eb2032cd7cac809b987e9f9b96f6ed61be9a0cda7c463ed9b99fa054db3\
    b357acf1f56cf0af4adec693e4616738c7b5c71198bd9ed1c1f36c9778955b4b\
    59fc0e6a5ca41803ee85feef21fdf193f428228620e8abe41e006f3147774fcf\
    32bda2b5b09403013d9adbbe9a66bfafab042f5db59dbb8f99d0bc9bb2190d08\
    20bfdbe735e7d66eb265ee6b59f06a086713ba05a69cf0e9cb4d60dfba80b68d\
    e2a7cfdd936d822dc99245eb85e49bab37bd897ace2c688aa556c685b690d48e";

/// The reference: bit-serial arithmetic over its own canonical
/// little-endian limbs, sharing no code with `Uint`: shift-subtract
/// `rem`, shift-and-add `modmul`, square-and-multiply `modpow`.
mod oracle {
    use std::cmp::Ordering;

    #[derive(Clone, PartialEq, Eq)]
    pub struct Nat(Vec<u64>);

    impl Nat {
        pub fn from_be_bytes(bytes: &[u8]) -> Nat {
            let mut limbs: Vec<u64> = bytes
                .rchunks(8)
                .map(|c| c.iter().fold(0, |l, &b| l << 8 | b as u64))
                .collect();
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            Nat(limbs)
        }

        pub fn to_be_bytes(&self) -> Vec<u8> {
            let bytes: Vec<u8> = self.0.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
            bytes.into_iter().skip_while(|&b| b == 0).collect()
        }

        fn bits(&self) -> usize {
            self.0
                .last()
                .map_or(0, |top| self.0.len() * 64 - top.leading_zeros() as usize)
        }

        fn bit(&self, i: usize) -> bool {
            self.0.get(i / 64).is_some_and(|l| l >> (i % 64) & 1 == 1)
        }

        fn shl1(&mut self) {
            let mut carry = 0;
            for limb in &mut self.0 {
                let top = *limb >> 63;
                *limb = *limb << 1 | carry;
                carry = top;
            }
            if carry > 0 {
                self.0.push(carry);
            }
        }

        fn add(&mut self, rhs: &Nat) {
            self.0.resize(self.0.len().max(rhs.0.len()), 0);
            let mut carry = false;
            for (i, limb) in self.0.iter_mut().enumerate() {
                let (s1, c1) = limb.overflowing_add(*rhs.0.get(i).unwrap_or(&0));
                let (s2, c2) = s1.overflowing_add(carry as u64);
                *limb = s2;
                carry = c1 || c2;
            }
            if carry {
                self.0.push(1);
            }
        }

        fn sub(&mut self, rhs: &Nat) {
            let mut borrow = false;
            for (i, limb) in self.0.iter_mut().enumerate() {
                let (d1, b1) = limb.overflowing_sub(*rhs.0.get(i).unwrap_or(&0));
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *limb = d2;
                borrow = b1 || b2;
            }
            assert!(!borrow, "oracle subtraction underflow");
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
        }

        /// Subtracts `m` once if `self >= m`.
        fn reduce_once(&mut self, m: &Nat) {
            if *self >= *m {
                self.sub(m);
            }
        }

        pub fn rem(&self, m: &Nat) -> Nat {
            let mut acc = Nat(Vec::new());
            for i in (0..self.bits()).rev() {
                acc.shl1();
                if self.bit(i) {
                    acc.add(&Nat(vec![1]));
                }
                acc.reduce_once(m);
            }
            acc
        }

        /// Requires `self < m`.
        pub fn modmul(&self, rhs: &Nat, m: &Nat) -> Nat {
            let mut acc = Nat(Vec::new());
            for i in (0..rhs.bits()).rev() {
                acc.shl1();
                acc.reduce_once(m);
                if rhs.bit(i) {
                    acc.add(self);
                    acc.reduce_once(m);
                }
            }
            acc
        }

        pub fn modpow(&self, exp: &Nat, m: &Nat) -> Nat {
            if *m == Nat(vec![1]) {
                return Nat(Vec::new());
            }
            let base = self.rem(m);
            let mut acc = Nat(vec![1]);
            for i in (0..exp.bits()).rev() {
                acc = acc.modmul(&acc, m);
                if exp.bit(i) {
                    acc = acc.modmul(&base, m);
                }
            }
            acc
        }
    }

    impl PartialOrd for Nat {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Nat {
        fn cmp(&self, other: &Self) -> Ordering {
            (self.0.len().cmp(&other.0.len()))
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }
}

use oracle::Nat;

fn nat(u: &Uint) -> Nat {
    Nat::from_be_bytes(&u.to_be_bytes())
}

fn uint(n: &Nat) -> Uint {
    Uint::from_be_bytes(&n.to_be_bytes())
}

/// `len` bytes drawn from the tape, canonicalized by `Uint`.
fn draw(s: &mut Source, len: usize) -> Uint {
    Uint::from_be_bytes(&(0..len).map(|_| s.u8()).collect::<Vec<u8>>())
}

/// A modulus of 1–`MAX_LIMBS` limbs whose top limb has 1–64
/// significant bits (so Algorithm D normalizes by every shift), with a
/// drawn parity; one case in eight is a one-byte modulus instead, which
/// includes 1.
fn draw_modulus(s: &mut Source) -> Uint {
    if s.index(8) == 7 {
        return Uint::from_u64(s.in_range(1..256));
    }
    let mut limbs: Vec<u64> = (0..1 + s.index(MAX_LIMBS)).map(|_| s.u64()).collect();
    let top_bits = 1 + s.index(64);
    let top = limbs.last_mut().unwrap();
    *top = *top >> (64 - top_bits) | 1 << (top_bits - 1);
    let odd = s.bool() as u64;
    // 1 keeps its parity: an even draw must not zero the modulus.
    if limbs.len() > 1 || limbs[0] > 1 {
        limbs[0] = limbs[0] & !1 | odd;
    }
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    Uint::from_be_bytes(&bytes)
}

/// Limb count of a nonzero value.
fn limbs(u: &Uint) -> usize {
    u.bits().div_ceil(64)
}

/// `m − 1` for `m ≥ 1`, by big-endian byte borrow.
fn minus_one(m: &Uint) -> Uint {
    let mut bytes = m.to_be_bytes();
    for b in bytes.iter_mut().rev() {
        let (d, borrow) = b.overflowing_sub(1);
        *b = d;
        if !borrow {
            break;
        }
    }
    Uint::from_be_bytes(&bytes)
}

#[test]
fn rem_matches_bit_serial_oracle() {
    prop("rem_matches_bit_serial_oracle")
        .corpus(SEEDS)
        .run(|s| {
            let m = draw_modulus(s);
            // Dividends from empty to two limbs longer than the modulus.
            let len = 8 * s.index(limbs(&m) + 3);
            let a = draw(s, len);
            assert_eq!(a.rem(&m), uint(&nat(&a).rem(&nat(&m))), "rem diverged");
        });
}

#[test]
fn modmul_matches_bit_serial_oracle() {
    prop("modmul_matches_bit_serial_oracle")
        .corpus(SEEDS)
        .run(|s| {
            let m = draw_modulus(s);
            let n = limbs(&m);
            let a = uint(&nat(&draw(s, 8 * n + 8)).rem(&nat(&m)));
            // The multiplier may exceed the modulus and be longer than it.
            let len = 8 * s.index(n + 3);
            let b = draw(s, len);
            let expect = nat(&a).modmul(&nat(&b), &nat(&m));
            assert_eq!(a.modmul(&b, &m), uint(&expect), "modmul diverged");
        });
}

#[test]
fn modpow_matches_bit_serial_oracle() {
    prop("modpow_matches_bit_serial_oracle")
        .corpus(SEEDS)
        .run(|s| {
            let m = draw_modulus(s);
            let n = limbs(&m);
            // Bases from zero to longer than the modulus.
            let len = 8 * s.index(n + 3);
            let base = draw(s, len);
            let max_exp_bytes = (ORACLE_BUDGET / (8 * n * n)).max(1);
            let exp = match s.index(4) {
                0 => Uint::zero(),
                1 => Uint::one(),
                2 if 64 * n * n * n <= ORACLE_BUDGET => minus_one(&m),
                _ => {
                    let len = 1 + s.index(max_exp_bytes);
                    draw(s, len)
                }
            };
            let expect = nat(&base).modpow(&nat(&exp), &nat(&m));
            assert_eq!(base.modpow(&exp, &m), uint(&expect), "modpow diverged");
        });
}

#[test]
fn rem_adds_back_when_the_quotient_estimate_is_too_large() {
    for (u, v, r) in ADD_BACK {
        let (u, v) = (Uint::from_hex(u), Uint::from_hex(v));
        assert_eq!(u.rem(&v), Uint::from_hex(r));
        assert_eq!(u.rem(&v), uint(&nat(&u).rem(&nat(&v))));
    }
}

/// Known answers (computed independently of this crate) on the DH
/// primes and an even modulus one above the simulator's prime, with the
/// exponents a handshake uses: a 256-bit key and `m − 1`; and a result
/// of 0 on the odd modulus `3^161`, which Montgomery form must reduce
/// fully (to 0, not to `m`).
#[test]
fn modpow_known_answers() {
    let sim = DhGroup::sim().prime().clone();
    let g14 = DhGroup::modp2048().prime().clone();
    let (two, long) = (Uint::from_u64(2), Uint::from_hex(LONG_BASE));
    let exp = Uint::from_hex(EXP);
    let even = Uint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc30");
    let three_161 =
        Uint::from_hex("90e7a7d36283c4589cff2b2b8d32d43e1eeb4315dc9ac9ead2ceaacca8492983");
    let cases = [
        (
            &two,
            &exp,
            &sim,
            "a580ac1c79115c919ecd7ed5c90a73f89db2ba19a261df7ab0a234699262fb8e",
        ),
        (&long, &minus_one(&sim), &sim, "1"),
        (
            &long,
            &Uint::from_hex("ffffffffffffffffffffffffffffffffffffffff1234567"),
            &even,
            "2d2fa4fdcda69f930a09c266e56fbbdbc70435f2eef2cbc0f70d750585139da0",
        ),
        (&two, &exp, &g14, G14_TWO_TO_EXP),
        (&two, &minus_one(&g14), &g14, "1"),
        (&Uint::from_u64(3), &Uint::from_u64(200), &three_161, "0"),
    ];
    for (n, (base, exp, m, expect)) in cases.into_iter().enumerate() {
        assert_eq!(base.modpow(exp, m), Uint::from_hex(expect), "case {n}");
    }
}

#[test]
fn oracle_agrees_on_the_dh_primes() {
    let long = Uint::from_hex(LONG_BASE);
    let sim = DhGroup::sim().prime().clone();
    let exp = Uint::from_hex(EXP);
    assert_eq!(
        long.modpow(&exp, &sim),
        uint(&nat(&long).modpow(&nat(&exp), &nat(&sim)))
    );
    // Group 14 with a base longer than the prime and a one-limb
    // exponent, which keeps the bit-serial oracle affordable.
    let g14 = DhGroup::modp2048().prime().clone();
    let wide = Uint::from_hex(&LONG_BASE.repeat(6));
    let exp = Uint::from_hex(&EXP[..16]);
    assert_eq!(
        wide.modpow(&exp, &g14),
        uint(&nat(&wide).modpow(&nat(&exp), &nat(&g14)))
    );
}

/// Whole handshakes on both groups, pinned to values an independent
/// implementation reproduces from the same DRBG output.
#[test]
fn dh_agreement_known_answers() {
    let groups = [
        (DhGroup::sim(), SIM_PUBLIC_A, SIM_SHARED),
        (DhGroup::modp2048(), MODP2048_PUBLIC_A, MODP2048_SHARED),
    ];
    for (group, public_a, shared) in groups {
        let a = group.generate(&mut HmacDrbg::new(b"a"));
        let b = group.generate(&mut HmacDrbg::new(b"b"));
        assert_eq!(
            a.public.to_be_bytes(),
            Uint::from_hex(public_a).to_be_bytes()
        );
        let expect = Uint::from_hex(shared).to_be_bytes();
        assert_eq!(group.agree(&a, &b.public).unwrap().as_bytes(), expect);
        assert_eq!(group.agree(&b, &a.public).unwrap().as_bytes(), expect);
    }
}
