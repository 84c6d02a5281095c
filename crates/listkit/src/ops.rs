//! Scan operators.
//!
//! The paper's list scan computes, for each vertex, the operator-"sum" of
//! the values of all prior vertices, for any **binary associative**
//! operator. Commutativity is *not* required, and several classic
//! applications (function composition along a path, string concatenation,
//! segmented scans) genuinely need a non-commutative operator — so the
//! test suite exercises [`AffineOp`] to catch implementations that
//! accidentally reorder operands.

/// A binary associative operator with identity, over copyable values.
///
/// Laws (checked by property tests, not by the compiler):
/// * associativity: `combine(a, combine(b, c)) == combine(combine(a, b), c)`
/// * identity: `combine(identity(), a) == a == combine(a, identity())`
pub trait ScanOp<T: Copy>: Sync {
    /// Whether `combine` is commutative. Algorithms may exploit this
    /// (e.g. deriving prefixes from suffixes) only when `true`.
    const COMMUTATIVE: bool;

    /// The identity element.
    fn identity(&self) -> T;

    /// Combine two values; `a` precedes `b` in list order.
    fn combine(&self, a: T, b: T) -> T;
}

/// An operator by reference is the same operator, so a wrapper such as
/// [`crate::segmented::SegOp`] can borrow one it does not own.
impl<T: Copy, Op: ScanOp<T>> ScanOp<T> for &Op {
    const COMMUTATIVE: bool = Op::COMMUTATIVE;

    #[inline]
    fn identity(&self) -> T {
        (**self).identity()
    }

    #[inline]
    fn combine(&self, a: T, b: T) -> T {
        (**self).combine(a, b)
    }
}

/// Wrapping 64-bit integer addition — the list-ranking operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddOp;

impl ScanOp<i64> for AddOp {
    const COMMUTATIVE: bool = true;
    #[inline]
    fn identity(&self) -> i64 {
        0
    }
    #[inline]
    fn combine(&self, a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
}

impl ScanOp<u64> for AddOp {
    const COMMUTATIVE: bool = true;
    #[inline]
    fn identity(&self) -> u64 {
        0
    }
    #[inline]
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }
}

/// Maximum (identity `i64::MIN`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxOp;

impl ScanOp<i64> for MaxOp {
    const COMMUTATIVE: bool = true;
    #[inline]
    fn identity(&self) -> i64 {
        i64::MIN
    }
    #[inline]
    fn combine(&self, a: i64, b: i64) -> i64 {
        a.max(b)
    }
}

/// Minimum (identity `i64::MAX`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinOp;

impl ScanOp<i64> for MinOp {
    const COMMUTATIVE: bool = true;
    #[inline]
    fn identity(&self) -> i64 {
        i64::MAX
    }
    #[inline]
    fn combine(&self, a: i64, b: i64) -> i64 {
        a.min(b)
    }
}

/// Bitwise XOR over `u64` (its own inverse; identity 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XorOp;

impl ScanOp<u64> for XorOp {
    const COMMUTATIVE: bool = true;
    #[inline]
    fn identity(&self) -> u64 {
        0
    }
    #[inline]
    fn combine(&self, a: u64, b: u64) -> u64 {
        a ^ b
    }
}

/// An affine map `x -> a*x + b` over wrapping `i64` arithmetic.
///
/// Composition of affine maps is associative but **not commutative**,
/// which makes scans over [`AffineOp`] a sharp correctness test: any
/// implementation that swaps operand order (e.g. by computing a suffix
/// and "subtracting") produces wrong results.
///
/// `#[repr(C)]`: two `i64` fields with no padding, so every 16-byte
/// pattern is a valid `Affine` and a buffer of them can be read into as
/// bytes ([`crate::pages::Word`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct Affine {
    /// Multiplicative coefficient.
    pub a: i64,
    /// Additive coefficient.
    pub b: i64,
}

impl Affine {
    /// The map `x -> a*x + b`.
    pub fn new(a: i64, b: i64) -> Self {
        Self { a, b }
    }

    /// Apply the map to `x` (wrapping).
    pub fn apply(&self, x: i64) -> i64 {
        self.a.wrapping_mul(x).wrapping_add(self.b)
    }
}

/// Function composition of [`Affine`] maps: `combine(f, g) = g ∘ f`
/// ("first do `f`, then `g`" — matching list order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AffineOp;

impl ScanOp<Affine> for AffineOp {
    const COMMUTATIVE: bool = false;

    #[inline]
    fn identity(&self) -> Affine {
        Affine { a: 1, b: 0 }
    }

    /// `(g ∘ f)(x) = g(f(x)) = g.a*(f.a*x + f.b) + g.b`.
    #[inline]
    fn combine(&self, f: Affine, g: Affine) -> Affine {
        Affine { a: g.a.wrapping_mul(f.a), b: g.a.wrapping_mul(f.b).wrapping_add(g.b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_identity_and_combine() {
        let op = AddOp;
        assert_eq!(<AddOp as ScanOp<i64>>::identity(&op), 0);
        assert_eq!(op.combine(2i64, 3i64), 5);
        assert_eq!(op.combine(i64::MAX, 1), i64::MIN); // wrapping
    }

    #[test]
    fn max_min_identities_absorb() {
        assert_eq!(MaxOp.combine(MaxOp.identity(), -7), -7);
        assert_eq!(MinOp.combine(MinOp.identity(), 7), 7);
        assert_eq!(MaxOp.combine(3, 9), 9);
        assert_eq!(MinOp.combine(3, 9), 3);
    }

    #[test]
    fn xor_self_inverse() {
        let op = XorOp;
        assert_eq!(op.combine(0xdead, 0xdead), 0);
        assert_eq!(op.combine(op.identity(), 42), 42);
    }

    #[test]
    fn affine_composition_order_matters() {
        let op = AffineOp;
        let f = Affine::new(2, 1); // x -> 2x+1
        let g = Affine::new(3, 5); // x -> 3x+5
        let fg = op.combine(f, g); // first f then g: 3(2x+1)+5 = 6x+8
        assert_eq!(fg, Affine::new(6, 8));
        let gf = op.combine(g, f); // first g then f: 2(3x+5)+1 = 6x+11
        assert_eq!(gf, Affine::new(6, 11));
        assert_ne!(fg, gf);
        // point check
        assert_eq!(fg.apply(1), g.apply(f.apply(1)));
    }

    #[test]
    fn affine_identity() {
        let op = AffineOp;
        let f = Affine::new(7, -3);
        assert_eq!(op.combine(op.identity(), f), f);
        assert_eq!(op.combine(f, op.identity()), f);
    }

    #[test]
    fn affine_associative_spot_check() {
        let op = AffineOp;
        let (f, g, h) = (Affine::new(2, 3), Affine::new(-1, 4), Affine::new(5, -2));
        assert_eq!(op.combine(f, op.combine(g, h)), op.combine(op.combine(f, g), h));
    }
}
