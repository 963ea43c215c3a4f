//! Dense vectors and their operations.

use std::borrow::Cow;
use std::ops::{Deref, Index};

/// A dense `f32` vector, the unit the semantic index stores.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector(Vec<f32>);

impl Vector {
    /// Zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Vector {
        Vector(vec![0.0; dim])
    }

    /// Wrap raw components.
    pub fn from_vec(v: Vec<f32>) -> Vector {
        Vector(v)
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable raw slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Dot product via the chunked 8-lane kernel. Panics in debug builds on
    /// dimension mismatch.
    pub fn dot(&self, other: &Vector) -> f32 {
        debug_assert_eq!(self.dim(), other.dim());
        crate::kernel::dot(self.as_slice(), other.as_slice())
    }

    /// Dot product of two unit (or zero) vectors — their cosine similarity
    /// with zero normalization work. The caller owns the unit-norm
    /// invariant (debug builds check it); the embedders emit unit vectors
    /// by construction and the vector indexes normalize on `add`/load.
    pub fn dot_unit(&self, other: &Vector) -> f32 {
        debug_assert_eq!(self.dim(), other.dim());
        crate::kernel::dot_unit(self.as_slice(), other.as_slice())
    }

    /// Euclidean norm (fused chunked self-dot).
    pub fn norm(&self) -> f32 {
        crate::kernel::norm(self.as_slice())
    }

    /// Cosine similarity; 0 when either vector is zero.
    ///
    /// Re-derives both operand norms on every call (three passes over the
    /// data). Hot paths should either enforce the unit-norm invariant and
    /// call [`Vector::dot_unit`], or cache norms with [`NormedVector`].
    pub fn cosine(&self, other: &Vector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Squared Euclidean distance.
    pub fn l2_sq(&self, other: &Vector) -> f32 {
        debug_assert_eq!(self.dim(), other.dim());
        self.as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Normalize in place to unit length (no-op for the zero vector and
    /// for vectors that are already unit within float tolerance).
    pub fn normalize(&mut self) {
        crate::kernel::normalize(&mut self.0);
    }

    /// The unit-length form of this vector: borrowed when [`normalize`]
    /// would leave it as it is — every embedder output, so a search pays no
    /// copy for its query — and a scaled copy otherwise.
    ///
    /// [`normalize`]: Vector::normalize
    pub fn to_unit(&self) -> Cow<'_, Vector> {
        match crate::kernel::unit_scale(&self.0) {
            None => Cow::Borrowed(self),
            Some(n) => Cow::Owned(Vector(self.0.iter().map(|x| x / n).collect())),
        }
    }

    /// Accumulate `scale * other` into self.
    pub fn add_scaled(&mut self, other: &Vector, scale: f32) {
        debug_assert_eq!(self.dim(), other.dim());
        for (a, o) in self.0.iter_mut().zip(&other.0) {
            *a += scale * o;
        }
    }
}

/// A vector with its Euclidean norm computed once and cached, so repeated
/// cosine comparisons against it never re-derive the norm.
///
/// This is the representation for a *query* scored against many candidates
/// when the unit-norm invariant cannot be assumed: one norm pass up front,
/// then each comparison is a single fused dot plus one divide.
#[derive(Debug, Clone, PartialEq)]
pub struct NormedVector {
    vector: Vector,
    norm: f32,
}

impl NormedVector {
    /// Wrap a vector, computing its norm once.
    pub fn new(vector: Vector) -> NormedVector {
        let norm = vector.norm();
        NormedVector { vector, norm }
    }

    /// The wrapped vector.
    pub fn vector(&self) -> &Vector {
        &self.vector
    }

    /// The cached norm.
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Cosine against another cached-norm vector: one dot, zero norm passes.
    pub fn cosine(&self, other: &NormedVector) -> f32 {
        let denom = self.norm * other.norm;
        if denom == 0.0 {
            0.0
        } else {
            self.vector.dot(&other.vector) / denom
        }
    }

    /// Cosine against a **unit (or zero)** vector: one dot plus one divide
    /// by the cached norm. Only `unit` must satisfy the unit-norm invariant;
    /// the wrapped vector may have any length.
    pub fn cosine_unit(&self, unit: &Vector) -> f32 {
        debug_assert!(crate::kernel::is_unit_or_zero(unit.as_slice()));
        if self.norm == 0.0 {
            0.0
        } else {
            self.vector.dot(unit) / self.norm
        }
    }
}

impl Deref for Vector {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl Index<usize> for Vector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.as_slice()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        let b = Vector::from_vec(vec![1.0, 0.0]);
        assert_eq!(a.dot(&b), 3.0);
    }

    #[test]
    fn cosine_bounds() {
        let a = Vector::from_vec(vec![1.0, 0.0]);
        let b = Vector::from_vec(vec![0.0, 1.0]);
        assert_eq!(a.cosine(&b), 0.0);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        let z = Vector::zeros(2);
        assert_eq!(a.cosine(&z), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut a = Vector::from_vec(vec![3.0, 4.0]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-6);
        let mut z = Vector::zeros(3);
        z.normalize(); // must not NaN
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn l2_relates_to_cosine_for_unit_vectors() {
        let mut a = Vector::from_vec(vec![0.3, -0.7, 0.2]);
        let mut b = Vector::from_vec(vec![-0.1, 0.9, 0.4]);
        a.normalize();
        b.normalize();
        // ||a-b||^2 = 2 - 2 cos for unit vectors.
        let lhs = a.l2_sq(&b);
        let rhs = 2.0 - 2.0 * a.cosine(&b);
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn to_unit_borrows_unit_vectors_and_matches_normalize() {
        let raw = Vector::from_vec(vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4, 0.8, -0.5, 0.6]);
        let mut unit = raw.clone();
        unit.normalize();
        let scaled = raw.to_unit();
        assert!(matches!(scaled, Cow::Owned(_)));
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scaled), bits(&unit));
        assert!(matches!(unit.to_unit(), Cow::Borrowed(_)));
        assert!(matches!(Vector::zeros(4).to_unit(), Cow::Borrowed(_)));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Vector::zeros(2);
        a.add_scaled(&Vector::from_vec(vec![1.0, 2.0]), 0.5);
        assert_eq!(a.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn dot_unit_equals_cosine_on_unit_vectors() {
        let mut a = Vector::from_vec(vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4, 0.8, -0.5, 0.6]);
        let mut b = Vector::from_vec(vec![-0.1, 0.9, 0.4, -0.3, 0.7, 0.2, -0.6, 0.5, 0.1]);
        a.normalize();
        b.normalize();
        assert!((a.dot_unit(&b) - a.cosine(&b)).abs() < 1e-6);
    }

    #[test]
    fn normed_vector_caches_norm_and_matches_cosine() {
        let a = Vector::from_vec(vec![3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let b = Vector::from_vec(vec![1.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]);
        let na = NormedVector::new(a.clone());
        let nb = NormedVector::new(b.clone());
        assert_eq!(na.norm(), a.norm());
        assert!((na.cosine(&nb) - a.cosine(&b)).abs() < 1e-6);
        // Unit path agrees too.
        let mut bu = b.clone();
        bu.normalize();
        assert!((na.cosine_unit(&bu) - a.cosine(&b)).abs() < 1e-6);
        // Zero vectors stay well-defined.
        let z = NormedVector::new(Vector::zeros(9));
        assert_eq!(z.cosine(&na), 0.0);
        assert_eq!(z.cosine_unit(&bu), 0.0);
        assert_eq!(na.cosine_unit(&Vector::zeros(9)), 0.0);
    }
}
