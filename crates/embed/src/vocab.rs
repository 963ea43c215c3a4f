//! An interned token vocabulary: token → row of one contiguous `f32` slab.
//!
//! [`TokenEmbedder`] is context-free — a token's vector is a pure function
//! of its string — so every distinct token needs embedding exactly once.
//! The vocabulary interns each token it is shown, embeds it on first sight,
//! and appends the vector to a slab; from then on the token *is* its row id.
//! A document becomes a handful of `u32`s and late interaction reads rows
//! instead of re-embedding text (DESIGN.md §18).
//!
//! Append-only: ids and rows are never reassigned, so an id stays valid for
//! the vocabulary's whole life. Interning is safe from any thread; two
//! threads racing on a new token agree on one id and one row.

use std::sync::{RwLock, RwLockReadGuard};
use verifai_text::Interner;

use crate::token_embed::TokenEmbedder;

#[derive(Debug, Default)]
struct Rows {
    ids: Interner,
    /// `ids.len()` rows of `dim` components; row `i` is the embedding of the
    /// token interned as `i`.
    slab: Vec<f32>,
}

/// Append-only token → embedding-row vocabulary over one [`TokenEmbedder`].
#[derive(Debug)]
pub struct TokenVocab {
    encoder: TokenEmbedder,
    rows: RwLock<Rows>,
}

impl TokenVocab {
    /// An empty vocabulary embedding with `encoder`.
    pub fn new(encoder: TokenEmbedder) -> TokenVocab {
        TokenVocab {
            encoder,
            rows: RwLock::new(Rows::default()),
        }
    }

    /// The encoder whose vectors the rows hold.
    pub fn encoder(&self) -> &TokenEmbedder {
        &self.encoder
    }

    // A panic while the exclusive lock is held can only come from the
    // encoder, between interning a token and appending its row; the rows
    // are then unusable and every later access reports the poisoning.
    fn read(&self) -> RwLockReadGuard<'_, Rows> {
        self.rows.read().expect("token vocabulary lock poisoned")
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.read().ids.len()
    }

    /// True when no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of `tokens`, in order, interning (and embedding) the ones not
    /// seen before. Known tokens resolve under the shared lock; the
    /// exclusive lock is taken only from the first unseen token on.
    pub fn intern_all(&self, tokens: &[impl AsRef<str>]) -> Vec<u32> {
        let mut ids = Vec::with_capacity(tokens.len());
        {
            let rows = self.read();
            ids.extend(tokens.iter().map_while(|t| rows.ids.get(t.as_ref())));
        }
        if ids.len() < tokens.len() {
            let mut rows = self.rows.write().expect("token vocabulary lock poisoned");
            for token in &tokens[ids.len()..] {
                let token = token.as_ref();
                let (id, added) = rows.ids.intern(token);
                if added {
                    let vector = self.encoder.embed_token(token);
                    rows.slab.extend_from_slice(vector.as_slice());
                }
                ids.push(id);
            }
        }
        ids
    }

    /// Shared access to the embedding rows, for a scoring pass that reads
    /// many of them. Interning blocks while the guard lives.
    pub fn rows(&self) -> VocabRows<'_> {
        VocabRows {
            rows: self.read(),
            dim: self.encoder.dim(),
        }
    }
}

/// A read guard over a [`TokenVocab`]'s embedding rows.
pub struct VocabRows<'a> {
    rows: RwLockReadGuard<'a, Rows>,
    dim: usize,
}

impl VocabRows<'_> {
    /// Number of rows (= tokens interned when the guard was taken).
    pub fn len(&self) -> usize {
        self.rows.ids.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `token`, if it was interned before the guard was taken:
    /// its row is then [`TokenEmbedder::embed_token`]`(token)`, bit for bit.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.rows.ids.get(token)
    }

    /// The embedding of the token interned as `id`. Panics on an id this
    /// vocabulary never handed out.
    pub fn row(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.rows.slab[start..start + self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn tokens(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn rows_equal_embed_token_and_ids_are_stable() {
        let vocab = TokenVocab::new(TokenEmbedder::new(64, 0xc01b));
        let first = vocab.intern_all(&tokens(&["stomp", "the", "yard", "the"]));
        assert_eq!(first, vec![0, 1, 2, 1]);
        let again = vocab.intern_all(&tokens(&["yard", "meagan", "stomp"]));
        assert_eq!(again, vec![2, 3, 0]);
        assert_eq!(vocab.len(), 4);
        let rows = vocab.rows();
        for (id, token) in ["stomp", "the", "yard", "meagan"].iter().enumerate() {
            assert_eq!(
                rows.row(id as u32),
                vocab.encoder().embed_token(token).as_slice()
            );
        }
    }

    /// Two threads intern overlapping token streams at the same moment (a
    /// barrier releases them together, each walking the shared tokens in a
    /// different order). Whatever the interleaving, a token has one id, both
    /// threads saw it, and its row is exactly `embed_token`'s vector.
    #[test]
    fn concurrent_interning_agrees_on_ids_and_vectors() {
        let vocab = TokenVocab::new(TokenEmbedder::new(64, 0xc01b));
        let shared: Vec<String> = (0..200).map(|i| format!("token{i}")).collect();
        let reversed: Vec<String> = shared.iter().rev().cloned().collect();
        let barrier = Barrier::new(2);
        let (forward_ids, backward_ids) = std::thread::scope(|scope| {
            let forward = scope.spawn(|| {
                barrier.wait();
                shared
                    .chunks(7)
                    .flat_map(|chunk| vocab.intern_all(chunk))
                    .collect::<Vec<u32>>()
            });
            let backward = scope.spawn(|| {
                barrier.wait();
                reversed
                    .chunks(5)
                    .flat_map(|chunk| vocab.intern_all(chunk))
                    .collect::<Vec<u32>>()
            });
            (
                forward.join().expect("forward interner"),
                backward.join().expect("backward interner"),
            )
        });
        assert_eq!(vocab.len(), shared.len());
        let backward_ids: Vec<u32> = backward_ids.into_iter().rev().collect();
        assert_eq!(forward_ids, backward_ids, "threads disagree on an id");
        let mut distinct = forward_ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), shared.len(), "two tokens share an id");
        assert_eq!(vocab.intern_all(&shared), forward_ids, "ids moved");
        let rows = vocab.rows();
        for (token, &id) in shared.iter().zip(&forward_ids) {
            assert_eq!(
                rows.row(id),
                vocab.encoder().embed_token(token).as_slice(),
                "row of {token}"
            );
        }
    }
}
