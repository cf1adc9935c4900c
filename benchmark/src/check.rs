//! Correctness of what a pass generated: a stream digest to compare runs
//! with, and a replay of seeded requests through the sequential
//! single-tenant decoder, which every serve path must match token for
//! token.

use speedllm_llama::forward::Transformer;
use speedllm_llama::generate::{DecodeSession, GenerateOptions};
use speedllm_llama::sampler::Sampler;
use speedllm_serve::engine::Request;

use crate::drive::{Finished, Plan};
use crate::spec::CHECKED_REQUESTS;

/// FNV-1a over a stream of 64-bit words, byte by byte, little-endian.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mixes one word in.
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of `(id, tokens)` over the given streams, which must be in id
/// order. Token counts are mixed in so that stream boundaries matter.
#[must_use]
pub fn stream_digest<'a>(streams: impl IntoIterator<Item = (u64, &'a [u32])>) -> u64 {
    let mut h = Fnv1a::default();
    for (id, tokens) in streams {
        h.write(id);
        h.write(tokens.len() as u64);
        for &t in tokens {
            h.write(u64::from(t));
        }
    }
    h.finish()
}

/// Digest of the checked requests (ids `0..CHECKED_REQUESTS`) of a pass,
/// or `None` when one of them did not complete. Passes of different
/// length and workloads sharing a request list compare equal on it.
#[must_use]
pub fn head_digest(finished: &[Finished]) -> Option<u64> {
    let mut head: Vec<&Finished> = finished
        .iter()
        .filter(|f| (f.completion.id as usize) < CHECKED_REQUESTS)
        .collect();
    head.sort_by_key(|f| f.completion.id);
    let complete = head
        .iter()
        .enumerate()
        .all(|(i, f)| f.completion.id == i as u64);
    (complete && !head.is_empty()).then(|| {
        stream_digest(
            head.iter()
                .map(|f| (f.completion.id, f.completion.tokens.as_slice())),
        )
    })
}

/// What the sequential decoder generates for `req` on `model`.
#[must_use]
pub fn oracle_tokens(model: &mut Transformer, req: &Request) -> Vec<u32> {
    let mut sampler = Sampler::new(req.sampler, req.seed);
    let mut session = DecodeSession::begin(
        model,
        &req.prompt,
        GenerateOptions {
            max_new_tokens: req.max_new_tokens,
            stop_at_eos: req.stop_at_eos,
        },
    );
    std::iter::from_fn(|| session.step(&mut sampler)).collect()
}

/// Replays the checked requests of `plan` through the sequential decoder
/// and returns one message per request whose served stream differs or is
/// missing.
#[must_use]
pub fn replay_mismatches(
    model: &mut Transformer,
    plan: &Plan,
    finished: &[Finished],
) -> Vec<String> {
    let mut misses = Vec::new();
    for req in plan.requests.iter().take(CHECKED_REQUESTS) {
        match finished.iter().find(|f| f.completion.id == req.id) {
            None => misses.push(format!("request {} did not complete", req.id)),
            Some(f) => {
                let want = oracle_tokens(model, req);
                if f.completion.tokens != want {
                    misses.push(format!(
                        "request {}: served {} tokens differ from the sequential decoder's {}",
                        req.id,
                        f.completion.tokens.len(),
                        want.len()
                    ));
                }
            }
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_a_reference_value() {
        // FNV-1a 64 of the empty input is the offset basis; of the eight
        // little-endian bytes of 0x61 it is the value below (computed
        // with an independent implementation).
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.write(0x61);
        assert_eq!(h.finish(), 0x6926_124a_7b14_33c4);
    }

    #[test]
    fn digest_sees_ids_tokens_and_boundaries() {
        let a = stream_digest([(0, &[1u32, 2][..]), (1, &[3][..])]);
        assert_eq!(a, stream_digest([(0, &[1u32, 2][..]), (1, &[3][..])]));
        assert_ne!(a, stream_digest([(0, &[1u32][..]), (1, &[2, 3][..])]));
        assert_ne!(a, stream_digest([(0, &[1u32, 2][..]), (2, &[3][..])]));
        assert_ne!(a, stream_digest([(0, &[1u32, 2][..]), (1, &[4][..])]));
    }
}
