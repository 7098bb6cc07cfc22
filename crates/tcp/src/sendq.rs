//! The send buffer: the application's own `Bytes` chunks, the acked
//! offset into the first one, a cursor to the first unsent byte, and the
//! in-flight and unsent lengths.
//!
//! Nothing is kept per segment. Queueing moves a handle, cutting a segment
//! moves a cursor and hands out the bytes it covers, and an ACK moves the
//! acked offset and pops only chunks it has fully passed: constant work
//! per segment, however much is in flight. Callers cut segments over the
//! buffer as one byte stream, never at chunk edges, so the same bytes give
//! the same segments however chunked.
//!
//! A cut that lies inside one chunk is a view of that chunk (no byte is
//! copied, the chunk's block is shared); only a cut that spans chunks is
//! copied, once, into a block of its own.

use std::collections::VecDeque;

use yoda_netsim::Bytes;

/// Sent-but-unacked bytes followed by queued-unsent bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SendQueue {
    /// Every chunk still holding an unacked byte, oldest first; none empty.
    chunks: VecDeque<Bytes>,
    /// Acked bytes still at the front of the first chunk.
    acked: usize,
    /// Transmitted-and-unacked bytes, from `acked` on.
    inflight: usize,
    /// Never-transmitted bytes, from `next` on.
    unsent: usize,
    /// The first unsent byte: a chunk index and an offset inside that
    /// chunk, or `(chunks.len(), 0)` once every byte has been sent.
    next: (usize, usize),
}

impl SendQueue {
    /// Total bytes held (unacked + unsent).
    pub(crate) fn len(&self) -> usize {
        self.inflight + self.unsent
    }

    /// Bytes never transmitted yet.
    pub(crate) fn unsent(&self) -> usize {
        self.unsent
    }

    pub(crate) fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.unsent += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Releases the oldest `n` bytes, clamped to what was transmitted.
    pub(crate) fn ack(&mut self, n: usize) {
        let n = n.min(self.inflight);
        self.inflight -= n;
        self.acked += n;
        // A fully acked chunk was fully sent, so `next` lies past it.
        while let Some(front) = self.chunks.front() {
            if self.acked < front.len() {
                break;
            }
            self.acked -= front.len();
            self.chunks.pop_front();
            self.next.0 -= 1;
        }
    }

    /// The oldest `len` unacked bytes, for retransmission; `None` if fewer
    /// are in flight.
    pub(crate) fn head(&self, len: usize) -> Option<Bytes> {
        (len <= self.inflight).then(|| cut(&self.chunks, (0, self.acked), len))
    }

    /// The next `len` never-transmitted bytes, which become in flight;
    /// `None` if fewer are queued.
    pub(crate) fn take_unsent(&mut self, len: usize) -> Option<Bytes> {
        if len > self.unsent {
            return None;
        }
        let at = self.next;
        let (mut chunk, mut offset, mut left) = (at.0, at.1, len);
        while let Some(c) = self.chunks.get(chunk) {
            let rest = c.len() - offset;
            if left < rest {
                offset += left;
                break;
            }
            left -= rest;
            (chunk, offset) = (chunk + 1, 0);
        }
        self.next = (chunk, offset);
        self.unsent -= len;
        self.inflight += len;
        Some(cut(&self.chunks, at, len))
    }
}

/// The `len` bytes of `chunks` from chunk `at.0`, offset `at.1`, on: a
/// view of that chunk when they lie inside it, else one block copied from
/// the chunks they span.
fn cut(chunks: &VecDeque<Bytes>, at @ (chunk, skip): (usize, usize), len: usize) -> Bytes {
    match chunks.get(chunk) {
        _ if len == 0 => Bytes::new(),
        Some(c) if skip + len <= c.len() => c.slice(skip..skip + len),
        _ => Bytes::concat(parts(chunks, at, len)),
    }
}

/// A borrowed slice of each chunk that the `len` bytes from chunk `at.0`,
/// offset `at.1`, on span.
fn parts(
    chunks: &VecDeque<Bytes>,
    (chunk, mut skip): (usize, usize),
    len: usize,
) -> impl Iterator<Item = &[u8]> + Clone {
    chunks
        .range(chunk.min(chunks.len())..)
        .scan(len, move |left, c| {
            if *left == 0 {
                return None;
            }
            let part = c.get(std::mem::take(&mut skip)..)?;
            let part = part.get(..part.len().min(*left))?;
            *left -= part.len();
            Some(part)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Rng;

    /// Model test against the plain `Vec<u8>` of the stream: random
    /// chunks (empty ones included), interleaved cuts, retransmitted heads
    /// and acks — mid-chunk, on a chunk edge, and beyond what is in flight,
    /// which clamps. Every range handed out must hold the stream's bytes
    /// at its offset, and be a view of its chunk exactly when it lies in
    /// one, and `len()`/`unsent()` must match after every step.
    #[test]
    fn matches_the_plain_stream() {
        let mut partial_ack_heads_over_an_edge = 0;
        let (mut views, mut copies) = (0u32, 0u32);
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut q = SendQueue::default();
            let mut stream: Vec<u8> = Vec::new();
            // Chunk edges as stream offsets, the chunks as pushed, and the
            // offsets of the first unacked and the first unsent byte.
            let (mut edges, mut pushed, mut acked, mut sent) =
                (vec![0usize], Vec::new(), 0usize, 0usize);
            // Is `got`, the `len` bytes at stream offset `at`, a view of the
            // chunk they lie in (`Some(true)`), a copy when they span
            // chunks (`Some(false)`), or neither (`None`)?
            let shape = |edges: &[usize], pushed: &[Bytes], at: usize, got: &Bytes| {
                if got.is_empty() {
                    return Some(true);
                }
                let i = edges.iter().rposition(|&e| e <= at)?;
                let inside = at + got.len() <= *edges.get(i + 1)?;
                let view = pushed.get(i)?.as_ptr().wrapping_add(at - edges[i]) == got.as_ptr();
                (inside == view).then_some(inside)
            };
            for step in 0..400 {
                let ctx = format!("seed {seed} step {step}");
                match rng.gen_range(0..8u64) {
                    0 | 1 => {
                        let len = match rng.gen_range(0..4u64) {
                            0 => 0,
                            1 => rng.gen_range(1..=3usize),
                            _ => rng.gen_range(1..=4000usize),
                        };
                        let at = stream.len();
                        stream.extend((at..at + len).map(|i| (i * 7 % 251) as u8));
                        let chunk = Bytes::copy_from_slice(&stream[at..]);
                        q.push(chunk.clone());
                        if len > 0 {
                            pushed.push(chunk);
                            edges.push(stream.len());
                        }
                    }
                    2..=4 => {
                        let len = rng.gen_range(0..=1460usize);
                        let got = q.take_unsent(len);
                        if sent + len > stream.len() {
                            assert_eq!(got, None, "{ctx}: cut beyond the queue");
                        } else {
                            let want = &stream[sent..sent + len];
                            assert_eq!(got.as_deref(), Some(want), "{ctx}: cut at {sent}");
                            let got = got.unwrap_or_default();
                            match shape(&edges, &pushed, sent, &got) {
                                _ if len == 0 => {}
                                Some(true) => views += 1,
                                Some(false) => copies += 1,
                                None => panic!("{ctx}: cut at {sent} is no view of its chunk"),
                            }
                            sent += len;
                        }
                    }
                    5 => {
                        let len = rng.gen_range(0..=1460usize);
                        let got = q.head(len);
                        if acked + len > sent {
                            assert_eq!(got, None, "{ctx}: head beyond what is in flight");
                        } else {
                            let want = &stream[acked..acked + len];
                            assert_eq!(got.as_deref(), Some(want), "{ctx}: head at {acked}");
                            let got = got.unwrap_or_default();
                            assert!(
                                shape(&edges, &pushed, acked, &got).is_some(),
                                "{ctx}: head at {acked} is no view of its chunk"
                            );
                            let spans_edge = edges.iter().any(|&e| e > acked && e < acked + len);
                            partial_ack_heads_over_an_edge +=
                                (spans_edge && !edges.contains(&acked)) as u32;
                        }
                    }
                    _ => {
                        let edge = edges.iter().copied().find(|&e| e > acked && e <= sent);
                        let to = match (rng.gen_range(0..4u64), edge) {
                            (0, Some(e)) => e,
                            (1, _) => sent + rng.gen_range(1..=100usize),
                            _ => rng.gen_range(acked..=sent),
                        };
                        q.ack(to - acked);
                        acked = to.min(sent);
                    }
                }
                assert_eq!(q.len(), stream.len() - acked, "{ctx}: len");
                assert_eq!(q.unsent(), stream.len() - sent, "{ctx}: unsent");
            }
        }
        assert!(
            partial_ack_heads_over_an_edge > 0,
            "no retransmitted head spanned a chunk edge after a mid-chunk ack"
        );
        assert!(
            views > 1000 && copies > 1000,
            "{views} views, {copies} copies"
        );
    }
}
