//! The send buffer: queues of the application's own `Bytes` chunks.
//!
//! Queueing moves a handle, a segment cut inside one chunk is a slice of
//! it, and an ACK pops or trims the oldest slice: constant work per byte,
//! however much is in flight. Callers cut segments over the buffer as one
//! byte stream, never at chunk edges, so the same bytes give the same
//! segments however chunked; only a segment straddling two chunks is copied.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// Sent-but-unacked bytes followed by queued-unsent bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SendQueue {
    /// Transmitted and unacked: the segments as cut, oldest first.
    inflight: VecDeque<Bytes>,
    /// Never transmitted: the chunks as queued.
    unsent: VecDeque<Bytes>,
    inflight_len: usize,
    unsent_len: usize,
}

impl SendQueue {
    /// Total bytes held (unacked + unsent).
    pub(crate) fn len(&self) -> usize {
        self.inflight_len + self.unsent_len
    }

    /// Bytes never transmitted yet.
    pub(crate) fn unsent(&self) -> usize {
        self.unsent_len
    }

    pub(crate) fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.unsent_len += chunk.len();
            self.unsent.push_back(chunk);
        }
    }

    /// Releases the oldest `n` bytes, clamped to what was transmitted.
    pub(crate) fn ack(&mut self, n: usize) {
        let n = n.min(self.inflight_len);
        self.inflight_len -= n;
        drop_front(&mut self.inflight, n);
    }

    /// The oldest `len` unacked bytes, for retransmission.
    pub(crate) fn head(&self, len: usize) -> Option<Bytes> {
        front(&self.inflight, len)
    }

    /// The next `len` never-transmitted bytes, which become in flight.
    pub(crate) fn take_unsent(&mut self, len: usize) -> Option<Bytes> {
        let segment = front(&self.unsent, len)?;
        drop_front(&mut self.unsent, len);
        self.unsent_len -= len;
        self.inflight_len += len;
        self.inflight.push_back(segment.clone());
        Some(segment)
    }
}

/// The first `len` bytes of `q`, `None` if it holds fewer: a view of the
/// front chunk when they lie inside it, else a gathered copy.
fn front(q: &VecDeque<Bytes>, len: usize) -> Option<Bytes> {
    let first = q.front()?;
    if len <= first.len() {
        return Some(first.slice(..len));
    }
    let mut out = BytesMut::with_capacity(len);
    for chunk in q {
        let take = (len - out.len()).min(chunk.len());
        out.extend_from_slice(chunk.get(..take)?);
        if out.len() == len {
            return Some(out.freeze());
        }
    }
    None
}

/// Removes the first `n` bytes of `q`.
fn drop_front(q: &mut VecDeque<Bytes>, mut n: usize) {
    while n > 0 {
        let Some(first) = q.front_mut() else {
            return;
        };
        if n < first.len() {
            let _ = first.split_to(n);
            return;
        }
        n -= first.len();
        q.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(chunks: &[&'static [u8]]) -> SendQueue {
        let mut q = SendQueue::default();
        for c in chunks {
            q.push(Bytes::from_static(c));
        }
        q
    }

    #[test]
    fn reads_slice_inside_a_chunk_and_gather_across() {
        let mut q = queue(&[b"abcd", b"", b"efgh", b"ij"]);
        assert_eq!((q.len(), q.unsent()), (10, 10));
        assert_eq!(q.take_unsent(3).unwrap(), "abc");
        assert_eq!(q.take_unsent(3).unwrap(), "def", "straddles two chunks");
        assert_eq!(q.take_unsent(4).unwrap(), "ghij", "ends on the last byte");
        assert_eq!(q.unsent(), 0);
        assert!(q.take_unsent(1).is_none());
        assert_eq!(q.head(10).unwrap(), "abcdefghij");
        assert!(q.head(11).is_none());
    }

    #[test]
    fn ack_trims_mid_chunk_on_boundary_and_clamps() {
        let mut q = queue(&[b"abcd", b"efgh", b"ij"]);
        q.take_unsent(6).unwrap();
        q.ack(2); // mid-chunk
        assert_eq!(q.head(4).unwrap(), "cdef");
        q.ack(2); // exactly to a chunk boundary: first chunk gone
        assert_eq!(q.head(2).unwrap(), "ef");
        q.ack(100); // clamped to the 2 bytes still in flight
        assert_eq!((q.len(), q.unsent()), (4, 4));
        assert_eq!(q.take_unsent(4).unwrap(), "ghij");
        q.ack(4);
        assert_eq!((q.len(), q.inflight.len(), q.unsent.len()), (0, 0, 0));
    }

    #[test]
    fn segment_inside_a_chunk_shares_its_allocation() {
        let chunk = Bytes::from(vec![7u8; 100]);
        let base = chunk.as_ptr() as usize;
        let mut q = SendQueue::default();
        q.push(chunk);
        q.take_unsent(10).unwrap();
        let seg = q.take_unsent(40).unwrap();
        assert_eq!(seg.as_ptr() as usize, base + 10);
    }
}
