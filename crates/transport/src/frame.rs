//! Length-prefixed framing over a byte stream.
//!
//! Wire format: `u32` big-endian payload length, then the payload. The
//! maximum frame size bounds memory per connection; oversized frames are
//! rejected *before* allocation, so a malicious or corrupt length prefix
//! cannot OOM the process.
//!
//! A frame costs its reader one wake-up at most: [`write_frame`] sends
//! prefix and parts in one vectored write, and a [`FrameReader`] polls a
//! socket for [`POLL_BEFORE_PARK`] before it parks, so the time of a
//! request–reply exchange does not depend on which CPUs the two ends run
//! on. It polls with reads into a small read-ahead, not with probes: a
//! small frame, prefix and payload, costs one read, and one already read
//! ahead (a pipelining peer) costs none. A long frame copies only its
//! read-ahead part; the rest is read straight into its own buffer.
//! [`read_frame`] is the same reader over any `Read`.

use crate::error::{Result, TransportError};
use crate::wire::SharedBytes;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default maximum frame payload: 256 MiB (a full GPT-J layer group fits;
/// a corrupt length prefix does not).
pub const MAX_FRAME: usize = 256 << 20;

/// Write one frame whose payload is `parts` in order, each from where it
/// lies (a caller with one buffer passes one part), and return the bytes
/// written, prefix included.
pub fn write_frame<W: Write>(w: &mut W, parts: &[&[u8]]) -> Result<u64> {
    let len = parts.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    // Prefix and parts leave in one write: on a TCP_NODELAY socket two
    // writes are two segments, and the reader can be woken for the prefix,
    // find no payload yet and park a second time. Empty parts stay out: a
    // write of nothing but them would return 0, a peer taking no bytes.
    let prefix = (len as u32).to_be_bytes();
    let mut slices: Vec<IoSlice> = std::iter::once(&prefix[..])
        .chain(parts.iter().copied())
        .filter(|p| !p.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(len as u64 + 4)
}

/// How long a socket reader polls for the next frame before it parks in
/// the blocking read.
///
/// A parked reader costs its peer a cross-CPU wake-up per frame (an
/// interrupt, and in a virtual machine a halted vCPU to bring back), so
/// the cost of a small call depends on whether the kernel happens to run
/// the two ends of a session on one CPU or on two: 60 to 70 µs a
/// round-trip against 16 µs over loopback on the two-vCPU build guest, and
/// runs of one binary that differ by half. A reply to a small call arrives
/// well inside this budget, so polling first makes an exchange cost the
/// same under either placement; a reader with nothing to read gives the
/// CPU up between reads and parks when the budget is spent.
pub const POLL_BEFORE_PARK: Duration = Duration::from_micros(100);

/// Bytes a [`FrameReader`] reads ahead: a small frame arrives in one read.
const READ_AHEAD: usize = 16 << 10;

/// Reads the frames of one byte stream in order. What a read takes past
/// the end of a frame (a peer may pipeline) is kept for the next one, so a
/// stream keeps one reader for as long as it is read.
pub struct FrameReader {
    /// Bytes read and not yet handed out are `ahead[start..end]`.
    ahead: Box<[u8]>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::reading_ahead(READ_AHEAD)
    }
}

impl FrameReader {
    fn reading_ahead(len: usize) -> FrameReader {
        let ahead = vec![0; len].into_boxed_slice();
        FrameReader {
            ahead,
            start: 0,
            end: 0,
        }
    }

    /// Read the next frame from `stream`, this reader's socket. Unless the
    /// frame is already read ahead, the socket is read without blocking
    /// for up to [`POLL_BEFORE_PARK`], until a read returns bytes or end of
    /// stream, then with blocking (and its timeouts) for whatever is
    /// missing. The socket is blocking again on every return.
    pub fn recv(&mut self, stream: &mut TcpStream) -> Result<SharedBytes> {
        let held = &self.ahead[self.start..self.end];
        let whole = held
            .split_first_chunk()
            .is_some_and(|(len, rest)| u32::from_be_bytes(*len) as usize <= rest.len());
        if !whole {
            stream.set_nonblocking(true)?;
            let start = Instant::now();
            let polled = loop {
                match self.fill(stream) {
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if start.elapsed() >= POLL_BEFORE_PARK {
                            break Ok(0);
                        }
                        std::thread::yield_now();
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    done => break done,
                }
            };
            stream.set_nonblocking(false)?;
            polled?;
        }
        self.read(stream)
    }

    /// One read into the free end of the read-ahead, after moving the held
    /// bytes to its front; the count read, 0 at end of stream.
    fn fill<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.ahead.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        let n = r.read(&mut self.ahead[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Read the next frame from `r`, blocking: the prefix through the
    /// read-ahead, then the payload into memory that is not zeroed first,
    /// the read-ahead's part copied and the rest read straight into it.
    fn read<R: Read>(&mut self, r: &mut R) -> Result<SharedBytes> {
        while self.end - self.start < 4 {
            match self.fill(r) {
                Ok(0) => return Err(TransportError::ConnectionClosed),
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e.into()),
                _ => {}
            }
        }
        let prefix = self.ahead[self.start..].first_chunk();
        let len = u32::from_be_bytes(*prefix.expect("the loop above holds four bytes")) as usize;
        self.start += 4;
        if len > MAX_FRAME {
            return Err(TransportError::FrameTooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        let held = len.min(self.end - self.start);
        let mut payload = Vec::with_capacity(len);
        payload.extend_from_slice(&self.ahead[self.start..self.start + held]);
        self.start += held;
        let rest = len - held;
        if r.by_ref().take(rest as u64).read_to_end(&mut payload)? < rest {
            return Err(TransportError::ConnectionClosed);
        }
        Ok(payload.into())
    }
}

/// Read one frame from any byte stream, with the [`FrameReader`] reading
/// ahead no further than the prefix, so nothing past the frame is taken.
/// A stream that ends inside it is [`TransportError::ConnectionClosed`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<SharedBytes> {
    FrameReader::reading_ahead(4).read(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Response, ResponseBody, TensorPayload};
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b"hello"]).unwrap();
        write_frame(&mut buf, &[]).unwrap();
        write_frame(&mut buf, &[&[0xAB; 600], b"", &[0xAB; 400]]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().len(), 0);
        assert_eq!(read_frame(&mut cur).unwrap().len(), 1000);
    }

    /// A writer that takes at most three bytes a call and reports an
    /// interrupt before every other one.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_send_the_whole_frame() {
        // Codec bytes, two payloads and an empty one, written by handle.
        let reply = Response {
            id: 5,
            body: ResponseBody::Tensors(vec![
                TensorPayload::from_f32(vec![3], &[1.0, -2.0, 0.5]),
                TensorPayload::from_f32(vec![0], &[]),
                TensorPayload::from_i64(vec![2], &[-1, i64::MAX]),
            ]),
        };
        let frame = reply.to_frame().unwrap();
        let mut slow = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut slow, &frame.parts()).unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &[&reply.encode().unwrap()]).unwrap();
        assert_eq!(slow.out, whole);
        let back = read_frame(&mut Cursor::new(slow.out)).unwrap();
        assert_eq!(Response::decode(back).unwrap(), reply);
    }

    /// Two ends of a loopback connection, `tx` writing segments as given.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        tx.set_nodelay(true).unwrap();
        let (rx, _) = listener.accept().unwrap();
        (tx, rx)
    }

    /// `payload` framed, prefix and all, as one buffer.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, &[payload]).unwrap();
        out
    }

    /// True when a read of `rx` blocks until its read timeout.
    fn blocks(rx: &mut TcpStream, timeout: Duration) -> bool {
        rx.set_read_timeout(Some(timeout)).unwrap();
        let start = Instant::now();
        let timed_out = matches!(rx.read(&mut [0]), Err(e) if e.kind() == ErrorKind::WouldBlock);
        timed_out && start.elapsed() >= timeout
    }

    #[test]
    fn recv_polls_then_parks_and_leaves_the_socket_blocking() {
        let (mut tx, mut rx) = socket_pair();
        let mut reader = FrameReader::default();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();

        // Nothing to read: the poll gives up and the blocking read's own
        // timeout reports it, after the timeout and not after the budget.
        let start = Instant::now();
        assert!(matches!(
            reader.recv(&mut rx),
            Err(TransportError::Timeout { .. })
        ));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(blocks(&mut rx, Duration::from_millis(5)));

        // A frame already there, then one that arrives after the budget.
        write_frame(&mut tx, &[b"ready"]).unwrap();
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], b"ready");
        assert!(blocks(&mut rx, Duration::from_millis(5)));
        rx.set_read_timeout(None).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(10 * POLL_BEFORE_PARK);
            write_frame(&mut tx, &[b"late"]).unwrap();
        });
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], b"late");
        late.join().unwrap();
        // The writer hung up: end of stream, not a busy loop.
        assert!(matches!(
            reader.recv(&mut rx),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn frames_sent_in_one_write_are_each_delivered_in_order() {
        let (mut tx, mut rx) = socket_pair();
        let mut reader = FrameReader::default();
        let frames = [&b"first"[..], b"", &[7; 300], b"last"];
        tx.write_all(&frames.map(framed).concat()).unwrap();
        for frame in frames {
            assert_eq!(&reader.recv(&mut rx).unwrap()[..], frame);
        }
        drop(tx);
        assert!(matches!(
            reader.recv(&mut rx),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn a_frame_trickled_a_byte_at_a_time_arrives_whole() {
        let (mut tx, mut rx) = socket_pair();
        let mut reader = FrameReader::default();
        let bytes = [framed(b"one byte at a time"), framed(b"next")].concat();
        let trickle = std::thread::spawn(move || {
            for b in bytes {
                tx.write_all(&[b]).unwrap();
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], b"one byte at a time");
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], b"next");
        trickle.join().unwrap();
    }

    #[test]
    fn a_frame_longer_than_the_read_ahead_arrives_bit_exact() {
        let (mut tx, mut rx) = socket_pair();
        let mut reader = FrameReader::default();
        let long: Vec<u8> = (0..5 * READ_AHEAD + 3)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        // The frame after it shares the write, so the read-ahead that ends
        // the long frame may hold the start of the next.
        let bytes = [framed(&long), framed(b"after")].concat();
        let writer = std::thread::spawn(move || tx.write_all(&bytes).unwrap());
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], &long[..]);
        assert_eq!(&reader.recv(&mut rx).unwrap()[..], b"after");
        writer.join().unwrap();
    }

    #[test]
    fn a_hang_up_inside_a_frame_is_closed() {
        let whole = framed(&[9; 100]);
        for cut in [2, 4 + 50] {
            let (mut tx, mut rx) = socket_pair();
            tx.write_all(&whole[..cut]).unwrap();
            drop(tx);
            assert!(
                matches!(
                    FrameReader::default().recv(&mut rx),
                    Err(TransportError::ConnectionClosed)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn an_oversized_prefix_is_refused_by_the_socket_reader() {
        let (mut tx, mut rx) = socket_pair();
        tx.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert!(matches!(
            FrameReader::default().recv(&mut rx),
            Err(TransportError::FrameTooLarge { len, .. }) if len == u32::MAX as usize
        ));
    }

    /// A reader that hands out one byte a call, with an interrupt
    /// before every other one.
    struct OneByte<'a>(&'a [u8], usize);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            if self.1.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let Some((first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            match buf.first_mut() {
                Some(b) => *b = *first,
                None => return Ok(0),
            }
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn read_frame_takes_nothing_past_its_frame() {
        let bytes = [framed(b"abc"), framed(b"de")].concat();
        let mut slow = OneByte(&bytes, 0);
        assert_eq!(&read_frame(&mut slow).unwrap()[..], b"abc");
        assert_eq!(&read_frame(&mut slow).unwrap()[..], b"de");
        assert!(matches!(
            read_frame(&mut slow),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn truncated_stream_reports_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b"hello"]).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn a_peer_that_hangs_up_inside_a_frame_is_closed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        // A prefix promising 1 MiB, ten bytes of it, and the writer is gone.
        tx.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
        tx.write_all(&[7; 10]).unwrap();
        drop(tx);
        assert!(matches!(
            read_frame(&mut rx),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn empty_stream_is_closed() {
        let mut cur = Cursor::new(Vec::new());
        assert!(matches!(
            read_frame(&mut cur),
            Err(TransportError::ConnectionClosed)
        ));
    }
}
