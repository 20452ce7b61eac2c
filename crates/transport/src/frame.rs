//! Length-prefixed framing over a byte stream.
//!
//! Wire format: `u32` big-endian payload length, then the payload. The
//! maximum frame size bounds memory per connection; oversized frames are
//! rejected *before* allocation, so a malicious or corrupt length prefix
//! cannot OOM the process.
//!
//! A frame costs its reader one wake-up at most: [`write_frame`] sends
//! prefix and parts in one vectored write, and [`recv_frame`] polls a
//! socket for [`POLL_BEFORE_PARK`] before it parks, so the time of a
//! request–reply exchange does not depend on which CPUs the two ends run on.

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
/// CPU up between probes and parks when the budget is spent.
pub const POLL_BEFORE_PARK: Duration = Duration::from_micros(100);

/// Read one frame from a socket: poll for up to [`POLL_BEFORE_PARK`], then
/// [`read_frame`]. The socket is blocking again (timeouts included) before
/// the read, which reports end of stream and errors as it always did.
pub fn recv_frame(stream: &mut TcpStream) -> Result<SharedBytes> {
    stream.set_nonblocking(true)?;
    let start = Instant::now();
    let mut probe = [0u8; 1];
    while matches!(stream.peek(&mut probe), Err(e) if e.kind() == ErrorKind::WouldBlock)
        && start.elapsed() < POLL_BEFORE_PARK
    {
        std::thread::yield_now();
    }
    stream.set_nonblocking(false)?;
    read_frame(stream)
}

/// Read one frame into memory that is not zeroed first; a stream that ends
/// inside it is [`TransportError::ConnectionClosed`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<SharedBytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = Vec::with_capacity(len);
    if r.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(TransportError::ConnectionClosed);
    }
    Ok(payload.into())
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

    #[test]
    fn recv_frame_polls_then_parks_and_leaves_the_socket_blocking() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();

        // Nothing to read: the poll gives up and the blocking read's own
        // timeout reports it, after the timeout and not after the budget.
        let start = Instant::now();
        assert!(matches!(
            recv_frame(&mut rx),
            Err(TransportError::Timeout { .. })
        ));
        assert!(start.elapsed() >= Duration::from_millis(20));

        // A frame already there, then one that arrives after the budget.
        write_frame(&mut tx, &[b"ready"]).unwrap();
        assert_eq!(&recv_frame(&mut rx).unwrap()[..], b"ready");
        rx.set_read_timeout(None).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(10 * POLL_BEFORE_PARK);
            write_frame(&mut tx, &[b"late"]).unwrap();
        });
        assert_eq!(&recv_frame(&mut rx).unwrap()[..], b"late");
        late.join().unwrap();
        // The writer hung up: end of stream, not a busy loop.
        assert!(matches!(
            recv_frame(&mut rx),
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
