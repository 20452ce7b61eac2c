//! Length-prefixed framing over a byte stream.
//!
//! Wire format: `u32` big-endian payload length, then the payload. The
//! maximum frame size bounds memory per connection; oversized frames are
//! rejected *before* allocation, so a malicious or corrupt length prefix
//! cannot OOM the process.
//!
//! A frame costs its reader one wake-up at most: [`write_frame`] sends
//! prefix and payload in one write, and [`recv_frame`] polls a socket for
//! [`POLL_BEFORE_PARK`] before it parks, so the time of a request–reply
//! exchange does not depend on which CPUs the two ends run on.

use crate::error::{Result, TransportError};
use crate::wire::SharedBytes;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default maximum frame payload: 256 MiB (a full GPT-J layer group fits;
/// a corrupt length prefix does not).
pub const MAX_FRAME: usize = 256 << 20;

/// Write one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(TransportError::FrameTooLarge {
            len: payload.len(),
            max: MAX_FRAME,
        });
    }
    // Prefix and payload leave in one write: on a TCP_NODELAY socket two
    // writes are two segments, and the reader can be woken for the prefix,
    // find no payload yet and park a second time.
    let prefix = (payload.len() as u32).to_be_bytes();
    let total = prefix.len() + payload.len();
    let mut sent = 0;
    while sent < total {
        let wrote = if sent < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - prefix.len()..])
        };
        match wrote {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
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

/// Read one frame.
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
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 1000]).unwrap();
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
        let mut slow = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut slow, b"hello, frame").unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, b"hello, frame").unwrap();
        assert_eq!(slow.out, whole);
        assert_eq!(
            &read_frame(&mut Cursor::new(slow.out)).unwrap()[..],
            b"hello, frame"
        );
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
        write_frame(&mut tx, b"ready").unwrap();
        assert_eq!(&recv_frame(&mut rx).unwrap()[..], b"ready");
        rx.set_read_timeout(None).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(10 * POLL_BEFORE_PARK);
            write_frame(&mut tx, b"late").unwrap();
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
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(TransportError::ConnectionClosed) | Err(TransportError::Io(_))
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
