//! An in-memory duplex byte stream — the loopback transport.
//!
//! [`loopback`] returns two connected ends; bytes written to one end are
//! read from the other, with blocking reads and EOF on writer drop —
//! exactly the semantics the server expects from a TCP or Unix-socket
//! stream, minus the kernel. The wire tests run the full protocol over
//! this.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One direction of byte flow.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    data: VecDeque<u8>,
    /// Set when the write half drops: readers drain the buffer then EOF.
    closed: bool,
}

impl Pipe {
    fn close(&self) {
        let mut state = self.state.lock().expect("loopback pipe poisoned");
        state.closed = true;
        self.readable.notify_all();
    }
}

/// The read half of one loopback direction. Blocks until bytes arrive;
/// returns `Ok(0)` (EOF) once the peer's write half is dropped and the
/// buffer is drained. With a read timeout set, a read that sees no
/// bytes for the full duration fails with [`io::ErrorKind::WouldBlock`]
/// — the same signal a `TcpStream` with `SO_RCVTIMEO` gives, so the
/// server's idle-timeout handling is exercised identically over both
/// transports.
#[derive(Debug)]
pub struct LoopbackReader {
    pipe: Arc<Pipe>,
    timeout: Option<Duration>,
}

impl LoopbackReader {
    /// Sets (or with `None`, clears) the per-read timeout — the
    /// loopback analogue of `TcpStream::set_read_timeout`.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }
}

impl Read for LoopbackReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut state = self.pipe.state.lock().expect("loopback pipe poisoned");
        loop {
            if !state.data.is_empty() {
                let n = buf.len().min(state.data.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = state.data.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = match deadline {
                None => self
                    .pipe
                    .readable
                    .wait(state)
                    .expect("loopback pipe poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            "loopback read timed out",
                        ));
                    }
                    let (state, _) = self
                        .pipe
                        .readable
                        .wait_timeout(state, deadline - now)
                        .expect("loopback pipe poisoned");
                    state
                }
            };
        }
    }
}

impl Drop for LoopbackReader {
    /// Dropping the reader closes the direction so the peer's writes fail
    /// fast instead of buffering forever.
    fn drop(&mut self) {
        self.pipe.close();
    }
}

/// The write half of one loopback direction. Writes never block (the
/// buffer is unbounded); they fail with [`io::ErrorKind::BrokenPipe`]
/// once the peer's read half is gone.
#[derive(Debug)]
pub struct LoopbackWriter {
    pipe: Arc<Pipe>,
}

impl Write for LoopbackWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.pipe.state.lock().expect("loopback pipe poisoned");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer closed",
            ));
        }
        state.data.extend(buf.iter().copied());
        self.pipe.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackWriter {
    /// Dropping the writer EOFs the peer's reader once it drains.
    fn drop(&mut self) {
        self.pipe.close();
    }
}

/// One end of a loopback connection: a reader for inbound bytes and a
/// writer for outbound bytes. Split it to hand the halves to different
/// threads (the server does).
#[derive(Debug)]
pub struct LoopbackEnd {
    /// Inbound bytes (written by the peer).
    pub reader: LoopbackReader,
    /// Outbound bytes (read by the peer).
    pub writer: LoopbackWriter,
}

impl LoopbackEnd {
    /// Splits the end into its independent halves.
    pub fn split(self) -> (LoopbackReader, LoopbackWriter) {
        (self.reader, self.writer)
    }
}

impl Read for LoopbackEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for LoopbackEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Creates a connected pair of in-memory duplex streams.
pub fn loopback() -> (LoopbackEnd, LoopbackEnd) {
    let a_to_b = Arc::new(Pipe::default());
    let b_to_a = Arc::new(Pipe::default());
    (
        LoopbackEnd {
            reader: LoopbackReader {
                pipe: Arc::clone(&b_to_a),
                timeout: None,
            },
            writer: LoopbackWriter {
                pipe: Arc::clone(&a_to_b),
            },
        },
        LoopbackEnd {
            reader: LoopbackReader {
                pipe: a_to_b,
                timeout: None,
            },
            writer: LoopbackWriter { pipe: b_to_a },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = loopback();
        a.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        BufReader::new(&mut b).read_line(&mut line).unwrap();
        assert_eq!(line, "ping\n");
        b.write_all(b"pong\n").unwrap();
        let mut line = String::new();
        BufReader::new(&mut a).read_line(&mut line).unwrap();
        assert_eq!(line, "pong\n");
    }

    #[test]
    fn writer_drop_eofs_reader_after_drain() {
        let (a, b) = loopback();
        let (_a_reader, mut a_writer) = a.split();
        a_writer.write_all(b"tail").unwrap();
        drop(a_writer);
        let (mut b_reader, _b_writer) = b.split();
        let mut out = Vec::new();
        b_reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"tail");
    }

    #[test]
    fn reader_drop_breaks_writes() {
        let (a, b) = loopback();
        let (a_reader, _a_writer) = a.split();
        drop(a_reader);
        let (_b_reader, mut b_writer) = b.split();
        let err = b_writer.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_timeout_fires_and_clears() {
        let (a, b) = loopback();
        let (mut b_reader, _b_writer) = b.split();
        let (_a_reader, mut a_writer) = a.split();
        b_reader.set_read_timeout(Some(Duration::from_millis(20)));
        let mut buf = [0u8; 4];
        // No bytes for the full window: WouldBlock, like SO_RCVTIMEO.
        let err = b_reader.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Bytes available beat the clock; a cleared timeout blocks again.
        a_writer.write_all(b"data").unwrap();
        assert_eq!(b_reader.read(&mut buf).unwrap(), 4);
        b_reader.set_read_timeout(None);
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 2];
            b_reader.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(Duration::from_millis(30));
        a_writer.write_all(b"ok").unwrap();
        assert_eq!(&handle.join().unwrap(), b"ok");
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (a, b) = loopback();
        let (mut b_reader, _b_writer) = b.split();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b_reader.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (_a_reader, mut a_writer) = a.split();
        a_writer.write_all(b"hello").unwrap();
        assert_eq!(&handle.join().unwrap(), b"hello");
    }
}
