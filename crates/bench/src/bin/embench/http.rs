//! The load generator's HTTP/1.1 client: keep-alive connections, request
//! pipelining and a readiness wait through `ppoll`. An open-loop sender
//! must leave on schedule; waiting on a socket read timeout instead
//! oversleeps by milliseconds, more than the latencies being measured.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// One parsed response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// A `POST` request with a JSON body, ready to write.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Remove and return the first complete response in `buf`, if any.
pub fn take_response(buf: &mut Vec<u8>) -> Result<Option<Response>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("unparseable status line")?;
    let length: usize = head
        .lines()
        .skip(1)
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or("response without content-length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[start..start + length]).into_owned();
    buf.drain(..start + length);
    Ok(Some(Response { status, body }))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Block until `stream` is readable (or hung up) or `timeout` passes.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let mut pfd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is
    // 1 to match the single `pollfd`, and a null sigmask leaves the signal
    // mask untouched.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(rc > 0)
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    rx: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off and a 10 s ceiling on blocking reads.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            rx: Vec::new(),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Write one whole request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    fn fill(&mut self) -> Result<(), String> {
        let n = self
            .stream
            .read(&mut self.chunk)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".into());
        }
        self.rx.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// Block for the next response.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(r) = take_response(&mut self.rx)? {
                return Ok(r);
            }
            self.fill()?;
        }
    }

    /// Wait up to `timeout` for bytes; return every response completed.
    pub fn poll(&mut self, timeout: Duration) -> Result<Vec<Response>, String> {
        let mut out = Vec::new();
        if wait_readable(&self.stream, timeout).map_err(|e| e.to_string())? {
            self.fill()?;
            while let Some(r) = take_response(&mut self.rx)? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_taken_whole_and_in_order() {
        let mut buf = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 429 Too".to_vec();
        let r = take_response(&mut buf).unwrap().unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "ok"));
        assert!(take_response(&mut buf).unwrap().is_none(), "torn head");
        buf.extend_from_slice(b" Many\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(take_response(&mut buf).unwrap().unwrap().status, 429);
        assert!(buf.is_empty());
    }

    #[test]
    fn poll_times_out_then_sees_data() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let t = std::time::Instant::now();
        assert!(conn.poll(Duration::from_millis(20)).unwrap().is_empty());
        assert!(t.elapsed() >= Duration::from_millis(20));
        server
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        let got = conn.poll(Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), 1);
    }
}
