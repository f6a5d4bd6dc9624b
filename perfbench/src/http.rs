//! A keep-alive HTTP/1.1 client that reads responses through a buffer
//! and keeps their bodies as raw bytes, so answers can be compared
//! byte for byte. Responses must carry `Content-Length`, as the serve
//! layer's always do.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
    /// Times the connection was (re)established.
    pub connects: u64,
}

/// The raw request bytes for `method path` with `body`.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some((BufReader::new(s.try_clone()?), s));
            self.connects += 1;
        }
        Ok(())
    }

    /// Sends `req` and returns the response status and body. A server
    /// that closed the kept-alive connection (it does every 128
    /// requests) is reconnected once.
    pub fn send(&mut self, req: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let reused = self.stream.is_some();
        match self.try_send(req) {
            Err(_) if reused => {
                self.stream = None;
                self.try_send(req)
            }
            r => r,
        }
    }

    fn try_send(&mut self, req: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.connect()?;
        let (reader, writer) = self.stream.as_mut().expect("connected above");
        let r = writer.write_all(req).and_then(|()| read_response(reader));
        match r {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response(r: &mut BufReader<TcpStream>) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
    }
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("closed mid-head"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let len = len.ok_or_else(|| bad("no content-length"))?;
    if len > 64 << 20 {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, body, keep_alive))
}
