//! The benchmark's own keep-alive HTTP/1.1 client and load generators.
//!
//! Load comes from at most two client threads, one connection each (the
//! box has two cores). A request fails when it is not a 200, when the
//! answer is degraded (fallback) or on any transport error; there are no
//! retries.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{SplitMix, ZipfUsers};

/// A connection idle this long is replaced before use: the gateway closes
/// keep-alive connections idle for 2 s, and a request written into a
/// connection the server is closing would fail for the client's reasons.
const MAX_IDLE: Duration = Duration::from_millis(1_000);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive client connection (reconnects when the server closes).
pub struct Client {
    addr: SocketAddr,
    key: Option<String>,
    stream: Option<TcpStream>,
    last_used: Instant,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr, key: Option<&str>) -> Self {
        Self {
            addr,
            key: key.map(str::to_string),
            stream: None,
            last_used: Instant::now(),
            buf: Vec::with_capacity(1024),
        }
    }

    /// `GET target`; returns the status and body.
    pub fn get(&mut self, target: &str) -> Result<(u16, String), String> {
        let res = self.exchange(target);
        if res.is_err() {
            self.stream = None;
        }
        res
    }

    fn exchange(&mut self, target: &str) -> Result<(u16, String), String> {
        if self.stream.is_none() || self.last_used.elapsed() > MAX_IDLE {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
            s.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut req = format!("GET {target} HTTP/1.1\r\nhost: pup\r\n");
        if let Some(key) = &self.key {
            req.push_str(&format!("x-api-key: {key}\r\n"));
        }
        req.push_str("\r\n");
        stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;

        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let (mut len, mut close) = (0usize, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| format!("bad content-length {value:?}"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed inside a body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[body_start..body_start + len]).into_owned();
        if close {
            self.stream = None;
        }
        self.last_used = Instant::now();
        Ok((status, body))
    }

    /// One `/recommend` call; `Ok` holds the ranked items of a primary answer.
    pub fn recommend(&mut self, user: u32, k: usize) -> Result<Vec<u32>, String> {
        let (status, body) = self.get(&format!("/recommend?user={user}&k={k}"))?;
        if status != 200 {
            return Err(format!("status {status}: {body}"));
        }
        let source = field(&body, "\"source\":\"", '"').ok_or("no source field")?;
        if source != "primary" {
            return Err(format!("degraded answer ({source})"));
        }
        let items = field(&body, "\"items\":[", ']').ok_or("no items field")?;
        items
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| format!("bad item {s:?}")))
            .collect()
    }

    /// The generation `/health` reports.
    pub fn health_generation(&mut self) -> Result<u64, String> {
        let (status, body) = self.get("/health")?;
        if status != 200 {
            return Err(format!("/health status {status}"));
        }
        field(&body, "\"generation\":", ',')
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| format!("no generation in {body:?}"))
    }
}

fn field<'a>(body: &'a str, prefix: &str, end: char) -> Option<&'a str> {
    let start = body.find(prefix)? + prefix.len();
    let len = body[start..].find(end)?;
    Some(&body[start..start + len])
}

/// One answered request.
pub struct Rec {
    pub user: u32,
    /// When the request was due (open loop) or sent (closed loop), ns since
    /// the phase's epoch.
    pub due_ns: u64,
    pub latency_ns: u64,
    pub items: Vec<u32>,
}

/// What one load phase produced.
#[derive(Default)]
pub struct Phase {
    pub recs: Vec<Rec>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// How late the generator sent its latest request (open loop only).
    pub late_ns_max: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.recs.extend(other.recs);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.late_ns_max = self.late_ns_max.max(other.late_ns_max);
    }

    /// Latencies in ms of answers due at or after `from_ns`.
    pub fn latencies_ms(&self, from_ns: u64) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.due_ns >= from_ns)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect()
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Closed loop: `conns` connections, each sending its next request when the
/// previous answer arrives, until `stop` is set. Users are Zipf-drawn from a
/// per-connection stream seeded by `seed`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    key: Option<&str>,
    conns: usize,
    users: &ZipfUsers,
    seed: u64,
    k: usize,
    epoch: Instant,
    stop: &AtomicBool,
) -> Phase {
    let total = Mutex::new(Phase::default());
    std::thread::scope(|scope| {
        for c in 0..conns {
            let total = &total;
            scope.spawn(move || {
                let mut rng = SplitMix::new(seed.wrapping_add(c as u64 * 0x1000_0001));
                let mut client = Client::new(addr, key);
                let mut mine = Phase::default();
                while !stop.load(Ordering::SeqCst) {
                    let user = users.draw(&mut rng);
                    let sent = ns_since(epoch);
                    mine.attempted += 1;
                    match client.recommend(user, k) {
                        Ok(items) => mine.recs.push(Rec {
                            user,
                            due_ns: sent,
                            latency_ns: ns_since(epoch) - sent,
                            items,
                        }),
                        Err(e) => mine.failures.push(format!("user {user}: {e}")),
                    }
                }
                total.lock().expect("phase lock").absorb(mine);
            });
        }
    });
    total.into_inner().expect("phase lock")
}

/// Open loop: requests are due at `plan[i].0` ns after the start; `conns`
/// client threads take them in order, wait until each is due, and time it
/// from when it was due, so a stall also counts against the requests
/// queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    key: Option<&str>,
    conns: usize,
    plan: &[(u64, u32)],
    k: usize,
) -> Phase {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Phase::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            let (next, total) = (&next, &total);
            scope.spawn(move || {
                let mut client = Client::new(addr, key);
                let mut mine = Phase::default();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&(due, user)) = plan.get(i) else { break };
                    let now = ns_since(start);
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    mine.late_ns_max = mine.late_ns_max.max(ns_since(start).saturating_sub(due));
                    mine.attempted += 1;
                    match client.recommend(user, k) {
                        Ok(items) => mine.recs.push(Rec {
                            user,
                            due_ns: due,
                            latency_ns: ns_since(start) - due,
                            items,
                        }),
                        Err(e) => mine.failures.push(format!("user {user}: {e}")),
                    }
                }
                total.lock().expect("phase lock").absorb(mine);
            });
        }
    });
    total.into_inner().expect("phase lock")
}

/// A Poisson arrival plan of `n` requests at `rate` per second with
/// Zipf-drawn users.
pub fn poisson_plan(n: usize, rate: f64, users: &ZipfUsers, rng: &mut SplitMix) -> Vec<(u64, u32)> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            ((t * 1e9) as u64, users.draw(rng))
        })
        .collect()
}
