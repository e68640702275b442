//! The open-loop load generator.
//!
//! Independent users arrive on their own schedule, so the generator sends
//! on a seeded Poisson timetable whatever the server is doing, pipelining
//! requests over keep-alive connections, and times each request from the
//! moment it was *due*: a stall in the server then shows as latency on
//! every request queued behind it instead of silently slowing the load.
//!
//! One thread drives one connection. It waits for the next due time or
//! for response bytes with `ppoll(2)` — nanosecond timeouts, unlike a
//! socket read timeout, which the kernel rounds up to a scheduler tick and
//! which would make the generator itself late by a millisecond or more.
//! How late it still ran is recorded per request, so a run where the
//! generator fell behind can be told apart from one where the server did.

use crate::util::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Blocks until `stream` is readable (or writable, when `want_write`), or
/// until `timeout` passes. Spurious returns are harmless: the caller
/// retries non-blocking I/O and loops.
fn wait_ready(stream: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if want_write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, correctly laid-out locals for the
    // duration of the call; one descriptor is passed and no signal mask.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Query class: warm queries come from a small catalog the response cache
/// holds; cold ones carry a fresh bootstrap `seed=`, so each misses the
/// cache and computes a confidence interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Warm,
    Cold,
}

/// The request mix.
#[derive(Clone)]
pub struct Mix {
    /// Warm catalog targets.
    pub warm: Vec<String>,
    /// Share of requests that are cold.
    pub cold_share: f64,
    /// Country codes cold queries draw from.
    pub cold_countries: Vec<&'static str>,
}

impl Mix {
    /// Draws one request. `serial` is unique per request within a run and
    /// `salt` per run, so every cold target is distinct. A cold query is a
    /// plain `/v1/score` request with only its bootstrap seed set, so it
    /// runs the route's default replicates and level.
    pub fn draw(&self, rng: &mut Rng, salt: u64, serial: u64) -> (Class, String) {
        if rng.unit() < self.cold_share {
            let cc = self.cold_countries[rng.below(self.cold_countries.len())];
            let layer = ["hosting", "dns", "ca", "tld"][rng.below(4)];
            let seed = salt.wrapping_mul(1_000_003).wrapping_add(serial);
            (
                Class::Cold,
                format!("/v1/score/{cc}?layer={layer}&seed={seed}"),
            )
        } else {
            (Class::Warm, self.warm[rng.below(self.warm.len())].clone())
        }
    }
}

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub header_epoch: Option<u64>,
    pub body: Vec<u8>,
}

/// Parses one complete response off the front of `buf`, returning it and
/// the bytes it used; `None` while incomplete.
pub fn parse_response(buf: &[u8]) -> Option<(Response, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    let mut header_epoch = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-webdep-epoch") {
                header_epoch = value.trim().parse().ok();
            }
        }
    }
    if buf.len() < head_end + len {
        return None;
    }
    let body = buf[head_end..head_end + len].to_vec();
    Some((
        Response {
            status,
            header_epoch,
            body,
        },
        head_end + len,
    ))
}

/// The epoch a JSON body names in its leading `"epoch"` field.
pub fn body_epoch(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"epoch\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A blocking one-shot GET on a fresh connection.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Response> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16384];
    loop {
        if let Some((resp, _)) = parse_response(&buf) {
            return Ok(resp);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One open-loop run's settings.
pub struct LoadSpec<'a> {
    pub addr: SocketAddr,
    /// Connections, one thread each.
    pub conns: usize,
    /// Aggregate arrival rate, requests per second.
    pub rate: f64,
    /// Arrivals stop after this long (or earlier, when `stop` is raised).
    pub duration: Duration,
    /// How long to wait for outstanding responses after the last arrival
    /// before counting them as failed.
    pub drain: Duration,
    pub mix: &'a Mix,
    pub seed: u64,
    /// Keep the body of every `sample_every`-th response (0 keeps none).
    pub sample_every: u64,
    pub stop: Option<&'a AtomicBool>,
}

/// What one run observed.
#[derive(Default)]
pub struct Outcome {
    /// Latency from due time, µs, of answered `200`s, per class.
    pub warm_us: Vec<f64>,
    pub cold_us: Vec<f64>,
    /// Due time and latency, µs, of every answered `200`, in both classes.
    pub answered: Vec<(Instant, f64)>,
    /// Requests due in the run.
    pub attempted: u64,
    /// Requests not answered `200` (error status, shed, connection loss
    /// or still outstanding when the drain ran out).
    pub failed: u64,
    /// How late each request was sent after its due time, µs.
    pub late_us: Vec<f64>,
    /// Requests outstanding, summed over connections, at the last arrival.
    pub backlog_end: u64,
    /// Largest number outstanding on one connection during the run.
    pub backlog_max: u64,
    /// Responses whose header epoch and body epoch disagree.
    pub mixed_epoch: u64,
    /// Responses whose epoch is older than an earlier one on the same
    /// connection.
    pub epoch_regressions: u64,
    /// Largest epoch seen.
    pub max_epoch: u64,
    /// Sampled `(target, epoch, body)` triples for correctness checks.
    pub samples: Vec<(String, u64, Vec<u8>)>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.warm_us.extend(other.warm_us);
        self.cold_us.extend(other.cold_us);
        self.answered.extend(other.answered);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_us.extend(other.late_us);
        self.backlog_end += other.backlog_end;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.mixed_epoch += other.mixed_epoch;
        self.epoch_regressions += other.epoch_regressions;
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.samples.extend(other.samples);
    }

    /// Latencies of the answered requests that were due inside one of
    /// `windows`, with every failed request counted as an infinite one
    /// (failures carry no due time, so all of them are kept).
    pub fn within(&self, windows: &[(Instant, Instant)]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .answered
            .iter()
            .filter(|(due, _)| windows.iter().any(|&(a, b)| a <= *due && *due < b))
            .map(|&(_, lat)| lat)
            .collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        v
    }

    /// All answered latencies, with every failed request counted as an
    /// infinite one (a failure misses any latency limit).
    pub fn all_with_failures(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.warm_us.iter().chain(&self.cold_us).copied().collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        v
    }
}

struct InFlight {
    due: Instant,
    class: Class,
    target: Option<String>,
}

/// Runs one open-loop load and returns what it saw.
pub fn run(spec: &LoadSpec) -> Outcome {
    let t0 = Instant::now() + Duration::from_millis(5);
    let per_conn = spec.rate / spec.conns as f64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.conns)
            .map(|c| {
                let seed = spec.seed ^ ((c as u64 + 1) << 48);
                s.spawn(move || drive(spec, t0, per_conn, seed, c as u64))
            })
            .collect();
        let mut out = Outcome::default();
        for h in handles {
            out.merge(h.join().expect("generator thread"));
        }
        out
    })
}

fn drive(spec: &LoadSpec, t0: Instant, rate: f64, seed: u64, conn_id: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    let end = t0 + spec.duration;
    let mut next_due = t0 + Duration::from_secs_f64(rng.exp_gap(rate));
    let mut stream = match connect(spec.addr) {
        Ok(s) => s,
        Err(_) => {
            // Every arrival this connection would have made is a failure.
            let n = (rate * spec.duration.as_secs_f64()).round() as u64;
            out.attempted = n;
            out.failed = n;
            return out;
        }
    };
    let _ = stream.set_nonblocking(true);
    let mut inflight: std::collections::VecDeque<InFlight> = Default::default();
    let mut outbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut serial = 0u64;
    let mut last_epoch = 0u64;
    let mut arrivals_done = false;
    let mut drain_deadline = None;
    let mut broken = false;
    loop {
        let now = Instant::now();
        let stopped = spec.stop.is_some_and(|f| f.load(Ordering::Acquire));
        if !arrivals_done && (next_due >= end || stopped) {
            arrivals_done = true;
            out.backlog_end = inflight.len() as u64;
            drain_deadline = Some(now + spec.drain);
        }
        if !arrivals_done {
            while next_due <= now && next_due < end {
                let (class, target) = spec.mix.draw(&mut rng, spec.seed ^ conn_id, serial);
                serial += 1;
                out.attempted += 1;
                out.late_us.push(crate::util::us(now - next_due));
                let _ = write!(outbuf, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
                let keep = spec.sample_every > 0 && out.attempted % spec.sample_every == 0;
                inflight.push_back(InFlight {
                    due: next_due,
                    class,
                    target: keep.then_some(target),
                });
                next_due += Duration::from_secs_f64(rng.exp_gap(rate));
            }
            out.backlog_max = out.backlog_max.max(inflight.len() as u64);
        }
        if !broken && written < outbuf.len() {
            match stream.write(&outbuf[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => broken = true,
            }
            if written == outbuf.len() {
                outbuf.clear();
                written = 0;
            }
        }
        if !broken {
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        let mut used = 0;
        while let Some((resp, n)) = parse_response(&inbuf[used..]) {
            used += n;
            let recv = Instant::now();
            let Some(req) = inflight.pop_front() else {
                break;
            };
            if resp.status != 200 {
                out.failed += 1;
                continue;
            }
            let lat = crate::util::us(recv.saturating_duration_since(req.due));
            match req.class {
                Class::Warm => out.warm_us.push(lat),
                Class::Cold => out.cold_us.push(lat),
            }
            out.answered.push((req.due, lat));
            let epoch = resp.header_epoch.unwrap_or(0);
            if body_epoch(&resp.body) != resp.header_epoch {
                out.mixed_epoch += 1;
            }
            if epoch < last_epoch {
                out.epoch_regressions += 1;
            }
            last_epoch = last_epoch.max(epoch);
            out.max_epoch = out.max_epoch.max(epoch);
            if let Some(target) = req.target {
                out.samples.push((target, epoch, resp.body));
            }
        }
        inbuf.drain(..used);
        if broken {
            out.failed += inflight.len() as u64;
            inflight.clear();
            if !arrivals_done {
                // The rest of this connection's arrivals cannot be sent.
                while next_due < end && !spec.stop.is_some_and(|f| f.load(Ordering::Acquire)) {
                    out.attempted += 1;
                    out.failed += 1;
                    next_due += Duration::from_secs_f64(rng.exp_gap(rate));
                }
            }
            break;
        }
        if arrivals_done {
            if inflight.is_empty() {
                break;
            }
            if drain_deadline.is_some_and(|d| Instant::now() >= d) {
                out.failed += inflight.len() as u64;
                break;
            }
        }
        let now = Instant::now();
        let wait = if arrivals_done {
            drain_deadline.map_or(Duration::ZERO, |d| d.saturating_duration_since(now))
        } else {
            next_due.saturating_duration_since(now)
        };
        if !wait.is_zero() {
            // A stop raised mid-wait is seen within a millisecond.
            let wait = if spec.stop.is_some() {
                wait.min(Duration::from_millis(1))
            } else {
                wait
            };
            wait_ready(&stream, written < outbuf.len(), wait);
        }
    }
    out
}
