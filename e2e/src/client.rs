//! The load generator: NDJSON over loopback TCP, checked against the
//! oracle.
//!
//! One process, at most two threads and two connections. Every
//! connection sets `TCP_NODELAY` and every request line, newline
//! included, goes out in one `write`: splitting a line into two writes
//! on a Nagle socket stalls each request behind the peer's delayed ACK
//! (about 40 ms on Linux), which is what the older `loadgen` client
//! measures.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use disparity_model::json::Value;
use disparity_rng::Rng;
use disparity_service::proto::split_trace;

use crate::inputs::{stream, ServiceInputs};

/// How long a client waits for one response before counting the rest of
/// its phase as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Ids of set-up requests start here, far above any phase request.
const SEATING_IDS: u64 = 1 << 40;

/// Opens a client connection with `TCP_NODELAY` set.
///
/// # Errors
///
/// Connect or socket-option failures.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

/// Frames request `id` (body `body`) into `buf` and sends it with a
/// single `write_all` call on `out`.
///
/// # Errors
///
/// The write's I/O error.
pub fn send_request(
    out: &mut impl Write,
    buf: &mut Vec<u8>,
    inputs: &ServiceInputs,
    id: u64,
    body: usize,
) -> std::io::Result<()> {
    buf.clear();
    inputs.write_line(buf, id, body);
    out.write_all(buf)
}

/// Counts of one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that were not answered `ok` with the oracle's bytes, or
    /// not answered at all.
    pub failed: u64,
    /// The first failure: the offending response line, or what was
    /// missing.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Requests answered correctly.
    #[must_use]
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Counts `n` failures described by `what` (which is kept when it
    /// is the first).
    pub fn fail(&mut self, n: u64, what: &str) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(what.chars().take(300).collect());
        }
    }

    /// Adds another phase's counts.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        if let Some(what) = &other.first_failure {
            self.fail(other.failed, what);
        }
    }
}

/// Splits a response line into its request id and whether its bytes
/// (trace id removed) equal the oracle's.
fn check(
    line: &str,
    inputs: &ServiceInputs,
    body_of: impl Fn(u64) -> usize,
) -> Option<(u64, bool)> {
    let line = line.trim_end_matches('\n');
    let (pure, _trace) = split_trace(line)?;
    let digits = pure.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    let id: u64 = digits[..end].parse().ok()?;
    Some((id, pure == inputs.expected_line(id, body_of(id))))
}

/// Reads one response line; `None` on EOF, timeout or a broken stream.
fn read_response(reader: &mut impl BufRead, line: &mut String) -> Option<()> {
    line.clear();
    match reader.read_line(line) {
        Ok(n) if n > 0 => Some(()),
        _ => None,
    }
}

/// Sends the set-up requests (one at a time, one connection) and checks
/// every answer.
///
/// # Errors
///
/// I/O errors, or any answer differing from the oracle.
pub fn seat(addr: SocketAddr, inputs: &ServiceInputs) -> Result<(), String> {
    let mut conn = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let (mut buf, mut line) = (Vec::new(), String::new());
    for (k, &body) in inputs.seating.iter().enumerate() {
        let id = SEATING_IDS + k as u64;
        send_request(&mut conn, &mut buf, inputs, id, body).map_err(|e| format!("seating: {e}"))?;
        read_response(&mut reader, &mut line).ok_or("seating: no response")?;
        match check(&line, inputs, |_| body) {
            Some((got, true)) if got == id => {}
            _ => {
                return Err(format!(
                    "seating request {k} answered wrongly: {}",
                    line.trim_end()
                ))
            }
        }
    }
    Ok(())
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Counts.
    pub tally: Tally,
    /// Per-request latency (send to response), microseconds.
    pub latencies_us: Vec<f64>,
    /// Phase wall time.
    pub elapsed: Duration,
}

/// One connection of a closed loop: send, wait for the answer, repeat
/// until `deadline`. Request ids come from the shared sequence `next`.
fn closed_connection(
    addr: SocketAddr,
    inputs: &ServiceInputs,
    next: &AtomicU64,
    deadline: Instant,
) -> Result<ClosedLoop, String> {
    let mut conn = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let (mut buf, mut line) = (Vec::new(), String::new());
    let mut out = ClosedLoop::default();
    while Instant::now() < deadline {
        // conc: a plain id allocator; no other data is published through it
        let id = next.fetch_add(1, Ordering::Relaxed);
        let sent = Instant::now();
        out.tally.attempted += 1;
        if send_request(&mut conn, &mut buf, inputs, id, inputs.body_of(id)).is_err()
            || read_response(&mut reader, &mut line).is_none()
        {
            out.tally
                .fail(1, &format!("request {id}: connection failed"));
            break;
        }
        out.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        if !matches!(check(&line, inputs, |i| inputs.body_of(i)), Some((got, true)) if got == id) {
            out.tally.fail(1, &line);
        }
    }
    Ok(out)
}

/// A closed loop on `connections` (1 or 2) connections until `duration`
/// has passed. The calling thread drives one connection, a scoped thread
/// the other.
///
/// # Errors
///
/// Connection failures.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &ServiceInputs,
    next: &AtomicU64,
    connections: usize,
    duration: Duration,
) -> Result<ClosedLoop, String> {
    let started = Instant::now();
    let deadline = started + duration;
    let (first, second) = std::thread::scope(|s| {
        let helper =
            (connections > 1).then(|| s.spawn(|| closed_connection(addr, inputs, next, deadline)));
        let first = closed_connection(addr, inputs, next, deadline);
        let second = helper.map(|h| {
            h.join()
                .map_err(|_| "closed-loop thread panicked".to_string())
        });
        (first, second)
    });
    let mut out = first?;
    if let Some(second) = second {
        let second = second??;
        out.tally.add(&second.tally);
        out.latencies_us.extend(second.latencies_us);
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

/// Result of an open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Counts.
    pub tally: Tally,
    /// Per-request latency from the request's *due* time to its
    /// response, microseconds (answered requests only).
    pub latencies_us: Vec<f64>,
    /// How late each request was written, microseconds.
    pub lag_us: Vec<f64>,
}

/// Shrinks the calling thread's timer slack from the default 50 µs to
/// 1 ns (`prctl(PR_SET_TIMERSLACK)`), so the open-loop sender wakes at
/// its due times instead of up to 50 µs after them. Best effort: on
/// failure the sender is merely later, and the lag is reported anyway.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned-long argument and
    // only changes the calling thread's timer slack; no memory is passed.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// Seeded exponential inter-arrival offsets at `rate` per second: as
/// many arrivals as `rate` gives in `duration` on average, so every
/// seed yields the same sample count.
#[must_use]
pub fn arrival_offsets(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = stream(seed, 10);
    let count = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// An open loop on one connection: this thread writes each request at
/// its due time, a scoped thread reads and checks the answers.
/// Request ids are `first_id..first_id + offsets.len()`.
///
/// # Errors
///
/// Connection failures.
pub fn open_loop(
    addr: SocketAddr,
    inputs: &ServiceInputs,
    first_id: u64,
    offsets: &[Duration],
) -> Result<OpenLoop, String> {
    let mut conn = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let count = offsets.len() as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |id: u64| start + offsets[(id - first_id) as usize];
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut out = OpenLoop::default();
            let mut line = String::new();
            while (out.latencies_us.len() as u64) < count {
                if read_response(&mut reader, &mut line).is_none() {
                    break;
                }
                let now = Instant::now();
                match check(&line, inputs, |i| inputs.body_of(i)) {
                    Some((id, correct)) if (first_id..first_id + count).contains(&id) => {
                        out.latencies_us
                            .push(now.saturating_duration_since(due(id)).as_secs_f64() * 1e6);
                        if !correct {
                            out.tally.fail(1, &line);
                        }
                    }
                    _ => {
                        // Unattributable: the rest of the phase counts as lost.
                        out.tally.fail(0, &line);
                        return out;
                    }
                }
            }
            out
        });
        precise_sleeps();
        let mut buf = Vec::new();
        let mut lag_us = Vec::with_capacity(offsets.len());
        for id in first_id..first_id + count {
            let due = due(id);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            if send_request(&mut conn, &mut buf, inputs, id, inputs.body_of(id)).is_err() {
                break;
            }
        }
        let mut out = receiver
            .join()
            .map_err(|_| "open-loop receiver panicked".to_string())?;
        out.tally.attempted = count;
        let lost = count - out.latencies_us.len() as u64;
        if lost > 0 {
            out.tally
                .fail(lost, &format!("{lost} open-loop request(s) unanswered"));
        }
        out.lag_us = lag_us;
        Ok(out)
    })
}

/// Queries the `stats` op and returns its `result.counters` object.
///
/// # Errors
///
/// I/O or protocol errors.
pub fn stats_counters(addr: SocketAddr) -> Result<Value, String> {
    let mut conn = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.write_all(b"{\"id\":\"stats\",\"op\":\"stats\"}\n")
        .map_err(|e| format!("stats: {e}"))?;
    let mut line = String::new();
    read_response(&mut BufReader::new(conn), &mut line).ok_or("stats: no response")?;
    Value::parse(line.trim_end())
        .ok()
        .and_then(|v| v.get("result")?.get("counters").cloned())
        .ok_or_else(|| format!("stats: unexpected answer {}", line.trim_end()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn inputs() -> ServiceInputs {
        ServiceInputs {
            bodies: vec!["\"op\":\"ping\"".to_string()],
            results: vec!["{\"pong\":true}".to_string()],
            seating: Vec::new(),
            schedule: vec![0],
        }
    }

    #[test]
    fn each_request_line_is_one_write_including_its_newline() {
        let inputs = inputs();
        let mut out = Writes::default();
        let mut buf = Vec::new();
        for id in [1, 22, 333] {
            send_request(&mut out, &mut buf, &inputs, id, 0).unwrap();
        }
        assert_eq!(out.0.len(), 3, "one write per request");
        assert_eq!(out.0[1], b"{\"id\":22,\"op\":\"ping\"}\n");
        for w in &out.0 {
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(w.last(), Some(&b'\n'));
        }
    }

    #[test]
    fn client_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = connect(listener.local_addr().unwrap()).unwrap();
        assert!(conn.nodelay().unwrap(), "TCP_NODELAY must be set");
    }

    #[test]
    fn check_strips_the_trace_id_and_compares_bytes() {
        let inputs = inputs();
        let good = "{\"id\":5,\"status\":\"ok\",\"result\":{\"pong\":true},\"trace_id\":\"00000001-00000005\"}\n";
        assert_eq!(check(good, &inputs, |_| 0), Some((5, true)));
        let wrong = good.replace("true", "false");
        assert_eq!(check(&wrong, &inputs, |_| 0), Some((5, false)));
        assert_eq!(
            check("{\"id\":5,\"status\":\"ok\"}", &inputs, |_| 0),
            None,
            "no trace id"
        );
    }

    #[test]
    fn arrivals_are_seeded_and_near_the_rate() {
        let a = arrival_offsets(3, 1000.0, Duration::from_secs(10));
        assert_eq!(a, arrival_offsets(3, 1000.0, Duration::from_secs(10)));
        assert_ne!(a, arrival_offsets(4, 1000.0, Duration::from_secs(10)));
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let end = a.last().unwrap().as_secs_f64();
        assert!((9.5..10.5).contains(&end), "{end}");
    }
}
