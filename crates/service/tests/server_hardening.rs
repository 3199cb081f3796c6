//! Wire-level hardening of the TCP transport: oversized lines, hostile
//! bytes, slow-loris dribbles, truncated requests, and clients that
//! vanish mid-conversation must never kill the server or leak queue
//! capacity.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use disparity_model::json::Value;
use disparity_service::server::{serve_with, ServeOptions, ServerHandle};
use disparity_service::service::{Service, ServiceConfig};

fn start_server(config: ServiceConfig, options: ServeOptions) -> ServerHandle {
    let service = Service::start(config);
    serve_with("127.0.0.1:0", service, options).expect("bind loopback")
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

fn parsed(line: &str) -> Value {
    Value::parse(line).expect("response is valid JSON")
}

#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let handle = start_server(
        ServiceConfig::default(),
        ServeOptions {
            max_request_bytes: 1024,
            ..ServeOptions::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // 8 KiB of almost-JSON on one line: way past the 1 KiB cap.
    let huge = format!("{{\"id\":1,\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(8192));
    stream.write_all(huge.as_bytes()).expect("write oversized");
    let v = parsed(&read_line(&mut stream));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert!(
        v.get("error").and_then(Value::as_str).unwrap().contains("1024-byte cap"),
        "error names the cap: {v:?}"
    );
    // Same connection, next request: alive and well.
    stream.write_all(b"{\"id\":2,\"op\":\"ping\"}\n").expect("write ping");
    let v = parsed(&read_line(&mut stream));
    assert_eq!(v.get("id").and_then(Value::as_i64), Some(2));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn invalid_utf8_gets_an_error_and_connection_survives() {
    let handle = start_server(ServiceConfig::default(), ServeOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"\xff\xfe{\"id\":1}\x80\n")
        .expect("write garbage");
    let v = parsed(&read_line(&mut stream));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    stream.write_all(b"{\"id\":2,\"op\":\"ping\"}\n").expect("write ping");
    let v = parsed(&read_line(&mut stream));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn slow_loris_line_hits_the_read_deadline() {
    let handle = start_server(
        ServiceConfig::default(),
        ServeOptions {
            read_deadline: Some(Duration::from_millis(400)),
            ..ServeOptions::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // First bytes of a request, then silence: never a newline.
    stream.write_all(b"{\"id\":1,\"op\":").expect("write partial");
    let start = Instant::now();
    let line = read_line(&mut stream);
    let v = parsed(&line);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert!(
        v.get("error").and_then(Value::as_str).unwrap().contains("400ms"),
        "error names the deadline: {line}"
    );
    assert!(
        start.elapsed() >= Duration::from_millis(300),
        "deadline did not fire early"
    );
    // The server closed the connection: further reads reach EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "no further data after the deadline error");
    handle.shutdown();
}

#[test]
fn partial_line_at_eof_is_dropped_not_parsed() {
    let handle = start_server(ServiceConfig::default(), ServeOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // A complete request plus a truncated one, then half-close: the
    // finished line is answered, the unterminated tail is discarded.
    stream
        .write_all(b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"ping\"}")
        .expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut all = String::new();
    stream.read_to_string(&mut all).expect("read to EOF");
    let lines: Vec<&str> = all.lines().collect();
    assert_eq!(lines.len(), 1, "exactly the finished request is answered: {all:?}");
    let v = parsed(lines[0]);
    assert_eq!(v.get("id").and_then(Value::as_i64), Some(1));
    handle.shutdown();
}

#[test]
fn vanishing_clients_leak_no_queue_capacity() {
    // One slow worker, 2-deep queue. Clients enqueue sleeps and vanish
    // before reading; their replies hit dead sockets. If any code path
    // leaked queue slots the later rounds would see nothing but
    // `overloaded` — instead a patient client must still get `ok`.
    let handle = start_server(
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
        ServeOptions::default(),
    );
    for round in 0..5 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"{\"id\":1,\"op\":\"sleep\",\"millis\":10}\n{\"id\":2,\"op\":\"sleep\",\"millis\":10}\n")
            .expect("write");
        // Drop without reading a single byte — mid-conversation reset.
        drop(stream);
        let _ = round;
    }
    // Wait until all 10 dropped requests are fully accounted for —
    // submitted by their (asynchronous) reader threads AND either
    // completed or bounced — so none race with the probe below.
    let service = handle.service();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let c = &service.counters;
        let received = c.received.load(std::sync::atomic::Ordering::Relaxed);
        let settled = c.completed.load(std::sync::atomic::Ordering::Relaxed)
            + c.overloaded.load(std::sync::atomic::Ordering::Relaxed);
        if received >= 10 && settled == received && service.queue_depth() == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "dropped jobs never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Full capacity is available again: both of these are admitted.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"{\"id\":10,\"op\":\"sleep\",\"millis\":1}\n{\"id\":11,\"op\":\"sleep\",\"millis\":1}\n")
        .expect("write");
    // One reader for both replies: a second `BufReader` would miss a
    // reply the first one had already buffered, and block forever.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let v = parsed(line.trim_end());
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("ok"),
            "no capacity leaked by vanished clients"
        );
    }
    handle.shutdown();
}
