//! End-to-end tests for the `mocc` binary's cache surface: `run
//! --cache`, the `cache stats|verify|gc` subcommands, and the `serve`
//! daemon's line-JSON protocol (docs/CACHING.md). Everything runs the
//! real executable against the shipped example specs and committed
//! golden fixtures.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

fn mocc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("mocc runs")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocc-cli-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Cold run fills the store, warm run is all-hit, and both `--out`
/// files are byte-identical to the committed golden fixture; the
/// maintenance subcommands agree the store is whole.
#[test]
fn run_cache_twice_matches_golden_and_store_verifies() {
    let dir = temp_dir("twice");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let golden = std::fs::read(repo_root().join("tests/fixtures/golden_cubic.json"))
        .expect("golden fixture present");
    let spec = "examples/specs/sweep_cubic.json";

    let cold_out = dir.join("cold.json");
    let cold = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        cold_out.to_str().expect("utf-8"),
    ]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        stderr_of(&cold)
    );
    assert!(
        stderr_of(&cold).contains("cache: 0 hits, 16 misses"),
        "cold run not all-miss: {}",
        stderr_of(&cold)
    );
    assert_eq!(std::fs::read(&cold_out).expect("cold output"), golden);

    let warm_out = dir.join("warm.json");
    let warm = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        warm_out.to_str().expect("utf-8"),
    ]);
    assert!(
        warm.status.success(),
        "warm run failed: {}",
        stderr_of(&warm)
    );
    assert!(
        stderr_of(&warm).contains("cache: 16 hits, 0 misses"),
        "warm run simulated cells: {}",
        stderr_of(&warm)
    );
    assert_eq!(std::fs::read(&warm_out).expect("warm output"), golden);

    let stats = mocc(&["cache", "stats", "--cache-dir", store_arg]);
    assert!(stats.status.success());
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        stats_text.contains("objects:      16"),
        "stats: {stats_text}"
    );

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(verify.status.success(), "verify: {}", stderr_of(&verify));

    let gc = mocc(&["cache", "gc", "--cache-dir", store_arg]);
    assert!(gc.status.success(), "gc: {}", stderr_of(&gc));
    let gc_text = String::from_utf8_lossy(&gc.stdout).into_owned();
    assert!(gc_text.contains("kept 16 objects"), "gc: {gc_text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit in a stored blob makes `cache verify` exit nonzero;
/// the next cached run recomputes the damaged cell and still emits
/// golden bytes, after which `verify` passes again.
#[test]
fn corrupt_object_fails_verify_then_run_recovers() {
    let dir = temp_dir("corrupt");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let spec = "examples/specs/sweep_cubic.json";
    let golden = std::fs::read(repo_root().join("tests/fixtures/golden_cubic.json"))
        .expect("golden fixture present");

    let cold = mocc(&["run", spec, "--cache-dir", store_arg, "--out", "/dev/null"]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        stderr_of(&cold)
    );

    let shard = std::fs::read_dir(store.join("objects"))
        .expect("objects dir")
        .next()
        .expect("at least one shard")
        .expect("shard entry")
        .path();
    let blob = std::fs::read_dir(&shard)
        .expect("shard dir")
        .next()
        .expect("at least one blob")
        .expect("blob entry")
        .path();
    let mut bytes = std::fs::read(&blob).expect("read blob");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&blob, bytes).expect("corrupt blob");

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(
        !verify.status.success(),
        "verify missed the corruption: {}",
        String::from_utf8_lossy(&verify.stdout)
    );

    let out = dir.join("recovered.json");
    let recovered = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        out.to_str().expect("utf-8"),
    ]);
    assert!(recovered.status.success(), "{}", stderr_of(&recovered));
    assert!(
        stderr_of(&recovered).contains("cache: 15 hits, 1 misses"),
        "recovery should recompute exactly the damaged cell: {}",
        stderr_of(&recovered)
    );
    assert_eq!(std::fs::read(&out).expect("recovered output"), golden);

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(
        verify.status.success(),
        "store not healed: {}",
        stderr_of(&verify)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve daemon over stdin/stdout: ping, a cached run by spec
/// path (warm store → zero misses, report matching the golden),
/// stats, an error answer for junk, and a clean shutdown.
#[test]
fn serve_answers_the_line_json_protocol_over_stdin() {
    let dir = temp_dir("serve");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let spec = "examples/specs/sweep_cubic.json";

    let warmup = mocc(&["run", spec, "--cache-dir", store_arg, "--out", "/dev/null"]);
    assert!(
        warmup.status.success(),
        "warm-up run failed: {}",
        stderr_of(&warmup)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args(["serve", "--cache-dir", store_arg])
        .current_dir(repo_root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    writeln!(stdin, "{{\"op\":\"ping\"}}").expect("write ping");
    writeln!(stdin, "{{\"op\":\"run\",\"path\":\"{spec}\"}}").expect("write run");
    writeln!(stdin, "{{\"op\":\"nonsense\"}}").expect("write junk");
    writeln!(stdin, "{{\"op\":\"stats\"}}").expect("write stats");
    writeln!(stdin, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("read response")).collect();
    assert_eq!(lines.len(), 5, "one response per request: {lines:#?}");
    assert_eq!(lines[0], "{\"ok\":true,\"op\":\"ping\"}");
    assert!(
        lines[1].starts_with("{\"hits\":16,\"misses\":0,\"ok\":true,\"report\":"),
        "warm serve run should be all-hit: {}",
        &lines[1][..lines[1].len().min(120)]
    );
    assert!(
        lines[2].contains("\"ok\":false") && lines[2].contains("unknown op"),
        "junk op should answer an error: {}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"ok\":true") && lines[3].contains("\"objects\":16"),
        "stats: {}",
        lines[3]
    );
    assert_eq!(lines[4], "{\"ok\":true,\"op\":\"shutdown\"}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile input keeps the daemon alive: malformed JSON, a non-object
/// request, a missing/non-string `op`, invalid UTF-8, and an
/// oversized (>1 MiB) line each answer a structured `"ok":false`
/// error on their own response line, after which the session still
/// serves a normal `ping` and a clean `shutdown`.
#[test]
fn serve_survives_malformed_oversized_and_binary_requests() {
    let dir = temp_dir("serve-hostile");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");

    let mut child = Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args(["serve", "--cache-dir", store_arg])
        .current_dir(repo_root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    writeln!(stdin, "this is not json").expect("write junk");
    writeln!(stdin, "[1,2,3]").expect("write non-object");
    writeln!(stdin, "{{\"op\":42}}").expect("write non-string op");
    stdin
        .write_all(b"\x80\xff binary \x00 junk\n")
        .expect("write invalid utf-8");
    // One request line well past the 1 MiB cap; the daemon must
    // answer an error without buffering it, then keep serving.
    let oversized = vec![b'x'; 3 << 20];
    stdin.write_all(&oversized).expect("write oversized line");
    stdin.write_all(b"\n").expect("terminate oversized line");
    writeln!(stdin, "{{\"op\":\"ping\"}}").expect("write ping");
    writeln!(stdin, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("read response")).collect();
    assert_eq!(lines.len(), 7, "one response per request: {lines:#?}");
    for (i, why) in [
        (0usize, "malformed JSON"),
        (1, "non-object request"),
        (2, "non-string op"),
        (3, "invalid UTF-8"),
        (4, "oversized line"),
    ] {
        assert!(
            lines[i].contains("\"ok\":false"),
            "{why} should answer a structured error: {}",
            lines[i]
        );
    }
    assert!(
        lines[4].contains("exceeds"),
        "oversized line should name the cap: {}",
        lines[4]
    );
    assert_eq!(
        lines[5], "{\"ok\":true,\"op\":\"ping\"}",
        "daemon must still serve after hostile input"
    );
    assert_eq!(lines[6], "{\"ok\":true,\"op\":\"shutdown\"}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve daemon on a Unix socket: a client connects, runs the
/// protocol, and `shutdown` terminates the daemon and removes the
/// socket file.
#[test]
fn serve_answers_over_a_unix_socket() {
    use std::os::unix::net::UnixStream;
    let dir = temp_dir("socket");
    let store = dir.join("store");
    let socket = dir.join("mocc.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args([
            "serve",
            "--cache-dir",
            store.to_str().expect("utf-8"),
            "--socket",
            socket.to_str().expect("utf-8"),
        ])
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");

    let mut conn = None;
    for _ in 0..100 {
        match UnixStream::connect(&socket) {
            Ok(c) => {
                conn = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let conn = conn.expect("daemon came up within 5s");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let mut writer = conn;
    let mut line = String::new();

    writeln!(writer, "{{\"op\":\"ping\"}}").expect("write ping");
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"ping\"}");

    line.clear();
    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    reader.read_line(&mut line).expect("read shutdown ack");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"shutdown\"}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    assert!(!socket.exists(), "socket file left behind");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A socket client that sends `run` and hangs up before reading the
/// reply breaks the daemon's write; that must end only its own
/// session. The next client is still served, and `shutdown` exits 0.
#[test]
fn serve_socket_survives_a_client_that_hangs_up_mid_request() {
    use std::os::unix::net::UnixStream;
    let dir = temp_dir("socket-hangup");
    let store = dir.join("store");
    let socket = dir.join("mocc.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args([
            "serve",
            "--cache-dir",
            store.to_str().expect("utf-8"),
            "--socket",
            socket.to_str().expect("utf-8"),
        ])
        .current_dir(repo_root())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let connect = || {
        for _ in 0..100 {
            if let Ok(c) = UnixStream::connect(&socket) {
                return c;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("daemon did not accept within 5s");
    };

    // A cold sweep: the daemon is still simulating when the
    // client closes, so writing the reply hits a closed peer.
    let mut hangup = connect();
    writeln!(
        hangup,
        "{{\"op\":\"run\",\"path\":\"examples/specs/sweep_cubic.json\"}}"
    )
    .expect("write run");
    drop(hangup);

    let conn = connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let mut writer = conn;
    let mut line = String::new();
    writeln!(writer, "{{\"op\":\"ping\"}}").expect("write ping");
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"ping\"}");
    line.clear();
    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    reader.read_line(&mut line).expect("read shutdown ack");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"shutdown\"}");

    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve exited with {}", out.status);
    assert!(
        stderr_of(&out).contains("connection dropped"),
        "the dropped session is reported once on stderr: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon never serves a policy by its file name: after the model
/// behind a `policy.path` spec is overwritten with another agent, the
/// same request simulates every cell afresh, and the reply carries
/// exactly the report an uncached `mocc run` of the new model writes.
#[test]
fn serve_reloads_a_model_rewritten_on_disk() {
    use mocc_core::{MoccAgent, MoccConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dir = temp_dir("rewritten-model");
    let store = dir.join("store");
    let model = dir.join("model.json");
    let spec = dir.join("spec.json");
    let save_model = |seed: u64| {
        MoccAgent::new(MoccConfig::fast(), &mut StdRng::seed_from_u64(seed))
            .save(&model)
            .expect("save model");
    };
    std::fs::write(
        &spec,
        format!(
            "{{\"agent_mi\":true,\"bandwidth_mbps\":[6.0],\"duration_s\":3,\"kind\":\"sweep\",\
             \"loads\":[\"onoff:1\"],\"loss\":[0.0],\"mss_bytes\":1500,\"name\":\"rewritten\",\
             \"owd_ms\":[10,40],\"policy\":{{\"path\":{:?}}},\"queue_pkts\":[100],\
             \"scheme\":\"mocc:bal\",\"seed\":42,\"shapes\":[\"constant\"]}}",
            model.to_str().expect("utf-8 temp path")
        ),
    )
    .expect("write spec");
    let spec_arg = spec.to_str().expect("utf-8 temp path");
    let uncached_report = || {
        let out = mocc(&["run", spec_arg]);
        assert!(out.status.success(), "uncached run: {}", stderr_of(&out));
        String::from_utf8(out.stdout)
            .expect("utf-8 report")
            .trim_end()
            .to_string()
    };

    let mut child = Command::new(env!("CARGO_BIN_EXE_mocc"))
        .args(["serve", "--cache-dir", store.to_str().expect("utf-8")])
        .current_dir(repo_root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut run = || {
        writeln!(stdin, "{{\"op\":\"run\",\"path\":{spec_arg:?}}}").expect("write run");
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read reply");
        line.trim_end().to_string()
    };

    let mut reports = Vec::new();
    for seed in [3, 4] {
        save_model(seed);
        let report = uncached_report();
        assert_eq!(
            run(),
            format!("{{\"hits\":0,\"misses\":2,\"ok\":true,\"report\":{report}}}"),
            "model seed {seed}: every policy cell must miss and match the uncached run"
        );
        reports.push(report);
    }
    assert_ne!(reports[0], reports[1], "the two models must differ");
    drop(stdin);
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}
