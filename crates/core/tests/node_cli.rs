//! End-to-end test of the `ndpipe_node` CLI: real OS processes, real
//! sockets — the artifact-appendix deployment shape.

use std::process::{Child, Command, Stdio};

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn node() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ndpipe_node"))
}

/// Ports in the dynamic range, offset by pid so parallel test runs don't
/// collide.
fn ports() -> (u16, u16) {
    let base = 20000 + (std::process::id() % 20000) as u16;
    (base, base + 1)
}

fn spawn_pipestore(port: u16, shard: &str, extra: &[&str]) -> KillOnDrop {
    let mut cmd = node();
    cmd.args([
        "pipestore",
        "--listen",
        &format!("127.0.0.1:{port}"),
        "--shard",
        shard,
        "--seed",
        "7",
    ]);
    cmd.args(extra);
    KillOnDrop(
        cmd.stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pipestore"),
    )
}

#[test]
fn two_pipestores_and_a_tuner_across_processes() {
    let (p1, p2) = ports();
    let stores: Vec<KillOnDrop> = [(0, p1), (1, p2)]
        .into_iter()
        .map(|(i, port)| spawn_pipestore(port, &format!("{i}/2"), &[]))
        .collect();
    // Give the listeners a moment to bind (retry connect below anyway).
    let connect = format!("127.0.0.1:{p1},127.0.0.1:{p2}");
    let mut last_output = None;
    for attempt in 0..10 {
        let output = node()
            .args([
                "tuner",
                "--connect",
                &connect,
                "--seed",
                "7",
                "--runs",
                "2",
                "--epochs",
                "8",
            ])
            .output()
            .expect("run tuner");
        if output.status.success() {
            last_output = Some(output);
            break;
        }
        assert!(attempt < 9, "tuner never connected: {output:?}");
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    let output = last_output.expect("tuner succeeded");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("examples trained"), "stdout: {stdout}");
    assert!(stdout.contains("final accuracy"), "stdout: {stdout}");
    // The distributed run must actually learn: final top-1 well above the
    // 12.5% chance level for 8 classes.
    let top1: f64 = stdout
        .lines()
        .find(|l| l.contains("final accuracy"))
        .and_then(|l| l.split("top1 ").nth(1))
        .and_then(|s| s.split('%').next())
        .and_then(|s| s.parse().ok())
        .expect("parse accuracy");
    assert!(top1 > 50.0, "distributed run did not learn: {top1}%");

    // Both pipestore processes exit cleanly after the session.
    for mut s in stores {
        let status = s.0.wait().expect("pipestore exit");
        assert!(status.success(), "pipestore failed: {status:?}");
        std::mem::forget(s); // already waited
    }
}

/// A replicated fleet survives losing a store mid-deployment: the
/// placement-aware Tuner extracts the dead store's shard from the
/// surviving replica instead of dropping it.
#[test]
fn replicated_fleet_reroutes_around_a_dead_store() {
    let base = 21000 + (std::process::id() % 19000) as u16;
    let ports = [base, base + 1, base + 2];
    let mut stores: Vec<KillOnDrop> = ports
        .iter()
        .enumerate()
        .map(|(i, port)| spawn_pipestore(*port, &format!("{i}/3"), &["--replicas", "2"]))
        .collect();
    // Kill store 2 before the Tuner ever connects: its shard must still
    // be trained on, served by whichever survivor replicates it.
    drop(stores.pop().expect("three stores"));

    let connect = format!(
        "127.0.0.1:{},127.0.0.1:{},127.0.0.1:{}",
        ports[0], ports[1], ports[2]
    );
    let mut last_output = None;
    for attempt in 0..10 {
        let output = node()
            .args([
                "tuner",
                "--connect",
                &connect,
                "--seed",
                "7",
                "--runs",
                "2",
                "--epochs",
                "6",
                "--quorum",
                "2",
                "--replicas",
                "2",
            ])
            .output()
            .expect("run tuner");
        if output.status.success() {
            last_output = Some(output);
            break;
        }
        assert!(attempt < 9, "tuner never connected: {output:?}");
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    let output = last_output.expect("tuner succeeded");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let reroutes: u64 = stdout
        .lines()
        .find(|l| l.contains("shard reroutes"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|s| s.parse().ok())
        .expect("parse reroute count");
    assert!(
        reroutes > 0,
        "dead store's shard was not rerouted: {stdout}"
    );
    assert!(stdout.contains("examples trained"), "stdout: {stdout}");

    // The two surviving pipestore processes exit cleanly.
    for mut s in stores {
        let status = s.0.wait().expect("pipestore exit");
        assert!(status.success(), "pipestore failed: {status:?}");
        std::mem::forget(s); // already waited
    }
}

#[test]
fn usage_error_for_bad_invocations() {
    let out = node().arg("bogus").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");

    let out = node()
        .args(["pipestore", "--listen", "127.0.0.1:1", "--shard", "9/3"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}
