//! Server child processes: spawn on port 0, learn the bound address from
//! stdout, wait for readiness, and — on every exit path — kill and reap.
//!
//! A [`ServerProcess`] kills its child when dropped, and the run returns
//! (never `exit`s) on error or interrupt, so a failed run cannot leave a
//! server holding CPU during the next one. Children inherit the environment
//! untouched and no limits are raised on them.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dandelion_common::JsonValue;

use crate::client;
use crate::sys;
use crate::workload::{Topology, GATEWAY_FLAGS, GATEWAY_MEMBERS, WORKER_FLAGS};

/// How long a child gets to print its address and answer `/healthz`.
const READY_DEADLINE: Duration = Duration::from_secs(10);
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

pub struct ServerProcess {
    pub role: String,
    pub addr: SocketAddr,
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    stderr_path: PathBuf,
}

impl ServerProcess {
    /// Spawns `bin args..`, and returns once it printed the address it bound.
    pub fn spawn(bin: &Path, role: &str, args: &[&str], out_dir: &Path) -> Result<Self, String> {
        let stderr_path = out_dir.join(format!("stderr-{role}.log"));
        let stderr = File::create(&stderr_path)
            .map_err(|error| format!("cannot create {}: {error}", stderr_path.display()))?;
        // The child inherits the spawning thread's CPU affinity.
        let confined = sys::Confined::to_server_cpu();
        let spawned = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn();
        drop(confined);
        let mut child =
            spawned.map_err(|error| format!("cannot spawn {}: {error}", bin.display()))?;
        // A thread owns stdout for the child's whole life: it hands over the
        // address line, then keeps draining so the child can never block on
        // a full pipe. It ends at EOF, i.e. when the child is gone.
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let (lines_tx, lines_rx) = mpsc::channel::<String>();
        let stdout_drain = std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                let _ = lines_tx.send(line);
            }
        });
        let mut process = Self {
            role: role.to_string(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
            stdout_drain: Some(stdout_drain),
            stderr_path,
        };
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines_rx.recv_timeout(left) {
                Ok(line) => {
                    let bound = line
                        .split_once("listening on http://")
                        .and_then(|(_, addr)| addr.trim().parse().ok());
                    if let Some(addr) = bound {
                        process.addr = addr;
                        return Ok(process);
                    }
                }
                Err(_) => return Err(process.failure("printed no listening address")),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// An error message carrying what the child wrote to stderr.
    pub fn failure(&self, what: &str) -> String {
        let stderr = fs::read_to_string(&self.stderr_path).unwrap_or_default();
        format!(
            "{} (pid {}) {what}; its stderr:\n{stderr}",
            self.role,
            self.pid()
        )
    }

    /// Polls `GET /healthz` until it answers 200 or the deadline passes.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            if let Ok(response) = client::get(self.addr, "/healthz", CONTROL_TIMEOUT) {
                if response.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(self.failure("did not answer /healthz within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `GET path`, parsed as JSON.
    pub fn get_json(&self, path: &str) -> Result<JsonValue, String> {
        let response = client::get(self.addr, path, CONTROL_TIMEOUT)
            .map_err(|error| self.failure(&format!("failed GET {path}: {error}")))?;
        JsonValue::parse(&String::from_utf8_lossy(&response.body))
            .map_err(|error| self.failure(&format!("sent unparseable JSON for {path}: {error}")))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone, and `Drop`
        // must not panic.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// Every process serving one workload.
pub struct Cluster {
    pub gateway: Option<ServerProcess>,
    pub workers: Vec<ServerProcess>,
}

impl Cluster {
    /// Where the load generator connects.
    pub fn front(&self) -> &ServerProcess {
        self.gateway.as_ref().unwrap_or(&self.workers[0])
    }

    pub fn processes(&self) -> impl Iterator<Item = &ServerProcess> {
        self.gateway.iter().chain(&self.workers)
    }

    /// Spawns the topology and waits until it can serve: every process
    /// answers `/healthz` and, behind a gateway, every member is listed
    /// healthy. Members are spawned before any is waited for, so they start
    /// side by side.
    pub fn start(bin: &Path, topology: Topology, out_dir: &Path) -> Result<Self, String> {
        let mut cluster = Cluster {
            gateway: None,
            workers: Vec::new(),
        };
        match topology {
            Topology::Direct => {
                cluster
                    .workers
                    .push(ServerProcess::spawn(bin, "worker", &WORKER_FLAGS, out_dir)?);
            }
            Topology::Gateway => {
                let gateway = ServerProcess::spawn(bin, "gateway", &GATEWAY_FLAGS, out_dir)?;
                let gateway_addr = gateway.addr.to_string();
                cluster.gateway = Some(gateway);
                for index in 0..GATEWAY_MEMBERS {
                    let mut args = WORKER_FLAGS.to_vec();
                    args.extend(["--join", &gateway_addr]);
                    let role = format!("member{index}");
                    cluster
                        .workers
                        .push(ServerProcess::spawn(bin, &role, &args, out_dir)?);
                }
            }
        }
        for process in cluster.processes() {
            process.wait_healthy()?;
        }
        if let Some(gateway) = &cluster.gateway {
            let deadline = Instant::now() + READY_DEADLINE;
            while healthy_members(&gateway.get_json("/v1/cluster/members")?) < GATEWAY_MEMBERS {
                if Instant::now() >= deadline {
                    return Err(gateway.failure("did not list every member healthy within 10 s"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(cluster)
    }
}

fn healthy_members(document: &JsonValue) -> usize {
    document
        .get("members")
        .and_then(JsonValue::as_array)
        .map_or(0, |members| {
            members
                .iter()
                .filter(|member| member.get("state").and_then(JsonValue::as_str) == Some("healthy"))
                .count()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_healthy_members() {
        let document = JsonValue::parse(
            r#"{"members":[{"node":"node-1","state":"healthy"},{"node":"node-2","state":"ejected"}]}"#,
        )
        .unwrap();
        assert_eq!(healthy_members(&document), 1);
        assert_eq!(healthy_members(&JsonValue::parse("{}").unwrap()), 0);
    }

    #[test]
    fn a_child_that_never_prints_an_address_is_reported_with_its_stderr_and_reaped() {
        let out_dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        fs::create_dir_all(&out_dir).unwrap();
        let error = match ServerProcess::spawn(
            Path::new("/bin/sh"),
            "fake",
            &["-c", "echo boom >&2"],
            &out_dir,
        ) {
            Err(error) => error,
            Ok(_) => panic!("a shell is not a server"),
        };
        assert!(
            error.contains("printed no listening address") && error.contains("boom"),
            "{error}"
        );
        fs::remove_dir_all(&out_dir).unwrap();
    }
}
