//! Spawn `tce` processes, timed from spawn to exit, with each child's peak
//! resident set size from `wait4`.
//!
//! Linux charges a new program the peak RSS of the address space it was
//! exec'd from (`ru_maxrss` keeps the old address space's high-water
//! mark). Spawned straight from the benchmark, every child would report at
//! least the benchmark's own peak — hundreds of MiB after an in-process
//! set-up. So children are spawned by a helper: this binary re-executed
//! with `--spawner`, whose address space stays a few MiB. The helper reads
//! one request per line on stdin, runs it with stdout and stderr going to
//! the files the request names, and answers with one line on stdout.

use std::io::{BufRead, BufReader, Write};
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Number, Value};

/// The flag that turns this binary into the helper.
pub const SPAWNER_FLAG: &str = "--spawner";

/// One finished child.
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: String,
    pub stderr: String,
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Peak resident set size (KiB, Linux `ru_maxrss`).
    pub maxrss_kib: u64,
}

/// A running helper, owned by one client.
pub struct Spawner {
    helper: Child,
    requests: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
    /// Where the children's stdout and stderr go.
    io: (PathBuf, PathBuf),
}

impl Spawner {
    /// Start a helper whose children write their output under `io_dir`
    /// as `<tag>.stdout` / `<tag>.stderr`.
    pub fn start(io_dir: &Path, tag: &str) -> std::io::Result<Spawner> {
        std::fs::create_dir_all(io_dir)?;
        let mut helper = Command::new(std::env::current_exe()?)
            .arg(SPAWNER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Spawner {
            requests: helper.stdin.take(),
            answers: BufReader::new(helper.stdout.take().expect("helper stdout was piped")),
            helper,
            io: (io_dir.join(format!("{tag}.stdout")), io_dir.join(format!("{tag}.stderr"))),
        })
    }

    /// Run `bin args…` in `cwd` with `env` added and collect its output.
    pub fn run(
        &mut self,
        bin: &Path,
        args: &[String],
        cwd: &Path,
        env: &[(&str, &Path)],
    ) -> std::io::Result<Finished> {
        let s = |x: &str| Value::String(x.to_string());
        let p = |x: &Path| Value::String(x.display().to_string());
        let request = Value::Object(vec![
            ("bin".into(), p(bin)),
            ("args".into(), Value::Array(args.iter().map(|a| s(a)).collect())),
            ("cwd".into(), p(cwd)),
            (
                "env".into(),
                Value::Array(env.iter().map(|(k, v)| Value::Array(vec![s(k), p(v)])).collect()),
            ),
            ("stdout".into(), p(&self.io.0)),
            ("stderr".into(), p(&self.io.1)),
        ]);
        let requests = self.requests.as_mut().expect("requests are open until drop");
        writeln!(requests, "{}", serde_json::to_string(&request).map_err(std::io::Error::other)?)?;
        requests.flush()?;
        let mut line = String::new();
        if self.answers.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("the spawner helper exited"));
        }
        let answer: Value = serde_json::from_str(&line).map_err(std::io::Error::other)?;
        if let Some(e) = answer.get("error").and_then(Value::as_str) {
            return Err(std::io::Error::other(e.to_string()));
        }
        let field = |k: &str| {
            answer
                .get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| std::io::Error::other(format!("helper answer lacks `{k}`")))
        };
        let status = c_int::try_from(field("status")?).map_err(std::io::Error::other)?;
        let read =
            |path: &Path| std::fs::read(path).map(|b| String::from_utf8_lossy(&b).into_owned());
        Ok(Finished {
            status: ExitStatus::from_raw(status),
            stdout: read(&self.io.0)?,
            stderr: read(&self.io.1)?,
            wall: Duration::from_nanos(field("wall_ns")?),
            maxrss_kib: field("maxrss_kib")?,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the helper's loop; wait so it never
        // outlives the benchmark.
        drop(self.requests.take());
        let _ = self.helper.wait();
    }
}

/// The helper's main loop: serve requests until stdin closes.
pub fn serve() -> ExitCode {
    let mut stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { return ExitCode::FAILURE };
        let answer = match run_request(&line) {
            Ok((status, wall, maxrss)) => Value::Object(vec![
                ("status".into(), Value::Number(Number::Int(i128::from(status)))),
                ("wall_ns".into(), Value::Number(Number::UInt(wall.as_nanos()))),
                ("maxrss_kib".into(), Value::Number(Number::Int(i128::from(maxrss)))),
            ]),
            Err(e) => Value::Object(vec![("error".into(), Value::String(e))]),
        };
        let sent = serde_json::to_string(&answer)
            .map_err(std::io::Error::other)
            .and_then(|text| writeln!(stdout, "{text}"))
            .and_then(|()| stdout.flush());
        if sent.is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Run one request; its raw wait status, wall time and `ru_maxrss`.
fn run_request(line: &str) -> Result<(c_int, Duration, c_long), String> {
    let req: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let text = |k: &str| req.get(k).and_then(Value::as_str).ok_or(format!("request lacks `{k}`"));
    let file = |k: &str| std::fs::File::create(text(k)?).map_err(|e| format!("{k}: {e}"));
    let mut cmd = Command::new(text("bin")?);
    cmd.current_dir(text("cwd")?)
        .stdin(Stdio::null())
        .stdout(file("stdout")?)
        .stderr(file("stderr")?);
    for a in req.get("args").and_then(Value::as_array).into_iter().flatten() {
        cmd.arg(a.as_str().ok_or("non-string argument")?);
    }
    for kv in req.get("env").and_then(Value::as_array).into_iter().flatten() {
        match kv.as_array().map(Vec::as_slice) {
            Some([Value::String(k), Value::String(v)]) => cmd.env(k, v),
            _ => return Err("malformed env entry".into()),
        };
    }
    let start = Instant::now();
    let child =
        cmd.spawn().map_err(|e| format!("spawning {}: {e}", text("bin").unwrap_or_default()))?;
    let pid = c_int::try_from(child.id()).map_err(|e| e.to_string())?;
    let (status, maxrss) = reap(pid).map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    // `child` was reaped above; dropping the handle only closes handles.
    drop(child);
    Ok((status, wall, maxrss))
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Wait for `pid` and return its raw wait status and `ru_maxrss`.
fn reap(pid: c_int) -> std::io::Result<(c_int, c_long)> {
    loop {
        let mut status: c_int = 0;
        let mut usage = Rusage {
            ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
            ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `pid` is our own unreaped child (spawned above and never
        // waited on through `std`), and both out-pointers refer to live,
        // writable locals of the C layout `wait4(2)` expects.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage.ru_maxrss));
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
