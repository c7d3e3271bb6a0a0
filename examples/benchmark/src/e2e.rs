//! The end-to-end phase: closed-loop clients spawning the release `tce`
//! binary, every response verified.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::inproc::CacheOutcome;
use crate::setup::{verify, Setup};
use crate::spawn::Spawner;

/// Where the children run and what they see.
pub struct Env {
    pub tce: PathBuf,
    /// Working directory of every child (the repository root).
    pub root: PathBuf,
    /// `XDG_CACHE_HOME` of every child, so no request can reach the
    /// user's own `~/.cache/tce`.
    pub xdg_cache: PathBuf,
}

/// When a client stops issuing requests.
#[derive(Clone, Copy)]
pub enum Limit {
    /// Issue no request after this instant (the one in flight completes).
    Until(Instant),
    /// Exactly this many requests per client.
    Count(usize),
}

/// One verified response.
pub struct Sample {
    pub client: usize,
    pub latency_ms: f64,
    pub rss_kib: u64,
    pub error: Option<String>,
    pub cache: CacheOutcome,
    pub end: Instant,
}

pub struct Run {
    pub samples: Vec<Sample>,
    pub start: Instant,
}

impl Run {
    pub fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.error.is_none())
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.error.is_some()).count()
    }

    /// Verified requests per second, first spawn to last exit.
    pub fn throughput_rps(&self) -> Option<f64> {
        let end = self.samples.iter().map(|s| s.end).max()?;
        let wall = (end - self.start).as_secs_f64();
        (wall > 0.0).then(|| self.ok().count() as f64 / wall)
    }
}

/// Run `clients` closed-loop clients, client `c` sending request `i` of
/// its stream only after request `i - 1` has exited. Children write their
/// output under `io_dir`.
pub fn closed_loop(
    env: &Env,
    setup: &Setup,
    clients: usize,
    limit: Limit,
    cache_dir: &Path,
    io_dir: &Path,
) -> Result<Run, String> {
    let spawners = (0..clients)
        .map(|c| Spawner::start(io_dir, &format!("client{c}")))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("starting the spawner helper: {e}"))?;
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = spawners
            .into_iter()
            .enumerate()
            .map(|(client, spawner)| {
                s.spawn(move || client_loop(env, setup, client, spawner, limit, cache_dir))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    samples.sort_by_key(|s| s.end);
    Ok(Run { samples, start })
}

fn client_loop(
    env: &Env,
    setup: &Setup,
    client: usize,
    mut spawner: Spawner,
    limit: Limit,
    cache_dir: &Path,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for i in 0.. {
        match limit {
            Limit::Until(t) if Instant::now() >= t => break,
            Limit::Count(n) if i >= n => break,
            _ => {}
        }
        let req = setup.inputs.request(client, i);
        let program = &setup.inputs.programs[req.program];
        let argv = req.argv(program, cache_dir);
        let env_vars = [("XDG_CACHE_HOME", env.xdg_cache.as_path())];
        let sample = match spawner.run(&env.tce, &argv, &env.root, &env_vars) {
            Err(e) => Sample {
                client,
                latency_ms: 0.0,
                rss_kib: 0,
                error: Some(format!("spawning tce: {e}")),
                cache: CacheOutcome::Off,
                end: Instant::now(),
            },
            Ok(f) => {
                let error = if f.status.success() {
                    verify(setup.expected(&req), &f.stdout).err()
                } else {
                    let last = f.stderr.lines().last().unwrap_or("");
                    Some(format!("{}: {last}", f.status))
                }
                .map(|e| format!("tce {}: {e}", argv.join(" ")));
                let cache = if !req.cached {
                    CacheOutcome::Off
                } else if f.stderr.contains("plan cache: warm hit") {
                    CacheOutcome::Hit
                } else if f.stderr.contains("plan cache: stored") {
                    CacheOutcome::Stored
                } else {
                    CacheOutcome::Missed
                };
                Sample {
                    client,
                    latency_ms: f.wall.as_secs_f64() * 1e3,
                    rss_kib: f.maxrss_kib,
                    error,
                    cache,
                    end: Instant::now(),
                }
            }
        };
        out.push(sample);
    }
    out
}
