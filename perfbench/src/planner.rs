//! The `planner_mixed` workload: `eftq_planner::serve` in-process on
//! loopback, driven by a seeded query mix, one request per connection.
//!
//! Two phases share one server. An open loop sends at a fixed rate from
//! at most `nproc` generator threads, each request timed from the
//! instant it was due to its last response byte (so a stall charges the
//! wait it imposes on later requests); this gives the printed median
//! and tail latency. A closed-loop burst of a fixed request count then
//! measures capacity as `wall_s` and its `cpu_s`. Every response is
//! checked against an answer the generator computes itself from its own
//! copy of the surface index.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use eft_vqa::advisor::plan;
use eft_vqa::fidelity::Workload;
use eftq_planner::http::{read_request, write_response};
use eftq_planner::index::{
    metric_strategy, strategy_metric, ADVISOR_METRICS, ADVISOR_P_PHYS, ADVISOR_SPEC,
};
use eftq_planner::{serve, ServerConfig, ServerHandle, Surface, SurfaceIndex};
use eftq_qec::DeviceModel;

use crate::checks::{check_response, split_response, Expected};
use crate::host::{self, HostFacts, InputRng};
use crate::metrics::Values;
use crate::stats::{mean, median, percentile, tail};
use crate::{Outcome, RunCfg};

/// Offered rate of the open-loop phase, requests per second: the rate
/// at which a loopback prototype of this workload measured p50 1.2–1.3 ms
/// and p99 2.3 ms. The repository holds no record of real planner
/// traffic, so this rate, like the query mix in [`Traffic::next`], is an
/// assumption; results on `planner_mixed` hold for this rate and mix.
const BASE_RPS: f64 = 100.0;

/// Share of `--seconds` spent in the open loop.
const OPEN_SHARE: f64 = 0.6;

/// Untimed requests sent before the measured open loop.
const WARMUP_REQUESTS: usize = 200;

/// Requests in the closed-loop burst.
const BURST: usize = 3000;

/// Equal slices the burst is timed in.
const BURST_SLICES: usize = 6;

/// Server set-ups per run; the median is reported.
const SETUP_REPS: usize = 25;

/// Client socket timeout; a request that takes longer fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// The fixed offered-rate ladder of the capacity search (traced run).
const LADDER: [f64; 6] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];

/// p99 latency limit of a ladder step, milliseconds.
const P99_LIMIT_MS: f64 = 10.0;

/// Work the server does for a request, replayed in the traced run.
#[derive(Clone, Debug)]
enum Work {
    /// `/plan` surrogate: four advisor surface evaluations.
    Plan { n: i64, dq: i64 },
    /// `/plan?exact=1`: the exact `plan()` (plus the surrogate).
    Exact { n: i64, dq: i64 },
    /// `/lookup`: one surface evaluation.
    Lookup {
        surface: String,
        key: Vec<String>,
        query: Vec<f64>,
    },
    /// Health, metrics or a malformed request.
    Inline,
}

/// One generated request.
#[derive(Clone, Debug)]
struct Query {
    bytes: Vec<u8>,
    expected: Expected,
    work: Work,
}

fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

fn advisor_surface<'a>(index: &'a SurfaceIndex, metric: &str) -> &'a Surface {
    index
        .get(&format!("{ADVISOR_SPEC}/{metric}"))
        .and_then(|f| f.surface(&[]))
        .expect("advisor surfaces are loaded")
}

/// The surrogate `/plan` answer, computed the way the server ranks it.
fn surrogate_plan(index: &SurfaceIndex, n: i64, dq: i64) -> Expected {
    let mut best: Option<(&str, f64)> = None;
    let mut clamped = false;
    for metric in ADVISOR_METRICS {
        let hit = advisor_surface(index, metric).eval(&[dq as f64, n as f64]);
        clamped |= hit.clamped;
        if best.is_none_or(|b| hit.value > b.1) {
            best = Some((metric, hit.value));
        }
    }
    let (metric, fidelity) = best.expect("advisor metrics are non-empty");
    Expected::Plan {
        strategy: metric_strategy(metric),
        fidelity,
        source: "surface",
        degraded: clamped,
    }
}

fn exact_plan(n: i64, dq: i64) -> Expected {
    let p = plan(
        &Workload::fche(n as usize, 1),
        &DeviceModel::new(dq as usize, ADVISOR_P_PHYS),
    );
    let best = p.best();
    Expected::Plan {
        strategy: metric_strategy(strategy_metric(&best.strategy)),
        fidelity: best.fidelity,
        source: "exact",
        degraded: false,
    }
}

/// A `/lookup` on `surface` with the given categorical key and numeric
/// coordinates (in the surface's axis order).
fn lookup(index: &SurfaceIndex, surface: &str, key: &[&str], coords: &[f64]) -> Query {
    let family = index.get(surface).expect("lookup surface is loaded");
    let s = family.surface(key).expect("lookup variant exists");
    let mut target = format!("/lookup?surface={surface}");
    for (axis, v) in family.categorical_axes().iter().zip(key) {
        target.push_str(&format!("&{axis}={v}"));
    }
    for (axis, v) in s.axes().iter().zip(coords) {
        target.push_str(&format!("&{}={v}", axis.name));
    }
    let hit = s.eval(coords);
    Query {
        bytes: get_request(&target),
        expected: Expected::Lookup {
            value: hit.value,
            degraded: hit.clamped,
        },
        work: Work::Lookup {
            surface: surface.into(),
            key: key.iter().map(|k| k.to_string()).collect(),
            query: coords.to_vec(),
        },
    }
}

const LOOKUP_METRICS: [&str; 4] = ["e0", "e_pqec", "e_nisq", "gamma"];
const MODELS: [&str; 2] = ["Ising", "Heisenberg"];

/// The seeded query mix.
struct Traffic<'a> {
    index: &'a SurfaceIndex,
    rng: InputRng,
    exact_keys: HashSet<(i64, i64)>,
    sent: usize,
}

impl<'a> Traffic<'a> {
    fn new(index: &'a SurfaceIndex, seed: u64) -> Self {
        Traffic {
            index,
            rng: InputRng::new(seed, 0x91a2),
            exact_keys: HashSet::new(),
            sent: 0,
        }
    }

    fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
        from[self.rng.range(0, from.len() as i64 - 1) as usize]
    }

    fn coupling(&mut self) -> f64 {
        self.rng.range(250, 1000) as f64 / 1000.0
    }

    fn plan(&mut self, n: i64, dq: i64) -> Query {
        Query {
            bytes: get_request(&format!("/plan?logical_qubits={n}&device_qubits={dq}")),
            expected: surrogate_plan(self.index, n, dq),
            work: Work::Plan { n, dq },
        }
    }

    /// The next query of the mix. The shares (62 % surrogate `/plan`,
    /// 10 % fresh-key exact, 15 % `/lookup`, 8 % off-grid, 5 % malformed,
    /// `/healthz` every 25th and `/metrics` every 100th request) are
    /// assumptions: they put every route and every answer class the
    /// server has into each run, with surrogate planning, the product's
    /// main query, as the bulk. No trace of real traffic backs them.
    fn next(&mut self) -> Query {
        let i = self.sent;
        self.sent += 1;
        // Health and metrics probes at a low fixed rate.
        if i % 100 == 50 {
            return Query {
                bytes: get_request("/metrics"),
                expected: Expected::Metrics,
                work: Work::Inline,
            };
        }
        if i % 25 == 12 {
            return Query {
                bytes: get_request("/healthz"),
                expected: Expected::Health,
                work: Work::Inline,
            };
        }
        let r = self.rng.unit();
        if r < 0.62 {
            // On-grid surrogate plan.
            let (n, dq) = (self.rng.range(8, 64), self.rng.range(5_000, 60_000));
            self.plan(n, dq)
        } else if r < 0.72 {
            // Exact plan on a key never asked before: the exact cache misses.
            let key = loop {
                let k = (self.rng.range(8, 64), self.rng.range(5_000, 60_000));
                if self.exact_keys.insert(k) {
                    break k;
                }
            };
            Query {
                bytes: get_request(&format!(
                    "/plan?logical_qubits={}&device_qubits={}&exact=1",
                    key.0, key.1
                )),
                expected: exact_plan(key.0, key.1),
                work: Work::Exact {
                    n: key.0,
                    dq: key.1,
                },
            }
        } else if r < 0.87 {
            // Lookups inside the fig12 and fig13 reduced grids.
            let model = self.pick(&MODELS);
            let metric = self.pick(&LOOKUP_METRICS);
            let j = self.coupling();
            if self.rng.unit() < 0.5 {
                let qubits = self.rng.range(16, 32) as f64;
                lookup(
                    self.index,
                    &format!("fig12/{metric}"),
                    &[model],
                    &[qubits, j],
                )
            } else {
                lookup(self.index, &format!("fig13/{metric}"), &[model], &[j])
            }
        } else if r < 0.95 {
            // Off-grid queries: answered, but stamped degraded.
            if self.rng.unit() < 0.5 {
                let (n, dq) = (self.rng.range(65, 120), self.rng.range(61_000, 100_000));
                self.plan(n, dq)
            } else {
                let model = self.pick(&MODELS);
                let qubits = self.rng.range(40, 100) as f64;
                let j = self.coupling();
                lookup(self.index, "fig12/gamma", &[model], &[qubits, j])
            }
        } else {
            let bytes = match self.rng.range(0, 4) {
                0 => get_request("/plan?logical_qubits=abc&device_qubits=20000"),
                1 => get_request("/plan?logical_qubits=0&device_qubits=20000"),
                2 => get_request("/plan?device_qubits=20000"),
                3 => get_request("/lookup?surface=fig12/gamma&model=Ising&qubits=x&j=0.5"),
                _ => b"NONSENSE\r\n\r\n".to_vec(),
            };
            Query {
                bytes,
                expected: Expected::BadRequest,
                work: Work::Inline,
            }
        }
    }
}

/// One request's client-side record.
#[derive(Clone, Debug, Default)]
struct Exchange {
    /// Seconds from the due instant (open loop) or from the connect
    /// call (burst) to the last response byte.
    latency: f64,
    /// How late the generator started the request.
    lateness: f64,
    connect: f64,
    /// From the request written to the first response byte.
    ttfb: f64,
    /// From the connect call to the last response byte.
    total: f64,
    raw: Vec<u8>,
    error: Option<String>,
}

fn exchange(addr: SocketAddr, bytes: &[u8]) -> Exchange {
    let mut ex = Exchange::default();
    let t0 = Instant::now();
    let attempt = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        ex.connect = t0.elapsed().as_secs_f64();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.write_all(bytes)?;
        let sent = Instant::now();
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf)?;
        ex.ttfb = sent.elapsed().as_secs_f64();
        ex.raw.extend_from_slice(&buf[..n]);
        stream.read_to_end(&mut ex.raw)?;
        Ok(())
    })();
    ex.total = t0.elapsed().as_secs_f64();
    if let Err(e) = attempt {
        ex.error = Some(e.to_string());
    }
    ex
}

/// Sleeps, then spins the last stretch, until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(300));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Poisson arrivals at `rate` per second: `n` due offsets in seconds.
/// Random phases keep the latency distribution from locking onto the
/// period of any polling loop in the server.
fn poisson_dues(rng: &mut InputRng, n: usize, rate: f64) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let due = t;
            t += -(1.0 - rng.unit()).ln() / rate;
            due
        })
        .collect()
}

/// Open loop: request `i` is due `dues[i]` seconds after the start;
/// generator thread `k` owns requests `i % threads == k`.
fn open_loop(addr: SocketAddr, queries: &[Query], dues: &[f64], threads: usize) -> Vec<Exchange> {
    let out: Mutex<Vec<(usize, Exchange)>> = Mutex::new(Vec::with_capacity(queries.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for k in 0..threads {
            let out = &out;
            s.spawn(move || {
                let mut mine = Vec::new();
                for (i, q) in queries.iter().enumerate().skip(k).step_by(threads) {
                    let due = start + Duration::from_secs_f64(dues[i]);
                    wait_until(due);
                    let lateness = due.elapsed().as_secs_f64();
                    let mut ex = exchange(addr, &q.bytes);
                    ex.latency = due.elapsed().as_secs_f64();
                    ex.lateness = lateness;
                    mine.push((i, ex));
                }
                out.lock().expect("results poisoned").extend(mine);
            });
        }
    });
    let mut all = out.into_inner().expect("results poisoned");
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, e)| e).collect()
}

/// Closed loop: `threads` connections in turn, each sending its next
/// request as soon as the previous answer arrived.
fn burst(addr: SocketAddr, queries: &[Query], threads: usize) -> Vec<Exchange> {
    let cursor = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Exchange)>> = Mutex::new(Vec::with_capacity(queries.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(q) = queries.get(i) else { break };
                    let mut ex = exchange(addr, &q.bytes);
                    ex.latency = ex.total;
                    mine.push((i, ex));
                }
                out.lock().expect("results poisoned").extend(mine);
            });
        }
    });
    let mut all = out.into_inner().expect("results poisoned");
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, e)| e).collect()
}

/// Checks every response; returns the failures, with the first few
/// described in `notes`.
fn check_all(queries: &[Query], got: &[Exchange], phase: &str, notes: &mut Vec<String>) -> usize {
    let mut failed = 0;
    for (q, ex) in queries.iter().zip(got) {
        let verdict = match &ex.error {
            Some(e) => Err(format!("connection error: {e}")),
            None => check_response(&ex.raw, &q.expected),
        };
        if let Err(why) = verdict {
            failed += 1;
            if failed <= 3 {
                notes.push(format!(
                    "check ({phase}): {} -> {why}",
                    String::from_utf8_lossy(&q.bytes)
                        .lines()
                        .next()
                        .unwrap_or("")
                ));
            }
        }
    }
    failed
}

fn ready(addr: SocketAddr) -> bool {
    let ex = exchange(addr, &get_request("/readyz"));
    ex.error.is_none() && split_response(&ex.raw).map(|r| r.0) == Some(200)
}

/// Loads the index, starts the server and waits for `/readyz`; returns
/// the handle, the load time and the set-up time: index load plus
/// `serve` (bind, stage threads started). The wait for the first
/// `/readyz` answer is checked but not timed: it is 0 or 2 ms, set by
/// whether the connection lands before the acceptor's first poll or
/// during its 2 ms `WouldBlock` sleep, a thread-start race that would
/// make the set-up figure flip between two values from run to run.
fn start_server(dir: &Path) -> (ServerHandle, f64, f64) {
    let t0 = Instant::now();
    let index = SurfaceIndex::load(dir).expect("surface index loads");
    let load = t0.elapsed().as_secs_f64();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let handle = serve(index, cfg).expect("server binds on loopback");
    let setup = t0.elapsed().as_secs_f64();
    while !ready(handle.addr()) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "server never became ready"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (handle, load, setup)
}

fn ms(values: impl Iterator<Item = f64>) -> Vec<f64> {
    values.map(|s| s * 1e3).collect()
}

/// The server's own counters from a `/metrics` body.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let ex = exchange(addr, &get_request("/metrics"));
    let body = split_response(&ex.raw).map_or("", |r| r.1);
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// The capacity search of the traced run: the highest ladder rate whose
/// p99 stays under the limit, with no failures and no growing lateness.
fn capacity(
    addr: SocketAddr,
    traffic: &mut Traffic,
    arrivals: &mut InputRng,
    threads: usize,
    notes: &mut Vec<String>,
) -> (f64, usize, usize) {
    let (mut best, mut sent, mut failed) = (0.0, 0, 0);
    for rate in LADDER {
        let queries: Vec<Query> = (0..rate as usize).map(|_| traffic.next()).collect();
        let got = open_loop(
            addr,
            &queries,
            &poisson_dues(arrivals, queries.len(), rate),
            threads,
        );
        let bad = check_all(&queries, &got, "ladder", notes);
        sent += queries.len();
        failed += bad;
        let p99 = percentile(&ms(got.iter().map(|e| e.latency)), 99.0);
        let quarter = got.len() / 4;
        let late = |s: &[Exchange]| median(&ms(s.iter().map(|e| e.lateness)));
        let growth = late(&got[got.len() - quarter..]) - late(&got[..quarter]);
        let pass = bad == 0 && p99 < P99_LIMIT_MS && growth < 1.0;
        notes.push(format!(
            "ladder {rate:>6.0} req/s: p99 {p99:.2} ms, lateness growth {growth:.2} ms, {bad} failed -> {}",
            if pass { "pass" } else { "fail" }
        ));
        if !pass {
            break;
        }
        best = rate;
    }
    (best, sent, failed)
}

/// The `planner_mixed` workload.
pub fn planner_mixed(cfg: &RunCfg) -> Outcome {
    let threads = host::nproc();
    let dir = host::repo_root().join("ci/baselines");
    let mut notes = Vec::new();
    // Set-up: index load and bind, then readiness; repeated, median reported.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut handle = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = handle.take() {
            ServerHandle::drain(old);
        }
        let (h, load, total) = start_server(&dir);
        loads.push(load);
        setups.push(total);
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up ran");
    let addr = handle.addr();
    let reference = SurfaceIndex::load(&dir).expect("surface index loads");
    let mut traffic = Traffic::new(&reference, cfg.seed);
    let mut arrivals = InputRng::new(cfg.seed, 0xa441);
    let open_n = (BASE_RPS * OPEN_SHARE * cfg.seconds).max(100.0) as usize;
    let facts = HostFacts {
        nproc: host::nproc(),
        sweep_threads: 0,
        ga_threads: 0,
        generator_threads: threads,
        loopback: true,
    };
    let mut attempted = 0;
    let mut failed = 0;

    // Untimed warm-up at the same rate, checked like the rest.
    let warm_queries: Vec<Query> = (0..WARMUP_REQUESTS).map(|_| traffic.next()).collect();
    let warm_dues = poisson_dues(&mut arrivals, WARMUP_REQUESTS, BASE_RPS);
    let warm = open_loop(addr, &warm_queries, &warm_dues, threads);
    attempted += warm.len();
    failed += check_all(&warm_queries, &warm, "warm-up", &mut notes);

    let open_queries: Vec<Query> = (0..open_n).map(|_| traffic.next()).collect();
    let open = open_loop(
        addr,
        &open_queries,
        &poisson_dues(&mut arrivals, open_n, BASE_RPS),
        threads,
    );
    attempted += open.len();
    failed += check_all(&open_queries, &open, "open loop", &mut notes);
    let lat = ms(open.iter().map(|e| e.latency));
    let late = ms(open.iter().map(|e| e.lateness));
    let t = tail(&lat);
    notes.push(format!(
        "open loop, Poisson arrivals at {BASE_RPS} req/s over {threads} generator threads: n={}, p50 {:.3} ms, \
         {} {:.3} ms; generator lateness p50 {:.3} ms, p99 {:.3} ms",
        lat.len(),
        median(&lat),
        t.label,
        t.value,
        median(&late),
        percentile(&late, 99.0)
    ));

    let mut v = Values::new();
    if !cfg.trace {
        // The burst runs as equal slices; the reported burst time and CPU
        // are the median slice scaled to the whole burst, so one slice hit
        // by a host stall does not move the figure.
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        for _ in 0..BURST_SLICES {
            let queries: Vec<Query> = (0..BURST / BURST_SLICES).map(|_| traffic.next()).collect();
            let cpu0 = host::cpu_seconds();
            let t0 = Instant::now();
            let got = burst(addr, &queries, threads);
            walls.push(t0.elapsed().as_secs_f64() * BURST_SLICES as f64);
            cpus.push((host::cpu_seconds() - cpu0) * BURST_SLICES as f64);
            attempted += got.len();
            failed += check_all(&queries, &got, "burst", &mut notes);
        }
        let (wall, cpu) = (median(&walls), median(&cpus));
        notes.push(format!(
            "closed-loop burst: {BURST} requests over {threads} connections in {BURST_SLICES} \
             slices; median slice scaled to the burst: {wall:.3} s ({:.0} req/s), cpu {cpu:.3} s",
            BURST as f64 / wall
        ));
        v.insert("setup_s", median(&setups));
        v.insert("wall_s", wall);
        v.insert("cpu_s", cpu);
        v.insert("peak_rss_mb", host::peak_rss_mb());
    } else {
        // Traced phase: the same open loop bracketed by /metrics scrapes,
        // then replays of the server's stages on the bytes that were sent.
        let before = scrape(addr);
        let traced_queries: Vec<Query> = (0..open_n).map(|_| traffic.next()).collect();
        let traced = open_loop(
            addr,
            &traced_queries,
            &poisson_dues(&mut arrivals, open_n, BASE_RPS),
            threads,
        );
        let after = scrape(addr);
        attempted += traced.len();
        failed += check_all(&traced_queries, &traced, "traced", &mut notes);
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let server_mean_ms = 1e3 * delta("planner_request_seconds_sum")
            / delta("planner_request_seconds_count").max(1.0);
        let client_mean_ms = mean(&ms(traced.iter().map(|e| e.total)));
        let (max_rps, ladder_sent, ladder_failed) =
            capacity(addr, &mut traffic, &mut arrivals, threads, &mut notes);
        attempted += ladder_sent;
        failed += ladder_failed;

        let replay = replay_server_stages(&reference, &traced_queries, &traced);
        let connect_ms = mean(&ms(traced.iter().map(|e| e.connect)));
        let ttfb_ms = mean(&ms(traced.iter().map(|e| e.ttfb)));
        let server_ms = (replay.parse_ns + replay.eval_ns + replay.write_ns) * 1e-6;
        let unattributed_ms = ttfb_ms - server_ms;
        v.insert("planner.index_load_s", median(&loads));
        v.insert("planner.surface_eval_ns", replay.surface_eval_ns);
        v.insert("planner.exact_plan_us", replay.exact_plan_us);
        v.insert("planner.parse_ns", replay.parse_ns);
        v.insert("planner.write_ns", replay.write_ns);
        v.insert("client.connect_ms", connect_ms);
        v.insert("client.ttfb_ms", ttfb_ms);
        v.insert("planner.unattributed_ms", unattributed_ms);
        v.insert(
            "planner.server_shed",
            after.get("planner_shed_total").copied().unwrap_or(0.0),
        );
        v.insert(
            "planner.server_deadline",
            after.get("planner_deadline_total").copied().unwrap_or(0.0),
        );
        v.insert(
            "planner.server_degraded",
            after.get("planner_degraded_total").copied().unwrap_or(0.0),
        );
        v.insert(
            "planner.server_exact",
            after.get("planner_exact_total").copied().unwrap_or(0.0),
        );
        v.insert("planner.server_mean_ms", server_mean_ms);
        v.insert(
            "planner.client_server_gap_ms",
            client_mean_ms - server_mean_ms,
        );
        v.insert("planner.max_rps", max_rps);
        v.insert(
            "generator.lateness_p99_ms",
            percentile(&ms(traced.iter().map(|e| e.lateness)), 99.0),
        );
        let untimed_mean = mean(&ms(open.iter().map(|e| e.total)));
        v.insert("trace.overhead_s", (client_mean_ms - untimed_mean) * 1e-3);

        let total_ms = client_mean_ms.max(1e-9);
        let read_rest = mean(&ms(traced.iter().map(|e| e.total - e.connect - e.ttfb)));
        let parts = [
            ("client.connect", connect_ms),
            ("accept + queue wait (unattributed)", unattributed_ms),
            ("planner.parse (http::read_request)", replay.parse_ns * 1e-6),
            ("planner.eval (Surface::eval, plan)", replay.eval_ns * 1e-6),
            ("planner.write (write_response)", replay.write_ns * 1e-6),
            ("client write + read after first byte", read_rest),
        ];
        notes.push(format!(
            "where the time goes: planner_mixed (mean request, connect to last byte {client_mean_ms:.3} ms; \
             server-side mean {server_mean_ms:.3} ms from accept)"
        ));
        for (name, t) in parts {
            notes.push(format!(
                "  {name:<40} {t:>9.4} ms {:>6.1}%",
                100.0 * t / total_ms
            ));
        }
        notes.push(format!(
            "accept-wait question: {unattributed_ms:.3} ms of the {ttfb_ms:.3} ms time to first byte \
             is not parse, evaluation or write, i.e. it is accept and queue wait"
        ));
    }
    ServerHandle::drain(handle);
    Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        correct: failed == 0,
        values: v,
        notes,
        facts,
    }
}

/// Mean per-request costs of the server stages, replayed in-process.
struct StageReplay {
    parse_ns: f64,
    eval_ns: f64,
    write_ns: f64,
    surface_eval_ns: f64,
    exact_plan_us: f64,
}

fn replay_server_stages(index: &SurfaceIndex, queries: &[Query], got: &[Exchange]) -> StageReplay {
    let n = queries.len().max(1) as f64;
    let mut parse = 0.0;
    let mut write = 0.0;
    let mut surface = 0.0;
    let mut surface_requests = 0usize;
    let mut exact = 0.0;
    let mut exact_requests = 0usize;
    for (q, ex) in queries.iter().zip(got) {
        let t0 = Instant::now();
        let _ = std::hint::black_box(read_request(&mut BufReader::new(q.bytes.as_slice())));
        parse += t0.elapsed().as_secs_f64();
        if let Some((status, body)) = split_response(&ex.raw) {
            let mut sink = Vec::with_capacity(body.len() + 128);
            let t0 = Instant::now();
            let _ = write_response(&mut sink, status, body);
            write += t0.elapsed().as_secs_f64();
            std::hint::black_box(sink);
        }
        let t0 = Instant::now();
        match &q.work {
            Work::Plan { n, dq } => {
                std::hint::black_box(surrogate_plan(index, *n, *dq));
                surface += t0.elapsed().as_secs_f64();
                surface_requests += 1;
            }
            Work::Lookup {
                surface: name,
                key,
                query,
            } => {
                let key: Vec<&str> = key.iter().map(String::as_str).collect();
                let s = index
                    .get(name)
                    .and_then(|f| f.surface(&key))
                    .expect("replayed surface");
                std::hint::black_box(s.eval(query));
                surface += t0.elapsed().as_secs_f64();
                surface_requests += 1;
            }
            Work::Exact { n, dq } => {
                std::hint::black_box(exact_plan(*n, *dq));
                exact += t0.elapsed().as_secs_f64();
                exact_requests += 1;
            }
            Work::Inline => {}
        }
    }
    StageReplay {
        parse_ns: parse * 1e9 / n,
        write_ns: write * 1e9 / n,
        eval_ns: (surface + exact) * 1e9 / n,
        surface_eval_ns: surface * 1e9 / surface_requests.max(1) as f64,
        exact_plan_us: exact * 1e6 / exact_requests.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A listener that accepts but answers each request only after a
        // fixed delay, on one thread: a request due while the previous one
        // is still being served waits, and that wait is charged to it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..4 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 256];
                let _ = s.read(&mut buf);
                std::thread::sleep(Duration::from_millis(30));
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\n\r\n");
            }
        });
        let q = Query {
            bytes: get_request("/healthz"),
            expected: Expected::Health,
            work: Work::Inline,
        };
        let queries = vec![q; 4];
        // Requests due every 5 ms on one generator thread: each waits for
        // the previous 30 ms answer, so lateness and latency grow.
        let dues: Vec<f64> = (0..4).map(|i| i as f64 * 0.005).collect();
        let got = open_loop(addr, &queries, &dues, 1);
        server.join().unwrap();
        for (i, ex) in got.iter().enumerate() {
            assert!(ex.error.is_none());
            let min = 0.030 * (i + 1) as f64 - 0.005 * i as f64;
            assert!(
                ex.latency >= min - 0.002,
                "request {i}: {} < {min}",
                ex.latency
            );
            assert!(
                ex.latency >= ex.total,
                "latency counts the wait before sending"
            );
        }
        assert!(got[3].lateness > got[1].lateness);
    }

    #[test]
    fn poisson_arrivals_are_seeded_at_the_offered_rate() {
        let a = poisson_dues(&mut InputRng::new(3, 1), 4000, 200.0);
        assert_eq!(a, poisson_dues(&mut InputRng::new(3, 1), 4000, 200.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = (a.len() - 1) as f64 / a[a.len() - 1];
        assert!((rate - 200.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn traffic_is_seeded_and_exact_keys_are_fresh() {
        let index = SurfaceIndex::load(&host::repo_root().join("ci/baselines")).unwrap();
        let a: Vec<Vec<u8>> = {
            let mut t = Traffic::new(&index, 9);
            (0..300).map(|_| t.next().bytes).collect()
        };
        let mut t = Traffic::new(&index, 9);
        let b: Vec<Query> = (0..300).map(|_| t.next()).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| *x == y.bytes));
        let exact: Vec<&Work> = b
            .iter()
            .map(|q| &q.work)
            .filter(|w| matches!(w, Work::Exact { .. }))
            .collect();
        assert!(!exact.is_empty());
        assert_eq!(t.exact_keys.len(), exact.len());
        assert!(b.iter().any(|q| q.expected == Expected::BadRequest));
        assert!(b
            .iter()
            .any(|q| matches!(q.expected, Expected::Plan { degraded: true, .. })));
    }
}
