//! Driving the real server: set-up, the three timed phases, the final
//! barrier, `kill -9` recovery, and the answer checks. All load comes
//! from this process over loopback TCP, with at most two threads and
//! two connections.

use crate::check::{displaced, rated, Oracle, Verdict};
use crate::gen::{mix_schedule, Class, Inputs, Op, Workload, WINDOW};
use crate::served::{classify, proc_status, recv, Conn, Outcome, ProcStatus, Served, StateDirs};
use crate::stats::percentile;
use fairsw_serve::protocol::{write_frame, Reply, Request, WireStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; the run reports their median.
const SETUP_REPS: usize = 3;
/// Batch size of the set-up pre-fill.
const PREFILL_BATCH: usize = 256;
/// `read_mix` offered load, requests per second.
pub const MIX_RATE: f64 = 8000.0;
/// `read_mix` checks every this-many-th query reply against the oracle.
const MIX_CHECK_EVERY: usize = 97;
/// `query_cold` checks the replies of every this-many-th round.
const COLD_CHECK_EVERY: usize = 8;
/// Crash-and-recover rounds per run; the run reports their median.
const RECOVERIES: usize = 3;
/// How often the server's resident set is sampled during the timed phase.
const RSS_EVERY: Duration = Duration::from_millis(100);
/// `ingest_wal` rates the oracle's answer every this many points.
const INGEST_RATE_EVERY: usize = 10_000;
/// The open-loop generator is behind when its sends run this late (p99).
const MAX_LATE_P99_US: f64 = 20_000.0;

/// What the benchmark asked of the process and where it may write.
pub struct Ctx {
    pub served_bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Feed the oracle a stream with one point moved far away, to show
    /// the checks catch a wrong answer.
    pub perturb_oracle: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    ColdQuery,
    WarmQuery,
}

/// One request the load generator sent, in per-tenant order.
#[derive(Clone, Debug)]
pub struct Sent {
    pub kind: Kind,
    pub tenant: usize,
    /// Stream positions of an accepted insert.
    pub batch: Option<(usize, usize)>,
    /// Client round trip in microseconds (`None` for set-up requests).
    pub rtt_us: Option<f64>,
}

/// Everything observed while driving the server.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The end-to-end latency samples of the timed phase, in µs.
    pub latency_us: Vec<f64>,
    /// The second of the timed phase each latency sample belongs to
    /// (parallel to `latency_us`): when an `ingest_wal` ack arrived, or
    /// when a `read_mix` request was due.
    pub second: Vec<u32>,
    /// `query_cold`'s latency samples by variant, in µs.
    pub latency_by_variant: BTreeMap<Class, Vec<f64>>,
    /// The server's resident set, sampled through the timed phase (MiB).
    pub rss_mb: Vec<f64>,
    /// `read_mix`: from the first due time to the last reply.
    pub elapsed_s: f64,
    pub sent: Vec<Sent>,
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub problems: Vec<String>,
    /// Per tenant: the batches the server accepted, in order.
    pub accepted: Vec<Vec<(usize, usize)>>,
    /// `(tenant, accepted batches so far, reply)` to check.
    pub checkpoints: Vec<(usize, usize, Vec<u8>)>,
    /// Per tenant: the reply to the final barrier `QUERY`.
    pub finals: Vec<Vec<u8>>,
    pub stats: Vec<WireStats>,
    pub proc: Option<ProcStatus>,
    pub recovery_s: Vec<f64>,
    /// How late each open-loop send ran, in µs.
    pub late_us: Vec<f64>,
    /// The killed server's state directories, left for replay timing.
    pub dirs: Option<StateDirs>,
    pub verdict: Verdict,
    pub ratios: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub snapshot_capable: usize,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Records how one timed request ended; true when it was accepted.
    fn outcome(&mut self, what: &str, o: &Outcome) -> bool {
        self.attempted += 1;
        match o {
            Outcome::Ok(_) => true,
            Outcome::Overloaded => {
                self.overloaded += 1;
                false
            }
            Outcome::Failed(e) => {
                self.fail(format!("{what}: {e}"));
                false
            }
        }
    }
}

/// Samples the server's resident set every [`RSS_EVERY`] when polled
/// from a load loop (no extra thread).
struct RssSampler {
    pid: u32,
    next: Instant,
    mb: Vec<f64>,
}

impl RssSampler {
    fn new(pid: u32) -> Self {
        RssSampler {
            pid,
            next: Instant::now(),
            mb: Vec::new(),
        }
    }

    fn poll(&mut self) {
        if Instant::now() >= self.next {
            if let Ok(p) = proc_status(self.pid) {
                self.mb.push(p.vm_rss_mb);
            }
            self.next += RSS_EVERY;
        }
    }
}

fn encode(req: &Request) -> Vec<u8> {
    req.encode()
        .expect("benchmark requests fit the wire format")
}

pub fn insert_body(inp: &Inputs, t: usize, start: usize, len: usize) -> Vec<u8> {
    let tenant = &inp.tenants[t];
    encode(&Request::InsertBatch {
        tenant: tenant.name.clone(),
        points: tenant.points(start, len),
    })
}

pub fn query_body(inp: &Inputs, t: usize) -> Vec<u8> {
    encode(&Request::Query {
        tenant: inp.tenants[t].name.clone(),
    })
}

/// Sends a closed-loop request, retrying `OVERLOADED` after a short
/// back-off; returns the reply with the round trip of the accepted try.
fn call_retry(conn: &mut Conn, body: &[u8], run: &mut Run, what: &str) -> Option<(Vec<u8>, f64)> {
    loop {
        let t0 = Instant::now();
        let o = conn.call_raw(body);
        let rtt = t0.elapsed().as_secs_f64() * 1e6;
        let accepted = run.outcome(what, &o);
        match o {
            Outcome::Ok(reply) if accepted => return Some((reply, rtt)),
            Outcome::Overloaded => std::thread::sleep(Duration::from_millis(1)),
            _ => return None,
        }
    }
}

/// Spawns the server, creates every tenant and loads the pre-fill.
/// Returns the server and the set-up time.
fn setup(
    ctx: &Ctx,
    inp: &Inputs,
    rep: usize,
    run: &mut Run,
) -> Result<(Served, StateDirs, f64), String> {
    let dir = ctx.work.join(format!("server-{rep}"));
    let dirs = StateDirs::under(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let served = Served::spawn(&ctx.served_bin, &dirs, &dir.join("port"))?;
    let mut conn = served.connect().map_err(|e| format!("connect: {e}"))?;
    let keep = rep + 1 == setup_reps(ctx);
    for t in &inp.tenants {
        let body = encode(&Request::Create {
            tenant: t.name.clone(),
            config: t.config.clone(),
        });
        call_retry(&mut conn, &body, run, "CREATE").ok_or("CREATE failed")?;
    }
    for (i, _) in inp.tenants.iter().enumerate() {
        for start in (0..inp.prefill).step_by(PREFILL_BATCH) {
            let len = PREFILL_BATCH.min(inp.prefill - start);
            call_retry(&mut conn, &insert_body(inp, i, start, len), run, "pre-fill")
                .ok_or("pre-fill failed")?;
            if keep {
                run.accepted[i].push((start, len));
                run.sent.push(Sent {
                    kind: Kind::Insert,
                    tenant: i,
                    batch: Some((start, len)),
                    rtt_us: None,
                });
            }
        }
    }
    // STATS flushes each tenant's ingest buffer into its engine, so the
    // pre-fill is applied, not just buffered, when set-up ends.
    for t in &inp.tenants {
        let body = encode(&Request::Stats {
            tenant: t.name.clone(),
        });
        call_retry(&mut conn, &body, run, "STATS").ok_or("STATS failed")?;
    }
    Ok((served, dirs, t0.elapsed().as_secs_f64()))
}

fn setup_reps(ctx: &Ctx) -> usize {
    if ctx.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// Drives one workload end to end against a fresh server.
pub fn drive(ctx: &Ctx, inp: &Inputs) -> Result<Run, String> {
    let mut run = Run {
        accepted: vec![Vec::new(); inp.tenants.len()],
        ..Run::default()
    };
    let mut kept = None;
    for rep in 0..setup_reps(ctx) {
        let (served, dirs, secs) = setup(ctx, inp, rep, &mut run)?;
        run.setup_s.push(secs);
        if rep + 1 < setup_reps(ctx) {
            served.shutdown()?;
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("server-{rep}")));
        } else {
            kept = Some((served, dirs));
        }
    }
    let (mut served, dirs) = kept.expect("at least one set-up");

    match inp.workload {
        Workload::IngestWal => ingest_wal(ctx, inp, &served, &mut run)?,
        Workload::QueryCold => query_cold(ctx, inp, &served, &mut run)?,
        Workload::ReadMix => read_mix(ctx, inp, &served, &mut run)?,
    }
    // The barrier: every tenant answers for everything it accepted.
    let mut conn = served.connect().map_err(|e| format!("connect: {e}"))?;
    for i in 0..inp.tenants.len() {
        let reply = call_retry(&mut conn, &query_body(inp, i), &mut run, "barrier QUERY")
            .map(|(r, _)| r)
            .unwrap_or_default();
        run.finals.push(reply);
    }
    for t in &inp.tenants {
        match conn
            .call(&Request::Stats {
                tenant: t.name.clone(),
            })
            .map(|b| Reply::decode(&b))
        {
            Ok(Ok(Reply::Stats(s))) => run.stats.push(s),
            other => return Err(format!("STATS {}: {other:?}", t.name)),
        }
    }
    run.proc = Some(served.proc_status()?);
    // Checkpoint everything before the crash: snapshot-capable tenants
    // fold their logs into the spool, the rest keep their whole log, so
    // recovery replays what the variants' durability design leaves.
    match conn
        .call(&Request::Checkpoint {
            tenant: String::new(),
        })
        .map(|b| Reply::decode(&b))
    {
        Ok(Ok(Reply::Checkpointed { .. })) => {}
        other => return Err(format!("CHECKPOINT: {other:?}")),
    }
    drop(conn);

    served.kill9();
    if !ctx.trace {
        run.recovery_s = recover(ctx, inp, &dirs, &mut run)?;
    }
    run.dirs = Some(dirs);
    check_answers(ctx, inp, &mut run);
    Ok(run)
}

/// `ingest_wal`: two connections, each a closed loop of `INSERT_BATCH`es
/// round-robin over its two tenants.
fn ingest_wal(ctx: &Ctx, inp: &Inputs, served: &Served, run: &mut Run) -> Result<(), String> {
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(ctx.seconds);
    let lanes: Vec<Result<Run, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|lane| {
                s.spawn(move || {
                    let mine = [lane, lane + 2];
                    let mut conn = served.connect().map_err(|e| format!("connect: {e}"))?;
                    let mut log = Run::default();
                    let mut next = vec![inp.prefill; inp.tenants.len()];
                    let mut rss = RssSampler::new(served.pid);
                    for k in 0.. {
                        if Instant::now() >= deadline {
                            break;
                        }
                        if lane == 0 {
                            rss.poll();
                        }
                        let t = mine[k % 2];
                        let start = next[t];
                        let body = insert_body(inp, t, start, inp.batch);
                        let Some((_, rtt)) = call_retry(&mut conn, &body, &mut log, "INSERT_BATCH")
                        else {
                            break;
                        };
                        next[t] += inp.batch;
                        log.latency_us.push(rtt);
                        log.second.push(begin.elapsed().as_secs() as u32);
                        log.sent.push(Sent {
                            kind: Kind::Insert,
                            tenant: t,
                            batch: Some((start, inp.batch)),
                            rtt_us: Some(rtt),
                        });
                    }
                    log.rss_mb = rss.mb;
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest lane panicked"))
            .collect()
    });
    for lane in lanes {
        let log = lane?;
        run.attempted += log.attempted;
        run.overloaded += log.overloaded;
        for p in log.problems {
            run.fail(p);
        }
        run.latency_us.extend(log.latency_us);
        run.second.extend(log.second);
        run.rss_mb.extend(log.rss_mb);
        for s in log.sent {
            let (start, len) = s.batch.expect("inserts carry their batch");
            run.accepted[s.tenant].push((start, len));
            run.sent.push(s);
        }
    }
    Ok(())
}

/// `query_cold`: one connection; each round gives every tenant 16 fresh
/// points, then times its `QUERY`, so no answer can come from a cache.
fn query_cold(ctx: &Ctx, inp: &Inputs, served: &Served, run: &mut Run) -> Result<(), String> {
    let mut conn = served.connect().map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut rss = RssSampler::new(served.pid);
    'rounds: for round in 0.. {
        for t in 0..inp.tenants.len() {
            if Instant::now() >= deadline {
                break 'rounds;
            }
            rss.poll();
            let start = inp.prefill + round * inp.batch;
            let body = insert_body(inp, t, start, inp.batch);
            let Some((_, rtt)) = call_retry(&mut conn, &body, run, "INSERT_BATCH") else {
                break 'rounds;
            };
            run.accepted[t].push((start, inp.batch));
            run.sent.push(Sent {
                kind: Kind::Insert,
                tenant: t,
                batch: Some((start, inp.batch)),
                rtt_us: Some(rtt),
            });
            let Some((reply, rtt)) = call_retry(&mut conn, &query_body(inp, t), run, "QUERY")
            else {
                break 'rounds;
            };
            run.latency_us.push(rtt);
            run.latency_by_variant
                .entry(inp.tenants[t].class)
                .or_default()
                .push(rtt);
            run.sent.push(Sent {
                kind: Kind::ColdQuery,
                tenant: t,
                batch: None,
                rtt_us: Some(rtt),
            });
            if round.is_multiple_of(COLD_CHECK_EVERY) {
                run.checkpoints.push((t, run.accepted[t].len(), reply));
            }
        }
    }
    run.rss_mb = rss.mb;
    Ok(())
}

/// `read_mix`: an open loop at [`MIX_RATE`] on one pipelined connection.
/// This thread sends each request when it is due; a second thread reads
/// the in-order replies. Latency runs from each request's due time.
fn read_mix(ctx: &Ctx, inp: &Inputs, served: &Served, run: &mut Run) -> Result<(), String> {
    let count = (MIX_RATE * ctx.seconds).round() as usize;
    let ops = mix_schedule(inp, count, ctx.seed);
    let bodies: Vec<Vec<u8>> = ops
        .iter()
        .map(|op| match *op {
            Op::Query { tenant } => query_body(inp, tenant),
            Op::Insert { tenant, start, len } => insert_body(inp, tenant, start, len),
        })
        .collect();
    let interval = Duration::from_secs_f64(1.0 / MIX_RATE);
    let (mut writer, mut reader) = served
        .connect()
        .map_err(|e| format!("connect: {e}"))?
        .split();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| start + interval * k as u32;
    // Per tenant: insert replies the reader has seen. The server promises
    // read-your-writes only for acknowledged writes (a QUERY pipelined
    // right behind an unacknowledged INSERT_BATCH may be answered from
    // the result cache of the state before it), so only queries sent
    // once every earlier insert to their tenant was acknowledged have
    // one right answer, and only those are checked.
    let acked: Vec<AtomicUsize> = inp.tenants.iter().map(|_| AtomicUsize::new(0)).collect();

    let (sent_at, checkable, received) = std::thread::scope(|s| {
        let reader_thread = s.spawn(|| {
            let mut got = Vec::with_capacity(count);
            for op in &ops {
                let reply = recv(&mut reader);
                let at = Instant::now();
                if let Op::Insert { tenant, .. } = op {
                    acked[*tenant].fetch_add(1, Ordering::Release);
                }
                match reply {
                    Ok(body) => got.push((at, classify(body))),
                    Err(e) => {
                        got.push((at, Outcome::Failed(format!("io: {e}"))));
                        break;
                    }
                }
            }
            got
        });
        let mut sent_at = Vec::with_capacity(count);
        let mut checkable = vec![false; count];
        let mut inserts_sent = vec![0usize; inp.tenants.len()];
        let mut rss = RssSampler::new(served.pid);
        for (k, body) in bodies.iter().enumerate() {
            let due_k = due(k);
            let now = Instant::now();
            if due_k > now {
                rss.poll();
                std::thread::sleep(due_k.saturating_duration_since(Instant::now()));
            }
            match ops[k] {
                Op::Insert { tenant, .. } => inserts_sent[tenant] += 1,
                Op::Query { tenant } => {
                    checkable[k] = acked[tenant].load(Ordering::Acquire) == inserts_sent[tenant];
                }
            }
            sent_at.push(Instant::now());
            if write_frame(&mut writer, body).is_err() {
                let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        run.rss_mb = rss.mb;
        (
            sent_at,
            checkable,
            reader_thread.join().expect("reader thread panicked"),
        )
    });

    let mut dirty = vec![true; inp.tenants.len()];
    let mut queries = 0usize;
    let mut last = start;
    for (k, (at, outcome)) in received.into_iter().enumerate() {
        last = at;
        let op = ops[k];
        let what = match op {
            Op::Query { .. } => "QUERY",
            Op::Insert { .. } => "INSERT_BATCH",
        };
        let ok = run.outcome(what, &outcome);
        run.latency_us
            .push(at.saturating_duration_since(due(k)).as_secs_f64() * 1e6);
        run.second.push((k as f64 / MIX_RATE) as u32);
        let rtt = sent_at
            .get(k)
            .map(|s| at.saturating_duration_since(*s).as_secs_f64() * 1e6);
        match (op, outcome) {
            (Op::Insert { tenant, start, len }, _) => {
                if ok {
                    run.accepted[tenant].push((start, len));
                    dirty[tenant] = true;
                }
                run.sent.push(Sent {
                    kind: Kind::Insert,
                    tenant,
                    batch: ok.then_some((start, len)),
                    rtt_us: rtt,
                });
            }
            (Op::Query { tenant }, Outcome::Ok(reply)) => {
                let kind = if std::mem::take(&mut dirty[tenant]) {
                    Kind::ColdQuery
                } else {
                    Kind::WarmQuery
                };
                run.sent.push(Sent {
                    kind,
                    tenant,
                    batch: None,
                    rtt_us: rtt,
                });
                if checkable[k] {
                    if queries.is_multiple_of(MIX_CHECK_EVERY) {
                        run.checkpoints
                            .push((tenant, run.accepted[tenant].len(), reply));
                    }
                    queries += 1;
                }
            }
            (Op::Query { .. }, _) => {}
        }
    }
    let missing = count.saturating_sub(run.latency_us.len());
    if missing > 0 {
        run.attempted += missing as u64;
        run.failed += missing as u64;
        run.problems
            .push(format!("{missing} requests got no reply"));
    }
    run.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    run.late_us = sent_at
        .iter()
        .enumerate()
        .map(|(k, s)| s.saturating_duration_since(due(k)).as_secs_f64() * 1e6)
        .collect();
    let late_p99 = percentile(&mut run.late_us.clone(), 0.99).unwrap_or(0.0);
    if late_p99 > MAX_LATE_P99_US {
        run.attempted += 1;
        run.fail(format!(
            "generator fell behind: sends ran {late_p99:.0} µs late at p99"
        ));
    }
    Ok(())
}

/// Restarts over the killed server's WAL and spool until every tenant
/// answers exactly as before the kill, [`RECOVERIES`] times (killing the
/// restarted server again in between); returns each recovery's time
/// from the kill.
fn recover(ctx: &Ctx, inp: &Inputs, dirs: &StateDirs, run: &mut Run) -> Result<Vec<f64>, String> {
    let port_file = dirs.wal.with_file_name("port-recovered");
    let mut times = Vec::new();
    for round in 0..RECOVERIES {
        let t_kill = Instant::now();
        let mut served = Served::spawn(&ctx.served_bin, dirs, &port_file)?;
        let deadline = t_kill + Duration::from_secs(90);
        let mut pending: Vec<usize> = (0..inp.tenants.len()).collect();
        while !pending.is_empty() {
            if Instant::now() > deadline {
                return Err("tenants did not come back within 90 s of the kill".into());
            }
            let Ok(mut conn) = served.connect() else {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            let mut still = Vec::new();
            for &i in &pending {
                match conn.call_raw(&query_body(inp, i)) {
                    Outcome::Ok(reply) => {
                        run.attempted += 1;
                        run.verdict.expect_equal(
                            &format!("{} after recovery", inp.tenants[i].name),
                            &reply,
                            &run.finals[i],
                        );
                    }
                    // Not replayed yet (or not listening): ask again.
                    _ => still.push(i),
                }
            }
            pending = still;
            if !pending.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        times.push(t_kill.elapsed().as_secs_f64());
        if round + 1 < RECOVERIES {
            served.kill9();
        } else {
            served.shutdown()?;
        }
    }
    Ok(times)
}

/// Replays what each tenant accepted into its oracle and compares every
/// recorded reply; rates answers against `Jones` along the way. Tenants
/// are independent, so two threads share them.
fn check_answers(ctx: &Ctx, inp: &Inputs, run: &mut Run) {
    let shared: &Run = run;
    let mut checked: Vec<(usize, TenantCheck)> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                s.spawn(move || {
                    (h..inp.tenants.len())
                        .step_by(2)
                        .map(|i| (i, check_tenant(ctx, inp, shared, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    checked.sort_by_key(|(i, _)| *i);
    for (_, c) in checked {
        run.verdict.merge(c.verdict);
        run.ratios.extend(c.ratios);
        if let Some(us) = c.snapshot_us {
            run.snapshot_us.push(us);
            run.snapshot_capable += 1;
        }
    }
}

/// One tenant's share of [`check_answers`].
struct TenantCheck {
    verdict: Verdict,
    ratios: Vec<f64>,
    /// Time to snapshot the tenant's engine, when its variant can.
    snapshot_us: Option<f64>,
}

fn check_tenant(ctx: &Ctx, inp: &Inputs, run: &Run, i: usize) -> TenantCheck {
    let t = &inp.tenants[i];
    let mut out = TenantCheck {
        verdict: Verdict::default(),
        ratios: Vec::new(),
        snapshot_us: None,
    };
    let mut oracle = Oracle::new(t);
    let mut fed = 0usize;
    let mut checks = run.checkpoints.iter().filter(|c| c.0 == i).peekable();
    let batches = &run.accepted[i];
    for (b, &(start, len)) in batches.iter().enumerate() {
        let mut pts = t.points(start, len);
        if ctx.perturb_oracle && b + 1 == batches.len() {
            pts[0] = displaced(&pts[0]);
        }
        // Rate the oracle's own answer at fixed stream positions when
        // the workload records no query replies of its own.
        if inp.workload == Workload::IngestWal && rated(t.class) {
            let mut rest = pts;
            while !rest.is_empty() {
                let to_mark = INGEST_RATE_EVERY - fed % INGEST_RATE_EVERY;
                let tail = rest.split_off(to_mark.min(rest.len()));
                fed += rest.len();
                oracle.feed(rest);
                rest = tail;
                if fed.is_multiple_of(INGEST_RATE_EVERY) && fed >= 2 * WINDOW {
                    out.ratios.extend(oracle.radius_ratio(&oracle.reply()));
                }
            }
        } else {
            fed += pts.len();
            oracle.feed(pts);
        }
        while let Some((_, _, reply)) = checks.next_if(|c| c.1 == b + 1) {
            out.verdict.expect_equal(
                &format!("{} at batch {}", t.name, b + 1),
                reply,
                &oracle.reply(),
            );
            if rated(t.class) {
                out.ratios.extend(oracle.radius_ratio(reply));
            }
        }
    }
    if checks.next().is_some() {
        out.verdict
            .fail(format!("{}: a checked reply was never matched", t.name));
    }
    out.verdict.expect_equal(
        &format!("{} final", t.name),
        &run.finals[i],
        &oracle.reply(),
    );
    let t0 = Instant::now();
    if oracle.engine().snapshot().is_some() {
        out.snapshot_us = Some(t0.elapsed().as_secs_f64() * 1e6);
    }
    out
}

/// The directory a run may write to, removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
