//! Seeded fleet chaos soak: a router-fronted 1-primary/2-replica fleet
//! driven through combined disk ([`FaultVfs`]) × network ([`FaultNet`])
//! fault schedules, with the system invariants checked every round:
//!
//! 1. **No acknowledged write lost** — every value the router acked is
//!    present (and nothing else: a *rejected* write must never surface
//!    later as a phantom row).
//! 2. **No split-brain** — at every settle point exactly one live node
//!    accepts writes; every other node refuses, naming the primary.
//! 3. **Read-your-own-writes** — a session-consistency read through the
//!    router sees everything that session was acked, through lag,
//!    partitions, disk pressure, and failover.
//! 4. **Byte-identical convergence** — once faults heal, every live
//!    node renders exactly the same table.
//!
//! The whole schedule derives from one SplitMix64 seed: a failing run
//! reproduces exactly by re-running with the seed it printed. Both
//! filesystems are in-memory fault VFS instances and every socket is a
//! localhost TCP connection wrapped by the shared [`FaultNet`], so the
//! soak is hermetic — no real disk, no real network flakiness.
//!
//! ```sh
//! cargo run --release -p hylite-bench --bin chaos-soak -- --rounds 12
//! cargo run --release -p hylite-bench --bin chaos-soak -- --seed 0x5EED50AC
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_client::{Consistency, HyliteClient, HyliteRouter, RetryPolicy, RouterConfig};
use hylite_common::faultfs::{FaultVfs, Vfs};
use hylite_common::faultnet::{
    FaultNet, NP_CLIENT_CONNECT, NP_REPL_APPLY, NP_REPL_STREAM, NP_SERVER_ACCEPT,
};
use hylite_common::hash::splitmix64;
use hylite_common::wire::ErrorCode;
use hylite_common::{HyError, NetHandle, Result, Value};
use hylite_core::{restore_backup, Database, DurabilityOptions, ReplRole};
use hylite_server::{Replica, ReplicaConfig, ReplicaHandle, Server, ServerConfig, ServerHandle};

/// One soak run's knobs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the whole fault schedule; a failing seed reproduces.
    pub seed: u64,
    /// Fault rounds before the (optional) failover finale.
    pub rounds: usize,
    /// Router writes attempted per round.
    pub writes_per_round: usize,
    /// End the soak by killing the primary and requiring the router to
    /// promote a replica without losing the session's writes.
    pub failover_finale: bool,
    /// Take an online backup of the primary mid-soak (with a concurrent
    /// writer racing the cut), keep writing, checkpoint away the live
    /// WAL, then point-in-time restore from backup + archive and verify
    /// the restored table exactly.
    pub backup_round: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0x5EED_50AC,
            rounds: 6,
            writes_per_round: 8,
            failover_finale: true,
            backup_round: true,
        }
    }
}

impl ChaosConfig {
    /// CI-sized: the acceptance floor of six rounds, few writes each.
    pub fn smoke() -> ChaosConfig {
        ChaosConfig {
            writes_per_round: 4,
            ..ChaosConfig::default()
        }
    }
}

/// What one round injected and how the writes fared.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (0-based).
    pub round: usize,
    /// Human-readable description of the injected fault.
    pub fault: &'static str,
    /// Writes the router acknowledged.
    pub acked: usize,
    /// Writes rejected with a typed error (never half-applied).
    pub rejected: usize,
}

/// The soak's summary; returned only when every invariant held.
#[derive(Debug)]
pub struct ChaosReport {
    /// The seed that drove the schedule.
    pub seed: u64,
    /// Per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
    /// Rows in table `t` at the end (equals total acked writes + 3 seed
    /// rows + one split-brain probe row per settle point).
    pub total_rows: usize,
    /// Failovers the router performed (≥ 1 with the finale enabled).
    pub failovers: u64,
    /// Replica stream re-establishments observed across the fleet.
    pub reconnects: u64,
}

fn violation(seed: u64, msg: impl Into<String>) -> HyError {
    HyError::Execution(format!(
        "chaos invariant violated (reproduce with --seed {seed:#x}): {}",
        msg.into()
    ))
}

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

fn open_node(fault: &FaultVfs, role: ReplRole) -> Result<Arc<Database>> {
    Ok(Arc::new(Database::open_with(
        Arc::new(fault.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        DurabilityOptions {
            role,
            // The primary archives its WAL so the backup round can
            // point-in-time restore past the live WAL's truncation.
            archive_dir: match role {
                ReplRole::Primary => Some(PathBuf::from("archive")),
                _ => None,
            },
            ..DurabilityOptions::default()
        },
    )?))
}

fn server_config(net: &NetHandle) -> ServerConfig {
    ServerConfig {
        repl_poll_interval: Duration::from_millis(1),
        drain_timeout: Duration::from_millis(500),
        net: net.clone(),
        ..ServerConfig::ephemeral()
    }
}

fn replica_config(primary_addr: &str, net: &NetHandle, seed: u64) -> ReplicaConfig {
    let mut config = ReplicaConfig::new(primary_addr);
    config.retry = RetryPolicy {
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    config.backoff_seed = seed;
    config.net = net.clone();
    config
}

/// Canonical rendering of table `t`; byte-identical on two nodes iff
/// they hold exactly the same committed rows.
fn dump(db: &Database) -> String {
    match db.execute("SELECT x FROM t ORDER BY x") {
        Ok(r) => r.to_table_string(),
        Err(e) => format!("<unavailable: {e}>"),
    }
}

fn wait_until(
    seed: u64,
    what: &str,
    timeout: Duration,
    mut cond: impl FnMut() -> bool,
) -> Result<()> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(violation(seed, format!("timed out waiting for {what}")))
}

/// The running fleet: in-process databases (for convergence inspection)
/// fronted by real TCP servers and one shared fault-injecting network.
struct Fleet {
    net: FaultNet,
    handle: NetHandle,
    primary_fault: FaultVfs,
    primary_db: Arc<Database>,
    primary: Option<ServerHandle>,
    replicas: Vec<(Arc<Database>, ReplicaHandle)>,
    router: HyliteRouter,
}

impl Fleet {
    fn start(config: &ChaosConfig) -> Result<Fleet> {
        let net = FaultNet::new(config.seed);
        let handle = NetHandle::new(net.clone());

        let primary_fault = FaultVfs::new();
        let primary_db = open_node(&primary_fault, ReplRole::Primary)?;
        primary_db.execute("CREATE TABLE t (x BIGINT)")?;
        for v in 1..=3 {
            primary_db.execute(&format!("INSERT INTO t VALUES ({v})"))?;
        }
        let primary = Server::start(server_config(&handle), Arc::clone(&primary_db))?;
        let primary_addr = primary.local_addr().to_string();

        let mut replicas = Vec::new();
        for i in 0..2 {
            let db = open_node(&FaultVfs::new(), ReplRole::Replica)?;
            let replica = Replica::start(
                Arc::clone(&db),
                server_config(&handle),
                replica_config(&primary_addr, &handle, config.seed ^ i),
            )?;
            replicas.push((db, replica));
        }

        let router = HyliteRouter::connect(
            RouterConfig::new(&primary_addr)
                .replicas(
                    replicas
                        .iter()
                        .map(|(_, r)| r.local_addr().to_string())
                        .collect::<Vec<_>>(),
                )
                .consistency(Consistency::Session)
                .retry(RetryPolicy {
                    max_attempts: 6,
                    initial_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(50),
                    deadline: Duration::from_secs(5),
                })
                .probe_interval(Duration::from_millis(1))
                .net(handle.clone()),
        )?;

        Ok(Fleet {
            net,
            handle,
            primary_fault,
            primary_db,
            primary: Some(primary),
            replicas,
            router,
        })
    }

    /// Every live node's wire address, current primary first.
    fn live_addrs(&self) -> Vec<std::net::SocketAddr> {
        let mut addrs = Vec::new();
        if let Some(primary) = &self.primary {
            addrs.push(primary.local_addr());
        }
        for (_, replica) in &self.replicas {
            addrs.push(replica.local_addr());
        }
        addrs
    }

    /// Every live node, current primary first.
    fn live_dbs(&self) -> Vec<&Arc<Database>> {
        let mut dbs = Vec::new();
        if self.primary.is_some() {
            dbs.push(&self.primary_db);
        }
        for (db, _) in &self.replicas {
            dbs.push(db);
        }
        dbs
    }

    fn shutdown(mut self) {
        self.router.close();
        for (_, replica) in self.replicas.drain(..) {
            replica.shutdown();
        }
        if let Some(primary) = self.primary.take() {
            primary.shutdown();
        }
    }
}

/// The soak's write/ledger driver plus the invariant checks.
struct Soak {
    seed: u64,
    rng: u64,
    next_value: i64,
    /// Every value some node acknowledged, in ack order. The final
    /// table must hold exactly these (plus the 3 seed rows).
    ledger: Vec<i64>,
}

impl Soak {
    fn ledger_sum(&self) -> i64 {
        6 + self.ledger.iter().sum::<i64>()
    }

    fn ledger_count(&self) -> i64 {
        3 + self.ledger.len() as i64
    }

    fn fresh_value(&mut self) -> i64 {
        self.next_value += 1;
        self.next_value
    }

    /// One router write that must eventually be acknowledged (faults at
    /// connect points are retried; a statement either fails cleanly
    /// before commit or commits and is acked, never in between).
    fn write_until_acked(&mut self, fleet: &mut Fleet) -> Result<()> {
        let v = self.fresh_value();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match fleet.router.query(&format!("INSERT INTO t VALUES ({v})")) {
                Ok(_) => {
                    self.ledger.push(v);
                    return Ok(());
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(violation(
                        self.seed,
                        format!("write of {v} never acknowledged: {e}"),
                    ))
                }
            }
        }
    }

    /// Read-your-own-writes through the router: the session must see
    /// exactly its acked values — not one fewer (lost ack) and not one
    /// more (phantom from a rejected write).
    fn check_session_read(&mut self, fleet: &mut Fleet) -> Result<()> {
        let r = fleet.router.query("SELECT count(*), sum(x) FROM t")?;
        let count = match r.value(0, 0)? {
            Value::Int(n) => n,
            other => return Err(violation(self.seed, format!("count returned {other:?}"))),
        };
        let sum = match r.value(0, 1)? {
            Value::Int(n) => n,
            other => return Err(violation(self.seed, format!("sum returned {other:?}"))),
        };
        if count != self.ledger_count() || sum != self.ledger_sum() {
            return Err(violation(
                self.seed,
                format!(
                    "session read saw count={count} sum={sum}, \
                     ledger says count={} sum={}",
                    self.ledger_count(),
                    self.ledger_sum()
                ),
            ));
        }
        Ok(())
    }

    /// Split-brain probe: a write straight at every live node's wire
    /// address (bypassing the router). Exactly one node may accept —
    /// its value joins the ledger — and every other node must refuse
    /// with the typed read-only code naming a primary.
    fn check_single_writable(&mut self, fleet: &Fleet) -> Result<()> {
        let mut accepted = 0;
        for addr in fleet.live_addrs() {
            let v = self.fresh_value();
            let mut client = HyliteClient::connect_via(&fleet.handle, addr)
                .map_err(|e| violation(self.seed, format!("probe connect to {addr}: {e}")))?;
            let result = client.query(&format!("INSERT INTO t VALUES ({v})"));
            let _ = client.close();
            match result {
                Ok(_) => {
                    accepted += 1;
                    self.ledger.push(v);
                }
                Err(e) if ErrorCode::from_error(&e) == ErrorCode::ReadOnlyReplica => {}
                Err(e) => {
                    return Err(violation(
                        self.seed,
                        format!("probe write to {addr} refused with non-read-only error: {e}"),
                    ))
                }
            }
        }
        if accepted != 1 {
            return Err(violation(
                self.seed,
                format!("{accepted} nodes accepted a direct write (want exactly 1)"),
            ));
        }
        Ok(())
    }

    /// After healing: every live node must render table `t` byte-
    /// identically.
    fn check_convergence(&self, fleet: &Fleet) -> Result<()> {
        let dbs = fleet.live_dbs();
        let reference = Arc::clone(dbs[0]);
        let others: Vec<Arc<Database>> = dbs[1..].iter().map(|db| Arc::clone(db)).collect();
        wait_until(
            self.seed,
            "byte-identical convergence across the fleet",
            Duration::from_secs(20),
            || {
                let want = dump(&reference);
                others.iter().all(|db| dump(db) == want)
            },
        )
    }
}

/// Run the full seeded soak. `Ok` means every invariant held every
/// round; `Err` carries the violated invariant and the reproducing seed.
pub fn run_soak(config: &ChaosConfig) -> Result<ChaosReport> {
    let mut fleet = Fleet::start(config)?;
    let mut soak = Soak {
        seed: config.seed,
        rng: config.seed,
        next_value: 100,
        ledger: Vec::new(),
    };

    // Both replicas must finish bootstrapping before faults start, so
    // every round's convergence check exercises catch-up, not initial
    // seeding.
    soak.check_convergence(&fleet)?;

    let mut rounds = Vec::new();
    for round in 0..config.rounds {
        soak.rng = splitmix64(soak.rng);
        let outcome = run_round(round, soak.rng, config, &mut fleet, &mut soak)?;

        // Settle: heal everything, then hold the invariants.
        fleet.net.heal_all();
        fleet.primary_fault.set_disk_full(false);
        soak.check_session_read(&mut fleet)?;
        soak.check_single_writable(&fleet)?;
        soak.check_convergence(&fleet)?;
        rounds.push(outcome);
    }

    let mut next_round = config.rounds;
    if config.backup_round {
        let outcome = run_backup_restore_round(next_round, config, &mut fleet, &mut soak)?;
        next_round += 1;
        soak.check_session_read(&mut fleet)?;
        soak.check_single_writable(&fleet)?;
        soak.check_convergence(&fleet)?;
        rounds.push(outcome);
    }

    if config.failover_finale {
        let outcome = run_failover_finale(next_round, config, &mut fleet, &mut soak)?;
        rounds.push(outcome);
    }

    let failovers = fleet.router.stats().failovers;
    let reconnects = fleet
        .replicas
        .iter()
        .map(|(db, _)| db.metrics().counter("repl.reconnects").get())
        .sum();
    let total_rows = soak.ledger_count() as usize;
    fleet.shutdown();

    Ok(ChaosReport {
        seed: config.seed,
        rounds,
        total_rows,
        failovers,
        reconnects,
    })
}

/// One fault round: inject per the seeded schedule, drive writes, check
/// reads stay correct while the fault is live.
fn run_round(
    round: usize,
    rng: u64,
    config: &ChaosConfig,
    fleet: &mut Fleet,
    soak: &mut Soak,
) -> Result<RoundOutcome> {
    let mut acked = 0;
    let mut rejected = 0;

    // Round 0 always soaks the disk-pressure degraded mode (the marquee
    // robustness path); later rounds draw from the seeded schedule.
    let kind = if round == 0 { 0 } else { rng % 6 };
    let fault = match kind {
        0 => {
            // Disk pressure on the primary: every write must be rejected
            // with the typed retryable DiskFull (5005), reads must keep
            // serving, and once space frees the server's background
            // probe must resume writes without a restart.
            fleet.primary_fault.set_disk_full(true);
            for _ in 0..config.writes_per_round {
                let v = soak.fresh_value();
                match fleet.router.query(&format!("INSERT INTO t VALUES ({v})")) {
                    Ok(_) => {
                        return Err(violation(
                            soak.seed,
                            "write acknowledged while the primary's disk was full",
                        ))
                    }
                    Err(e) => {
                        if ErrorCode::from_error(&e) != ErrorCode::DiskFull {
                            return Err(violation(
                                soak.seed,
                                format!("disk-full write rejected with wrong code: {e}"),
                            ));
                        }
                        rejected += 1;
                    }
                }
            }
            soak.check_session_read(fleet)?; // reads degrade gracefully
            fleet.primary_fault.set_disk_full(false);
            // The server's disk-pressure probe re-enables writes; the
            // settle-phase write below proves it (no restart happened).
            soak.write_until_acked(fleet)?;
            acked += 1;
            "disk-full primary, probe-resumed"
        }
        1 => {
            fleet.net.refuse_connects(NP_CLIENT_CONNECT, 2);
            fleet.net.refuse_connects(NP_SERVER_ACCEPT, 1);
            "connect refusal at client + accept"
        }
        2 => {
            fleet.net.reset_after(NP_REPL_STREAM, 64 + rng % 512);
            "mid-frame reset of a replication stream"
        }
        3 => {
            fleet.net.partition(NP_REPL_APPLY, true, true);
            "full partition of the replica apply loop"
        }
        4 => {
            fleet.net.latency(
                NP_REPL_STREAM,
                Duration::from_millis(1),
                Duration::from_millis(1 + rng % 3),
            );
            "latency + jitter on the replication stream"
        }
        _ => {
            fleet.net.slow_reads(NP_REPL_APPLY, 3);
            fleet.net.short_writes(NP_REPL_STREAM, 5);
            "slow reads + short writes on replication"
        }
    };

    // Drive the round's writes with the fault still live. Session
    // consistency must hold after every single ack.
    while acked < config.writes_per_round {
        soak.write_until_acked(fleet)?;
        acked += 1;
        soak.check_session_read(fleet)?;
    }

    Ok(RoundOutcome {
        round,
        fault,
        acked,
        rejected,
    })
}

/// The finale: kill the primary, require the router to promote a
/// replica and keep the session's writes readable, then hold the
/// split-brain and convergence invariants on the surviving pair.
fn run_failover_finale(
    round: usize,
    config: &ChaosConfig,
    fleet: &mut Fleet,
    soak: &mut Soak,
) -> Result<RoundOutcome> {
    // The finale must start from a converged fleet (the promoted replica
    // must hold every acked write).
    soak.check_convergence(fleet)?;
    let failovers_before = fleet.router.stats().failovers;

    fleet
        .primary
        .take()
        .expect("finale runs with a live primary")
        .shutdown();

    // The next write must succeed anyway: the router promotes the most
    // caught-up replica and re-points the other.
    soak.write_until_acked(fleet)?;
    if fleet.router.stats().failovers <= failovers_before {
        return Err(violation(
            soak.seed,
            "write after primary death succeeded without a failover",
        ));
    }
    let new_primary = fleet.router.primary_addr().to_string();
    let replica_addrs: Vec<String> = fleet
        .replicas
        .iter()
        .map(|(_, r)| r.local_addr().to_string())
        .collect();
    if !replica_addrs.contains(&new_primary) {
        return Err(violation(
            soak.seed,
            format!("router promoted unknown node {new_primary}"),
        ));
    }

    for _ in 1..config.writes_per_round {
        soak.write_until_acked(fleet)?;
        soak.check_session_read(fleet)?;
    }

    soak.check_session_read(fleet)?;
    soak.check_single_writable(fleet)?;
    soak.check_convergence(fleet)?;

    Ok(RoundOutcome {
        round,
        fault: "primary killed, router-driven promotion",
        acked: config.writes_per_round,
        rejected: 0,
    })
}

/// The backup round: an online full backup races a concurrent writer,
/// the soak keeps writing past the cut, a checkpoint truncates (and
/// archives) the live WAL, and a point-in-time restore from backup +
/// archive must reproduce the pinned ledger exactly — under a fresh
/// replication epoch, so the restored node can never rejoin the old
/// fleet's timeline.
fn run_backup_restore_round(
    round: usize,
    config: &ChaosConfig,
    fleet: &mut Fleet,
    soak: &mut Soak,
) -> Result<RoundOutcome> {
    let seed = soak.seed;
    let durability = Arc::clone(
        fleet
            .primary_db
            .durability()
            .ok_or_else(|| violation(seed, "chaos primary is not durable"))?,
    );
    let vfs = Arc::new(fleet.primary_fault.clone()) as Arc<dyn Vfs>;

    // Snapshot the ledger, then race a direct writer against the backup
    // cut: the backup must capture the pre-cut rows plus a *prefix* of
    // the writer's values — a consistent cut, never a hole.
    let pre_count = soak.ledger_count();
    let pre_sum = soak.ledger_sum();
    let writer_values: Vec<i64> = (0..config.writes_per_round)
        .map(|_| soak.fresh_value())
        .collect();
    let writer_db = Arc::clone(&fleet.primary_db);
    let thread_values = writer_values.clone();
    let writer = std::thread::spawn(move || -> Result<()> {
        for v in thread_values {
            writer_db.execute(&format!("INSERT INTO t VALUES ({v})"))?;
        }
        Ok(())
    });
    let full = durability
        .backup(Path::new("backup_full"), None, true)
        .map_err(|e| violation(seed, format!("online backup failed: {e}")))?;
    writer
        .join()
        .map_err(|_| violation(seed, "concurrent writer panicked"))?
        .map_err(|e| violation(seed, format!("concurrent write failed: {e}")))?;
    soak.ledger.extend(&writer_values);
    if !full.verified {
        return Err(violation(seed, "backup VERIFY did not run"));
    }

    // Restore the cut into a fresh dir and check it is a prefix.
    let cut = restore_backup(
        &vfs,
        Path::new("backup_full"),
        None,
        Path::new("restore_cut"),
        None,
    )
    .map_err(|e| violation(seed, format!("restore of the backup cut failed: {e}")))?;
    if cut.restored_lsn != full.backup_lsn {
        return Err(violation(
            seed,
            format!(
                "restore replayed to lsn {}, backup pinned lsn {}",
                cut.restored_lsn, full.backup_lsn
            ),
        ));
    }
    {
        let restored = Database::open_with(
            Arc::clone(&vfs),
            Path::new("restore_cut"),
            DurabilityOptions::default(),
        )
        .map_err(|e| violation(seed, format!("restored cut did not open: {e}")))?;
        let (count, sum) = count_and_sum(seed, &restored)?;
        let prefix = count - pre_count;
        let want_sum = pre_sum
            + writer_values
                .iter()
                .take(prefix.max(0) as usize)
                .sum::<i64>();
        if prefix < 0 || prefix > writer_values.len() as i64 || sum != want_sum {
            return Err(violation(
                seed,
                format!(
                    "backup cut is not a consistent prefix: count={count} sum={sum}, \
                     pre count={pre_count} sum={pre_sum}, {} writer values",
                    writer_values.len()
                ),
            ));
        }
        if restored.durability().map(|d| d.epoch()) == Some(durability.epoch()) {
            return Err(violation(
                seed,
                "restored node kept the old replication epoch (would rejoin the old fleet)",
            ));
        }
    }

    // Keep writing through the router, pin an exact point-in-time
    // target, checkpoint so the live WAL is truncated into the archive,
    // then write more: the target is now reachable only via the backup
    // chain plus archived WAL.
    let mut acked = 0;
    while acked < config.writes_per_round {
        soak.write_until_acked(fleet)?;
        acked += 1;
    }
    soak.check_session_read(fleet)?;
    let target_lsn = durability.next_lsn().saturating_sub(1);
    let target_count = soak.ledger_count();
    let target_sum = soak.ledger_sum();
    fleet
        .primary_db
        .checkpoint()
        .map_err(|e| violation(seed, format!("checkpoint after the pin failed: {e}")))?;
    soak.write_until_acked(fleet)?;
    acked += 1;

    let pitr = restore_backup(
        &vfs,
        Path::new("backup_full"),
        Some(Path::new("archive")),
        Path::new("restore_pitr"),
        Some(target_lsn),
    )
    .map_err(|e| violation(seed, format!("point-in-time restore failed: {e}")))?;
    if pitr.restored_lsn != target_lsn {
        return Err(violation(
            seed,
            format!(
                "PITR stopped at lsn {}, target was {target_lsn}",
                pitr.restored_lsn
            ),
        ));
    }
    {
        let restored = Database::open_with(
            Arc::clone(&vfs),
            Path::new("restore_pitr"),
            DurabilityOptions::default(),
        )
        .map_err(|e| violation(seed, format!("PITR restore did not open: {e}")))?;
        let (count, sum) = count_and_sum(seed, &restored)?;
        if count != target_count || sum != target_sum {
            return Err(violation(
                seed,
                format!(
                    "PITR table mismatch: count={count} sum={sum}, \
                     pinned count={target_count} sum={target_sum}"
                ),
            ));
        }
    }

    Ok(RoundOutcome {
        round,
        fault: "online backup + archived-WAL PITR, restore verified",
        acked,
        rejected: 0,
    })
}

/// `count(*), sum(x)` of table `t` on a standalone restored node.
fn count_and_sum(seed: u64, db: &Database) -> Result<(i64, i64)> {
    let r = db.execute("SELECT count(*), sum(x) FROM t")?;
    match (r.value(0, 0)?, r.value(0, 1)?) {
        (Value::Int(count), Value::Int(sum)) => Ok((count, sum)),
        other => Err(violation(seed, format!("count/sum returned {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-floor soak: six seeded fault rounds plus the
    /// failover finale, every invariant held.
    #[test]
    fn seeded_smoke_soak_holds_every_invariant() {
        let report = run_soak(&ChaosConfig::smoke()).expect("soak invariants");
        assert!(report.rounds.len() >= 6, "{report:?}");
        assert!(report.failovers >= 1, "{report:?}");
    }

    /// The same seed must produce the same schedule: two runs inject the
    /// same fault sequence (observable through the round descriptions).
    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let config = ChaosConfig {
            rounds: 4,
            writes_per_round: 1,
            failover_finale: false,
            ..ChaosConfig::smoke()
        };
        let a = run_soak(&config).expect("first run");
        let b = run_soak(&config).expect("second run");
        let faults = |r: &ChaosReport| r.rounds.iter().map(|o| o.fault).collect::<Vec<_>>();
        assert_eq!(faults(&a), faults(&b));
    }
}
