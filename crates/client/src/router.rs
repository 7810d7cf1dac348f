//! Client-side query router for a replica fleet.
//!
//! [`HyliteRouter`] fronts one primary and N read replicas behind a
//! single [`HyliteRouter::query`] entry point. It classifies every
//! statement with the real SQL parser (not string matching) and routes
//! it:
//!
//! * **Writes, DDL, transaction control, `EXPLAIN ANALYZE` of writes** —
//!   always to the primary. `BEGIN` pins the session to the primary
//!   until `COMMIT`/`ROLLBACK` so multi-statement transactions never
//!   straddle nodes.
//! * **Reads** — round-robin across the replicas, falling back to the
//!   primary when no replica qualifies.
//! * **`SET` session knobs** — applied on the primary *and* broadcast to
//!   every connected replica, then replayed on each reconnect, so the
//!   session behaves like one logical connection.
//! * **Statements that don't parse, or that touch `hylite.*` system
//!   views** — to the primary (system views are node-local; the primary's
//!   is the authoritative one, and a parse error should be reported by
//!   the node that would execute the statement).
//!
//! # Session consistency
//!
//! Every `CommandComplete` carries the serving node's durable LSN (the
//! commit watermark on a primary, the applied LSN on a replica). The
//! router remembers the LSN of the session's last write as a
//! *consistency token*. In [`Consistency::Session`] mode a read is
//! routed to a replica only once that replica's applied LSN has caught
//! up to the token — "read your own writes". Replica LSNs are cached
//! from every response that passes through the router and refreshed with
//! rate-limited `SELECT 1` probes when a candidate looks stale; if no
//! replica is fresh enough the read falls back to the primary, which is
//! always consistent. [`Consistency::AnyReplica`] skips the freshness
//! check for workloads that tolerate bounded staleness.
//!
//! # Fleet health
//!
//! A replica whose connection breaks is ejected from the rotation and
//! reprobed with jittered exponential backoff (the same
//! [`RetryPolicy`] curve used for client retries), so a dead node costs
//! one failed statement, not one per request. If the **primary** dies
//! and [`RouterConfig::auto_failover`] is on, the router drives the
//! promotion machinery itself: it probes the fleet, promotes the most
//! caught-up healthy replica in place (`Promote` frame), re-points the
//! remaining replicas at the new primary (`Repoint` frame), and resumes.
//! Epoch fencing on the server side guarantees a re-pointed replica
//! whose history diverged re-bootstraps instead of serving a stale fork.
//!
//! ```no_run
//! use hylite_client::{Consistency, HyliteRouter, RouterConfig};
//!
//! let config = RouterConfig::new("127.0.0.1:5433")
//!     .replica("127.0.0.1:5434")
//!     .replica("127.0.0.1:5435")
//!     .consistency(Consistency::Session);
//! let mut router = HyliteRouter::connect(config).unwrap();
//!
//! router.query("CREATE TABLE t (x INT)").unwrap(); // routed to the primary
//! router.query("INSERT INTO t VALUES (1)").unwrap(); // primary; records the commit LSN
//! // Served by a replica only once it has applied the INSERT above,
//! // otherwise by the primary — the row is always visible:
//! let rows = router.query("SELECT x FROM t").unwrap();
//! assert_eq!(rows.row_count(), 1);
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use hylite_common::{HyError, NetHandle, Result};
use hylite_sql::{parse_sql, SetValue, Statement};

use crate::{jitter_seed, HyliteClient, RemoteResult, RetryPolicy};

/// How stale a routed read is allowed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Read-your-own-writes: a replica serves a read only once its
    /// applied LSN has reached the session's last write; otherwise the
    /// primary serves it.
    Session,
    /// Any live replica may serve a read regardless of its lag. Maximum
    /// scale-out, bounded staleness.
    AnyReplica,
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consistency::Session => write!(f, "session"),
            Consistency::AnyReplica => write!(f, "any-replica"),
        }
    }
}

/// Configuration for a [`HyliteRouter`]. Build with [`RouterConfig::new`]
/// plus the chainable setters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address of the primary (writes, DDL, fallback reads).
    pub primary_addr: String,
    /// Addresses of the read replicas.
    pub replica_addrs: Vec<String>,
    /// Staleness contract for routed reads.
    pub consistency: Consistency,
    /// Retry/backoff curve: used both for connecting to the primary and
    /// as the reprobe schedule of ejected replicas.
    pub retry: RetryPolicy,
    /// Minimum interval between freshness probes (`SELECT 1`) of one
    /// replica in [`Consistency::Session`] mode. Bounds probe traffic
    /// when replicas lag far behind.
    pub probe_interval: Duration,
    /// Drive promotion + re-pointing automatically when the primary is
    /// unreachable (instead of surfacing the error to the caller).
    pub auto_failover: bool,
    /// Transport used for every outbound connection (queries, probes,
    /// promote/repoint). Defaults to the real network; tests and the
    /// chaos harness install a `FaultNet` here.
    pub net: NetHandle,
}

impl RouterConfig {
    /// A config with the given primary, no replicas,
    /// [`Consistency::Session`], the default [`RetryPolicy`], a 25 ms
    /// probe interval and auto-failover enabled.
    pub fn new(primary_addr: impl Into<String>) -> RouterConfig {
        RouterConfig {
            primary_addr: primary_addr.into(),
            replica_addrs: Vec::new(),
            consistency: Consistency::Session,
            retry: RetryPolicy::default(),
            probe_interval: Duration::from_millis(25),
            auto_failover: true,
            net: NetHandle::default(),
        }
    }

    /// Add one read replica.
    pub fn replica(mut self, addr: impl Into<String>) -> RouterConfig {
        self.replica_addrs.push(addr.into());
        self
    }

    /// Add several read replicas.
    pub fn replicas<I, S>(mut self, addrs: I) -> RouterConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.replica_addrs.extend(addrs.into_iter().map(Into::into));
        self
    }

    /// Set the staleness contract.
    pub fn consistency(mut self, consistency: Consistency) -> RouterConfig {
        self.consistency = consistency;
        self
    }

    /// Set the retry/backoff curve.
    pub fn retry(mut self, retry: RetryPolicy) -> RouterConfig {
        self.retry = retry;
        self
    }

    /// Set the minimum interval between freshness probes of one replica.
    pub fn probe_interval(mut self, interval: Duration) -> RouterConfig {
        self.probe_interval = interval;
        self
    }

    /// Enable or disable automatic failover.
    pub fn auto_failover(mut self, on: bool) -> RouterConfig {
        self.auto_failover = on;
        self
    }

    /// Route every outbound connection through the given [`NetHandle`].
    pub fn net(mut self, net: NetHandle) -> RouterConfig {
        self.net = net;
        self
    }
}

/// Where the router sent the most recent statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Served by the primary at this address.
    Primary(String),
    /// Served by the replica at this address.
    Replica(String),
}

impl Route {
    /// The address of the serving node.
    pub fn addr(&self) -> &str {
        match self {
            Route::Primary(a) | Route::Replica(a) => a,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::Primary(a) => write!(f, "primary {a}"),
            Route::Replica(a) => write!(f, "replica {a}"),
        }
    }
}

/// Routing counters, readable via [`HyliteRouter::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Statements classified as writes (incl. DDL and transaction
    /// control) and sent to the primary.
    pub writes: u64,
    /// Reads served by a replica.
    pub reads_replica: u64,
    /// Reads served by the primary (transaction pinning, system views,
    /// parse fallbacks, or no qualifying replica).
    pub reads_primary: u64,
    /// Reads that *wanted* a replica but fell back to the primary
    /// because no replica was live and fresh enough.
    pub primary_fallbacks: u64,
    /// Freshness probes (`SELECT 1`) issued to replicas.
    pub probes: u64,
    /// Replica ejections (connection failures removing a node from the
    /// rotation until its backoff expires).
    pub ejections: u64,
    /// Automatic failovers driven (promotion of a replica after the
    /// primary became unreachable).
    pub failovers: u64,
}

struct ReplicaSlot {
    addr: String,
    client: Option<HyliteClient>,
    /// Last LSN this replica was observed to have applied (from any
    /// response it served through this router).
    applied_lsn: u64,
    /// Consecutive connection failures; drives the reprobe backoff.
    failures: u32,
    /// The slot stays out of the rotation until this instant.
    eject_until: Option<Instant>,
    /// When the last freshness probe ran (rate-limits probing).
    last_probe: Option<Instant>,
}

impl ReplicaSlot {
    fn new(addr: String) -> ReplicaSlot {
        ReplicaSlot {
            addr,
            client: None,
            applied_lsn: 0,
            failures: 0,
            eject_until: None,
            last_probe: None,
        }
    }
}

enum RouteKind {
    /// Safe to serve from a replica.
    Read,
    /// Must execute on the primary.
    Primary,
    /// Pure `SET` script: primary + broadcast to connected replicas.
    SetOnly,
}

struct Classified {
    kind: RouteKind,
    /// The statement (script) commits data — its completion LSN becomes
    /// the session's new consistency token.
    advances_lsn: bool,
    /// Final in-transaction state after the script, `None` = unchanged.
    txn_after: Option<bool>,
    /// `SET` knobs assigned by the script, in order (`(name, value)`).
    set_knobs: Vec<(String, SetValue)>,
}

fn classify(sql: &str) -> Classified {
    let to_primary = |advances: bool| Classified {
        kind: RouteKind::Primary,
        advances_lsn: advances,
        txn_after: None,
        set_knobs: Vec::new(),
    };
    // System views are node-local; the primary's view of e.g.
    // `hylite.replication` is the authoritative one.
    if sql.to_ascii_lowercase().contains("hylite.") {
        return to_primary(false);
    }
    let stmts = match parse_sql(sql) {
        Ok(stmts) => stmts,
        // Let the primary produce the (identical-everywhere) parse error.
        Err(_) => return to_primary(false),
    };
    let mut writes = false;
    let mut commits = false;
    let mut txn_after = None;
    let mut txn_control = false;
    let mut set_knobs = Vec::new();
    for stmt in &stmts {
        match stmt {
            Statement::Begin => {
                txn_after = Some(true);
                txn_control = true;
            }
            Statement::Commit => {
                txn_after = Some(false);
                txn_control = true;
                commits = true;
            }
            Statement::Rollback => {
                txn_after = Some(false);
                txn_control = true;
            }
            Statement::Set { name, value } => set_knobs.push((name.clone(), *value)),
            other => writes |= other.writes(),
        }
    }
    let all_set = !stmts.is_empty() && set_knobs.len() == stmts.len();
    let kind = if all_set {
        RouteKind::SetOnly
    } else if writes || txn_control || !set_knobs.is_empty() {
        RouteKind::Primary
    } else {
        RouteKind::Read
    };
    Classified {
        kind,
        advances_lsn: writes || commits,
        txn_after,
        set_knobs,
    }
}

/// A routing facade over one primary and N replicas; see the
/// [module docs](self) for the routing rules.
pub struct HyliteRouter {
    config: RouterConfig,
    /// Current primary address — diverges from `config.primary_addr`
    /// after a failover.
    primary_addr: String,
    primary: Option<HyliteClient>,
    replicas: Vec<ReplicaSlot>,
    /// Round-robin cursor over `replicas`.
    rr: usize,
    /// Session-consistency token: LSN of the session's last write.
    last_write_lsn: u64,
    /// `BEGIN` seen without a matching `COMMIT`/`ROLLBACK` — reads pin
    /// to the primary.
    in_transaction: bool,
    /// Latest `SET` per knob, replayed on every (re)connect so the
    /// logical session keeps its knobs across nodes.
    set_knobs: Vec<(String, SetValue)>,
    stats: RouterStats,
    last_route: Option<Route>,
    seed: u64,
}

impl HyliteRouter {
    /// Build a router over the fleet described by `config` and connect
    /// to the primary. A dead primary is tolerated when replicas are
    /// configured (reads still work; the first write triggers failover
    /// if enabled); with no replicas it is a hard error.
    pub fn connect(config: RouterConfig) -> Result<HyliteRouter> {
        let mut router = HyliteRouter {
            primary_addr: config.primary_addr.clone(),
            primary: None,
            replicas: config
                .replica_addrs
                .iter()
                .map(|a| ReplicaSlot::new(a.clone()))
                .collect(),
            rr: 0,
            last_write_lsn: 0,
            in_transaction: false,
            set_knobs: Vec::new(),
            stats: RouterStats::default(),
            last_route: None,
            seed: jitter_seed(),
            config,
        };
        if let Err(e) = router.ensure_primary() {
            if router.replicas.is_empty() {
                return Err(e);
            }
        }
        Ok(router)
    }

    /// The address currently treated as the primary (changes after a
    /// failover).
    pub fn primary_addr(&self) -> &str {
        &self.primary_addr
    }

    /// Addresses currently in the replica rotation (a promoted replica
    /// leaves it).
    pub fn replica_addrs(&self) -> Vec<&str> {
        self.replicas.iter().map(|s| s.addr.as_str()).collect()
    }

    /// The configured staleness contract.
    pub fn consistency(&self) -> Consistency {
        self.config.consistency
    }

    /// Routing counters so far.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Where the most recent statement was served, if any succeeded.
    pub fn last_route(&self) -> Option<&Route> {
        self.last_route.as_ref()
    }

    /// The session-consistency token: the LSN of this session's last
    /// write (0 before the first write).
    pub fn last_write_lsn(&self) -> u64 {
        self.last_write_lsn
    }

    /// Execute one statement (or `;`-separated script), routed per the
    /// rules in the [module docs](self).
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult> {
        let cls = classify(sql);
        match cls.kind {
            RouteKind::SetOnly => self.execute_set(sql, &cls),
            RouteKind::Primary => self.query_primary(sql, &cls),
            RouteKind::Read => {
                if self.in_transaction {
                    return self.query_primary(sql, &cls);
                }
                if let Some(res) = self.query_replica_pool(sql) {
                    return res;
                }
                self.stats.primary_fallbacks += 1;
                self.query_primary(sql, &cls)
            }
        }
    }

    /// Gracefully close every connection.
    pub fn close(mut self) {
        if let Some(p) = self.primary.take() {
            let _ = p.close();
        }
        for slot in &mut self.replicas {
            if let Some(c) = slot.client.take() {
                let _ = c.close();
            }
        }
    }

    // ---- primary path -------------------------------------------------

    fn ensure_primary(&mut self) -> Result<()> {
        if self.primary.is_some() {
            return Ok(());
        }
        let mut client = HyliteClient::connect_with_retry_via(
            &self.config.net,
            self.primary_addr.as_str(),
            &self.config.retry,
        )?;
        for (name, value) in &self.set_knobs {
            client.query(&format!("SET {name} = {value}"))?;
        }
        self.primary = Some(client);
        Ok(())
    }

    fn query_primary(&mut self, sql: &str, cls: &Classified) -> Result<RemoteResult> {
        let mut failed_over = false;
        loop {
            let connect_err = self.ensure_primary().err();
            let outcome = match connect_err {
                Some(e) => Err((e, true)),
                None => {
                    let client = self.primary.as_mut().expect("ensured above");
                    match client.query(sql) {
                        Ok(r) => Ok(r),
                        Err(e) => {
                            let broken = client.broken;
                            Err((e, broken))
                        }
                    }
                }
            };
            match outcome {
                Ok(result) => {
                    if cls.advances_lsn {
                        self.last_write_lsn = self.last_write_lsn.max(result.lsn);
                    }
                    if let Some(txn) = cls.txn_after {
                        self.in_transaction = txn;
                    }
                    if cls.advances_lsn || cls.txn_after.is_some() {
                        self.stats.writes += 1;
                    } else {
                        self.stats.reads_primary += 1;
                    }
                    self.last_route = Some(Route::Primary(self.primary_addr.clone()));
                    return Ok(result);
                }
                Err((e, connection_lost)) => {
                    if !connection_lost {
                        // A real SQL/engine error; the connection is fine.
                        return Err(e);
                    }
                    self.primary = None;
                    if self.in_transaction {
                        // The server rolled the open transaction back
                        // when the session died; pretending otherwise by
                        // silently retrying would split the transaction
                        // across sessions.
                        self.in_transaction = false;
                        return Err(HyError::Unavailable(format!(
                            "open transaction lost: connection to primary {} failed: {e}",
                            self.primary_addr
                        )));
                    }
                    if failed_over || !self.config.auto_failover || self.replicas.is_empty() {
                        return Err(e);
                    }
                    self.failover()?;
                    failed_over = true;
                }
            }
        }
    }

    // ---- replica pool -------------------------------------------------

    /// Try to serve a read from the replica rotation. `None` means no
    /// replica was live and fresh enough — fall back to the primary.
    fn query_replica_pool(&mut self, sql: &str) -> Option<Result<RemoteResult>> {
        let n = self.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.rr;
        for k in 0..n {
            let i = (start + k) % n;
            if self.ensure_replica(i).is_err() {
                continue;
            }
            if self.config.consistency == Consistency::Session
                && self.replicas[i].applied_lsn < self.last_write_lsn
            {
                let due = self.replicas[i]
                    .last_probe
                    .is_none_or(|t| t.elapsed() >= self.config.probe_interval);
                if due {
                    let _ = self.probe_slot(i);
                }
                if self.replicas[i].client.is_none()
                    || self.replicas[i].applied_lsn < self.last_write_lsn
                {
                    continue; // still stale (or died during the probe)
                }
            }
            let result = self.replicas[i]
                .client
                .as_mut()
                .expect("ensured above")
                .query(sql);
            match result {
                Ok(r) => {
                    let slot = &mut self.replicas[i];
                    slot.applied_lsn = slot.applied_lsn.max(r.lsn);
                    slot.failures = 0;
                    self.rr = (i + 1) % n;
                    self.stats.reads_replica += 1;
                    self.last_route = Some(Route::Replica(self.replicas[i].addr.clone()));
                    return Some(Ok(r));
                }
                Err(e) => {
                    let broken = self.replicas[i].client.as_ref().is_none_or(|c| c.broken);
                    if broken {
                        // Node died mid-statement: eject it and retry the
                        // read on the next healthy replica.
                        self.eject(i);
                        continue;
                    }
                    // A genuine SQL error is identical on every node.
                    self.rr = (i + 1) % n;
                    self.last_route = Some(Route::Replica(self.replicas[i].addr.clone()));
                    return Some(Err(e));
                }
            }
        }
        None
    }

    /// Connect slot `i` if it has no live connection, honoring its
    /// ejection backoff.
    fn ensure_replica(&mut self, i: usize) -> Result<()> {
        if self.replicas[i].client.is_some() {
            return Ok(());
        }
        if let Some(until) = self.replicas[i].eject_until {
            if until > Instant::now() {
                return Err(HyError::Unavailable(format!(
                    "replica {} is ejected (reprobe pending)",
                    self.replicas[i].addr
                )));
            }
        }
        match HyliteClient::connect_via(&self.config.net, self.replicas[i].addr.as_str()) {
            Ok(mut client) => {
                for (name, value) in &self.set_knobs {
                    let _ = client.query(&format!("SET {name} = {value}"));
                }
                let slot = &mut self.replicas[i];
                slot.client = Some(client);
                slot.eject_until = None;
                Ok(())
            }
            Err(e) => {
                self.eject(i);
                Err(e)
            }
        }
    }

    /// Refresh slot `i`'s applied LSN with a `SELECT 1` round trip.
    fn probe_slot(&mut self, i: usize) -> Result<u64> {
        self.ensure_replica(i)?;
        self.stats.probes += 1;
        self.replicas[i].last_probe = Some(Instant::now());
        let result = self.replicas[i]
            .client
            .as_mut()
            .expect("ensured above")
            .query("SELECT 1");
        match result {
            Ok(r) => {
                let slot = &mut self.replicas[i];
                slot.applied_lsn = slot.applied_lsn.max(r.lsn);
                slot.failures = 0;
                Ok(slot.applied_lsn)
            }
            Err(e) => {
                self.eject(i);
                Err(e)
            }
        }
    }

    /// Drop slot `i`'s connection and keep it out of the rotation for a
    /// jittered exponential backoff.
    fn eject(&mut self, i: usize) {
        let backoff = self
            .config
            .retry
            .jittered_backoff(self.replicas[i].failures.min(16), self.seed ^ (i as u64));
        let slot = &mut self.replicas[i];
        slot.client = None;
        slot.failures = slot.failures.saturating_add(1);
        slot.eject_until = Some(Instant::now() + backoff);
        self.stats.ejections += 1;
    }

    // ---- SET broadcast ------------------------------------------------

    fn execute_set(&mut self, sql: &str, cls: &Classified) -> Result<RemoteResult> {
        let result = self.query_primary(sql, cls)?;
        for (name, value) in &cls.set_knobs {
            if let Some(slot) = self.set_knobs.iter_mut().find(|(n, _)| n == name) {
                slot.1 = *value;
            } else {
                self.set_knobs.push((name.clone(), *value));
            }
        }
        // Mirror onto every *connected* replica; unconnected ones get
        // the knobs replayed at connect time.
        for i in 0..self.replicas.len() {
            if self.replicas[i].client.is_some() {
                let r = self.replicas[i]
                    .client
                    .as_mut()
                    .expect("checked above")
                    .query(sql);
                if r.is_err() && self.replicas[i].client.as_ref().is_none_or(|c| c.broken) {
                    self.eject(i);
                }
            }
        }
        Ok(result)
    }

    // ---- failover -----------------------------------------------------

    /// The primary is gone: probe the fleet, promote the most caught-up
    /// healthy replica in place, re-point the rest at it, and re-target
    /// this router. The old primary is dropped — when it comes back its
    /// stale epoch fences it out of the new history.
    fn failover(&mut self) -> Result<()> {
        self.stats.failovers += 1;
        self.primary = None;
        let mut best: Option<(usize, u64)> = None;
        for i in 0..self.replicas.len() {
            // Bypass the ejection backoff: failover needs the freshest
            // possible picture of the fleet right now.
            self.replicas[i].eject_until = None;
            if let Ok(lsn) = self.probe_slot(i) {
                if best.is_none_or(|(_, b)| lsn > b) {
                    best = Some((i, lsn));
                }
            }
        }
        let (idx, _lsn) = best.ok_or_else(|| {
            HyError::Unavailable(format!(
                "failover: primary {} is unreachable and no healthy replica is left to promote",
                self.primary_addr
            ))
        })?;
        let new_primary = self.replicas[idx].addr.clone();
        crate::request_promote_via(&self.config.net, new_primary.as_str())?;
        self.replicas.remove(idx);
        self.primary_addr = new_primary.clone();
        if self.rr >= self.replicas.len() {
            self.rr = 0;
        }
        // Re-point the survivors; one failing to repoint just gets
        // ejected — it will be retried when its backoff expires.
        for i in 0..self.replicas.len() {
            let addr = self.replicas[i].addr.clone();
            if crate::request_repoint_via(&self.config.net, addr.as_str(), &new_primary).is_err() {
                self.eject(i);
            } else {
                // The old session (if any) still redirects writes to the
                // dead primary's address; reconnect lazily.
                self.replicas[i].client = None;
            }
        }
        self.ensure_primary()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(sql: &str) -> RouteKind {
        classify(sql).kind
    }

    #[test]
    fn reads_are_replica_safe() {
        assert!(matches!(kind_of("SELECT 1"), RouteKind::Read));
        assert!(matches!(
            kind_of("SELECT x FROM t ORDER BY x LIMIT 3"),
            RouteKind::Read
        ));
        assert!(matches!(kind_of("EXPLAIN SELECT 1"), RouteKind::Read));
    }

    #[test]
    fn writes_and_transactions_pin_to_primary() {
        for sql in [
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET x = 1",
            "DELETE FROM t",
            "CREATE TABLE t (x INT)",
            "DROP TABLE t",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
            "EXPLAIN ANALYZE INSERT INTO t VALUES (1)",
            "SELECT 1; INSERT INTO t VALUES (2)",
        ] {
            assert!(matches!(kind_of(sql), RouteKind::Primary), "{sql}");
        }
    }

    #[test]
    fn unparseable_and_system_view_sql_go_to_primary() {
        assert!(matches!(kind_of("FLARGLE BARGLE"), RouteKind::Primary));
        assert!(matches!(
            kind_of("SELECT * FROM hylite.replication"),
            RouteKind::Primary
        ));
    }

    #[test]
    fn pure_set_scripts_broadcast() {
        let cls = classify("SET statement_timeout_ms = 100");
        assert!(matches!(cls.kind, RouteKind::SetOnly));
        let knob = ("statement_timeout_ms".into(), SetValue::Number(100));
        assert_eq!(cls.set_knobs, vec![knob]);
        // Mixed scripts run on the primary only.
        assert!(matches!(
            kind_of("SET statement_timeout_ms = 100; SELECT 1"),
            RouteKind::Primary
        ));
    }

    #[test]
    fn commit_advances_the_consistency_token() {
        assert!(classify("INSERT INTO t VALUES (1)").advances_lsn);
        assert!(classify("COMMIT").advances_lsn);
        assert!(!classify("SELECT 1").advances_lsn);
        assert!(!classify("BEGIN").advances_lsn);
        assert_eq!(classify("BEGIN").txn_after, Some(true));
        assert_eq!(classify("ROLLBACK").txn_after, Some(false));
        assert_eq!(classify("SELECT 1").txn_after, None);
    }
}
