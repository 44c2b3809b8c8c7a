//! Failover: promoting a replica to primary.
//!
//! Promotion is deliberately boring — that is the point. A replica's
//! directory is kept in the exact `snapshot + WAL` layout the engine's
//! own recovery consumes, so promoting one is: seal it (graceful
//! shutdown fsyncs the WAL tail and publishes a covering snapshot —
//! nothing the replica ever acked can be lost past this line), bump the
//! fencing term in its MANIFEST, then start an engine over its
//! directory, which recovers it like any initialised one. The promoted
//! engine answers no client until that recovery completes, which is the
//! "refuse to ack until the WAL tail is durable" rule in mechanism form.
//!
//! Elections pick the replica with the highest **durable** LSN: what a
//! replica fsync'd is what it acked, and zero-acked-loss promotion is a
//! statement about acks, not about frames that only ever reached a page
//! cache.
//!
//! Term-aware promotion ([`promote_at_term`]) is idempotent in the only
//! sense that matters for split-brain: promoting twice at the same term
//! fails with [`PromoteError::StaleTerm`] on the second attempt, so at
//! most one primary can ever hold a given term.

use crate::config::EngineConfig;
use crate::repl::replica::{Replica, ReplicaConfig, ReplicaStats};
use crate::runtime::Engine;
use quts_db::snapshot;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a promotion was refused or failed.
#[derive(Debug)]
pub enum PromoteError {
    /// The chosen replica was never bootstrapped: it has no baseline
    /// store, so there is nothing coherent to promote.
    NotBootstrapped,
    /// No replica in the candidate set was bootstrapped.
    NoCandidate,
    /// The directory has already seen `current >= requested`: someone
    /// promoted at this term (or a later one) first. The refusing
    /// caller must not serve — this is the at-most-one-primary-per-term
    /// guarantee in error form.
    StaleTerm {
        /// The term already persisted in the directory's MANIFEST.
        current: u64,
        /// The term the caller asked to promote at.
        requested: u64,
    },
    /// Sealing, term persistence, or engine recovery failed.
    Io(io::Error),
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromoteError::NotBootstrapped => {
                write!(f, "replica was never bootstrapped; nothing to promote")
            }
            PromoteError::NoCandidate => write!(f, "no bootstrapped replica to promote"),
            PromoteError::StaleTerm { current, requested } => write!(
                f,
                "promotion at term {requested} refused: directory already at term {current}"
            ),
            PromoteError::Io(e) => write!(f, "promotion failed: {e}"),
        }
    }
}

impl std::error::Error for PromoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PromoteError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PromoteError {
    fn from(e: io::Error) -> Self {
        PromoteError::Io(e)
    }
}

/// Promotes one replica *at a new term*: seals its state (graceful
/// shutdown), refuses if the directory has already reached `term` (a
/// concurrent or repeated promotion — the loser must stand down, not
/// serve), persists the term bump, then recovers a primary engine from
/// its directory. The returned engine continues the LSN sequence the
/// replica applied.
pub fn promote_at_term(
    replica: Replica,
    config: EngineConfig,
    term: u64,
) -> Result<Engine, PromoteError> {
    let dir = replica.dir();
    let stats = replica.shutdown();
    if !stats.ready {
        return Err(PromoteError::NotBootstrapped);
    }
    let current = snapshot::manifest_term(&dir);
    if current >= term {
        return Err(PromoteError::StaleTerm {
            current,
            requested: term,
        });
    }
    Ok(reopen_at_term(dir, config, term)?)
}

/// Raises `dir`'s fencing term to `term`, then recovers an engine from
/// it: how a promoted replica serves, and how a primary a failed
/// promotion deposed comes back at the term that promotion burned.
pub(crate) fn reopen_at_term(dir: PathBuf, config: EngineConfig, term: u64) -> io::Result<Engine> {
    snapshot::bump_term(&dir, term)?;
    Engine::reopen(dir, config)
}

/// Refuses to serve a primary directory that a replica directory has
/// passed in term. A term only rises when a replica is promoted, so the
/// shard failed over: its newest acked writes live in that replica's
/// directory, and a primary started on the deposed one would fence the
/// replica and serve without them. A rolled-back promotion raises the
/// primary directory to the term it burned, but a directory written
/// before that rule can still be a term behind with its data current;
/// the refusal names that case too, since the terms alone cannot tell
/// the two apart.
pub(crate) fn refuse_a_deposed_primary(
    config: &EngineConfig,
    replicas: &[ReplicaConfig],
) -> io::Result<()> {
    let Some(primary) = config.durability.as_ref().map(|d| &d.dir) else {
        return Ok(());
    };
    let term = snapshot::manifest_term(primary);
    for r in replicas {
        let at = snapshot::manifest_term(&r.dir);
        if at > term {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "replica directory {} at term {at} is past primary directory {} at term \
                     {term}: the shard failed over, and its newest acked writes are in the \
                     replica directory; or a promotion to it was rolled back, and the replica \
                     bootstraps once its directory is removed",
                    r.dir.display(),
                    primary.display()
                ),
            ));
        }
    }
    Ok(())
}

/// Picks the index of the most-durable bootstrapped replica from one
/// `stats()` read per replica: replicas that are not `ready` are
/// skipped, the highest `durable_lsn` wins, and of equally durable
/// replicas the last one does.
pub(crate) fn elect(replicas: &[ReplicaStats]) -> Result<usize, PromoteError> {
    replicas
        .iter()
        .enumerate()
        .filter(|(_, s)| s.ready)
        .max_by_key(|(_, s)| s.durable_lsn)
        .map(|(i, _)| i)
        .ok_or(PromoteError::NoCandidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use quts_db::Store;

    /// `(ready, durable LSN)` per replica in pool order, and the index
    /// the election picks (`None`: `NoCandidate`).
    type Ballot = (&'static [(bool, u64)], Option<usize>);

    #[test]
    fn the_election_picks_the_most_durable_ready_replica() {
        let cases: &[Ballot] = &[
            // No replica, or none ready: nothing to promote.
            (&[], None),
            (&[(false, 40), (false, 0)], None),
            // A replica that is not ready is skipped, however durable.
            (&[(false, 90), (true, 10)], Some(1)),
            // The highest durable LSN wins, wherever it sits.
            (&[(true, 10), (true, 30), (true, 20)], Some(1)),
            (&[(true, 30), (true, 10)], Some(0)),
            // Of equally durable replicas, the last one wins.
            (&[(true, 30), (true, 30)], Some(1)),
            (&[(true, 30), (true, 30), (false, 30), (true, 5)], Some(1)),
        ];
        for (i, &(pool, want)) in cases.iter().enumerate() {
            let stats: Vec<ReplicaStats> = pool
                .iter()
                .map(|&(ready, durable_lsn)| ReplicaStats {
                    ready,
                    durable_lsn,
                    ..ReplicaStats::default()
                })
                .collect();
            match (elect(&stats), want) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "case {i}: {pool:?}"),
                (Err(PromoteError::NoCandidate), None) => {}
                (got, _) => panic!("case {i}: {pool:?} elected {got:?}, want {want:?}"),
            }
        }
    }

    /// A replica directory one term past its primary's: what a failover
    /// leaves, and what a promotion rolled back after its term bump left
    /// before a rollback kept the term it burned.
    #[test]
    fn a_replica_directory_past_the_primary_term_is_refused() {
        let base = std::env::temp_dir().join(format!("quts-deposed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (primary, replica) = (base.join("primary"), base.join("r1"));
        for dir in [&primary, &replica] {
            snapshot::open(dir, Store::with_synthetic_stocks(2)).unwrap();
        }
        let config = EngineConfig::default().with_durability(DurabilityConfig::new(&primary));
        let replicas = [ReplicaConfig::new("r1", &replica)];
        refuse_a_deposed_primary(&config, &replicas).expect("same term");

        snapshot::bump_term(&replica, 1).unwrap();
        let err = refuse_a_deposed_primary(&config, &replicas).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let why = err.to_string();
        for named in [primary.display().to_string(), replica.display().to_string()] {
            assert!(why.contains(&named), "{why}");
        }
        assert!(why.contains("rolled back"), "{why}");

        // The primary at the replica's term serves again.
        snapshot::bump_term(&primary, 1).unwrap();
        refuse_a_deposed_primary(&config, &replicas).expect("caught up in term");
        let _ = std::fs::remove_dir_all(&base);
    }
}
