//! The server-side e-voting application.

use minisql::JournalMode;
use pbft_core::app::{App, ExecMetrics, NonDet, StateHandle};
use pbft_core::types::ClientId;
use pbft_sql::{CostProfile, SqlApp};

use pbft_crypto::threshold::{partial_sign, SecretShare};

use crate::certificate::CertifyReply;
use crate::ops::VoteOp;

/// The replicated schema: elections, votes (the §4.2 benchmark row shape:
/// key, value, timestamp, random) and the voter registry the Join
/// authorization checks.
pub const EVOTING_SCHEMA: &str = "\
CREATE TABLE elections (id INTEGER PRIMARY KEY, title TEXT NOT NULL, open INTEGER NOT NULL);\
CREATE TABLE votes (id INTEGER PRIMARY KEY, election INTEGER NOT NULL, voter TEXT NOT NULL, \
choice TEXT NOT NULL, ts INTEGER, rnd INTEGER);\
CREATE TABLE voters (id INTEGER PRIMARY KEY, user TEXT NOT NULL, secret TEXT NOT NULL)";

/// Escape a string for inclusion in a SQL single-quoted literal.
fn sql_str(s: &str) -> String {
    s.replace('\'', "''")
}

/// The e-voting [`App`]: decodes [`VoteOp`]s, binds voter identity to the
/// PBFT session, and executes SQL over the replicated database.
pub struct EvotingApp {
    sql: SqlApp,
    /// This replica's threshold-signature share (§3.3.1), if dealt. Lives
    /// only in replica-local memory — never in the shared state region, so
    /// it is never transmitted by checkpoints or state transfer.
    threshold_share: Option<SecretShare>,
}

impl std::fmt::Debug for EvotingApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvotingApp").finish()
    }
}

impl EvotingApp {
    /// Open the service over a replica's state region; `voters` seeds the
    /// registry on first creation (deterministic across replicas).
    ///
    /// # Panics
    /// Panics if the region is too small for the schema — a deployment
    /// configuration error surfaced at construction.
    pub fn open(
        state: StateHandle,
        journal_mode: JournalMode,
        voters: &[(&str, &str)],
    ) -> EvotingApp {
        let mut setup = EVOTING_SCHEMA.to_string();
        for (user, secret) in voters {
            setup.push_str(&format!(
                ";INSERT INTO voters (user, secret) VALUES ('{}', '{}')",
                sql_str(user),
                sql_str(secret)
            ));
        }
        let sql = SqlApp::open(state, journal_mode, CostProfile::default(), Some(&setup))
            .expect("state region large enough for the e-voting schema");
        EvotingApp {
            sql,
            threshold_share: None,
        }
    }

    /// Install this replica's share of the group signing secret (dealt at
    /// deployment; enables [`VoteOp::Certify`]).
    pub fn set_threshold_share(&mut self, share: SecretShare) {
        self.threshold_share = Some(share);
    }

    fn op_to_sql(&self, client: ClientId, op: &VoteOp) -> String {
        // Voter identity is the *session*, not anything client-supplied.
        let voter = format!("voter-{}", client.0);
        match op {
            VoteOp::CreateElection { title } => format!(
                "INSERT INTO elections (title, open) VALUES ('{}', 1)",
                sql_str(title)
            ),
            VoteOp::CastVote { election, choice } => format!(
                "BEGIN;\
                 DELETE FROM votes WHERE election = {election} AND voter = '{voter}';\
                 INSERT INTO votes (election, voter, choice, ts, rnd) \
                 VALUES ({election}, '{voter}', '{}', now(), random());\
                 COMMIT",
                sql_str(choice)
            ),
            VoteOp::Tally { election } => format!(
                "SELECT choice, COUNT(*) FROM votes WHERE election = {election} \
                 GROUP BY choice ORDER BY choice"
            ),
            VoteOp::ListElections => {
                "SELECT id, title, open FROM elections ORDER BY id".to_string()
            }
            VoteOp::MyVote { election } => format!(
                "SELECT choice FROM votes WHERE election = {election} AND voter = '{voter}'"
            ),
            // Handled before SQL generation (needs the threshold share);
            // reaching here is a bug.
            VoteOp::Certify { .. } => unreachable!("certify is intercepted in execute"),
        }
    }
}

impl App for EvotingApp {
    fn execute(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        let Some(vote_op) = VoteOp::decode(op) else {
            return (b"err:malformed operation".to_vec(), ExecMetrics::default());
        };
        if read_only && !vote_op.is_read_only() {
            return (
                b"err:write op on read-only path".to_vec(),
                ExecMetrics::default(),
            );
        }
        if let VoteOp::Certify {
            election,
            participants,
        } = &vote_op
        {
            let Some(share) = self.threshold_share else {
                return (
                    b"err:no threshold share dealt".to_vec(),
                    ExecMetrics::default(),
                );
            };
            if !participants.contains(&share.x) {
                return (
                    b"err:this replica is not in the signer set".to_vec(),
                    ExecMetrics::default(),
                );
            }
            let tally_sql = self.op_to_sql(
                client,
                &VoteOp::Tally {
                    election: *election,
                },
            );
            let (tally, metrics) = self.sql.execute(client, tally_sql.as_bytes(), nondet, true);
            let reply = CertifyReply {
                partial: partial_sign(&share, participants),
                tally,
            };
            return (reply.encode(), metrics);
        }
        let sql = self.op_to_sql(client, &vote_op);
        self.sql.execute(
            client,
            sql.as_bytes(),
            nondet,
            read_only && vote_op.is_read_only(),
        )
    }

    /// Check credentials against the replicated voter registry (§3.1's
    /// application-level identification buffer: "It might include, for
    /// example, an encrypted user id and password").
    fn authorize_join(&mut self, idbuf: &[u8]) -> Option<Vec<u8>> {
        let text = std::str::from_utf8(idbuf).ok()?;
        let (user, secret) = text.split_once(':')?;
        let sql = format!(
            "SELECT COUNT(*) FROM voters WHERE user = '{}' AND secret = '{}'",
            sql_str(user),
            sql_str(secret)
        );
        let rows = self.sql.db_mut().query(&sql).ok()?;
        match rows.rows.first().and_then(|r| r.first()) {
            Some(minisql::Value::Integer(n)) if *n > 0 => Some(user.as_bytes().to_vec()),
            _ => None,
        }
    }

    fn on_state_installed(&mut self) {
        self.sql.on_state_installed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::decode_tally;
    use minisql::Value;
    use pbft_sql::{decode_outcome, sql_state, WireOutcome};

    fn nd(ts: u64) -> NonDet {
        NonDet {
            timestamp_ns: ts,
            random: ts ^ 0xabcd,
        }
    }

    fn service() -> EvotingApp {
        EvotingApp::open(
            sql_state(64),
            JournalMode::Rollback,
            &[("alice", "pw-a"), ("bob", "pw-b")],
        )
    }

    #[test]
    fn election_lifecycle() {
        let mut app = service();
        let (reply, _) = app.execute(
            ClientId(1),
            &VoteOp::CreateElection {
                title: "Board".into(),
            }
            .encode(),
            &nd(1),
            false,
        );
        assert_eq!(decode_outcome(&reply), Some(WireOutcome::Affected(1)));

        // Three voters cast votes; one revises theirs.
        for (client, choice) in [(1u64, "yes"), (2, "no"), (3, "yes"), (2, "yes")] {
            let (reply, metrics) = app.execute(
                ClientId(client),
                &VoteOp::CastVote {
                    election: 1,
                    choice: choice.into(),
                }
                .encode(),
                &nd(10 + client),
                false,
            );
            // The cast is a BEGIN..COMMIT script; its outcome is the COMMIT.
            assert!(
                matches!(
                    decode_outcome(&reply),
                    Some(WireOutcome::Done) | Some(WireOutcome::Affected(_))
                ),
                "cast failed: {reply:?}"
            );
            assert!(metrics.disk_flushes > 0, "ACID vote storage flushes");
        }

        let (reply, _) = app.execute(
            ClientId(9),
            &VoteOp::Tally { election: 1 }.encode(),
            &nd(99),
            true,
        );
        let tally = decode_tally(&reply).expect("tally");
        assert_eq!(tally, vec![("yes".to_string(), 3)], "re-vote replaced 'no'");
    }

    #[test]
    fn my_vote_is_session_bound() {
        let mut app = service();
        app.execute(
            ClientId(1),
            &VoteOp::CreateElection { title: "X".into() }.encode(),
            &nd(1),
            false,
        );
        app.execute(
            ClientId(7),
            &VoteOp::CastVote {
                election: 1,
                choice: "blue".into(),
            }
            .encode(),
            &nd(2),
            false,
        );
        let (reply, _) = app.execute(
            ClientId(7),
            &VoteOp::MyVote { election: 1 }.encode(),
            &nd(3),
            true,
        );
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => {
                assert_eq!(rows.rows[0][0], Value::Text("blue".into()));
            }
            other => panic!("{other:?}"),
        }
        // A different session sees no vote.
        let (reply, _) = app.execute(
            ClientId(8),
            &VoteOp::MyVote { election: 1 }.encode(),
            &nd(4),
            true,
        );
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => assert!(rows.rows.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn authorization_checks_registry() {
        let mut app = service();
        assert_eq!(app.authorize_join(b"alice:pw-a"), Some(b"alice".to_vec()));
        assert_eq!(app.authorize_join(b"alice:wrong"), None);
        assert_eq!(app.authorize_join(b"mallory:pw-a"), None);
        assert_eq!(app.authorize_join(b"garbage"), None);
        // SQL injection in credentials does not help.
        assert_eq!(app.authorize_join(b"alice' -- : x"), None);
        assert_eq!(app.authorize_join(b"x:' OR '1'='1"), None);
    }

    #[test]
    fn malformed_ops_rejected_deterministically() {
        let mut a = service();
        let mut b = service();
        let (ra, _) = a.execute(ClientId(1), &[0xff, 0x01], &nd(1), false);
        let (rb, _) = b.execute(ClientId(1), &[0xff, 0x01], &nd(1), false);
        assert_eq!(ra, rb);
        assert!(ra.starts_with(b"err:"));
    }

    #[test]
    fn write_op_on_read_only_path_rejected() {
        let mut app = service();
        let (reply, _) = app.execute(
            ClientId(1),
            &VoteOp::CastVote {
                election: 1,
                choice: "x".into(),
            }
            .encode(),
            &nd(1),
            true,
        );
        assert!(reply.starts_with(b"err:"));
    }

    #[test]
    fn list_elections() {
        let mut app = service();
        for title in ["A", "B"] {
            app.execute(
                ClientId(1),
                &VoteOp::CreateElection {
                    title: title.into(),
                }
                .encode(),
                &nd(1),
                false,
            );
        }
        let (reply, _) = app.execute(ClientId(1), &VoteOp::ListElections.encode(), &nd(2), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => {
                assert_eq!(rows.rows.len(), 2);
                assert_eq!(rows.rows[0][1], Value::Text("A".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_across_replicas() {
        let mut a = service();
        let mut b = service();
        let ops = [
            VoteOp::CreateElection { title: "E".into() }.encode(),
            VoteOp::CastVote {
                election: 1,
                choice: "yes".into(),
            }
            .encode(),
            VoteOp::Tally { election: 1 }.encode(),
        ];
        for (i, op) in ops.iter().enumerate() {
            let (ra, _) = a.execute(ClientId(5), op, &nd(i as u64), false);
            let (rb, _) = b.execute(ClientId(5), op, &nd(i as u64), false);
            assert_eq!(ra, rb, "op {i}");
        }
    }
}
