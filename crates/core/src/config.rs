//! Protocol configuration — the knobs the paper's Table 1 sweeps.

use crate::types::{ReplicaId, View};

/// How messages are authenticated (the `mac` / `nomac` axis of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthMode {
    /// MAC authenticators: one fast MAC per receiver ("Using MACs = Yes").
    Macs,
    /// Public-key signatures on every protocol message ("Using MACs = No").
    /// Slow but robust: signatures survive replica restarts and make view
    /// changes verifiable by third parties.
    Signatures,
}

/// Which agreement protocol the one [`Replica`](crate::Replica) runs. Both
/// share the log, checkpoints, state transfer, recovery and the wire
/// format; they differ only in how votes travel (see [`crate::linear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Classic quadratic PBFT: all-to-all prepare and commit votes, and
    /// all-to-all view-change votes.
    #[default]
    Pbft,
    /// Linear communication: votes go to the leader, which broadcasts
    /// quorum certificates; view-change votes go to the incoming leader.
    Linear,
}

impl Engine {
    /// Both engines, PBFT first (the order every head-to-head bench uses).
    pub const ALL: [Engine; 2] = [Engine::Pbft, Engine::Linear];

    /// Short stable name for bench columns and reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Pbft => "pbft",
            Engine::Linear => "linear",
        }
    }
}

/// Policy for validating the primary's non-deterministic data (paper §2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonDetPolicy {
    /// Maximum accepted skew between the primary's timestamp and the local
    /// clock, in nanoseconds.
    pub validate_window_ns: u64,
    /// If true, skip timestamp validation while replaying requests during
    /// recovery — the fix the paper proposes for the replay hazard ("when a
    /// request is replayed from the log during recovery, the time drift can
    /// be quite large and validating using a time delta will fail and impede
    /// the recovery process").
    pub skip_validation_on_replay: bool,
}

impl Default for NonDetPolicy {
    fn default() -> Self {
        NonDetPolicy {
            validate_window_ns: 500_000_000, // 500 ms
            skip_validation_on_replay: true,
        }
    }
}

/// Full protocol configuration.
///
/// [`PbftConfig::default`] gives Castro's preferred configuration
/// (`sta_mac_allbig_batch` in the paper's Table 1): MACs, all requests
/// treated as big, batching enabled, static membership.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// The agreement protocol (PBFT or linear).
    pub engine: Engine,
    /// Number of tolerated Byzantine faults.
    pub f: usize,
    /// Authentication mode (Table 1 `mac` axis).
    pub auth: AuthMode,
    /// Treat every request as big — multicast bodies from clients, digests
    /// in pre-prepares (Table 1 `allbig` axis; the library default sets the
    /// big threshold to 0, "resulting in all requests treated as big").
    pub all_requests_big: bool,
    /// Request batching (Table 1 `batch` axis). When off, every request gets
    /// its own agreement and the congestion window is 1 (see
    /// [`PbftConfig::effective_window`]).
    pub batching: bool,
    /// Take a checkpoint every this many sequence numbers.
    pub checkpoint_interval: u64,
    /// Log capacity: high watermark = low watermark + `log_size`.
    pub log_size: u64,
    /// Dynamic client membership (the paper's extension; Table 1 `sta` /
    /// `nosta` axis — `nosta` means dynamic enabled).
    pub dynamic_membership: bool,
    /// Execute requests tentatively after prepare, before commit (§2.1).
    pub tentative_execution: bool,
    /// Backup timer before suspecting the primary and starting a view
    /// change, in nanoseconds (doubled per failed round, see
    /// [`PbftConfig::view_change_delay_ns`]).
    pub view_change_timeout_ns: u64,
    /// Interval of the client's blind NewKey (authenticator) retransmission
    /// — the only mechanism that lets a restarted replica re-learn client
    /// MAC keys (paper §2.3).
    pub newkey_interval_ns: u64,
    /// Non-determinism validation policy (paper §2.5).
    pub nondet: NonDetPolicy,
    /// Optional fix for the §2.4 big-request hazard: fetch missing request
    /// bodies from peer replicas instead of stalling until the next
    /// checkpoint. Off by default (the library's behaviour the paper
    /// documents).
    pub fetch_missing_bodies: bool,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            engine: Engine::Pbft,
            f: 1,
            auth: AuthMode::Macs,
            all_requests_big: true,
            batching: true,
            checkpoint_interval: 128,
            log_size: 256,
            dynamic_membership: false,
            tentative_execution: true,
            view_change_timeout_ns: 500_000_000, // 500 ms
            newkey_interval_ns: 2_000_000_000,   // 2 s
            nondet: NonDetPolicy::default(),
            fetch_missing_bodies: false,
        }
    }
}

/// Maximum requests folded into one pre-prepare.
pub(crate) const MAX_BATCH: usize = 64;

/// Congestion window / pipeline depth k when pre-prepares carry request
/// bodies inline: up to this many agreements (pre-prepared batches) not
/// yet executed before the primary postpones further pre-prepares. With
/// k > 1 the primary (and the linear leader) keeps several pre-prepares in
/// flight across the sequence window — a new batch is issued while its
/// predecessors are still in the prepare/commit phases, and backpressure
/// comes from the log watermarks plus this cap. A view change re-issues
/// the whole in-flight window (the new-view `O` set spans every
/// pre-prepared sequence). Inline bodies make every waiting request grow
/// the next pre-prepare toward MTU fragmentation, so issuing early pays
/// there; with digests in the pre-prepare the window is 1 (see
/// [`PbftConfig::effective_window`]).
const CONGESTION_WINDOW: u64 = 8;

/// Size threshold for big-request handling when
/// [`PbftConfig::all_requests_big`] is off.
const BIG_REQUEST_THRESHOLD: usize = 8192;

/// Multiplier applied to [`PbftConfig::view_change_timeout_ns`] per failed
/// view-change round (exponential backoff base; Castro uses 2).
const VIEW_CHANGE_BACKOFF_FACTOR: u64 = 2;

/// Cap on the backoff exponent: rounds beyond this all use the maximum
/// delay, bounding the worst-case wait for a new-view round.
const VIEW_CHANGE_BACKOFF_MAX_ROUNDS: u64 = 10;

impl PbftConfig {
    /// Group size `n = 3f + 1`.
    pub fn n(&self) -> usize {
        3 * self.f + 1
    }

    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Weak certificate size `f + 1`.
    pub fn weak_quorum(&self) -> usize {
        self.f + 1
    }

    /// The primary of `view`.
    pub fn primary_of(&self, view: View) -> ReplicaId {
        ReplicaId((view % self.n() as u64) as u32)
    }

    /// Effective batching limit (1 when batching is disabled).
    pub fn effective_max_batch(&self) -> usize {
        if self.batching {
            MAX_BATCH
        } else {
            1
        }
    }

    /// Effective congestion window: agreements in flight before the primary
    /// postpones. 1 unless batching carries request bodies inline — the
    /// 2012 library's rule (§2.1): without batching agreements are
    /// serialized, and with digests in the pre-prepare the primary holds
    /// back while one batch is in flight and then puts everything pending
    /// in the next. Only inline bodies pipeline, `CONGESTION_WINDOW` (8)
    /// deep.
    pub fn effective_window(&self) -> u64 {
        if self.batching && !self.all_requests_big {
            CONGESTION_WINDOW
        } else {
            1
        }
    }

    /// The new-view round timeout for a view change targeting a view
    /// `rounds` ahead of the current one: the base timeout doubled per
    /// round, with the exponent capped (saturating, so an extreme base
    /// timeout clamps instead of wrapping).
    pub fn view_change_delay_ns(&self, rounds: u64) -> u64 {
        let exp = rounds.min(VIEW_CHANGE_BACKOFF_MAX_ROUNDS) as u32;
        self.view_change_timeout_ns
            .saturating_mul(VIEW_CHANGE_BACKOFF_FACTOR.pow(exp))
    }

    /// Is a request of `size` bytes handled as "big"?
    pub fn is_big(&self, size: usize) -> bool {
        self.all_requests_big || size > BIG_REQUEST_THRESHOLD
    }

    /// Named Table 1 configuration, e.g. `sta_mac_allbig_batch`.
    pub fn table1_name(&self) -> String {
        format!(
            "{}_{}_{}_{}",
            if self.dynamic_membership {
                "nosta"
            } else {
                "sta"
            },
            if self.auth == AuthMode::Macs {
                "mac"
            } else {
                "nomac"
            },
            if self.all_requests_big {
                "allbig"
            } else {
                "noallbig"
            },
            if self.batching { "batch" } else { "nobatch" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_arithmetic() {
        let cfg = PbftConfig {
            f: 1,
            ..Default::default()
        };
        assert_eq!(cfg.n(), 4);
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.weak_quorum(), 2);
        let cfg2 = PbftConfig {
            f: 2,
            ..Default::default()
        };
        assert_eq!(cfg2.n(), 7);
        assert_eq!(cfg2.quorum(), 5);
    }

    #[test]
    fn primary_rotates() {
        let cfg = PbftConfig {
            f: 1,
            ..Default::default()
        };
        assert_eq!(cfg.primary_of(0), ReplicaId(0));
        assert_eq!(cfg.primary_of(1), ReplicaId(1));
        assert_eq!(cfg.primary_of(4), ReplicaId(0));
        assert_eq!(cfg.primary_of(7), ReplicaId(3));
    }

    #[test]
    fn only_inline_bodies_pipeline() {
        let off = PbftConfig {
            batching: false,
            ..Default::default()
        };
        assert_eq!(off.effective_window(), 1);
        assert_eq!(off.effective_max_batch(), 1);
        // Digests in the pre-prepare: one batch in flight, and the next
        // takes everything pending.
        let digests = PbftConfig::default();
        assert_eq!(digests.effective_window(), 1);
        assert_eq!(digests.effective_max_batch(), 64);
        let inline = PbftConfig {
            all_requests_big: false,
            ..Default::default()
        };
        assert_eq!(inline.effective_window(), 8);
        let inline_off = PbftConfig {
            batching: false,
            ..inline
        };
        assert_eq!(inline_off.effective_window(), 1);
    }

    #[test]
    fn view_change_backoff_scales_and_caps() {
        let cfg = PbftConfig {
            view_change_timeout_ns: 100,
            ..Default::default()
        };
        assert_eq!(cfg.view_change_delay_ns(0), 100);
        assert_eq!(cfg.view_change_delay_ns(1), 200);
        assert_eq!(cfg.view_change_delay_ns(3), 800);
        // The exponent caps at max_rounds: further rounds share the delay.
        assert_eq!(cfg.view_change_delay_ns(10), cfg.view_change_delay_ns(50));
        // An extreme base timeout saturates instead of wrapping.
        let extreme = PbftConfig {
            view_change_timeout_ns: u64::MAX / 2,
            ..Default::default()
        };
        assert_eq!(extreme.view_change_delay_ns(9), u64::MAX);
    }

    #[test]
    fn big_request_rules() {
        let all = PbftConfig::default();
        assert!(all.is_big(1));
        let sel = PbftConfig {
            all_requests_big: false,
            ..Default::default()
        };
        assert!(!sel.is_big(1024));
        assert!(sel.is_big(10_000));
    }

    #[test]
    fn table1_names() {
        assert_eq!(PbftConfig::default().table1_name(), "sta_mac_allbig_batch");
        let robust = PbftConfig {
            dynamic_membership: true,
            auth: AuthMode::Signatures,
            all_requests_big: false,
            batching: false,
            ..Default::default()
        };
        assert_eq!(robust.table1_name(), "nosta_nomac_noallbig_nobatch");
    }
}
