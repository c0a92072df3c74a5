//! Enumeration of SoS instances from component models.
//!
//! §4.2 of the paper: "In order to model instances of the global system
//! of systems, all structurally different combinations of component
//! instances shall be considered. Isomorphic combinations can be
//! neglected." And §4.4: "the union of all these requirements for the
//! different instances poses the set of requirements for the whole
//! system."
//!
//! [`explore_universe`] generates every composition of component
//! instances (up to per-model multiplicity bounds) and every subset of
//! the external flows allowed by the [`ConnectionRule`]s, de-duplicates
//! the results up to isomorphism of their shape graphs, optionally keeps
//! only weakly connected compositions, and unions the requirements of
//! the classes it keeps. [`enumerate_instances_supervised`] also
//! composes each class's [`SosInstance`].
//!
//! # The streaming certificate engine
//!
//! The enumeration is *streaming*: every candidate composition is
//! bucketed by its [`canonical certificate`](fsa_graph::iso::canonical_certificate)
//! (a colour-refinement invariant of its shape graph) the moment it is
//! built, with exact [`fsa_graph::iso::find_isomorphism`] fallbacks
//! confined to certificate buckets. Memory is proportional to the number
//! of *equivalence classes*, never to the `2^flows` candidate space.
//! Flow subsets are additionally enumerated up to *copy-permutation
//! symmetry*: copies of one component model are interchangeable, so only
//! the minimal subset of each orbit is generated, by a walk over the
//! orbit-maximal complements, and the rest of the orbit is never visited.
//!
//! Each vector's copies are instantiated once, into a flow-free
//! prototype that also holds the composition as fixed-width adjacency
//! rows ([`AdjacencyRows`]). A candidate is those rows with its mask's
//! external flows OR-ed in, built in scratch buffers each worker thread
//! reuses: its connectivity, its certificate ([`row_certificate`]) and
//! its χ pairs ([`AdjacencyRows::chi`]) are all read off the rows, and
//! no `SosInstance` or shape graph is built for it. A class is kept as
//! its `(ordinal, mask)`; a certificate-bucket hit rebuilds both shape
//! graphs from their prototypes for the exact check. Only a class's
//! representative contributes χ, OR-ed into one bit matrix per vector
//! that is mapped to requirements through the prototype when the vector
//! ends or the run stops. Candidate building and certificate computation
//! run on `ExploreOptions::threads` scoped worker threads; the merged
//! result is bit-identical for every thread count.
//!
//! # Supervision
//!
//! Every run executes under the [`fsa_exec`] execution layer;
//! [`ExecOptions`] only sets its policy, and [`ExecOptions::default`]
//! is the policy of a run without supervision flags. Candidate builds
//! (χ included) are panic-isolated and retried per
//! [`fsa_exec::RetryPolicy`] (exhausted chunks are *quarantined*, not
//! fatal), cooperative cancellation ([`fsa_exec::CancelToken`] —
//! deadlines included) degrades the run to a partial result with
//! explicit coverage accounting ([`ExploreStats::vectors_completed`] /
//! [`ExploreStats::vectors_total`]), and [`ExecOptions::checkpoint`] /
//! [`ExecOptions::resume`] persist and restore progress through the
//! versioned, checksummed snapshot format of [`crate::checkpoint`]. A
//! resumed run is bit-identical to an uninterrupted one — for every
//! interruption point and every thread count.

use crate::checkpoint::{config_fingerprint, CheckpointCounters, ExploreCheckpoint};
use crate::component_model::{ComponentModel, TemplateActionId};
use crate::error::FsaError;
use crate::instance::{SosInstance, SosInstanceBuilder};
use crate::requirements::{AuthRequirement, RequirementSet};
use fsa_exec::{CancelToken, Supervisor};
use fsa_graph::bitset::{set_bits, AdjacencyRows, ChiScratch};
use fsa_graph::iso::{
    are_isomorphic, label_hash, row_certificate, Certificate, CertificateScratch, CertifiedClasses,
    InitialColouring,
};
use fsa_graph::{DiGraph, NodeId};
use fsa_obs::Obs;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// An allowed external flow: an output action of one component model
/// may feed an input action of another component instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionRule {
    /// Name of the source component model.
    pub from_model: String,
    /// Template action in the source model (e.g. `send`).
    pub from_action: TemplateActionId,
    /// Name of the target component model.
    pub to_model: String,
    /// Template action in the target model (e.g. `rec`).
    pub to_action: TemplateActionId,
}

impl ConnectionRule {
    /// Creates a rule.
    pub fn new(
        from_model: &str,
        from_action: TemplateActionId,
        to_model: &str,
        to_action: TemplateActionId,
    ) -> Self {
        ConnectionRule {
            from_model: from_model.to_owned(),
            from_action,
            to_model: to_model.to_owned(),
            to_action,
        }
    }
}

/// What to do when the enumeration exceeds
/// [`ExploreOptions::max_candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Abort with [`FsaError::BudgetExceeded`].
    #[default]
    Error,
    /// Stop enumerating and return the *deduped partial universe*
    /// explored so far, with [`ExploreStats::truncated`] set.
    Truncate,
}

/// A contiguous, half-open range `start..end` of *positions* in the
/// flattened `(ordinal, mask)` lattice ([`Lattice`]), restricting the
/// supervised engine to one *shard* of it. Vectors are laid out in the
/// canonical odometer order of [`crate::checkpoint`], each taking one
/// position per flow-subset mask, so a shard may start or end in the
/// middle of a vector. A family of ranges produced by
/// [`ShardRange::partition`] covers every position exactly once, with
/// no gap and no overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardRange {
    /// First position of the shard (inclusive).
    pub start: u64,
    /// One past the last position of the shard (exclusive).
    pub end: u64,
}

impl ShardRange {
    /// Creates the range `start..end`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        ShardRange { start, end }
    }

    /// Number of positions in the shard (0 when malformed).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the shard covers no position.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` when `position` lies in the shard.
    #[must_use]
    pub fn contains(&self, position: u64) -> bool {
        self.start <= position && position < self.end
    }

    /// Partitions the position space `0..total` into
    /// `shards.clamp(1, total.max(1))` contiguous ranges whose lengths
    /// differ by at most one, in ascending order. Covers every position
    /// exactly once. When `total > 0` every range is non-empty, so no two
    /// ranges are equal and a range names its shard; an empty space is
    /// the single range `0..0`.
    #[must_use]
    pub fn partition(total: u64, shards: usize) -> Vec<ShardRange> {
        let n = (shards as u64).clamp(1, total.max(1));
        let base = total / n;
        let rem = total % n;
        let mut ranges = Vec::with_capacity(n as usize);
        let mut start = 0u64;
        for i in 0..n {
            let len = base + u64::from(i < rem);
            ranges.push(ShardRange::new(start, start + len));
            start += len;
        }
        ranges
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Bounds for the enumeration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Keep only weakly connected compositions (the paper's instances
    /// are connected collaborations).
    pub require_connected: bool,
    /// Budget of *instantiated* candidate compositions (canonical flow
    /// subsets, pre-dedup; orbit-skipped subsets are free).
    pub max_candidates: usize,
    /// What happens when `max_candidates` is exceeded.
    pub on_budget: BudgetPolicy,
    /// Worker threads for candidate building and certificate
    /// computation. Results are bit-identical for every thread count.
    pub threads: usize,
    /// Observability handle for the engine's `explore.*` spans and
    /// counters and its `checkpoint.*` timings; the [`Supervisor`]'s
    /// own handle (`exec.supervisor.obs`) carries only its
    /// `supervisor.*` series. The default ([`Obs::disabled`]) records
    /// nothing; enabling it never changes the enumerated instances or
    /// the stats values.
    pub obs: Obs,
    /// Restrict the run to one shard of the `(ordinal, mask)` lattice
    /// (`None` = the whole universe). Sharded runs scan and build
    /// exactly the `(ordinal, mask)` pairs whose [`Lattice`] position
    /// lies in the range; per-shard `accepted` logs merged in canonical
    /// order by [`merge_accepted`] reproduce the unsharded result
    /// bit-identically. [`BudgetPolicy::Truncate`] rejects sharded
    /// options ([`FsaError::InvalidShard`]).
    pub shard: Option<ShardRange>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            require_connected: true,
            max_candidates: 100_000,
            on_budget: BudgetPolicy::Error,
            threads: 1,
            obs: Obs::disabled(),
            shard: None,
        }
    }
}

/// Checkpointing schedule of a supervised run.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Snapshot path; written atomically (tmp file + rename), so a
    /// `SIGKILL` mid-write leaves the previous checkpoint intact.
    pub path: PathBuf,
    /// Write a checkpoint once at least this many candidates have been
    /// built since the last one (aligned to batch boundaries; `1`
    /// checkpoints after every batch).
    pub every: usize,
    /// Also write a final boundary checkpoint when the run completes, so
    /// that resuming from the file is an idempotent no-op. A caller that
    /// keeps the finished result itself (a distributed worker) leaves it
    /// unset: a run that builds fewer than `every` candidates then writes
    /// no file at all. A cancelled run checkpoints either way.
    pub at_end: bool,
}

/// Execution policy of [`enumerate_instances_supervised`]: supervision
/// (retry/backoff, cancellation, chaos hooks), batch granularity, and
/// checkpoint/resume. The default is the policy of an unflagged run.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Panic isolation, retry/backoff and cancellation policy. The
    /// supervisor's [`CancelToken`] is the run's cancellation point —
    /// install a deadline or manual token here.
    pub supervisor: Supervisor,
    /// Candidate builds per supervised batch — the granularity of
    /// cancellation checks and checkpoint writes.
    pub batch: usize,
    /// Write checkpoints while running.
    pub checkpoint: Option<CheckpointSpec>,
    /// Load this checkpoint before enumerating and continue from its
    /// frontier. The checkpoint's configuration fingerprint must match.
    pub resume: Option<PathBuf>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            supervisor: Supervisor::new(),
            batch: 256,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Per-stage statistics of one enumeration run. A sharded run counts
/// the masks, candidates and vectors of its own shard, so the counters
/// of a partition's shards sum to the unsharded run's; it counts a
/// vector in [`ExploreStats::multiplicity_vectors`] only if it holds
/// the vector's mask 0.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Non-empty multiplicity vectors visited.
    pub multiplicity_vectors: usize,
    /// All flow subsets considered (including orbit-skipped ones).
    pub subsets_total: usize,
    /// Subsets skipped because a copy-permutation maps them to a
    /// smaller representative (whole isomorphism orbits pruned before
    /// instantiation).
    pub orbits_skipped: usize,
    /// Candidate compositions actually instantiated.
    pub candidates: usize,
    /// Candidates dropped by the weak-connectivity filter.
    pub disconnected_skipped: usize,
    /// Candidates whose certificate hit a non-empty bucket.
    pub certificate_hits: usize,
    /// Exact isomorphism checks run inside certificate buckets.
    pub exact_iso_fallbacks: usize,
    /// Structurally different instances (equivalence classes) found.
    pub classes: usize,
    /// `true` if the run stopped early under [`BudgetPolicy::Truncate`].
    pub truncated: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Non-empty multiplicity vectors in the run's enumeration space
    /// (those its shard holds masks of, when sharded). Together with
    /// [`ExploreStats::vectors_completed`] this is the coverage
    /// accounting of a partial (cancelled) run.
    pub vectors_total: usize,
    /// Multiplicity vectors fully processed (their masks in the shard,
    /// when sharded).
    pub vectors_completed: usize,
    /// Candidate compositions actually built. Differs from
    /// [`ExploreStats::candidates`] on a cancelled run: `candidates`
    /// counts canonical masks the moment a vector is scanned, while
    /// pending masks of an interrupted vector are not yet built.
    pub candidates_built: usize,
    /// Build chunks quarantined after exhausting their panic retries. A
    /// non-zero value means the coverage is incomplete even if nothing
    /// was cancelled.
    pub failures: usize,
    /// Panicking chunk attempts that were retried.
    pub retries: u64,
    /// `true` if the run stopped early at a cancellation point
    /// (deadline expiry or manual cancel) and the result is a partial
    /// universe.
    pub cancelled: bool,
    /// Checkpoints written during the run.
    pub checkpoints_written: usize,
    /// `true` if the run was resumed from a checkpoint.
    pub resumed: bool,
    /// Time spent generating the orbit-minimal flow subsets.
    pub scan_time: Duration,
    /// Time spent instantiating candidates and computing certificates
    /// (parallel phase).
    pub build_time: Duration,
    /// Time spent inserting candidates into the certificate class map.
    pub dedup_time: Duration,
    /// Time a distributed coordinator spent merging the shards' accepted
    /// logs. `Some` marks a merged run: its statistics are assembled
    /// from shard counters, so it has no thread count and no scan, build
    /// or dedup timings of its own.
    pub merge_time: Option<Duration>,
}

impl std::fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "exploration stats:")?;
        writeln!(f, "  multiplicity vectors  {}", self.multiplicity_vectors)?;
        writeln!(f, "  flow subsets          {}", self.subsets_total)?;
        writeln!(f, "  orbit-skipped         {}", self.orbits_skipped)?;
        writeln!(f, "  candidates            {}", self.candidates)?;
        writeln!(f, "  disconnected          {}", self.disconnected_skipped)?;
        writeln!(f, "  certificate hits      {}", self.certificate_hits)?;
        writeln!(f, "  exact iso fallbacks   {}", self.exact_iso_fallbacks)?;
        writeln!(f, "  classes               {}", self.classes)?;
        writeln!(f, "  truncated             {}", self.truncated)?;
        if let Some(merge) = self.merge_time {
            writeln!(f, "  merge                 {merge:?}")?;
        } else {
            writeln!(f, "  threads               {}", self.threads)?;
            writeln!(f, "  subset scan           {:?}", self.scan_time)?;
            writeln!(f, "  candidate build       {:?}", self.build_time)?;
            writeln!(f, "  certificate dedup     {:?}", self.dedup_time)?;
        }
        if self.vectors_total > 0 {
            writeln!(
                f,
                "  vector coverage       {}/{}",
                self.vectors_completed, self.vectors_total
            )?;
            writeln!(f, "  candidates built      {}", self.candidates_built)?;
        }
        if self.failures > 0 {
            writeln!(f, "  quarantined chunks    {}", self.failures)?;
        }
        if self.retries > 0 {
            writeln!(f, "  retried attempts      {}", self.retries)?;
        }
        if self.checkpoints_written > 0 {
            writeln!(f, "  checkpoints written   {}", self.checkpoints_written)?;
        }
        if self.resumed {
            writeln!(f, "  resumed               true")?;
        }
        if self.cancelled {
            writeln!(f, "  cancelled (partial)   true")?;
        }
        Ok(())
    }
}

impl ExploreStats {
    /// Mirrors every counter-valued field into `explore.*` counters of
    /// `obs` (phase durations are already present as `explore.*` spans).
    /// No-op when `obs` is disabled. The engine calls this internally;
    /// it is public so hosts that *assemble* an [`ExploreStats`] (the
    /// distributed coordinator's shard merge) can export the same
    /// counters. A merged run exports no `explore.threads`.
    pub fn mirror_counters(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        let pairs: [(&str, u64); 16] = [
            (
                "explore.multiplicity_vectors",
                self.multiplicity_vectors as u64,
            ),
            ("explore.subsets_total", self.subsets_total as u64),
            ("explore.orbits_skipped", self.orbits_skipped as u64),
            ("explore.candidates", self.candidates as u64),
            (
                "explore.disconnected_skipped",
                self.disconnected_skipped as u64,
            ),
            ("explore.certificate_hits", self.certificate_hits as u64),
            (
                "explore.exact_iso_fallbacks",
                self.exact_iso_fallbacks as u64,
            ),
            ("explore.classes", self.classes as u64),
            ("explore.truncated", u64::from(self.truncated)),
            ("explore.vectors_total", self.vectors_total as u64),
            ("explore.vectors_completed", self.vectors_completed as u64),
            ("explore.candidates_built", self.candidates_built as u64),
            ("explore.failures", self.failures as u64),
            ("explore.retries", self.retries),
            ("explore.cancelled", u64::from(self.cancelled)),
            ("explore.resumed", u64::from(self.resumed)),
        ];
        for (name, value) in pairs {
            obs.counter_add(name, value);
        }
        if self.merge_time.is_none() {
            obs.counter_add("explore.threads", self.threads as u64);
        }
        obs.counter_add(
            "explore.checkpoints_written",
            self.checkpoints_written as u64,
        );
    }
}

/// One isomorphism class of an explored universe: its representative
/// candidate, kept as its `(ordinal, mask)`, with what a report line
/// prints of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploredClass {
    /// The representative's multiplicity-vector ordinal.
    pub ordinal: u64,
    /// The representative's flow-subset mask (bit `k` = the vector's
    /// `k`-th candidate external flow).
    pub mask: u64,
    /// The representative's [`row_certificate`]: its bucket in the
    /// class map.
    pub certificate: Certificate,
    /// The vector's name, e.g. `1xRSU+2xV`: the name of every
    /// composition of the vector.
    pub vector: Arc<str>,
    /// Number of actions.
    pub actions: usize,
    /// Number of distinct flows: the popcount of the representative's
    /// adjacency rows. A mask flow that duplicates an internal flow is
    /// one flow, as in the composed instance's graph.
    pub flows: usize,
}

/// Result of the class engine [`explore_universe`]: the structurally
/// different classes, the union of their requirements and the engine
/// statistics. No [`SosInstance`] is composed.
#[derive(Debug, Clone)]
pub struct Universe {
    /// One representative per isomorphism class, in discovery order.
    pub classes: Vec<ExploredClass>,
    /// The union of the requirements of the classes' representatives
    /// (§4.4). Cyclic compositions contribute none.
    pub requirements: RequirementSet,
    /// Classes whose composition is cyclic (loop-freedom exclusion).
    pub loop_skipped: usize,
    /// The χ union of each vector that founded a class, in ordinal order:
    /// what a shard ships with its accepted log so that the merge need
    /// not rebuild it ([`ShardLog::unions`]).
    pub unions: Vec<VectorChi>,
    /// Per-stage statistics.
    pub stats: ExploreStats,
}

/// The OR of the χ rows of one vector's founding classes, as the class
/// map builds it before it maps χ to requirements, with the number of
/// those classes that are cyclic (they add no χ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorChi {
    /// The vector's ordinal.
    pub ordinal: u64,
    /// Nodes of the vector's composition: the number of rows.
    pub nodes: usize,
    /// Founding classes of the vector whose composition is cyclic.
    pub cyclic: usize,
    /// `nodes` rows of ⌈nodes/64⌉ words each; row `x` holds every `y`
    /// with `(x, y)` in some founding class's χ.
    pub rows: Vec<u64>,
}

impl VectorChi {
    /// Checks the union's shape on its own: `rows` holds `nodes` rows of
    /// ⌈nodes/64⌉ words, no bit names a node beyond `nodes`, and at most
    /// `entries` (the founding classes it covers) are cyclic.
    ///
    /// # Errors
    ///
    /// A message naming the first fault.
    pub fn check(&self, entries: usize) -> Result<(), String> {
        let (ordinal, nodes) = (self.ordinal, self.nodes);
        let words = nodes.div_ceil(64);
        if nodes.checked_mul(words) != Some(self.rows.len()) {
            return Err(format!(
                "the χ union of vector {ordinal} has {} words, not {nodes} rows of {words}",
                self.rows.len()
            ));
        }
        let spare = !0u64 << (nodes % 64);
        if nodes % 64 != 0
            && self
                .rows
                .chunks(words)
                .any(|row| row[words - 1] & spare != 0)
        {
            return Err(format!(
                "the χ union of vector {ordinal} names a node beyond its {nodes} nodes"
            ));
        }
        if self.cyclic > entries {
            return Err(format!(
                "the χ union of vector {ordinal} counts {} cyclic classes among {entries}",
                self.cyclic
            ));
        }
        Ok(())
    }
}

/// One entry of an accepted log: a class representative's
/// `(vector ordinal, flow-subset mask)` with its certificate, so a log
/// replays into a class map without recomputing a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Accepted {
    /// The representative's multiplicity-vector ordinal.
    pub ordinal: u64,
    /// The representative's flow-subset mask.
    pub mask: u64,
    /// The representative's [`row_certificate`].
    pub certificate: Certificate,
}

impl Universe {
    /// The accepted decision log in discovery order — one entry per
    /// class. This is the log the checkpoint format persists; a
    /// distributed coordinator merges per-shard logs with
    /// [`merge_accepted`], and [`compose_accepted`] composes its
    /// instances.
    #[must_use]
    pub fn accepted(&self) -> Vec<Accepted> {
        accepted_log(&self.classes)
    }
}

/// The log entry of each class, in class order.
fn accepted_log(classes: &[ExploredClass]) -> Vec<Accepted> {
    classes
        .iter()
        .map(|c| Accepted {
            ordinal: c.ordinal,
            mask: c.mask,
            certificate: c.certificate,
        })
        .collect()
}

/// Result of [`enumerate_instances_supervised`]: the explored universe
/// plus each class's composed instance.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The classes, their requirement union and the statistics.
    pub universe: Universe,
    /// The representative instance of each class, in class order.
    pub instances: Vec<SosInstance>,
}

/// The instances of [`enumerate_instances_supervised`] under the
/// default [`ExecOptions`].
///
/// # Errors
///
/// See [`enumerate_instances_supervised`].
pub fn enumerate_instances(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    options: &ExploreOptions,
) -> Result<Vec<SosInstance>, FsaError> {
    enumerate_instances_supervised(models, rules, options, &ExecOptions::default())
        .map(|e| e.instances)
}

/// Most candidate external flows one multiplicity vector may have: its
/// flow subsets are `u64` masks, and their number `2^F` a `u64`. The
/// orbit walk generates only the minima, so the candidate budget, not
/// `F`, bounds the work.
const MAX_FLOWS: usize = 63;

/// Copy-permutation groups larger than this are not used for orbit
/// pruning (correctness is unaffected — the certificate dedup still
/// collapses the orbits, just later).
const ORBIT_GROUP_CAP: usize = 720;

/// Odometer over the non-empty multiplicity vectors (`0..=max` per
/// model), in the engine's canonical order: the first model's count
/// changes fastest. The position of a vector in this sequence is its
/// *ordinal* — the unit of the checkpoint frontier.
struct VectorIter {
    maxes: Vec<usize>,
    counts: Vec<usize>,
    done: bool,
}

impl VectorIter {
    fn new(maxes: &[usize]) -> Self {
        VectorIter {
            maxes: maxes.to_vec(),
            counts: vec![0; maxes.len()],
            done: maxes.is_empty(),
        }
    }
}

impl Iterator for VectorIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        while !self.done {
            let mut i = 0;
            loop {
                if i == self.maxes.len() {
                    self.done = true;
                    return None;
                }
                self.counts[i] += 1;
                if self.counts[i] <= self.maxes[i] {
                    break;
                }
                self.counts[i] = 0;
                i += 1;
            }
            if self.counts.iter().sum::<usize>() > 0 {
                return Some(self.counts.clone());
            }
        }
        None
    }
}

/// The multiplicity vector of `ordinal` in [`VectorIter`] order: the
/// digits of `ordinal + 1` in the mixed radix `maxᵢ + 1`, the first
/// model's digit least significant (the all-zero vector, number 0, is
/// skipped).
fn vector_of(ordinal: u64, maxes: &[usize]) -> Vec<usize> {
    let mut rest = ordinal + 1;
    maxes
        .iter()
        .map(|&max| {
            let base = max as u64 + 1;
            let digit = rest % base;
            rest /= base;
            digit as usize
        })
        .collect()
}

/// Number of non-empty multiplicity vectors: `∏ (maxᵢ + 1) − 1`.
fn vector_count(maxes: &[usize]) -> usize {
    maxes
        .iter()
        .try_fold(1usize, |acc, &m| acc.checked_mul(m + 1))
        .map_or(usize::MAX, |p| p.saturating_sub(1))
}

/// The flattened `(ordinal, mask)` lattice of a universe: its vectors in
/// the canonical odometer order of [`crate::checkpoint`] (the first
/// model's count changes fastest), vector `o` taking one *position* per
/// flow-subset mask, `2^F` in all for its `F` candidate external flows.
/// Position `p` of vector `o`'s mask `m` is the number of positions of
/// the vectors before `o`, plus `m`. [`ShardRange`]s cut this space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    /// `bounds[o]` is vector `o`'s first position; the last entry is
    /// the total.
    bounds: Vec<u64>,
}

impl Lattice {
    /// The lattice of the universe `models` under `rules`.
    ///
    /// # Errors
    ///
    /// [`FsaError::InvalidComponentModel`] if a rule fails to resolve,
    /// and [`FsaError::InvalidShard`] if the lattice has more than
    /// `u64::MAX` positions.
    pub fn new(
        models: &[(ComponentModel, usize)],
        rules: &[ConnectionRule],
    ) -> Result<Lattice, FsaError> {
        let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
        Lattice::resolved(&resolve_rules(models, rules)?, &maxes)
    }

    fn resolved(rules: &[ResolvedRule], maxes: &[usize]) -> Result<Lattice, FsaError> {
        let overflow = || FsaError::InvalidShard {
            reason: "the (vector, mask) lattice has more than 2^64 positions".to_owned(),
        };
        let mut bounds = vec![0u64];
        let mut total = 0u64;
        for counts in VectorIter::new(maxes) {
            let flows = u32::try_from(flow_candidates(rules, &counts).len()).unwrap_or(u32::MAX);
            let span = 1u64.checked_shl(flows).ok_or_else(overflow)?;
            total = total.checked_add(span).ok_or_else(overflow)?;
            bounds.push(total);
        }
        Ok(Lattice { bounds })
    }

    /// Number of positions: the space [`ShardRange::partition`] cuts.
    #[must_use]
    pub fn positions(&self) -> u64 {
        *self.bounds.last().expect("bounds end in the total")
    }

    /// Number of non-empty multiplicity vectors.
    #[must_use]
    pub fn vectors(&self) -> u64 {
        self.bounds.len() as u64 - 1
    }

    /// The position of vector `ordinal`'s mask `mask`, or `None` when
    /// the lattice has no such pair.
    #[must_use]
    pub fn position(&self, ordinal: u64, mask: u64) -> Option<u64> {
        let o = usize::try_from(ordinal).ok()?;
        let (&first, &next) = (self.bounds.get(o)?, self.bounds.get(o + 1)?);
        (mask < next - first).then_some(first + mask)
    }

    /// The ordinals of the vectors `shard` holds masks of.
    fn ordinals(&self, shard: ShardRange) -> std::ops::Range<u64> {
        if shard.is_empty() {
            return 0..0;
        }
        let starts = &self.bounds[..self.bounds.len() - 1];
        let first = starts.partition_point(|&b| b <= shard.start) - 1;
        first as u64..starts.partition_point(|&b| b < shard.end) as u64
    }

    /// The masks `lo..hi` of vector `ordinal` that `shard` holds, and
    /// whether it holds the vector's mask 0 (and so counts the vector).
    fn slice(&self, ordinal: u64, shard: ShardRange) -> ((u64, u64), bool) {
        let first = self.bounds[ordinal as usize];
        let span = self.bounds[ordinal as usize + 1] - first;
        let lo = shard.start.saturating_sub(first).min(span);
        let hi = shard.end.saturating_sub(first).min(span);
        ((lo, hi), shard.contains(first))
    }
}

/// A run of accepted-log entries that share a vector: `(ordinal,
/// multiplicities, entries)`.
type VectorRun<'a> = (u64, Vec<usize>, &'a [Accepted]);

/// The runs of an accepted log that share a vector, in log order.
///
/// # Errors
///
/// [`FsaError::CorruptCheckpoint`] unless the ordinals ascend and lie in
/// the multiplicity space of `maxes`.
fn vector_runs<'a>(maxes: &[usize], log: &'a [Accepted]) -> Result<Vec<VectorRun<'a>>, FsaError> {
    if !log.windows(2).all(|w| w[0].ordinal <= w[1].ordinal) {
        return Err(FsaError::CorruptCheckpoint {
            reason: "accepted list is out of discovery order".to_owned(),
        });
    }
    if log
        .last()
        .is_some_and(|a| a.ordinal >= vector_count(maxes) as u64)
    {
        return Err(FsaError::CorruptCheckpoint {
            reason: "accepted entries lie beyond the multiplicity space".to_owned(),
        });
    }
    Ok(log
        .chunk_by(|a, b| a.ordinal == b.ordinal)
        .map(|run| (run[0].ordinal, vector_of(run[0].ordinal, maxes), run))
        .collect())
}

/// Resume offset for a class-map counter: checkpointed total minus the
/// value the rebuild replay produced. Fails closed as
/// [`FsaError::CorruptCheckpoint`] when the checkpointed value cannot be
/// represented (a tampered/bit-rotted counter far beyond any reachable
/// magnitude would otherwise wrap negative through `as i64`).
fn resume_offset(checkpointed: usize, replayed: usize, what: &str) -> Result<i64, FsaError> {
    let cp = i64::try_from(checkpointed).map_err(|_| FsaError::CorruptCheckpoint {
        reason: format!("{what} counter {checkpointed} is out of range"),
    })?;
    let rb = i64::try_from(replayed).map_err(|_| FsaError::CorruptCheckpoint {
        reason: format!("replayed {what} counter {replayed} is out of range"),
    })?;
    Ok(cp - rb)
}

/// Re-bases a class-map counter by the resume offset with **checked**
/// arithmetic. A negative result means the resumed checkpoint's
/// counters were inconsistent with its own decision log (the replay
/// produced more work than the checkpoint claims happened in total), so
/// fail closed as [`FsaError::CorruptCheckpoint`] instead of silently
/// clamping to zero.
fn rebase_counter(offset: i64, current: usize, what: &str) -> Result<usize, FsaError> {
    let total = (i128::from(offset)) + (current as i128);
    usize::try_from(total).map_err(|_| FsaError::CorruptCheckpoint {
        reason: format!(
            "{what} counter underflows on resume ({offset:+} offset, {current} observed): \
             the checkpoint's counters are inconsistent with its decision log"
        ),
    })
}

/// Writes one checkpoint snapshot of the supervised driver's state.
#[allow(clippy::too_many_arguments)]
fn write_explore_checkpoint(
    spec: &CheckpointSpec,
    fingerprint: u64,
    next_ordinal: u64,
    pending: &[u64],
    stats: &mut ExploreStats,
    classes: &ClassMap<'_>,
    hits_offset: i64,
    fallbacks_offset: i64,
    obs: &Obs,
) -> Result<(), FsaError> {
    let span = obs.span("checkpoint.write");
    let counters = CheckpointCounters {
        multiplicity_vectors: stats.multiplicity_vectors,
        subsets_total: stats.subsets_total,
        orbits_skipped: stats.orbits_skipped,
        candidates: stats.candidates,
        candidates_built: stats.candidates_built,
        disconnected_skipped: stats.disconnected_skipped,
        certificate_hits: rebase_counter(
            hits_offset,
            classes.certified.certificate_hits(),
            "certificate-hit",
        )?,
        exact_iso_fallbacks: rebase_counter(
            fallbacks_offset,
            classes.certified.exact_fallbacks(),
            "exact-isomorphism-fallback",
        )?,
        truncated: stats.truncated,
        vectors_completed: stats.vectors_completed,
        failures: stats.failures,
        retries: stats.retries,
    };
    ExploreCheckpoint {
        fingerprint,
        next_ordinal,
        pending_masks: pending.to_vec(),
        accepted: accepted_log(&classes.classes),
        counters,
    }
    .write(&spec.path)?;
    stats.checkpoints_written += 1;
    obs.record_duration("checkpoint.write", span.finish());
    Ok(())
}

/// Enumerates the structurally different SoS instances built from
/// `models` — each given with its maximum multiplicity — under the
/// connection rules, and composes each class's representative
/// instance: [`explore_universe`], then [`compose_accepted`] over its
/// accepted log.
///
/// # Errors
///
/// See [`explore_universe`].
pub fn enumerate_instances_supervised(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    options: &ExploreOptions,
    exec: &ExecOptions,
) -> Result<Exploration, FsaError> {
    let universe = explore_universe(models, rules, options, exec)?;
    let instances = compose_accepted(models, rules, &universe.accepted())?;
    Ok(Exploration {
        universe,
        instances,
    })
}

/// The class engine: enumerates the isomorphism classes of the
/// compositions of `models` — each given with its maximum multiplicity —
/// under the connection rules, unions the requirements of their
/// representatives (§4.4, cyclic compositions skipped), and reports
/// [`ExploreStats`]. Composes no [`SosInstance`]. Runs under `exec`:
/// panic-isolated retried candidate builds, cooperative cancellation
/// with coverage accounting, and checkpoint/resume (see
/// [`ExecOptions`] and the module docs). A run that stops early still
/// unions the requirements of exactly the classes it returns.
///
/// # Errors
///
/// * [`FsaError::InvalidComponentModel`] if a model fails validation, a
///   rule references an unknown model/action, or a multiplicity vector
///   has more than 63 candidate external flows.
/// * [`FsaError::BudgetExceeded`] if the enumeration exceeds
///   `options.max_candidates` under [`BudgetPolicy::Error`].
/// * [`FsaError::InvalidShard`] for a malformed or truncating shard.
/// * [`FsaError::CorruptCheckpoint`] for unreadable, tampered,
///   version-skewed or configuration-mismatched resume files.
pub fn explore_universe(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    options: &ExploreOptions,
    exec: &ExecOptions,
) -> Result<Universe, FsaError> {
    for (m, _) in models {
        m.validate()?;
    }
    let obs = options.obs.clone();
    let run = obs.span("explore");
    let resolved = resolve_rules(models, rules)?;
    let threads = options.threads.max(1);
    let batch = exec.batch.max(1);
    let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
    let fingerprint = config_fingerprint(models, rules, options);
    // A sharded run's shard with its lattice; an unsharded run takes
    // every mask of every vector and needs no positions.
    let cut = match options.shard {
        None => None,
        Some(shard) => {
            let lattice = Lattice::resolved(&resolved, &maxes)?;
            if shard.start > shard.end {
                return Err(FsaError::InvalidShard {
                    reason: format!("shard {shard} has its start beyond its end"),
                });
            }
            if shard.end > lattice.positions() {
                return Err(FsaError::InvalidShard {
                    reason: format!(
                        "shard {shard} lies beyond the {}-position lattice",
                        lattice.positions()
                    ),
                });
            }
            if options.on_budget == BudgetPolicy::Truncate {
                // A truncation point depends on global enumeration
                // order, which no single shard can observe; a sharded
                // truncated run could never merge bit-identically.
                return Err(FsaError::InvalidShard {
                    reason: "budget truncation is not shard-deterministic; use BudgetPolicy::Error"
                        .to_owned(),
                });
            }
            Some((shard, lattice))
        }
    };
    let ordinals = match &cut {
        None => 0..vector_count(&maxes) as u64,
        Some((shard, lattice)) => lattice.ordinals(*shard),
    };
    let vectors_total = (ordinals.end - ordinals.start) as usize;

    let mut stats = ExploreStats {
        threads,
        vectors_total,
        ..ExploreStats::default()
    };
    let mut classes = ClassMap::new(models, &resolved);

    // Frontier state: the vector being processed and, mid-vector, the
    // canonical masks not yet built. Ordinals are *global* (sharded
    // runs carry the same ordinal space as unsharded ones), so accepted
    // logs concatenate across shards.
    let mut next_ordinal = ordinals.start;
    let mut pending: Vec<u64> = Vec::new();
    // The resumed checkpoint's accepted log, replayed into the class map.
    let mut log: Vec<Accepted> = Vec::new();
    let mut cp_hits = 0usize;
    let mut cp_fallbacks = 0usize;

    if let Some(path) = &exec.resume {
        let span = obs.span("checkpoint.read");
        let cp = ExploreCheckpoint::read(path)?;
        obs.record_duration("checkpoint.read", span.finish());
        if cp.fingerprint != fingerprint {
            return Err(FsaError::CorruptCheckpoint {
                reason: "checkpoint was written by a run with a different model/rule/option \
                         configuration"
                    .to_owned(),
            });
        }
        if cp.next_ordinal < ordinals.start
            || cp.next_ordinal > ordinals.end
            || (cp.next_ordinal == ordinals.end && !cp.pending_masks.is_empty())
        {
            return Err(FsaError::CorruptCheckpoint {
                reason: "checkpoint frontier lies outside the run's shard of the multiplicity \
                         space"
                    .to_owned(),
            });
        }
        if !cp.accepted.windows(2).all(|w| w[0].ordinal <= w[1].ordinal) {
            return Err(FsaError::CorruptCheckpoint {
                reason: "accepted list is out of discovery order".to_owned(),
            });
        }
        if let Some(&Accepted { ordinal: last, .. }) = cp.accepted.last() {
            let within =
                last < cp.next_ordinal || (last == cp.next_ordinal && !cp.pending_masks.is_empty());
            if !within {
                return Err(FsaError::CorruptCheckpoint {
                    reason: "accepted entries lie beyond the checkpoint frontier".to_owned(),
                });
            }
        }
        next_ordinal = cp.next_ordinal;
        pending = cp.pending_masks;
        log = cp.accepted;
        let c = cp.counters;
        stats.multiplicity_vectors = c.multiplicity_vectors;
        stats.subsets_total = c.subsets_total;
        stats.orbits_skipped = c.orbits_skipped;
        stats.candidates = c.candidates;
        stats.candidates_built = c.candidates_built;
        stats.disconnected_skipped = c.disconnected_skipped;
        stats.truncated = c.truncated;
        stats.vectors_completed = c.vectors_completed;
        stats.failures = c.failures;
        stats.retries = c.retries;
        cp_hits = c.certificate_hits;
        cp_fallbacks = c.exact_iso_fallbacks;
        stats.resumed = true;
    }

    // While `rebuilding`, the class map replays checkpointed decisions;
    // its hit/fallback counters are then re-based so the checkpointed
    // counters carry over seamlessly.
    let mut rebuilding = stats.resumed;
    let mut cursor = 0usize;
    let mut hits_offset = 0i64;
    let mut fallbacks_offset = 0i64;
    let mut built_since_ckpt = 0usize;
    let cancel = exec.supervisor.cancel.clone();

    'vectors: for (ordinal, counts) in VectorIter::new(&maxes).enumerate() {
        let ordinal64 = ordinal as u64;
        if ordinal64 < ordinals.start {
            continue;
        }
        if ordinal64 >= ordinals.end {
            break 'vectors;
        }
        if ordinal64 < next_ordinal {
            // Resume rebuild: replay the accepted decisions of an
            // already-completed vector.
            if log.get(cursor).is_some_and(|a| a.ordinal == ordinal64) {
                classes.enter(ordinal64, &counts)?;
                classes.replay(&log, &mut cursor)?;
            }
            continue;
        }

        // ordinal == next_ordinal: the current vector, whose candidates
        // are all built from one prototype. A shard scans only its
        // slice of the vector's masks, and counts the vector only if it
        // holds its mask 0.
        let (slice, owned) = match &cut {
            None => (None, true),
            Some((shard, lattice)) => {
                let (slice, owned) = lattice.slice(ordinal64, *shard);
                (Some(slice), owned)
            }
        };
        let span = obs.span("explore.build");
        let flow_count = classes.enter(ordinal64, &counts)?.flows.len();
        stats.build_time += span.finish();

        // A non-empty `pending` means the checkpoint interrupted the
        // vector mid-build: replay its accepted prefix, then build the
        // pending masks without re-scanning (the scan counters are
        // already in the checkpoint).
        let resumed_mid_vector = !pending.is_empty();
        if resumed_mid_vector {
            let (lo, hi) = slice.unwrap_or((0, 1u64.checked_shl(flow_count as u32).unwrap_or(0)));
            for &mask in &pending {
                if !(lo..hi).contains(&mask) {
                    return Err(FsaError::CorruptCheckpoint {
                        reason: format!("pending mask {mask} out of range for vector {ordinal64}"),
                    });
                }
            }
            classes.replay(&log, &mut cursor)?;
        }
        if rebuilding {
            if cursor != log.len() {
                return Err(FsaError::CorruptCheckpoint {
                    reason: "accepted entries reference vectors beyond the frontier".to_owned(),
                });
            }
            hits_offset = resume_offset(
                cp_hits,
                classes.certified.certificate_hits(),
                "certificate-hit",
            )?;
            fallbacks_offset = resume_offset(
                cp_fallbacks,
                classes.certified.exact_fallbacks(),
                "exact-isomorphism-fallback",
            )?;
            rebuilding = false;
        }

        let masks = if resumed_mid_vector {
            std::mem::take(&mut pending)
        } else {
            // A fresh vector. A truncated (budget-exhausted) resumed
            // run has nothing further to enumerate.
            if stats.truncated {
                break 'vectors;
            }
            if cancel.is_cancelled() {
                stats.cancelled = true;
                if let Some(spec) = &exec.checkpoint {
                    write_explore_checkpoint(
                        spec,
                        fingerprint,
                        ordinal64,
                        &[],
                        &mut stats,
                        &classes,
                        hits_offset,
                        fallbacks_offset,
                        &obs,
                    )?;
                }
                break 'vectors;
            }
            let span = obs.span("explore.scan");
            let scan = scan_vector(
                &resolved,
                &counts,
                slice,
                options,
                stats.candidates,
                &cancel,
            )?;
            stats.scan_time += span.finish();
            if scan.cancelled {
                stats.cancelled = true;
                if let Some(spec) = &exec.checkpoint {
                    write_explore_checkpoint(
                        spec,
                        fingerprint,
                        ordinal64,
                        &[],
                        &mut stats,
                        &classes,
                        hits_offset,
                        fallbacks_offset,
                        &obs,
                    )?;
                }
                break 'vectors;
            }
            stats.multiplicity_vectors += usize::from(owned);
            // Saturating: a vector of 63 flows alone has 2^63 subsets.
            stats.subsets_total = stats.subsets_total.saturating_add(scan.subsets);
            stats.orbits_skipped = stats.orbits_skipped.saturating_add(scan.orbits_skipped);
            stats.candidates += scan.canonical.len();
            stats.truncated |= scan.truncated;
            scan.canonical
        };

        // Build the vector's masks in supervised batches.
        let mut idx = 0usize;
        while idx < masks.len() {
            if cancel.is_cancelled() {
                stats.cancelled = true;
                if let Some(spec) = &exec.checkpoint {
                    write_explore_checkpoint(
                        spec,
                        fingerprint,
                        ordinal64,
                        &masks[idx..],
                        &mut stats,
                        &classes,
                        hits_offset,
                        fallbacks_offset,
                        &obs,
                    )?;
                }
                break 'vectors;
            }
            let hi = (idx + batch).min(masks.len());
            let slice = &masks[idx..hi];
            let span = obs.span("explore.build");
            let prototype = classes.prototype();
            let outcome = exec.supervisor.run_chunks::<Option<Built>, FsaError, _>(
                "explore:build",
                threads,
                slice.len(),
                |i| {
                    Ok(build_candidate(
                        prototype,
                        slice[i],
                        options.require_connected,
                    ))
                },
            )?;
            stats.build_time += span.finish();
            stats.retries += outcome.retries;
            if outcome.cancelled {
                // Drop the partial batch: the resumed run redoes it
                // whole, keeping the class-map stream deterministic.
                stats.cancelled = true;
                if let Some(spec) = &exec.checkpoint {
                    write_explore_checkpoint(
                        spec,
                        fingerprint,
                        ordinal64,
                        &masks[idx..],
                        &mut stats,
                        &classes,
                        hits_offset,
                        fallbacks_offset,
                        &obs,
                    )?;
                }
                break 'vectors;
            }
            stats.failures += outcome.failures.len();
            stats.candidates_built += outcome.results.len();
            let span = obs.span("explore.dedup");
            for (chunk, item) in outcome.results {
                match item {
                    None => stats.disconnected_skipped += 1,
                    Some(built) => {
                        let founder = Founder::Built(built.class);
                        classes.offer(slice[chunk], built.certificate, founder)?;
                    }
                }
            }
            stats.dedup_time += span.finish();
            built_since_ckpt += slice.len();
            idx = hi;
            if idx < masks.len() {
                if let Some(spec) = &exec.checkpoint {
                    if built_since_ckpt >= spec.every.max(1) {
                        write_explore_checkpoint(
                            spec,
                            fingerprint,
                            ordinal64,
                            &masks[idx..],
                            &mut stats,
                            &classes,
                            hits_offset,
                            fallbacks_offset,
                            &obs,
                        )?;
                        built_since_ckpt = 0;
                    }
                }
            }
        }

        // Vector boundary.
        stats.vectors_completed += 1;
        next_ordinal = ordinal64 + 1;
        if stats.truncated {
            break 'vectors;
        }
        if let Some(spec) = &exec.checkpoint {
            if built_since_ckpt >= spec.every.max(1) {
                write_explore_checkpoint(
                    spec,
                    fingerprint,
                    next_ordinal,
                    &[],
                    &mut stats,
                    &classes,
                    hits_offset,
                    fallbacks_offset,
                    &obs,
                )?;
                built_since_ckpt = 0;
            }
        }
    }

    if rebuilding {
        // The resumed checkpoint covered the whole space (or ended on a
        // truncated run): every decision was replayed, nothing new ran.
        if cursor != log.len() {
            return Err(FsaError::CorruptCheckpoint {
                reason: "accepted entries reference vectors beyond the frontier".to_owned(),
            });
        }
        hits_offset = resume_offset(
            cp_hits,
            classes.certified.certificate_hits(),
            "certificate-hit",
        )?;
        fallbacks_offset = resume_offset(
            cp_fallbacks,
            classes.certified.exact_fallbacks(),
            "exact-isomorphism-fallback",
        )?;
    }
    if !stats.cancelled {
        // Completed (or truncated) run: leave a final boundary
        // checkpoint so resuming from it is an idempotent no-op.
        if let Some(spec) = exec.checkpoint.as_ref().filter(|spec| spec.at_end) {
            write_explore_checkpoint(
                spec,
                fingerprint,
                next_ordinal,
                &[],
                &mut stats,
                &classes,
                hits_offset,
                fallbacks_offset,
                &obs,
            )?;
        }
    }
    stats.classes = classes.classes.len();
    stats.certificate_hits = rebase_counter(
        hits_offset,
        classes.certified.certificate_hits(),
        "certificate-hit",
    )?;
    stats.exact_iso_fallbacks = rebase_counter(
        fallbacks_offset,
        classes.certified.exact_fallbacks(),
        "exact-isomorphism-fallback",
    )?;
    let universe = classes.finish(stats);
    drop(run);
    universe.stats.mirror_counters(&obs);
    Ok(universe)
}

/// Composes the [`SosInstance`] of every `(ordinal, mask)` entry of an
/// accepted log, in log order, each from its vector's prototype: the
/// instances of the classes a [`Universe`] or a [`MergedExploration`]
/// lists, for callers that ask for them.
///
/// # Errors
///
/// * [`FsaError::InvalidComponentModel`] if a model or rule fails
///   validation.
/// * [`FsaError::CorruptCheckpoint`] if the log's ordinals do not
///   ascend, or it names an ordinal or mask outside the universe.
pub fn compose_accepted(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    accepted: &[Accepted],
) -> Result<Vec<SosInstance>, FsaError> {
    for (m, _) in models {
        m.validate()?;
    }
    let resolved = resolve_rules(models, rules)?;
    let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
    let mut instances = Vec::with_capacity(accepted.len());
    for (ordinal, counts, run) in vector_runs(&maxes, accepted)? {
        let prototype = Prototype::new(models, &resolved, &counts)?;
        for entry in run {
            prototype.check_mask(ordinal, entry.mask)?;
            instances.push(prototype.compose(entry.mask));
        }
    }
    Ok(instances)
}

/// Outcome of [`merge_accepted`]: the global universe rebuilt from
/// merged per-shard decision logs.
#[derive(Debug, Clone)]
pub struct MergedExploration {
    /// The classes in canonical `(ordinal, mask)` order — bit-identical
    /// to the class list of an unsharded run — with their requirement
    /// union. Its statistics count only the merge itself: `classes`,
    /// and the certificate hits and exact fallbacks of the merge's class
    /// map. A coordinator assembles the rest from the shard counters.
    pub universe: Universe,
    /// Cross-shard duplicate classes dropped during the merge: a class
    /// first discovered in one shard and independently rediscovered in
    /// another (each shard deduplicates only within its own range).
    pub duplicates: usize,
}

/// One shard's part of a merge: its accepted log and, when the shard
/// shipped them, the χ unions of the vectors it holds entries of
/// ([`Universe::unions`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardLog<'a> {
    /// The shard's accepted entries, in discovery order.
    pub accepted: &'a [Accepted],
    /// The shard's χ unions, one per vector it holds entries of, in
    /// ordinal order; `None` has every founding entry's χ rebuilt.
    pub unions: Option<&'a [VectorChi]>,
}

/// Rebuilds the global exploration result from per-shard accepted logs,
/// merged in ascending canonical order (shards are contiguous and
/// disjoint, so concatenating their logs in range order *is* ascending
/// order). Each entry is offered under the certificate it carries to the
/// same class map and union as the live build: a bucket hit rebuilds
/// shape graphs for the exact check, a founding entry rebuilds its rows
/// for its flow count, and no certificate is recomputed. A shard's
/// entries of one vector add the χ union the shard shipped for it when
/// every one of them founds a class; otherwise (a cross-shard duplicate
/// among them, or no union shipped) each founding entry's χ is rebuilt
/// from its rows. Classes rediscovered by later shards are dropped,
/// keeping the first representative — because every globally-accepted
/// pair is also accepted by its own shard, the kept classes and the
/// union are bit-identical to an unsharded supervised run over the whole
/// universe.
///
/// # Errors
///
/// * [`FsaError::InvalidComponentModel`] if a model or rule fails
///   validation.
/// * [`FsaError::CorruptCheckpoint`] if the merged log is not strictly
///   ascending or references ordinals/masks outside the universe, or a
///   union is malformed (see [`VectorChi::check`]), has another node
///   count than its vector or names a vector its shard holds no entry
///   of — shard results that cannot have come from this configuration.
pub fn merge_accepted(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
    shards: &[ShardLog<'_>],
) -> Result<MergedExploration, FsaError> {
    for (m, _) in models {
        m.validate()?;
    }
    let resolved = resolve_rules(models, rules)?;
    if !shards
        .iter()
        .flat_map(|shard| shard.accepted)
        .map(|entry| (entry.ordinal, entry.mask))
        .is_sorted_by(|a, b| a < b)
    {
        return Err(FsaError::CorruptCheckpoint {
            reason: "merged accepted list is not strictly ascending in (ordinal, mask)".to_owned(),
        });
    }
    let corrupt = |reason: String| FsaError::CorruptCheckpoint { reason };
    let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
    let mut classes = ClassMap::new(models, &resolved);
    let mut duplicates = 0usize;
    let mut founders = Vec::new();
    for shard in shards {
        let runs = vector_runs(&maxes, shard.accepted)?;
        let mut unions = shard.unions.unwrap_or_default().iter().peekable();
        for (ordinal, counts, run) in runs {
            if classes.current.as_ref().map(|(o, _)| *o) != Some(ordinal) {
                classes.enter(ordinal, &counts)?;
            }
            let union = unions.next_if(|u| u.ordinal == ordinal);
            if let Some(union) = union {
                union.check(run.len()).map_err(corrupt)?;
                let nodes = classes.prototype().rows.node_count();
                if union.nodes != nodes {
                    return Err(corrupt(format!(
                        "the χ union of vector {ordinal} has {} rows, the vector {nodes} nodes",
                        union.nodes
                    )));
                }
            }
            founders.clear();
            for entry in run {
                classes.prototype().check_mask(ordinal, entry.mask)?;
                if classes.offer(entry.mask, entry.certificate, Founder::Shipped)? {
                    founders.push(entry.mask);
                } else {
                    duplicates += 1;
                }
            }
            match union {
                Some(union) if founders.len() == run.len() => classes.or_union(union),
                _ => {
                    for &mask in &founders {
                        let rows = class_rows(classes.prototype(), mask);
                        classes.add_chi(rows.chi.as_deref());
                    }
                }
            }
        }
        if let Some(stray) = unions.next() {
            return Err(corrupt(format!(
                "the χ union of vector {} has no entry in its shard",
                stray.ordinal
            )));
        }
    }
    let stats = ExploreStats {
        classes: classes.classes.len(),
        certificate_hits: classes.certified.certificate_hits(),
        exact_iso_fallbacks: classes.certified.exact_fallbacks(),
        ..ExploreStats::default()
    };
    Ok(MergedExploration {
        universe: classes.finish(stats),
        duplicates,
    })
}

/// A connection rule with its model positions resolved.
struct ResolvedRule {
    from_idx: usize,
    from_action: TemplateActionId,
    to_idx: usize,
    to_action: TemplateActionId,
}

/// Validates the rules against the models and resolves model positions.
fn resolve_rules(
    models: &[(ComponentModel, usize)],
    rules: &[ConnectionRule],
) -> Result<Vec<ResolvedRule>, FsaError> {
    rules
        .iter()
        .map(|rule| {
            let resolve = |name: &str, action: TemplateActionId, side: &str| {
                let idx = models
                    .iter()
                    .position(|(m, _)| m.name() == name)
                    .ok_or_else(|| FsaError::InvalidComponentModel {
                        reason: format!("connection rule references unknown {side} model `{name}`"),
                    })?;
                if action >= models[idx].0.actions().len() {
                    return Err(FsaError::InvalidComponentModel {
                        reason: format!(
                            "connection rule references {side} action {action} out of range for `{name}`"
                        ),
                    });
                }
                Ok(idx)
            };
            Ok(ResolvedRule {
                from_idx: resolve(&rule.from_model, rule.from_action, "source")?,
                from_action: rule.from_action,
                to_idx: resolve(&rule.to_model, rule.to_action, "target")?,
                to_action: rule.to_action,
            })
        })
        .collect()
}

/// One candidate external flow of a multiplicity vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FlowCandidate {
    rule: usize,
    from_copy: usize,
    to_copy: usize,
}

/// Candidate external flows of one multiplicity vector: for each rule,
/// each ordered pair of distinct instances of the involved models.
fn flow_candidates(rules: &[ResolvedRule], counts: &[usize]) -> Vec<FlowCandidate> {
    let mut flows: Vec<FlowCandidate> = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        for fc in 0..counts[rule.from_idx] {
            for tc in 0..counts[rule.to_idx] {
                if rule.from_idx == rule.to_idx && fc == tc {
                    continue; // no self-connection
                }
                flows.push(FlowCandidate {
                    rule: ri,
                    from_copy: fc,
                    to_copy: tc,
                });
            }
        }
    }
    flows
}

/// One scanned multiplicity vector: the orbit-minimal (budget-trimmed)
/// subset masks to instantiate.
struct VectorScan {
    subsets: usize,
    canonical: Vec<u64>,
    orbits_skipped: usize,
    truncated: bool,
    /// The scan was abandoned at a cancellation point; nothing is
    /// counted and the vector must be redone on resume.
    cancelled: bool,
}

/// How often the orbit walk peeks at the cancellation token, in tested
/// masks.
const SCAN_CANCEL_STRIDE: usize = 4096;

/// Generates the orbit-minimal flow subsets of one multiplicity vector —
/// those among the masks `lo..hi` of `slice`, or all of them — in
/// ascending order ([`walk_orbit_minima`]), applying the candidate
/// budget.
///
/// The counts are those of a scan that tests every mask in turn. A whole
/// vector with more orbits than the budget allows (at least `2^F / |G|`
/// of them) fails at once under [`BudgetPolicy::Error`]; under
/// [`BudgetPolicy::Truncate`] its scan stops at the first minimum past
/// the budget and counts the masks before it as skipped. Any other scan
/// counts every mask of the slice, and under `Error` fails as soon as a
/// minimum passes the budget.
fn scan_vector(
    rules: &[ResolvedRule],
    counts: &[usize],
    slice: Option<(u64, u64)>,
    options: &ExploreOptions,
    candidates_so_far: usize,
    cancel: &CancelToken,
) -> Result<VectorScan, FsaError> {
    let flows = flow_candidates(rules, counts);
    if flows.len() > MAX_FLOWS {
        return Err(FsaError::InvalidComponentModel {
            reason: "too many candidate external flows to enumerate".to_owned(),
        });
    }
    let all = 1u64 << flows.len();
    let (lo, hi) = slice.unwrap_or((0, all));
    let subsets = (hi - lo) as usize;
    let flow_perms = flow_permutations(rules, counts, &flows);
    let remaining = options.max_candidates.saturating_sub(candidates_so_far);
    let provably_over =
        subsets as u64 == all && all.div_ceil(flow_perms.len() as u64 + 1) > remaining as u64;
    let over_budget = FsaError::BudgetExceeded {
        limit: options.max_candidates,
    };
    if provably_over && options.on_budget == BudgetPolicy::Error {
        return Err(over_budget);
    }
    let mut canonical = Vec::new();
    let mut minima = 0usize;
    // The first minimum past the budget, where a provably exceeded
    // budget stops the scan.
    let mut past = None;
    let finished = walk_orbit_minima(&flow_perms, flows.len(), (lo, hi), cancel, |mask| {
        minima += 1;
        if canonical.len() < remaining {
            canonical.push(mask);
            return ControlFlow::Continue(());
        }
        match options.on_budget {
            BudgetPolicy::Error => ControlFlow::Break(()),
            BudgetPolicy::Truncate if provably_over => {
                past = Some(mask);
                ControlFlow::Break(())
            }
            BudgetPolicy::Truncate => ControlFlow::Continue(()),
        }
    });
    if !finished {
        return Ok(VectorScan {
            subsets,
            canonical: Vec::new(),
            orbits_skipped: 0,
            truncated: false,
            cancelled: true,
        });
    }
    let truncated = minima > remaining;
    if truncated && options.on_budget == BudgetPolicy::Error {
        return Err(over_budget);
    }
    let orbits_skipped = match past {
        Some(mask) => (mask - lo) as usize - remaining,
        None => subsets - minima,
    };
    Ok(VectorScan {
        subsets,
        canonical,
        orbits_skipped,
        truncated,
        cancelled: false,
    })
}

/// Calls `visit` on every orbit-minimal mask in `lo..hi` of one vector's
/// flow subsets, in ascending order, until it breaks, and peeks at
/// `cancel` every [`SCAN_CANCEL_STRIDE`] tested masks: `false` if it
/// fired. `flow_perms` are the non-identity permutations of the group
/// `G` on the `flows` flows (none: every mask is minimal). The minima
/// are generated (orderly generation: Read 1978; McKay, J. Algorithms
/// 1998), not found by testing all `2^F` masks.
///
/// Every `g ∈ G` permutes the `F` flow bits, so `g(¬m) = ¬g(m)`, and `¬`
/// reverses integer order: `m` is orbit-minimal (`g(m) ≥ m` for every
/// `g`) exactly when its complement `t = ¬m` is orbit-*maximal*
/// (`g(t) ≤ t` for every `g`). Maximal masks stay maximal when their
/// lowest set bit `l` is cleared. Suppose `t` is maximal, `t' = t − 2^l`
/// and `g(t') > t'`, and let `p` be the highest bit where the two
/// differ. Then `p > l`, or else `g(t') ⊇ t'` with the same population
/// count. If `g(l) > p`, `g(t)` has bit `g(l)` where `t` has none and
/// agrees with it above; if `g(l) < p`, they agree above `p` and `g(t)`
/// has bit `p`. Either way `g(t) > t`, a contradiction.
///
/// So the maximal masks form a tree rooted at 0, the children of `t`
/// being the maximal masks among `t | 2^i` for `i` below `t`'s lowest
/// bit, and the subtree of `t | 2^i` lies in `[t + 2^i, t + 2^(i+1))`. A
/// post-order walk that visits the children in descending `i` meets the
/// maximal masks in descending order, so their complements come out
/// ascending. Each node keeps its image under every `g`: a child's image
/// is its parent's ORed with the image of the one flow it adds, and the
/// child is kept iff no image exceeds it. A subtree whose complements
/// miss `lo..hi` is pruned.
fn walk_orbit_minima(
    flow_perms: &[Vec<usize>],
    flows: usize,
    (lo, hi): (u64, u64),
    cancel: &CancelToken,
    mut visit: impl FnMut(u64) -> ControlFlow<()>,
) -> bool {
    assert!(flows <= MAX_FLOWS, "{flows} flows exceed the mask width");
    if lo >= hi {
        return true;
    }
    let p = flow_perms.len();
    // `added[i * p + g]`: the image of flow `i` under permutation `g`.
    let added: Vec<u64> = (0..flows)
        .flat_map(|i| flow_perms.iter().map(move |perm| 1u64 << perm[i]))
        .collect();
    let full = (1u64 << flows) - 1;
    // The complements of `lo..hi`.
    let (first, last) = (full - (hi - 1), full - lo);
    // Per depth, the node's images under every permutation; the root 0
    // is its own image.
    let mut images = vec![0u64; (flows + 1) * p];
    // The path: each node with the bits below which children remain.
    let mut path: Vec<(u64, usize)> = vec![(0, flows)];
    let mut tested = 0usize;
    while let Some(top) = path.last_mut() {
        let (t, below) = *top;
        if below == 0 {
            path.pop();
            if (first..=last).contains(&t) && visit(full ^ t).is_break() {
                return true;
            }
            continue;
        }
        let i = below - 1;
        top.1 = i;
        let child = t | 1 << i;
        if child > last || child + ((1 << i) - 1) < first {
            continue;
        }
        tested += 1;
        if tested.is_multiple_of(SCAN_CANCEL_STRIDE) && cancel.is_cancelled_peek() {
            return false;
        }
        let depth = path.len();
        let (parent, rest) = images.split_at_mut(depth * p);
        let parent = &parent[(depth - 1) * p..];
        let mut own = rest[..p].iter_mut().zip(parent).zip(&added[i * p..]);
        if own.all(|((image, &from), &bit)| {
            *image = from | bit;
            *image <= child
        }) {
            path.push((child, i));
        }
    }
    true
}

/// The copy-permutation group of one multiplicity vector, induced on the
/// flow candidates: permuting the interchangeable copies of a model maps
/// every flow subset to an isomorphic composition, so only the
/// orbit-minimal subsets need instantiation. Returns the non-identity
/// induced permutations (empty when the group exceeds
/// [`ORBIT_GROUP_CAP`] — pruning is then skipped, not the candidates),
/// those that move the fewest flows first: a swap of two copies maps
/// most non-minimal masks lower, so the minimality test exits sooner.
/// The order does not change which masks are minimal.
fn flow_permutations(
    rules: &[ResolvedRule],
    counts: &[usize],
    flows: &[FlowCandidate],
) -> Vec<Vec<usize>> {
    let group_size = counts
        .iter()
        .try_fold(1usize, |acc, &c| {
            (1..=c)
                .try_fold(acc, |a, k| a.checked_mul(k))
                .filter(|&a| a <= ORBIT_GROUP_CAP)
        })
        .unwrap_or(usize::MAX);
    if flows.is_empty() || group_size > ORBIT_GROUP_CAP {
        return Vec::new();
    }

    let flow_index: std::collections::HashMap<FlowCandidate, usize> =
        flows.iter().enumerate().map(|(i, &f)| (f, i)).collect();

    // All copy permutations per model (cartesian product across models),
    // walked via an odometer over per-model permutation lists.
    let per_model: Vec<Vec<Vec<usize>>> = counts.iter().map(|&c| permutations(c)).collect();
    let mut choice = vec![0usize; per_model.len()];
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut result: Vec<Vec<usize>> = Vec::new();
    loop {
        let perm: Vec<usize> = flows
            .iter()
            .map(|f| {
                let rule = &rules[f.rule];
                let mapped = FlowCandidate {
                    rule: f.rule,
                    from_copy: per_model[rule.from_idx][choice[rule.from_idx]][f.from_copy],
                    to_copy: per_model[rule.to_idx][choice[rule.to_idx]][f.to_copy],
                };
                flow_index[&mapped]
            })
            .collect();
        let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
        if !identity && seen.insert(perm.clone()) {
            result.push(perm);
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == per_model.len() {
                result
                    .sort_by_key(|perm| perm.iter().enumerate().filter(|&(k, &p)| k != p).count());
                return result;
            }
            choice[i] += 1;
            if choice[i] < per_model[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// All permutations of `0..n` (n! entries, `n` capped by the caller).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    heap_permute(&mut current, n, &mut out);
    out
}

fn heap_permute(current: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(current.clone());
        return;
    }
    for i in 0..k {
        heap_permute(current, k - 1, out);
        if k.is_multiple_of(2) {
            current.swap(i, k - 1);
        } else {
            current.swap(0, k - 1);
        }
    }
}

/// The flow-free composition of one multiplicity vector: every copy of
/// every model instantiated once, with its internal flows, as an
/// instance and as adjacency rows, plus each node's shape label and
/// initial refinement colour and each candidate external flow's node
/// pair. A candidate of the vector is the prototype's rows with its
/// mask's flows OR-ed in; its [`SosInstance`] is composed only for
/// callers that ask for it, sharing every action, stakeholder and owner
/// of the prototype.
struct Prototype {
    /// The vector's name, e.g. `1xRSU+2xV`.
    name: Arc<str>,
    /// The flow-free composition: the actions and stakeholders χ bits
    /// map to, and the base of every composed candidate.
    base: SosInstance,
    /// Node `n`'s label in [`SosInstance::shape_graph`].
    shapes: Vec<Arc<str>>,
    /// [`label_hash`] of each shape label, split into classes: the
    /// initial colouring of [`row_certificate`], computed once per
    /// vector.
    colours: InitialColouring,
    /// The flow-free composition's adjacency rows.
    rows: AdjacencyRows,
    /// The `(from, to)` nodes of each candidate external flow, in
    /// [`flow_candidates`] order: bit `k` of a mask adds `flows[k]`.
    flows: Vec<(usize, usize)>,
}

impl Prototype {
    /// Instantiates the copies of multiplicity vector `counts`, with
    /// global per-model indices 1, 2, … (no index for the single copy of
    /// a model whose actions carry none).
    fn new(
        models: &[(ComponentModel, usize)],
        rules: &[ResolvedRule],
        counts: &[usize],
    ) -> Result<Prototype, FsaError> {
        let name = models
            .iter()
            .zip(counts)
            .filter(|(_, c)| **c > 0)
            .map(|((m, _), c)| format!("{}x{}", c, m.name()))
            .collect::<Vec<_>>()
            .join("+");
        let mut builder = SosInstanceBuilder::new(&name);
        let mut copies = Vec::with_capacity(models.len());
        for ((model, _), &count) in models.iter().zip(counts) {
            let unindexed = count == 1 && model.actions().iter().all(|a| a.indices().is_empty());
            let instances = (0..count)
                .map(|c| {
                    let index = if unindexed {
                        String::new()
                    } else {
                        (c + 1).to_string()
                    };
                    model.instantiate(&index, &mut builder)
                })
                .collect::<Result<Vec<_>, _>>()?;
            copies.push(instances);
        }
        let flows = flow_candidates(rules, counts)
            .into_iter()
            .map(|f| {
                let rule = &rules[f.rule];
                let from = copies[rule.from_idx][f.from_copy].node(rule.from_action);
                let to = copies[rule.to_idx][f.to_copy].node(rule.to_action);
                (from.index(), to.index())
            })
            .collect();
        let base = builder.build();
        let shapes: Vec<Arc<str>> = base
            .graph()
            .nodes()
            .map(|(_, action)| Arc::from(action.shape().to_string()))
            .collect();
        let mut rows = AdjacencyRows::new(base.action_count());
        for (x, y) in base.graph().edges() {
            rows.add_edge(x.index(), y.index());
        }
        Ok(Prototype {
            name: Arc::from(name),
            colours: InitialColouring::new(shapes.iter().map(label_hash)),
            base,
            shapes,
            rows,
            flows,
        })
    }

    /// Fails as [`FsaError::CorruptCheckpoint`] unless `mask` names only
    /// flows of this vector (ordinal `ordinal`).
    fn check_mask(&self, ordinal: u64, mask: u64) -> Result<(), FsaError> {
        if mask.checked_shr(self.flows.len() as u32).unwrap_or(0) == 0 {
            Ok(())
        } else {
            Err(FsaError::CorruptCheckpoint {
                reason: format!("accepted mask {mask} out of range for vector {ordinal}"),
            })
        }
    }

    /// Copies the rows of candidate `mask` into `rows`: the prototype's
    /// rows with the mask's flows OR-ed in.
    fn rows_into(&self, mask: u64, rows: &mut AdjacencyRows) {
        rows.clone_from(&self.rows);
        for k in set_bits(&[mask]) {
            let (from, to) = self.flows[k];
            rows.add_edge(from, to);
        }
    }

    /// [`SosInstance::shape_graph`] of candidate `mask`'s composition,
    /// built from its rows with the stored labels shared instead of
    /// formatted. `Arc<str>` hashes as `str`, as `String` does, so the
    /// certificate is the same.
    fn shape_graph(&self, mask: u64) -> DiGraph<Arc<str>> {
        let mut rows = AdjacencyRows::default();
        self.rows_into(mask, &mut rows);
        let mut g = DiGraph::with_capacity(self.shapes.len());
        for label in &self.shapes {
            g.add_node(Arc::clone(label));
        }
        for (x, y) in rows.edges() {
            g.add_edge(NodeId::new(x), NodeId::new(y));
        }
        g
    }

    /// The composition of candidate `mask`: the prototype with the mask's
    /// external flows added.
    fn compose(&self, mask: u64) -> SosInstance {
        let mut builder = self.base.to_builder();
        for k in set_bits(&[mask]) {
            let (from, to) = self.flows[k];
            builder.flow(NodeId::new(from), NodeId::new(to));
        }
        builder.build()
    }
}

/// What the class map needs of one built candidate.
struct Built {
    certificate: Certificate,
    /// What the candidate adds if it founds a class.
    class: ClassRows,
}

/// What a founding candidate adds to the class list and the union, read
/// off its rows.
struct ClassRows {
    /// Distinct flows: the population count of the candidate's rows.
    flows: usize,
    /// χ as rows over the prototype's nodes ([`AdjacencyRows::chi`]);
    /// `None` when the composition is cyclic.
    chi: Option<Vec<u64>>,
}

/// The buffers a candidate is built in.
#[derive(Default)]
struct CandidateScratch {
    rows: AdjacencyRows,
    reached: Vec<u64>,
    certificate: CertificateScratch,
    chi: ChiScratch,
}

thread_local! {
    /// Every worker thread builds its candidates in its own buffers.
    static SCRATCH: RefCell<CandidateScratch> = RefCell::new(CandidateScratch::default());
}

/// Builds candidate `mask` of `prototype` on its adjacency rows: `None`
/// when `require_connected` drops it as not weakly connected, else its
/// certificate, flow count and χ.
fn build_candidate(prototype: &Prototype, mask: u64, require_connected: bool) -> Option<Built> {
    SCRATCH.with_borrow_mut(|s| {
        prototype.rows_into(mask, &mut s.rows);
        if require_connected && !s.rows.is_weakly_connected(&mut s.reached) {
            return None;
        }
        Some(Built {
            certificate: row_certificate(&s.rows, &prototype.colours, &mut s.certificate),
            class: s.class_rows(),
        })
    })
}

/// The flow count and χ of candidate `mask` of `prototype`: what a
/// founding entry of an accepted log adds, its certificate carried.
fn class_rows(prototype: &Prototype, mask: u64) -> ClassRows {
    SCRATCH.with_borrow_mut(|s| {
        prototype.rows_into(mask, &mut s.rows);
        s.class_rows()
    })
}

/// The flow count of candidate `mask` of `prototype`: the population
/// count of its rows.
fn class_flows(prototype: &Prototype, mask: u64) -> usize {
    SCRATCH.with_borrow_mut(|s| {
        prototype.rows_into(mask, &mut s.rows);
        s.rows.edge_count()
    })
}

impl CandidateScratch {
    /// The flow count and χ of the candidate in `rows`.
    fn class_rows(&mut self) -> ClassRows {
        ClassRows {
            flows: self.rows.edge_count(),
            chi: self.rows.chi(&mut self.chi).map(<[u64]>::to_vec),
        }
    }
}

/// What a founding candidate adds to the class list and its vector's χ.
enum Founder {
    /// The live build's flow count and χ.
    Built(ClassRows),
    /// Both read off its rows: an accepted-log entry, whose certificate
    /// it carries.
    Rebuilt,
    /// Its flow count, read off its rows; its χ arrives with its shard's
    /// union of the vector ([`ClassMap::or_union`]) or is added later
    /// ([`ClassMap::add_chi`]).
    Shipped,
}

/// The class map and §4.4 union of one run. The live build, the resume
/// replay and the distributed merge all feed their candidates through
/// one. A class is kept as its `(ordinal, mask)`; a bucket hit rebuilds
/// both shape graphs for the exact check. Only a founding candidate's χ
/// counts (a duplicate's χ names other node indices): it is OR-ed into
/// the current vector's χ rows, which are mapped to requirements
/// through the vector's prototype when the next vector is entered and
/// when the run finishes, completed or not — so the union covers
/// exactly the classes returned.
struct ClassMap<'u> {
    models: &'u [(ComponentModel, usize)],
    rules: &'u [ResolvedRule],
    certified: CertifiedClasses<(u64, u64)>,
    classes: Vec<ExploredClass>,
    requirements: RequirementSet,
    loop_skipped: usize,
    /// The vector being filled, with its prototype.
    current: Option<(u64, Prototype)>,
    /// χ of the current vector's classes, one row per prototype node.
    chi: Vec<u64>,
    /// Classes the current vector founded, and how many are cyclic.
    founded: usize,
    cyclic: usize,
    /// The χ union of every vector flushed so far that founded a class.
    unions: Vec<VectorChi>,
}

impl<'u> ClassMap<'u> {
    fn new(models: &'u [(ComponentModel, usize)], rules: &'u [ResolvedRule]) -> Self {
        ClassMap {
            models,
            rules,
            certified: CertifiedClasses::new(),
            classes: Vec::new(),
            requirements: RequirementSet::new(),
            loop_skipped: 0,
            current: None,
            chi: Vec::new(),
            founded: 0,
            cyclic: 0,
            unions: Vec::new(),
        }
    }

    /// Unions the current vector's χ and makes vector `ordinal`, of
    /// multiplicities `counts`, current.
    fn enter(&mut self, ordinal: u64, counts: &[usize]) -> Result<&Prototype, FsaError> {
        self.flush();
        let prototype = Prototype::new(self.models, self.rules, counts)?;
        self.chi.clear();
        self.chi.resize(
            prototype.rows.node_count() * prototype.rows.words_per_row(),
            0,
        );
        Ok(&self.current.insert((ordinal, prototype)).1)
    }

    fn current(&self) -> &(u64, Prototype) {
        self.current.as_ref().expect("a vector was entered")
    }

    fn prototype(&self) -> &Prototype {
        &self.current().1
    }

    /// Offers candidate `mask` of the current vector under
    /// `certificate`; `Ok(true)` if it founded a class, which then adds
    /// what `founder` says.
    fn offer(
        &mut self,
        mask: u64,
        certificate: Certificate,
        founder: Founder,
    ) -> Result<bool, FsaError> {
        let (ordinal, prototype) = self.current.as_ref().expect("a vector was entered");
        let (models, rules) = (self.models, self.rules);
        let shape = |(o, m): (u64, u64)| -> Result<DiGraph<Arc<str>>, FsaError> {
            if o == *ordinal {
                Ok(prototype.shape_graph(m))
            } else {
                let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
                Ok(Prototype::new(models, rules, &vector_of(o, &maxes))?.shape_graph(m))
            }
        };
        let mut failure = None;
        let founded = self
            .certified
            .insert_by(
                (*ordinal, mask),
                certificate,
                |&rep, &candidate| match shape(rep).and_then(|a| Ok((a, shape(candidate)?))) {
                    Ok((a, b)) => are_isomorphic(&a, &b),
                    Err(e) => {
                        failure.get_or_insert(e);
                        false
                    }
                },
            )
            .is_some();
        if let Some(e) = failure {
            return Err(e);
        }
        if !founded {
            return Ok(false);
        }
        let (flows, chi) = match founder {
            Founder::Built(rows) => (rows.flows, Some(rows.chi)),
            Founder::Rebuilt => {
                let rows = class_rows(prototype, mask);
                (rows.flows, Some(rows.chi))
            }
            Founder::Shipped => (class_flows(prototype, mask), None),
        };
        self.classes.push(ExploredClass {
            ordinal: *ordinal,
            mask,
            certificate,
            vector: Arc::clone(&prototype.name),
            actions: prototype.rows.node_count(),
            flows,
        });
        self.founded += 1;
        if let Some(chi) = chi {
            self.add_chi(chi.as_deref());
        }
        Ok(true)
    }

    /// Adds one founding class's χ to the current vector: its rows, or
    /// `None` for a cyclic composition.
    fn add_chi(&mut self, chi: Option<&[u64]>) {
        match chi {
            Some(chi) => {
                for (into, from) in self.chi.iter_mut().zip(chi) {
                    *into |= from;
                }
            }
            None => {
                self.loop_skipped += 1;
                self.cyclic += 1;
            }
        }
    }

    /// Adds a shard's χ union of the current vector, whose shape the
    /// caller checked, for the classes it founded from that shard.
    fn or_union(&mut self, union: &VectorChi) {
        for (into, from) in self.chi.iter_mut().zip(&union.rows) {
            *into |= from;
        }
        self.loop_skipped += union.cyclic;
        self.cyclic += union.cyclic;
    }

    /// Replays the checkpointed decisions of the current vector,
    /// `log[*cursor..]` while they name its ordinal, under the
    /// certificates they carry. Replaying them in discovery order leaves
    /// the class map and union bit-identical to the checkpointed run's,
    /// so every entry must found a class again.
    fn replay(&mut self, log: &[Accepted], cursor: &mut usize) -> Result<(), FsaError> {
        let ordinal = self.current().0;
        while let Some(entry) = log.get(*cursor) {
            if entry.ordinal != ordinal {
                break;
            }
            self.prototype().check_mask(ordinal, entry.mask)?;
            if !self.offer(entry.mask, entry.certificate, Founder::Rebuilt)? {
                return Err(FsaError::CorruptCheckpoint {
                    reason: format!(
                        "accepted instance (vector {ordinal}, mask {}) duplicates an earlier class on rebuild",
                        entry.mask
                    ),
                });
            }
            *cursor += 1;
        }
        Ok(())
    }

    /// Maps the current vector's χ rows to `auth(x, y, stakeholder(y))`
    /// requirements through its prototype, into the union, and keeps
    /// them as the vector's [`VectorChi`] if it founded a class.
    fn flush(&mut self) {
        let Some((ordinal, prototype)) = &self.current else {
            return;
        };
        if self.founded > 0 {
            self.unions.push(VectorChi {
                ordinal: *ordinal,
                nodes: prototype.rows.node_count(),
                cyclic: self.cyclic,
                rows: self.chi.clone(),
            });
        }
        (self.founded, self.cyclic) = (0, 0);
        let base = &prototype.base;
        let words = prototype.rows.words_per_row();
        for (x, row) in self.chi.chunks(words.max(1)).enumerate() {
            for y in set_bits(row) {
                let (x, y) = (NodeId::new(x), NodeId::new(y));
                self.requirements.insert(AuthRequirement::new(
                    base.action(x).clone(),
                    base.action(y).clone(),
                    base.stakeholder(y).clone(),
                ));
            }
        }
        self.chi.fill(0);
    }

    /// Unions the current vector's χ and returns the classes, their
    /// union and `stats`.
    fn finish(mut self, stats: ExploreStats) -> Universe {
        self.flush();
        Universe {
            classes: self.classes,
            requirements: self.requirements,
            loop_skipped: self.loop_skipped,
            unions: self.unions,
            stats,
        }
    }
}

#[cfg(test)]
#[path = "../../fsa-graph/src/iso/fnv_kernel.rs"]
mod fnv_kernel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component_model::ComponentInstance;
    use crate::instance::FlowKind;
    use crate::manual::{chi_nodes, elicit};
    use fsa_graph::iso::canonical_certificate;

    /// The per-candidate builder that [`Prototype`] replaced, kept as its
    /// oracle: instantiates every copy from its template for every
    /// candidate.
    fn build_composition(
        models: &[(ComponentModel, usize)],
        rules: &[ResolvedRule],
        counts: &[usize],
        flows: &[FlowCandidate],
        mask: usize,
    ) -> Result<SosInstance, FsaError> {
        let name = models
            .iter()
            .zip(counts)
            .filter(|(_, c)| **c > 0)
            .map(|((m, _), c)| format!("{}x{}", c, m.name()))
            .collect::<Vec<_>>()
            .join("+");
        let mut builder = SosInstanceBuilder::new(&name);
        // Instantiate components with global per-model indices 1, 2, …
        let mut handles: Vec<Vec<ComponentInstance>> = Vec::new();
        for (mi, (model, _)) in models.iter().enumerate() {
            let mut copies = Vec::new();
            for c in 0..counts[mi] {
                let index =
                    if counts[mi] == 1 && model.actions().iter().all(|a| a.indices().is_empty()) {
                        String::new()
                    } else {
                        (c + 1).to_string()
                    };
                copies.push(model.instantiate(&index, &mut builder)?);
            }
            handles.push(copies);
        }
        for (k, cand) in flows.iter().enumerate() {
            if mask & (1 << k) == 0 {
                continue;
            }
            let rule = &rules[cand.rule];
            let from = handles[rule.from_idx][cand.from_copy].node(rule.from_action);
            let to = handles[rule.to_idx][cand.to_copy].node(rule.to_action);
            builder.flow(from, to);
        }
        Ok(builder.build())
    }

    /// A sensor model (one output) and a sink model (input → display).
    fn sensor_and_display() -> Vec<(ComponentModel, usize)> {
        let mut sensor = ComponentModel::new("S", "Op");
        sensor.action("emit(SNS_i,val)");
        let mut display = ComponentModel::new("D", "User_i");
        let rec = display.action("rec(DSP_i,val)");
        let show = display.action("show(DSP_i,val)");
        display.flow(rec, show);
        vec![(sensor, 1), (display, 2)]
    }

    fn rules() -> Vec<ConnectionRule> {
        vec![ConnectionRule::new("S", 0, "D", 0)]
    }

    /// One run under the default execution policy.
    fn explore(
        models: &[(ComponentModel, usize)],
        rules: &[ConnectionRule],
        options: &ExploreOptions,
    ) -> Result<Exploration, FsaError> {
        enumerate_instances_supervised(models, rules, options, &ExecOptions::default())
    }

    #[test]
    fn enumerates_and_dedups() {
        let instances =
            enumerate_instances(&sensor_and_display(), &rules(), &ExploreOptions::default())
                .unwrap();
        // Structurally distinct connected compositions:
        //   S alone, D alone, S→D, (2 D: disconnected unless... skipped),
        //   S + 2D with S→both, S→one+other-D (disconnected → skipped).
        let names: Vec<&str> = instances.iter().map(SosInstance::name).collect();
        assert!(!names.is_empty());
        // No two remaining instances are isomorphic.
        for (i, a) in instances.iter().enumerate() {
            for b in instances.iter().skip(i + 1) {
                assert!(
                    !fsa_graph::iso::are_isomorphic(&a.shape_graph(), &b.shape_graph()),
                    "{} ~ {}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    /// A random universe drawn from `seed`, as the property suite's
    /// generator draws it: 1–3 component models whose actions form a
    /// chain from the first (input) to the last (output) action, plus
    /// random forward shortcuts, some of them policy flows, the first
    /// model with up to 2 copies. Added here: a model `R` whose actions
    /// carry no index, with a plain stakeholder and a policy flow. Its
    /// single copy takes the empty index (the RSU case); its two copies
    /// have the same actions under different owners. 1–3 connection
    /// rules run from some model's output to some model's input, each
    /// joined by its reverse with probability 1/2.
    fn random_universe(seed: u64) -> (Vec<(ComponentModel, usize)>, Vec<ConnectionRule>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let model_count = 1 + next() % 3;
        let mut models = Vec::with_capacity(model_count + 1);
        let mut sizes = Vec::with_capacity(model_count + 1);
        for m in 0..model_count {
            let mut model = ComponentModel::new(&format!("M{m}"), &format!("U{m}_i"));
            let k = 2 + next() % 3;
            let ids: Vec<usize> = (0..k)
                .map(|j| model.action(&format!("a{j}(M{m}_i,v)")))
                .collect();
            for pair in ids.windows(2) {
                model.flow(pair[0], pair[1]);
            }
            for from in 0..k {
                for to in from + 2..k {
                    match next() % 4 {
                        0 => model.flow(ids[from], ids[to]),
                        1 => model.policy_flow(ids[from], ids[to]),
                        _ => {}
                    }
                }
            }
            let copies = if m == 0 { 1 + next() % 2 } else { 1 };
            models.push((model, copies));
            sizes.push(k);
        }
        let mut rsu = ComponentModel::new("R", "Operator");
        let rec = rsu.action("rec(cam(pos))");
        let send = rsu.action("send(cam(pos))");
        rsu.policy_flow(rec, send);
        models.push((rsu, 1 + next() % 2));
        sizes.push(2);
        let mut rules = Vec::new();
        for _ in 0..1 + next() % 3 {
            let from = next() % models.len();
            let to = next() % models.len();
            let name = |m: usize| models[m].0.name().to_owned();
            rules.push(ConnectionRule::new(
                &name(from),
                sizes[from] - 1,
                &name(to),
                0,
            ));
            if next() % 2 == 0 {
                rules.push(ConnectionRule::new(
                    &name(to),
                    sizes[to] - 1,
                    &name(from),
                    0,
                ));
            }
        }
        (models, rules)
    }

    /// Every flow-subset mask over `flows` candidates up to 2¹⁰ masks;
    /// beyond that 1 024 masks spread evenly from 0 to all-ones.
    fn masks_to_check(flows: usize) -> Vec<usize> {
        let full = (1usize << flows) - 1;
        if flows <= 10 {
            (0..=full).collect()
        } else {
            (0..1024).map(|k| k * full / 1023).collect()
        }
    }

    /// Field-by-field equality of two compositions: name, actions,
    /// stakeholders, owners, edges and flow kinds.
    fn assert_same_composition(got: &SosInstance, want: &SosInstance, at: &str) {
        assert_eq!(got.name(), want.name(), "{at}");
        let actions = |i: &SosInstance| {
            i.graph()
                .nodes()
                .map(|(_, a)| a.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(actions(got), actions(want), "{at}");
        for id in want.graph().node_ids() {
            assert_eq!(got.stakeholder(id), want.stakeholder(id), "{at} {id:?}");
            assert_eq!(got.owner(id), want.owner(id), "{at} {id:?}");
        }
        let edges = |i: &SosInstance| {
            i.graph()
                .edges()
                .map(|(x, y)| (x, y, i.flow_kind(x, y)))
                .collect::<Vec<_>>()
        };
        assert_eq!(edges(got), edges(want), "{at}");
    }

    /// Weak connectivity of the action graph (single component, ignoring
    /// edge direction): the oracle of the row search. The empty graph
    /// counts as connected.
    fn is_weakly_connected(instance: &SosInstance) -> bool {
        let g = instance.graph();
        let n = g.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut visited = 1;
        while let Some(v) = stack.pop() {
            for u in g.successors(v).chain(g.predecessors(v)) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    visited += 1;
                    stack.push(u);
                }
            }
        }
        visited == n
    }

    /// χ rows over `n` nodes as sorted `(x, y)` node pairs.
    fn chi_pairs(rows: &[u64], n: usize) -> Vec<(NodeId, NodeId)> {
        let words = n.div_ceil(64).max(1);
        let mut pairs: Vec<(NodeId, NodeId)> = rows
            .chunks(words)
            .enumerate()
            .flat_map(|(x, row)| set_bits(row).map(move |y| (NodeId::new(x), NodeId::new(y))))
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn prototype_compositions_equal_the_per_candidate_oracle() {
        let (mut checked, mut unindexed, mut shared_actions, mut policy) = (0, 0, 0, 0);
        let (mut disconnected, mut cyclic) = (0, 0);
        for seed in 0..24u64 {
            let (models, rules) = random_universe(seed);
            let resolved = resolve_rules(&models, &rules).expect("rules resolve");
            let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
            for counts in VectorIter::new(&maxes) {
                let flows = flow_candidates(&resolved, &counts);
                let prototype = Prototype::new(&models, &resolved, &counts).expect("prototype");
                for mask in masks_to_check(flows.len()) {
                    let at = format!("seed {seed}, vector {counts:?}, mask {mask:#x}");
                    let mask = mask as u64;
                    let got = prototype.compose(mask);
                    let want =
                        build_composition(&models, &resolved, &counts, &flows, mask as usize)
                            .expect("oracle builds");
                    assert_same_composition(&got, &want, &at);
                    let shape = prototype.shape_graph(mask);
                    let formatted = got.shape_graph();
                    assert!(
                        shape
                            .nodes()
                            .map(|(_, l)| &**l)
                            .eq(formatted.nodes().map(|(_, l)| l.as_str())),
                        "{at}"
                    );
                    assert_eq!(
                        shape.edges().collect::<Vec<_>>(),
                        formatted.edges().collect::<Vec<_>>(),
                        "{at}"
                    );
                    // The row path: connectivity, certificate, flow count
                    // and χ read off the candidate's rows.
                    let connected = is_weakly_connected(&want);
                    assert_eq!(
                        build_candidate(&prototype, mask, true).is_some(),
                        connected,
                        "{at}"
                    );
                    let built = build_candidate(&prototype, mask, false).expect("unfiltered");
                    assert_eq!(built.certificate, canonical_certificate(&formatted), "{at}");
                    assert_eq!(built.class.flows, want.graph().edge_count(), "{at}");
                    match chi_nodes(&want) {
                        Ok(mut chi) => {
                            chi.sort();
                            let rows = built.class.chi.as_deref().expect("acyclic composition");
                            assert_eq!(chi_pairs(rows, want.action_count()), chi, "{at}");
                        }
                        Err(FsaError::CircularDependency { .. }) => {
                            assert!(built.class.chi.is_none(), "{at}");
                            cyclic += 1;
                        }
                        Err(e) => panic!("{at}: {e}"),
                    }
                    let ids: Vec<NodeId> = want.graph().node_ids().collect();
                    checked += 1;
                    disconnected += usize::from(!connected);
                    unindexed += usize::from(ids.iter().any(|&id| want.owner(id) == "R"));
                    shared_actions += usize::from(ids.iter().any(|&id| want.owner(id) == "R2"));
                    policy += usize::from(
                        want.graph()
                            .edges()
                            .any(|(x, y)| want.flow_kind(x, y) == Some(FlowKind::Policy)),
                    );
                }
            }
        }
        assert!(checked > 10_000, "{checked} compositions checked");
        assert!(unindexed > 0 && shared_actions > 0 && policy > 0);
        assert!(
            disconnected > 0 && cyclic > 0,
            "{disconnected} disconnected, {cyclic} cyclic"
        );
    }

    #[test]
    fn vector_ordinals_decode_in_odometer_order() {
        for maxes in [vec![1usize, 4], vec![2, 0, 3], vec![3]] {
            for (ordinal, counts) in VectorIter::new(&maxes).enumerate() {
                assert_eq!(vector_of(ordinal as u64, &maxes), counts, "{maxes:?}");
            }
        }
    }

    #[test]
    fn connected_filter_drops_disconnected() {
        let all = enumerate_instances(
            &sensor_and_display(),
            &rules(),
            &ExploreOptions {
                require_connected: false,
                ..Default::default()
            },
        )
        .unwrap();
        let connected =
            enumerate_instances(&sensor_and_display(), &rules(), &ExploreOptions::default())
                .unwrap();
        assert!(connected.len() < all.len());
    }

    #[test]
    fn union_covers_each_instance() {
        let exploration = enumerate_instances_supervised(
            &sensor_and_display(),
            &rules(),
            &ExploreOptions::default(),
            &ExecOptions::default(),
        )
        .unwrap();
        let union = &exploration.universe.requirements;
        for inst in &exploration.instances {
            let set = elicit(inst).unwrap().requirement_set();
            assert!(set.is_subset(union), "instance {}", inst.name());
        }
        // The connected S→D composition contributes auth(emit, show, User).
        assert!(union
            .iter()
            .any(|r| r.antecedent.name() == "emit" && r.consequent.name() == "show"));
    }

    #[test]
    fn threaded_union_is_bit_identical() {
        let explore = |threads| {
            let options = ExploreOptions {
                require_connected: false,
                threads,
                ..Default::default()
            };
            enumerate_instances_supervised(
                &sensor_and_display(),
                &rules(),
                &options,
                &ExecOptions::default(),
            )
            .unwrap()
        };
        let seq = explore(1);
        let oracle: RequirementSet = seq
            .instances
            .iter()
            .flat_map(|i| elicit(i).unwrap().requirements())
            .collect();
        assert_eq!(seq.universe.requirements, oracle);
        for threads in [2usize, 4, 8] {
            let par = explore(threads).universe;
            assert_eq!(
                seq.universe.requirements, par.requirements,
                "threads {threads}"
            );
            assert_eq!(
                seq.universe.loop_skipped, par.loop_skipped,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn unknown_rule_model_rejected() {
        let err = enumerate_instances(
            &sensor_and_display(),
            &[ConnectionRule::new("S", 0, "GHOST", 0)],
            &ExploreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::InvalidComponentModel { .. }));
    }

    #[test]
    fn out_of_range_rule_action_rejected() {
        let err = enumerate_instances(
            &sensor_and_display(),
            &[ConnectionRule::new("S", 5, "D", 0)],
            &ExploreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::InvalidComponentModel { .. }));
    }

    #[test]
    fn candidate_budget_enforced() {
        // Regression: exceeding the budget used to be misreported as
        // `InvalidComponentModel`; it is a dedicated error now.
        let err = enumerate_instances(
            &sensor_and_display(),
            &rules(),
            &ExploreOptions {
                require_connected: true,
                max_candidates: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, FsaError::BudgetExceeded { limit: 2 });
    }

    #[test]
    fn budget_truncation_returns_partial_deduped_universe() {
        // Regression: exceeding `max_candidates` mid-enumeration used to
        // throw away *all* work; `BudgetPolicy::Truncate` keeps the
        // deduped partial universe and flags the truncation.
        let full = explore(&sensor_and_display(), &rules(), &ExploreOptions::default()).unwrap();
        assert!(!full.universe.stats.truncated);
        let partial = explore(
            &sensor_and_display(),
            &rules(),
            &ExploreOptions {
                max_candidates: 2,
                on_budget: BudgetPolicy::Truncate,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(partial.universe.stats.truncated);
        assert!(partial.universe.stats.candidates <= 2);
        assert!(partial.instances.len() < full.instances.len());
        // The partial universe is still isomorphism-reduced.
        for (i, a) in partial.instances.iter().enumerate() {
            for b in partial.instances.iter().skip(i + 1) {
                assert!(!fsa_graph::iso::are_isomorphic(
                    &a.shape_graph(),
                    &b.shape_graph()
                ));
            }
        }
    }

    #[test]
    fn orbit_pruning_skips_copy_permutations() {
        // With two interchangeable displays, the subsets {S→D1} and
        // {S→D2} are one orbit: exactly one is instantiated.
        let e = explore(&sensor_and_display(), &rules(), &ExploreOptions::default()).unwrap();
        assert!(
            e.universe.stats.orbits_skipped > 0,
            "{:?}",
            e.universe.stats
        );
        assert!(e.universe.stats.candidates < e.universe.stats.subsets_total);
        assert_eq!(e.universe.stats.classes, e.instances.len());
    }

    /// The bit-walk orbit test, kept as the oracle of [`walk_orbit_minima`]: a
    /// permutation's image is built one set bit of the mask at a time.
    fn is_orbit_minimal_bitwalk(mask: usize, flow_perms: &[Vec<usize>]) -> bool {
        for perm in flow_perms {
            let mut image = 0usize;
            for k in set_bits(&[mask as u64]) {
                image |= 1 << perm[k];
            }
            if image < mask {
                return false;
            }
        }
        true
    }

    /// What a scan returns: `(subsets, canonical, orbits_skipped,
    /// truncated)`, or its error.
    type ScanResult = Result<(usize, Vec<u64>, usize, bool), FsaError>;

    /// The scan the engine ran before it generated the minima, kept as
    /// the oracle of [`scan_vector`]: every mask of the slice tested in
    /// turn (`minimal[mask]`, from the bit-walk), a provably exceeded
    /// budget failing at once or, truncating, stopping at the first
    /// minimum past it.
    fn scan_oracle(
        minimal: &[bool],
        group_len: usize,
        slice: Option<(u64, u64)>,
        options: &ExploreOptions,
    ) -> ScanResult {
        let all = minimal.len();
        let (lo, hi) = slice.map_or((0, all), |(lo, hi)| (lo as usize, hi as usize));
        let subsets = hi - lo;
        let remaining = options.max_candidates;
        let over = FsaError::BudgetExceeded { limit: remaining };
        if subsets == all && all.div_ceil(group_len) > remaining {
            if options.on_budget == BudgetPolicy::Error {
                return Err(over);
            }
            let (mut picked, mut skipped) = (Vec::new(), 0);
            for (mask, &is_minimal) in minimal.iter().enumerate().take(hi).skip(lo) {
                if !is_minimal {
                    skipped += 1;
                } else if picked.len() == remaining {
                    break;
                } else {
                    picked.push(mask as u64);
                }
            }
            return Ok((subsets, picked, skipped, true));
        }
        let mut canonical: Vec<u64> = (lo..hi).filter(|&m| minimal[m]).map(|m| m as u64).collect();
        let skipped = subsets - canonical.len();
        let truncated = canonical.len() > remaining;
        if truncated {
            if options.on_budget == BudgetPolicy::Error {
                return Err(over);
            }
            canonical.truncate(remaining);
        }
        Ok((subsets, canonical, skipped, truncated))
    }

    /// Checks [`scan_vector`] against [`scan_oracle`] on vector `counts`:
    /// the whole vector under budgets below, at and above its minima,
    /// each truncating and failing, and slices drawn from `seed`.
    /// Returns the number of minima.
    fn check_walk(rules: &[ResolvedRule], counts: &[usize], seed: u64, at: &str) -> usize {
        let flows = flow_candidates(rules, counts);
        let perms = flow_permutations(rules, counts, &flows);
        let minimal: Vec<bool> = (0..1usize << flows.len())
            .map(|mask| is_orbit_minimal_bitwalk(mask, &perms))
            .collect();
        let minima = minimal.iter().filter(|&&m| m).count();
        let scan = |slice: Option<(u64, u64)>, budget: usize, on_budget: BudgetPolicy| {
            let options = ExploreOptions {
                max_candidates: budget,
                on_budget,
                ..ExploreOptions::default()
            };
            let want = scan_oracle(&minimal, perms.len() + 1, slice, &options);
            // The budget left is what it is, whatever was spent before.
            let got = scan_vector(rules, counts, slice, &options, 0, &CancelToken::new())
                .map(|s| (s.subsets, s.canonical, s.orbits_skipped, s.truncated));
            let spent = ExploreOptions {
                max_candidates: budget + 7,
                ..options.clone()
            };
            let offset = scan_vector(rules, counts, slice, &spent, 7, &CancelToken::new())
                .map(|s| (s.subsets, s.canonical, s.orbits_skipped, s.truncated))
                .map_err(|_| FsaError::BudgetExceeded { limit: budget });
            assert_eq!(
                got, want,
                "{at}, slice {slice:?}, budget {budget} {on_budget:?}"
            );
            assert_eq!(offset, want, "{at}, slice {slice:?}, budget {budget}+7");
        };
        for budget in [0, 1, 2, minima / 2, minima - 1, minima, minima + 1, 1 << 30] {
            for policy in [BudgetPolicy::Error, BudgetPolicy::Truncate] {
                scan(None, budget, policy);
            }
        }
        let mut state = seed | 1;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let all = 1u64 << flows.len();
        for _ in 0..3 {
            let (a, b) = (next(all + 1), next(all + 1));
            let slice = Some((a.min(b), a.max(b)));
            scan(slice, 1 << 30, BudgetPolicy::Error);
            scan(slice, minima / 3, BudgetPolicy::Error);
        }
        minima
    }

    #[test]
    fn the_orbit_walk_generates_what_the_bit_walk_scan_finds() {
        let (mut vectors, mut pruned) = (0, 0);
        let universes = (1..=4)
            .map(vehicle_universe)
            .chain((0..50u64).map(random_universe));
        for (u, (models, rules)) in universes.enumerate() {
            let resolved = resolve_rules(&models, &rules).expect("rules resolve");
            let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
            for counts in VectorIter::new(&maxes) {
                let at = format!("universe {u}, vector {counts:?}");
                let minima = check_walk(&resolved, &counts, u as u64 ^ vectors, &at);
                vectors += 1;
                pruned += u64::from(minima < 1 << flow_candidates(&resolved, &counts).len());
            }
        }
        assert!(
            vectors > 150 && pruned > 40,
            "{vectors} vectors, {pruned} pruned"
        );
        // The (1, 4) vector of the 4-vehicle universe: 3 044 minima of
        // 2^16 masks.
        let (models, vehicle_rules) = vehicle_universe(4);
        let resolved = resolve_rules(&models, &vehicle_rules).expect("rules resolve");
        assert_eq!(check_walk(&resolved, &[1, 4], 1, "(1, 4)"), 3044);
        // Six sensors feeding displays. With one display the sensors'
        // 720 copy permutations are the largest group that prunes: one
        // minimal mask per subset size of its 6 flows. With two the group
        // exceeds `ORBIT_GROUP_CAP`, is empty, and every one of the 2¹²
        // masks is minimal. A lone sensor has no flow: its one mask is 0.
        let resolved = resolve_rules(&sensor_and_display(), &rules()).expect("rules resolve");
        assert_eq!(check_walk(&resolved, &[6, 1], 2, "6 sensors"), 7);
        let flows = flow_candidates(&resolved, &[6, 2]);
        assert!(flow_permutations(&resolved, &[6, 2], &flows).is_empty());
        assert_eq!(
            check_walk(&resolved, &[6, 2], 3, "6 sensors, 2 displays"),
            1 << 12
        );
        assert_eq!(check_walk(&resolved, &[1, 0], 4, "no flow"), 1);
    }

    #[test]
    fn a_cancelled_walk_stops_mid_vector_at_any_thread_count() {
        // Five vehicles without the RSU: 20 flows, 9 608 minima. A token
        // cancelled at the tenth minimum stops the walk at its next peek,
        // after 4 096 tested masks: mid-vector, before the last minimum.
        let (models, rules) = vehicle_universe(4);
        let resolved = resolve_rules(&models, &rules).expect("rules resolve");
        let flows = flow_candidates(&resolved, &[0, 5]);
        let perms = flow_permutations(&resolved, &[0, 5], &flows);
        let all = 1u64 << flows.len();
        let cancel = CancelToken::new();
        let mut seen = 0;
        let finished = walk_orbit_minima(&perms, flows.len(), (0, all), &cancel, |_| {
            seen += 1;
            if seen == 10 {
                cancel.cancel();
            }
            ControlFlow::Continue(())
        });
        assert!(!finished);
        let mut minima = 0;
        let finished =
            walk_orbit_minima(&perms, flows.len(), (0, all), &CancelToken::new(), |_| {
                minima += 1;
                ControlFlow::Continue(())
            });
        assert!(finished);
        assert!(10 <= seen && seen < minima, "{seen} of {minima}");
        // The scan of a vector reports the cancellation and counts
        // nothing, at one thread or two: there is one scan path.
        for threads in [1, 2] {
            let options = ExploreOptions {
                threads,
                max_candidates: usize::MAX,
                ..ExploreOptions::default()
            };
            let scan = scan_vector(&resolved, &[0, 5], None, &options, 0, &cancel).expect("scans");
            assert!(
                scan.cancelled && scan.canonical.is_empty(),
                "threads {threads}"
            );
            let scan = scan_vector(&resolved, &[0, 5], None, &options, 0, &CancelToken::new())
                .expect("scans");
            assert!(
                !scan.cancelled && scan.canonical.len() == minima,
                "threads {threads}"
            );
        }
    }

    /// The vehicular scenario's universe at `vehicles` vehicles, as
    /// `vanet::exploration::scenario_universe` builds it (`fsa-core`
    /// cannot depend on `vanet`): one RSU broadcasting to vehicles of the
    /// reduced Fig. 1(b) model, which also warn each other.
    fn vehicle_universe(vehicles: usize) -> (Vec<(ComponentModel, usize)>, Vec<ConnectionRule>) {
        let mut rsu = ComponentModel::new("RSU", "RSU_operator");
        let rsu_send = rsu.action("send(cam(pos))");
        let mut vehicle = ComponentModel::new("V", "D_i");
        let sense = vehicle.action("sense(ESP_i,sW)");
        let pos = vehicle.action("pos(GPS_i,pos)");
        let send = vehicle.action("send(CU_i,cam(pos))");
        let rec = vehicle.action("rec(CU_i,cam(pos))");
        let show = vehicle.action("show(HMI_i,warn)");
        vehicle.flow(sense, send);
        vehicle.flow(pos, send);
        vehicle.flow(rec, show);
        vehicle.flow(pos, show);
        let rules = vec![
            ConnectionRule::new("RSU", rsu_send, "V", rec),
            ConnectionRule::new("V", send, "V", rec),
        ];
        (vec![(rsu, 1), (vehicle, vehicles)], rules)
    }

    #[test]
    fn candidate_buckets_match_the_fnv_kernel_on_the_four_vehicle_universe() {
        // Every candidate of the 4-vehicle universe, disconnected ones
        // included: the word-wise row certificates put them in the
        // buckets the byte-wise FNV kernel put their shape graphs in.
        let (models, rules) = vehicle_universe(4);
        let resolved = resolve_rules(&models, &rules).expect("rules resolve");
        let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
        let options = ExploreOptions::default();
        let mut all = Vec::new();
        let mut connected = Vec::new();
        for counts in VectorIter::new(&maxes) {
            let prototype = Prototype::new(&models, &resolved, &counts).expect("prototype");
            let scan = scan_vector(&resolved, &counts, None, &options, 0, &CancelToken::new())
                .expect("scans");
            for mask in scan.canonical {
                let built = build_candidate(&prototype, mask, false).expect("unfiltered");
                let pair = (
                    built.certificate,
                    fnv_kernel::certificate(&prototype.shape_graph(mask)),
                );
                all.push(pair);
                if build_candidate(&prototype, mask, true).is_some() {
                    connected.push(pair);
                }
            }
        }
        assert_eq!((all.len(), connected.len()), (3399, 3015));
        fnv_kernel::assert_same_buckets(&all);
        // The nine colliding pairs: nine connected candidates land in a
        // bucket an earlier one founded.
        assert_eq!(fnv_kernel::assert_same_buckets(&connected), 3015 - 9);
        let universe =
            explore_universe(&models, &rules, &options, &ExecOptions::default()).expect("explores");
        let stats = &universe.stats;
        assert_eq!(
            (
                stats.certificate_hits,
                stats.exact_iso_fallbacks,
                stats.classes
            ),
            (9, 9, 3015)
        );
    }

    #[test]
    fn parallel_enumeration_is_bit_identical() {
        let seq = explore(&sensor_and_display(), &rules(), &ExploreOptions::default()).unwrap();
        for threads in [2usize, 4, 8] {
            let par = explore(
                &sensor_and_display(),
                &rules(),
                &ExploreOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                seq.instances.len(),
                par.instances.len(),
                "threads {threads}"
            );
            for (a, b) in seq.instances.iter().zip(&par.instances) {
                assert_eq!(a.name(), b.name());
                assert_eq!(a.graph(), b.graph());
            }
            assert_eq!(seq.universe.stats.candidates, par.universe.stats.candidates);
            assert_eq!(
                seq.universe.stats.orbits_skipped,
                par.universe.stats.orbits_skipped
            );
            assert_eq!(seq.universe.stats.classes, par.universe.stats.classes);
            assert_eq!(
                seq.universe.stats.certificate_hits,
                par.universe.stats.certificate_hits
            );
            assert_eq!(
                seq.universe.stats.exact_iso_fallbacks,
                par.universe.stats.exact_iso_fallbacks
            );
            assert_eq!(
                seq.universe.stats.disconnected_skipped,
                par.universe.stats.disconnected_skipped
            );
            assert_eq!(
                par.universe.stats.vectors_completed,
                par.universe.stats.vectors_total
            );
            assert_eq!(
                par.universe.stats.candidates_built,
                par.universe.stats.candidates
            );
            assert!(!par.universe.stats.cancelled && !par.universe.stats.resumed);
        }
    }

    #[test]
    fn loop_free_union_skips_cycles() {
        // Two peers that can send to each other: the both-directions
        // composition is cyclic only if flows form a loop through the
        // same actions — rec → send internal flow creates one.
        let mut peer = ComponentModel::new("P", "U_i");
        let rec = peer.action("rec(P_i,msg)");
        let send = peer.action("send(P_i,msg)");
        peer.flow(rec, send);
        let rules = vec![ConnectionRule::new("P", 1, "P", 0)];
        let universe = explore_universe(
            &[(peer, 2)],
            &rules,
            &ExploreOptions {
                require_connected: false,
                ..Default::default()
            },
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(
            universe.loop_skipped > 0,
            "the mutual-send composition is cyclic"
        );
        assert!(universe
            .requirements
            .iter()
            .any(|r| r.antecedent.name() == "rec" && r.consequent.name() == "send"));
    }

    #[test]
    fn resume_is_bit_identical_at_every_interruption_point() {
        // Drive the supervised engine with a countdown cancellation
        // token that trips after k boundary checks, for every k until
        // the run completes uninterrupted; resuming each partial run
        // must reproduce the golden result exactly. batch=1/every=1
        // maximises checkpoint granularity. Run over the whole universe
        // and over a shard that starts and ends mid-vector: three
        // displays lay the vectors out at positions 0, 1, 2, 4, 5, 9, 10
        // of 18, so `3..15` starts at mask 1 of `1xS+1xD` and ends
        // before mask 5 of `1xS+3xD`.
        let mut models = sensor_and_display();
        models[1].1 = 3;
        let rules = rules();
        let lattice = Lattice::new(&models, &rules).unwrap();
        assert_eq!(
            (lattice.position(2, 1), lattice.position(6, 5)),
            (Some(3), Some(15))
        );
        for shard in [None, Some(ShardRange::new(3, 15))] {
            let options = ExploreOptions {
                threads: 2,
                shard,
                ..Default::default()
            };
            let golden =
                enumerate_instances_supervised(&models, &rules, &options, &ExecOptions::default())
                    .unwrap();
            let path = std::env::temp_dir().join(format!(
                "fsa_explore_resume_{}_{:?}.ckpt",
                std::process::id(),
                std::thread::current().id()
            ));
            let mut interruptions = 0usize;
            for k in 1u64..200 {
                let exec = ExecOptions {
                    supervisor: Supervisor::new().with_cancel(CancelToken::countdown(k)),
                    batch: 1,
                    checkpoint: Some(CheckpointSpec {
                        path: path.clone(),
                        every: 1,
                        at_end: true,
                    }),
                    resume: None,
                };
                let partial =
                    enumerate_instances_supervised(&models, &rules, &options, &exec).unwrap();
                if !partial.universe.stats.cancelled {
                    break;
                }
                interruptions += 1;
                let at = format!("shard {shard:?}, k = {k}");
                assert!(
                    partial.universe.stats.vectors_completed < partial.universe.stats.vectors_total
                        || partial.universe.stats.candidates_built
                            < partial.universe.stats.candidates,
                    "{at}: a cancelled run must report incomplete coverage: {:?}",
                    partial.universe.stats
                );
                let resumed = enumerate_instances_supervised(
                    &models,
                    &rules,
                    &options,
                    &ExecOptions {
                        resume: Some(path.clone()),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(resumed.universe.stats.resumed, "{at}");
                assert_eq!(golden.universe.classes, resumed.universe.classes, "{at}");
                assert_eq!(golden.instances.len(), resumed.instances.len(), "{at}");
                for (a, b) in golden.instances.iter().zip(&resumed.instances) {
                    assert_eq!(a.name(), b.name(), "{at}");
                    assert_eq!(a.graph(), b.graph(), "{at}");
                }
                let (g, r) = (&golden.universe.stats, &resumed.universe.stats);
                assert_eq!(g.candidates, r.candidates, "{at}");
                assert_eq!(g.subsets_total, r.subsets_total, "{at}");
                assert_eq!(g.orbits_skipped, r.orbits_skipped, "{at}");
                assert_eq!(g.multiplicity_vectors, r.multiplicity_vectors, "{at}");
                assert_eq!(g.classes, r.classes, "{at}");
                assert_eq!(g.certificate_hits, r.certificate_hits, "{at}");
                assert_eq!(g.exact_iso_fallbacks, r.exact_iso_fallbacks, "{at}");
                assert_eq!(g.disconnected_skipped, r.disconnected_skipped, "{at}");
                assert_eq!(r.vectors_completed, r.vectors_total, "{at}");
                assert_eq!(
                    golden.universe.requirements, resumed.universe.requirements,
                    "{at}"
                );
            }
            assert!(
                interruptions > 1,
                "shard {shard:?}: the countdown interrupted the run {interruptions} time(s)"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_rejects_configuration_mismatch() {
        let models = sensor_and_display();
        let rules = rules();
        let path = std::env::temp_dir().join(format!(
            "fsa_explore_skew_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        let exec = ExecOptions {
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                at_end: true,
            }),
            ..Default::default()
        };
        enumerate_instances_supervised(&models, &rules, &ExploreOptions::default(), &exec).unwrap();
        // Same checkpoint, different configuration: rejected cleanly.
        let err = enumerate_instances_supervised(
            &models,
            &rules,
            &ExploreOptions {
                require_connected: false,
                ..Default::default()
            },
            &ExecOptions {
                resume: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, FsaError::CorruptCheckpoint { .. }),
            "got {err:?}"
        );
        // Missing file: also a clean CorruptCheckpoint.
        std::fs::remove_file(&path).ok();
        let err = enumerate_instances_supervised(
            &models,
            &rules,
            &ExploreOptions::default(),
            &ExecOptions {
                resume: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::CorruptCheckpoint { .. }));
    }

    #[test]
    fn observed_exploration_matches_unobserved_and_counters_mirror_live_stats() {
        let models = sensor_and_display();
        let rules = rules();
        let plain = explore(&models, &rules, &ExploreOptions::default()).expect("plain run");

        // The engine's series go to `ExploreOptions::obs`, the
        // supervisor's to its own handle; checkpoint timing included.
        let path = std::env::temp_dir().join(format!(
            "fsa_explore_obs_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        let (obs, sup_obs) = (Obs::enabled(), Obs::enabled());
        let exec = ExecOptions {
            supervisor: Supervisor::new().with_obs(sup_obs.clone()),
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                at_end: true,
            }),
            ..Default::default()
        };
        let options = ExploreOptions {
            obs: obs.clone(),
            ..Default::default()
        };
        let observed =
            enumerate_instances_supervised(&models, &rules, &options, &exec).expect("observed run");
        assert_eq!(observed.instances.len(), plain.instances.len());
        for (a, b) in plain.instances.iter().zip(&observed.instances) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.graph(), b.graph());
        }
        // Every `explore.*` counter mirrors its live stats field, and
        // every phase span measures the duration the struct holds.
        let snap = obs.snapshot();
        let stats = &observed.universe.stats;
        let mirrored = [
            (
                "explore.multiplicity_vectors",
                stats.multiplicity_vectors as u64,
            ),
            ("explore.subsets_total", stats.subsets_total as u64),
            ("explore.orbits_skipped", stats.orbits_skipped as u64),
            ("explore.candidates", stats.candidates as u64),
            (
                "explore.disconnected_skipped",
                stats.disconnected_skipped as u64,
            ),
            ("explore.certificate_hits", stats.certificate_hits as u64),
            (
                "explore.exact_iso_fallbacks",
                stats.exact_iso_fallbacks as u64,
            ),
            ("explore.classes", stats.classes as u64),
            ("explore.truncated", u64::from(stats.truncated)),
            ("explore.threads", stats.threads as u64),
            ("explore.vectors_total", stats.vectors_total as u64),
            ("explore.vectors_completed", stats.vectors_completed as u64),
            ("explore.candidates_built", stats.candidates_built as u64),
            ("explore.failures", stats.failures as u64),
            ("explore.retries", stats.retries),
            ("explore.cancelled", u64::from(stats.cancelled)),
            ("explore.resumed", u64::from(stats.resumed)),
            (
                "explore.checkpoints_written",
                stats.checkpoints_written as u64,
            ),
        ];
        for (name, live) in mirrored {
            assert_eq!(snap.counter(name), Some(live), "{name}");
        }
        assert_eq!(
            snap.counters
                .iter()
                .filter(|c| c.name.starts_with("explore."))
                .count(),
            mirrored.len(),
            "every explore.* counter is checked above"
        );
        assert_eq!(snap.span_count("explore"), 1);
        for (phase, live) in [
            ("explore.scan", stats.scan_time),
            ("explore.build", stats.build_time),
            ("explore.dedup", stats.dedup_time),
        ] {
            assert!(snap.span_count(phase) >= 1, "{phase}");
            assert_eq!(snap.span_total(phase), live, "{phase}");
        }
        assert!(snap.span_count("checkpoint.write") >= 1);
        assert_eq!(
            snap.histogram("checkpoint.write").map(|h| h.count),
            Some(observed.universe.stats.checkpoints_written as u64)
        );
        assert!(snap
            .counters
            .iter()
            .all(|c| !c.name.starts_with("supervisor.")));
        let sup_snap = sup_obs.snapshot();
        assert_eq!(
            sup_snap.counter("supervisor.chunks"),
            Some(observed.universe.stats.candidates_built as u64)
        );
        assert!(sup_snap
            .counters
            .iter()
            .all(|c| c.name.starts_with("supervisor.")));
        assert!(sup_snap.spans.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_inconsistent_counters() {
        // Regression: checkpoint counters used to be re-based with
        // `(offset + n as i64).max(0) as usize`, silently clamping a
        // wrapped/underflowed counter to zero. A tampered (or
        // bit-rotted) counter must instead fail closed.
        let models = sensor_and_display();
        let rules = rules();
        let path = std::env::temp_dir().join(format!(
            "fsa_explore_badctr_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        let exec = ExecOptions {
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                at_end: true,
            }),
            ..Default::default()
        };
        enumerate_instances_supervised(&models, &rules, &ExploreOptions::default(), &exec).unwrap();

        // Tamper: a counter far beyond any reachable magnitude (wraps
        // negative through an unchecked `as i64` conversion).
        let mut cp = ExploreCheckpoint::read(&path).unwrap();
        cp.counters.certificate_hits = usize::MAX;
        cp.write(&path).unwrap();
        let err = enumerate_instances_supervised(
            &models,
            &rules,
            &ExploreOptions::default(),
            &ExecOptions {
                resume: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FsaError::CorruptCheckpoint { reason }
                if reason.contains("certificate-hit")),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counter_rebase_fails_closed_on_underflow() {
        assert_eq!(rebase_counter(-3, 10, "certificate-hit").unwrap(), 7);
        assert_eq!(rebase_counter(5, 0, "certificate-hit").unwrap(), 5);
        let err = rebase_counter(-11, 10, "certificate-hit").unwrap_err();
        assert!(
            matches!(&err, FsaError::CorruptCheckpoint { reason }
                if reason.contains("underflow")),
            "got {err:?}"
        );
        assert!(resume_offset(usize::MAX, 0, "certificate-hit").is_err());
        assert_eq!(resume_offset(3, 10, "certificate-hit").unwrap(), -7);
    }

    #[test]
    fn resume_from_completed_checkpoint_is_idempotent() {
        let models = sensor_and_display();
        let rules = rules();
        let path = std::env::temp_dir().join(format!(
            "fsa_explore_idem_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        let exec = ExecOptions {
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                at_end: true,
            }),
            ..Default::default()
        };
        let golden =
            enumerate_instances_supervised(&models, &rules, &ExploreOptions::default(), &exec)
                .unwrap();
        let resumed = enumerate_instances_supervised(
            &models,
            &rules,
            &ExploreOptions::default(),
            &ExecOptions {
                resume: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(resumed.universe.stats.resumed);
        assert_eq!(golden.instances.len(), resumed.instances.len());
        for (a, b) in golden.instances.iter().zip(&resumed.instances) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.graph(), b.graph());
        }
        assert_eq!(
            golden.universe.stats.candidates,
            resumed.universe.stats.candidates
        );
        assert_eq!(
            golden.universe.stats.certificate_hits,
            resumed.universe.stats.certificate_hits
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadline_cancellation_degrades_to_partial_with_coverage() {
        // An already-expired deadline cancels at the first boundary:
        // the run returns an empty partial universe with full coverage
        // accounting instead of hanging or erroring.
        let exec = ExecOptions {
            supervisor: Supervisor::new().with_cancel(CancelToken::with_deadline(Duration::ZERO)),
            ..Default::default()
        };
        let out = enumerate_instances_supervised(
            &sensor_and_display(),
            &rules(),
            &ExploreOptions::default(),
            &exec,
        )
        .unwrap();
        assert!(out.universe.stats.cancelled);
        assert_eq!(out.universe.stats.vectors_completed, 0);
        assert!(out.universe.stats.vectors_total > 0);
        assert!(out.instances.is_empty());
        let rendered = out.universe.stats.to_string();
        assert!(rendered.contains("cancelled"), "{rendered}");
        assert!(rendered.contains("vector coverage"), "{rendered}");
    }

    #[test]
    fn stats_render_mentions_key_counters() {
        let e = explore(&sensor_and_display(), &rules(), &ExploreOptions::default()).unwrap();
        let rendered = e.universe.stats.to_string();
        for needle in ["candidates", "classes", "orbit-skipped", "certificate hits"] {
            assert!(rendered.contains(needle), "missing {needle}: {rendered}");
        }
    }

    #[test]
    fn shard_partition_is_exact_and_ordered() {
        for total in [0u64, 1, 2, 5, 7, 26, 100] {
            for shards in [1usize, 2, 3, 4, 7, 150] {
                let parts = ShardRange::partition(total, shards);
                // Never more shards than ordinals, so no range is empty
                // (or equal to another) unless the space itself is.
                let expected = shards.clamp(1, total.max(1) as usize);
                assert_eq!(parts.len(), expected, "total {total} shards {shards}");
                if total > 0 {
                    assert!(
                        parts.iter().all(|p| !p.is_empty()),
                        "total {total} shards {shards}: {parts:?}"
                    );
                }
                // Contiguous, in order, no gap, no overlap, full cover.
                let mut cursor = 0u64;
                for part in &parts {
                    assert_eq!(part.start, cursor, "total {total} shards {shards}");
                    assert!(part.end >= part.start);
                    cursor = part.end;
                }
                assert_eq!(cursor, total, "total {total} shards {shards}");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<u64> = parts.iter().map(ShardRange::len).collect();
                let min = sizes.iter().min().copied().unwrap();
                let max = sizes.iter().max().copied().unwrap();
                assert!(max - min <= 1, "total {total} shards {shards}: {sizes:?}");
            }
        }
        // Zero shards is clamped to one covering shard.
        assert_eq!(ShardRange::partition(9, 0), vec![ShardRange::new(0, 9)]);
        // An empty space is one empty shard, whatever was asked for.
        assert_eq!(ShardRange::partition(0, 8), vec![ShardRange::new(0, 0)]);
        // More shards than positions: one position each.
        assert_eq!(
            ShardRange::partition(5, 8),
            (0..5)
                .map(|i| ShardRange::new(i, i + 1))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn bad_shard_ranges_are_rejected() {
        let models = sensor_and_display();
        let exec = ExecOptions::default();
        // start beyond end.
        let err = enumerate_instances_supervised(
            &models,
            &rules(),
            &ExploreOptions {
                shard: Some(ShardRange { start: 3, end: 2 }),
                ..Default::default()
            },
            &exec,
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::InvalidShard { .. }), "{err}");
        // end beyond the universe.
        let total = Lattice::new(&models, &rules()).unwrap().positions();
        let err = enumerate_instances_supervised(
            &models,
            &rules(),
            &ExploreOptions {
                shard: Some(ShardRange::new(0, total + 1)),
                ..Default::default()
            },
            &exec,
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::InvalidShard { .. }), "{err}");
        // Budget truncation is not shard-deterministic.
        let err = enumerate_instances_supervised(
            &models,
            &rules(),
            &ExploreOptions {
                shard: Some(ShardRange::new(0, 1)),
                on_budget: BudgetPolicy::Truncate,
                max_candidates: 1,
                ..Default::default()
            },
            &exec,
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::InvalidShard { .. }), "{err}");
    }

    #[test]
    fn sharded_runs_merge_bit_identically() {
        let models = sensor_and_display();
        let rules = rules();
        for require_connected in [true, false] {
            let options = ExploreOptions {
                require_connected,
                ..Default::default()
            };
            let exec = ExecOptions::default();
            let golden = explore_universe(&models, &rules, &options, &exec).unwrap();
            let total = Lattice::new(&models, &rules).unwrap().positions();
            for shards in [1usize, 2, 3, 5, 11] {
                let mut parts = Vec::new();
                let (mut candidates, mut vectors) = (0usize, 0usize);
                for range in ShardRange::partition(total, shards) {
                    let part = explore_universe(
                        &models,
                        &rules,
                        &ExploreOptions {
                            shard: Some(range),
                            ..options.clone()
                        },
                        &exec,
                    )
                    .unwrap();
                    assert!(!part.stats.cancelled);
                    candidates += part.stats.candidates;
                    vectors += part.stats.multiplicity_vectors;
                    parts.push((part.accepted(), part.unions));
                }
                let at = format!("shards {shards} connected {require_connected}");
                for shipped in [false, true] {
                    let logs: Vec<ShardLog> = parts
                        .iter()
                        .map(|(accepted, unions)| ShardLog {
                            accepted,
                            unions: shipped.then_some(unions.as_slice()),
                        })
                        .collect();
                    let merged = merge_accepted(&models, &rules, &logs).unwrap().universe;
                    assert_eq!(merged.classes, golden.classes, "{at} {shipped}");
                    assert_eq!(merged.requirements, golden.requirements, "{at} {shipped}");
                    assert_eq!(merged.loop_skipped, golden.loop_skipped, "{at} {shipped}");
                    assert_eq!(merged.unions, golden.unions, "{at} {shipped}");
                }
                // Every shard scans its own slice of the lattice, so the
                // summed counts match the unsharded run.
                assert_eq!(candidates, golden.stats.candidates, "{at}");
                assert_eq!(vectors, golden.stats.multiplicity_vectors, "{at}");
            }
        }
    }

    /// The merge that recomputes every entry's certificate on its rows,
    /// as it did before accepted logs carried certificates: the oracle
    /// of [`merge_accepted`].
    fn recomputing_merge(
        models: &[(ComponentModel, usize)],
        rules: &[ConnectionRule],
        log: &[Accepted],
    ) -> MergedExploration {
        let resolved = resolve_rules(models, rules).unwrap();
        let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
        let mut classes = ClassMap::new(models, &resolved);
        let mut duplicates = 0usize;
        for run in log.chunk_by(|a, b| a.ordinal == b.ordinal) {
            let ordinal = run[0].ordinal;
            classes.enter(ordinal, &vector_of(ordinal, &maxes)).unwrap();
            for entry in run {
                let built = build_candidate(classes.prototype(), entry.mask, false).unwrap();
                if !classes
                    .offer(entry.mask, built.certificate, Founder::Built(built.class))
                    .unwrap()
                {
                    duplicates += 1;
                }
            }
        }
        let stats = ExploreStats {
            classes: classes.classes.len(),
            certificate_hits: classes.certified.certificate_hits(),
            exact_iso_fallbacks: classes.certified.exact_fallbacks(),
            ..ExploreStats::default()
        };
        MergedExploration {
            universe: classes.finish(stats),
            duplicates,
        }
    }

    #[test]
    fn carried_certificates_merge_like_the_recomputing_oracle() {
        // Random universes cut at random positions, mid-vector included:
        // every certificate a shard carries is its entry's row
        // certificate, and merging under the carried certificates equals
        // the merge that recomputes them.
        let mut cut_mid_vector = 0;
        for seed in 0..32u64 {
            let (models, rules) = random_universe(seed);
            let options = ExploreOptions {
                require_connected: seed % 2 == 0,
                max_candidates: usize::MAX,
                ..Default::default()
            };
            let exec = ExecOptions::default();
            let golden = explore_universe(&models, &rules, &options, &exec).unwrap();
            let lattice = Lattice::new(&models, &rules).unwrap();
            let total = lattice.positions();
            let mut cuts: Vec<u64> = (1..4u64)
                .map(|k| (seed.wrapping_mul(0x9e37_79b9) + k * 7919) % total.max(1))
                .chain([0, total])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let resolved = resolve_rules(&models, &rules).unwrap();
            let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
            let mut log = Vec::new();
            let mut parts = Vec::new();
            for pair in cuts.windows(2) {
                let shard = ShardRange::new(pair[0], pair[1]);
                let part = explore_universe(
                    &models,
                    &rules,
                    &ExploreOptions {
                        shard: Some(shard),
                        ..options.clone()
                    },
                    &exec,
                )
                .unwrap();
                for entry in part.accepted() {
                    let prototype =
                        Prototype::new(&models, &resolved, &vector_of(entry.ordinal, &maxes))
                            .unwrap();
                    let built = build_candidate(&prototype, entry.mask, false).unwrap();
                    assert_eq!(
                        entry.certificate, built.certificate,
                        "seed {seed} {entry:?}"
                    );
                }
                log.extend(part.accepted());
                parts.push((part.accepted(), part.unions));
                cut_mid_vector +=
                    usize::from(lattice.slice(lattice.ordinals(shard).start, shard).0 .0 > 0);
            }
            let carried = merge_accepted(
                &models,
                &rules,
                &[ShardLog {
                    accepted: &log,
                    unions: None,
                }],
            )
            .unwrap();
            let oracle = recomputing_merge(&models, &rules, &log);
            // The shards' shipped unions stand in for the χ of every
            // shard and vector whose entries all found a class.
            let logs: Vec<ShardLog> = parts
                .iter()
                .map(|(accepted, unions)| ShardLog {
                    accepted,
                    unions: Some(unions),
                })
                .collect();
            let shipped = merge_accepted(&models, &rules, &logs).unwrap();
            assert_eq!(shipped.universe.classes, golden.classes, "seed {seed}");
            assert_eq!(
                shipped.universe.requirements, golden.requirements,
                "seed {seed}"
            );
            assert_eq!(shipped.universe.loop_skipped, golden.loop_skipped);
            assert_eq!(shipped.universe.unions, golden.unions, "seed {seed}");
            assert_eq!(shipped.duplicates, oracle.duplicates, "seed {seed}");
            assert_eq!(
                carried.universe.classes, oracle.universe.classes,
                "seed {seed}"
            );
            assert_eq!(carried.universe.classes, golden.classes, "seed {seed}");
            assert_eq!(
                carried.universe.requirements, oracle.universe.requirements,
                "seed {seed}"
            );
            assert_eq!(
                carried.universe.requirements, golden.requirements,
                "seed {seed}"
            );
            assert_eq!(carried.universe.loop_skipped, oracle.universe.loop_skipped);
            assert_eq!(carried.duplicates, oracle.duplicates, "seed {seed}");
            let (c, o) = (&carried.universe.stats, &oracle.universe.stats);
            assert_eq!(
                (c.certificate_hits, c.exact_iso_fallbacks),
                (o.certificate_hits, o.exact_iso_fallbacks),
                "seed {seed}"
            );
        }
        assert!(
            cut_mid_vector > 10,
            "{cut_mid_vector} shards start mid-vector"
        );
    }

    /// The log entry of vector `ordinal`'s mask `mask`, certified on its
    /// rows.
    fn entry(models: &[(ComponentModel, usize)], ordinal: u64, mask: u64) -> Accepted {
        let resolved = resolve_rules(models, &[]).unwrap();
        let maxes: Vec<usize> = models.iter().map(|(_, max)| *max).collect();
        let prototype = Prototype::new(models, &resolved, &vector_of(ordinal, &maxes)).unwrap();
        Accepted {
            ordinal,
            mask,
            certificate: build_candidate(&prototype, mask, false)
                .unwrap()
                .certificate,
        }
    }

    #[test]
    fn classes_dedup_across_vectors_on_rebuilt_shape_graphs() {
        // Two models with the same action templates: the single copy of
        // either composes the same shape, so the second vector's
        // candidate hits the first vector's bucket, and the exact check
        // rebuilds the representative from the other vector's prototype.
        let model = |name: &str| {
            let mut m = ComponentModel::new(name, "U_i");
            let rec = m.action("rec(C_i,v)");
            let show = m.action("show(H_i,v)");
            m.flow(rec, show);
            (m, 1)
        };
        let models = vec![model("A"), model("B")];
        let universe = explore_universe(
            &models,
            &[],
            &ExploreOptions::default(),
            &ExecOptions::default(),
        )
        .unwrap();
        // 1xA founds the class, 1xB duplicates it, 1xA+1xB is not
        // connected.
        assert_eq!(universe.accepted(), vec![entry(&models, 0, 0)]);
        let stats = &universe.stats;
        assert_eq!((stats.certificate_hits, stats.exact_iso_fallbacks), (1, 1));
        assert_eq!(stats.disconnected_skipped, 1);
        assert_eq!(universe.requirements.len(), 1);
        let log = [entry(&models, 0, 0), entry(&models, 1, 0)];
        let merged = merge_accepted(
            &models,
            &[],
            &[ShardLog {
                accepted: &log,
                unions: None,
            }],
        )
        .unwrap();
        assert_eq!(merged.duplicates, 1);
        assert_eq!(merged.universe.classes, universe.classes);
        assert_eq!(merged.universe.requirements, universe.requirements);
    }

    #[test]
    fn merge_rejects_unsorted_and_out_of_range_logs() {
        let models = sensor_and_display();
        let rules = rules();
        let at = |ordinal, mask| Accepted {
            ordinal,
            mask,
            certificate: 0,
        };
        let merge = |log: &[Accepted]| {
            merge_accepted(
                &models,
                &rules,
                &[ShardLog {
                    accepted: log,
                    unions: None,
                }],
            )
        };
        let total = Lattice::new(&models, &rules).unwrap().vectors();
        for log in [
            &[at(1, 0), at(0, 0)][..],
            &[at(0, 0), at(0, 0)],
            &[at(total, 0)],
            &[at(0, u64::MAX)],
        ] {
            let err = merge(log).unwrap_err();
            assert!(matches!(err, FsaError::CorruptCheckpoint { .. }), "{err}");
        }
        // Two shards whose logs overlap.
        let (first, second) = ([at(1, 0)], [at(0, 0)]);
        let err = merge_accepted(
            &models,
            &rules,
            &[
                ShardLog {
                    accepted: &first,
                    unions: None,
                },
                ShardLog {
                    accepted: &second,
                    unions: None,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, FsaError::CorruptCheckpoint { .. }), "{err}");
    }

    #[test]
    fn malformed_unions_are_rejected() {
        // 1xS, one node, founds the first class.
        let models = sensor_and_display();
        let rules = rules();
        let golden = explore_universe(
            &models,
            &rules,
            &ExploreOptions::default(),
            &ExecOptions::default(),
        )
        .unwrap();
        let log = golden.accepted();
        let good = golden.unions[0].clone();
        assert_eq!(
            good,
            VectorChi {
                ordinal: 0,
                nodes: 1,
                cyclic: 0,
                rows: vec![0],
            }
        );
        let merge = |union: VectorChi| {
            let unions = [union];
            merge_accepted(
                &models,
                &rules,
                &[ShardLog {
                    accepted: &log[..1],
                    unions: Some(&unions),
                }],
            )
            .map(|_| ())
        };
        merge(good.clone()).unwrap();
        let bad = [
            (
                "words",
                VectorChi {
                    rows: vec![0; 2],
                    ..good.clone()
                },
            ),
            (
                "beyond",
                VectorChi {
                    rows: vec![0b10],
                    ..good.clone()
                },
            ),
            (
                "rows",
                VectorChi {
                    nodes: 2,
                    rows: vec![0; 2],
                    ..good.clone()
                },
            ),
            (
                "entry",
                VectorChi {
                    ordinal: 1,
                    ..good.clone()
                },
            ),
            (
                "cyclic",
                VectorChi {
                    cyclic: 2,
                    ..good.clone()
                },
            ),
        ];
        for (what, union) in bad {
            let err = merge(union).unwrap_err();
            assert!(
                matches!(&err, FsaError::CorruptCheckpoint { reason } if reason.contains("χ union")),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn only_a_checkpoint_at_end_writes_a_completed_run() {
        // Fewer candidates than `every`: the run writes its final
        // boundary checkpoint only when asked for it.
        let models = sensor_and_display();
        let rules = rules();
        let path = std::env::temp_dir().join(format!(
            "fsa_explore_at_end_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        for at_end in [false, true] {
            std::fs::remove_file(&path).ok();
            let exec = ExecOptions {
                checkpoint: Some(CheckpointSpec {
                    path: path.clone(),
                    every: 1 << 20,
                    at_end,
                }),
                ..Default::default()
            };
            let universe =
                explore_universe(&models, &rules, &ExploreOptions::default(), &exec).unwrap();
            assert_eq!(universe.stats.checkpoints_written, usize::from(at_end));
            assert_eq!(path.exists(), at_end);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lattice_positions_follow_the_vectors_masks() {
        let models = sensor_and_display();
        let lattice = Lattice::new(&models, &rules()).unwrap();
        // 1xS, 1xD, 1xS+1xD (1 flow), 2xD, 1xS+2xD (2 flows).
        assert_eq!((lattice.vectors(), lattice.positions()), (5, 9));
        assert_eq!(lattice.position(2, 1), Some(3));
        assert_eq!(lattice.position(2, 2), None);
        assert_eq!(lattice.position(5, 0), None);
        let shard = ShardRange::new(3, 6);
        assert_eq!(lattice.ordinals(shard), 2..5);
        assert_eq!(lattice.slice(2, shard), ((1, 2), false));
        assert_eq!(lattice.slice(3, shard), ((0, 1), true));
        assert_eq!(lattice.slice(4, shard), ((0, 1), true));
        assert_eq!(lattice.ordinals(ShardRange::new(6, 9)), 4..5);
        assert_eq!(lattice.ordinals(ShardRange::new(4, 4)), 0..0);
    }
}
