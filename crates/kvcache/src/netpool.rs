//! The cluster-shared network KV tier (third tier of the hierarchical cache).
//!
//! Every instance of a deployment serves the same model, so prefix KV computed on one
//! instance is byte-for-byte reusable on another — if it can be fetched over the
//! network.  [`NetKvPool`] is that tier: a capacity-bounded, deterministically
//! LRU-evicted map from block-content hashes to block-sized KV entries, fed by CPU-tier
//! evictions (gated by the single-use spill filter, see
//! [`KvCacheManager`](crate::KvCacheManager)) and read by any instance of the
//! deployment.
//!
//! # Sharing semantics (snapshot + deterministic merge)
//!
//! The pool is owned by the *cluster*, not by an instance.  At the start of a replay
//! window each instance receives a snapshot of the shared pool; during the window it
//! reads that snapshot (plus its own contributions) and records its spills locally; at
//! the end the per-instance snapshots are merged back into the shared pool in
//! instance-id order.  Cross-instance sharing therefore materialises at snapshot
//! boundaries — modelling the propagation delay of a real network tier, and (crucially)
//! keeping the parallel per-instance replay byte-identical to the sequential reference:
//! no mid-run cross-thread communication exists to race on.
//!
//! # Within-window propagation (publish timestamps)
//!
//! Every entry carries a *publish* timestamp: the virtual time at which the spill
//! becomes visible cluster-wide, `spill time + propagation delay`
//! ([`NetKvPool::with_propagation_delay`]).  A cluster configured with a finite
//! `net_propagation_ms` splits each replay window into propagation *epochs* and
//! installs per-instance views filtered to entries already published at epoch start —
//! so a spill surfaces on other instances at the first epoch boundary past its publish
//! time instead of waiting for the window's end.  Entries published after the window
//! started are additionally flagged, so reloads that were only possible because of
//! mid-window propagation can be accounted separately
//! ([`NetKvPool::reload_prefix_accounted`]).  With a zero delay (the default) the
//! timestamps are inert and sharing happens exactly at window boundaries, as before.
//!
//! # Delta views (copy-on-write snapshots)
//!
//! Cloning the whole pool into every instance at every propagation epoch costs
//! O(pool × instances) per boundary, which dominated fleet-scale replays.  A
//! [`NetPoolView`] is the remedy: the shared pool keeps its state behind an `Arc`, a
//! view holds a reference to that state plus the epoch's visibility filter
//! (`visible_at`, owner) and a private *overlay* of entries the instance touched or
//! added during the epoch.  Reads consult the overlay first and fall back to the
//! (filtered) base; writes only ever land in the overlay.  An epoch boundary then
//! costs O(entries actually touched): [`NetPoolView::into_delta`] surrenders just the
//! overlay and [`NetKvPool::absorb`] replays it — oldest-first, exactly like
//! [`NetKvPool::merge_from`] — into the shared pool.
//!
//! The overlay replay is provably identical to the legacy materialise-and-merge as
//! long as *no eviction* happens, because then merges are per-entry commutative
//! (publication keeps the minimum, origins union, recency moves forward only) and an
//! entry absent from the overlay merges as a no-op touch.  Two guards keep the fast
//! path honest: a view near pool capacity materialises itself into a dense
//! [`NetKvPool`] *before* any insert could evict (so snapshot-local eviction order is
//! exactly the legacy one), and the cluster falls back to the dense merge for a whole
//! boundary unless every view still shares the pool's state
//! ([`NetPoolView::shares_base`]) and the worst-case growth fits capacity
//! ([`NetPoolView::merge_added_upper_bound`]).
//!
//! To let routing-probe memoisation survive boundaries, the pool also keeps a
//! publish-ordered log of unsettled publications: [`NetKvPool::published_in`] answers
//! "did any entry's visibility flip between these two epoch starts?" in O(log n),
//! and [`NetKvPool::meta_generation`] tracks publication-metadata changes the content
//! [`NetKvPool::generation`] deliberately ignores.
//!
//! Unlike [`CpuKvPool`](crate::CpuKvPool), the pool keeps no statistics of its own:
//! it is swapped in and out of managers every window, so the owning
//! [`KvCacheManager`](crate::KvCacheManager) accounts spills, reloads and evictions in
//! its cumulative [`OffloadStats`](crate::OffloadStats) instead.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use simcore::{SimDuration, SimTime};

use crate::hash::TokenBlockHash;

/// One resident block of the network tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetEntry {
    /// Recency, drives LRU eviction.
    last_used: SimTime,
    /// When the block becomes visible cluster-wide (`spill time + propagation
    /// delay`); a merge keeps the *earliest* publication of duplicate content.
    published: SimTime,
    /// Bitmask of the instances that spilled the content this window (bit `i` for
    /// instance `i`, instances ≥ 63 sharing the top bit — see [`origin_bit`]; 0 for
    /// settled pre-window contents and warm seeds).  Merges take the union, so
    /// *every* spiller keeps sight of its own write no matter whose publication is
    /// kept.
    origins: u64,
    /// Whether this entry reached the holding pool through mid-window propagation
    /// from *another* instance (set only when a visibility-filtered snapshot or view
    /// surfaces it; reloads of flagged entries are accounted as propagated reloads —
    /// an instance re-reading its own same-window spill is not propagation, because
    /// the window-boundary model serves that reload too).
    propagated: bool,
}

/// The [`NetEntry::origins`] bit of one instance (0 for the shared pool itself).
/// Instances from 63 upwards share the top bit: within that bucket spills are
/// mutually visible without delay and their reloads are treated as own-spill reads
/// — i.e. *not* counted as propagation wins — so the bucketing can only
/// under-state, never inflate, the within-window propagation accounting.
fn origin_bit(owner: Option<usize>) -> u64 {
    match owner {
        Some(id) => 1 << id.min(63),
        None => 0,
    }
}

/// Byte and block accounting of one [`NetKvPool::reload_prefix_accounted`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetReload {
    /// Bytes that must cross the network link.
    pub bytes: u64,
    /// Reloaded blocks that were only present thanks to mid-window propagation.
    pub propagated_blocks: u64,
}

/// The interior of a [`NetKvPool`], shared between the pool and its outstanding
/// [`NetPoolView`]s through an `Arc`.  All map/index invariants live here so that
/// the copy-on-write discipline has a single unit of cloning.
#[derive(Debug, Clone, Default)]
struct NetState {
    entries: HashMap<TokenBlockHash, NetEntry>,
    /// Eviction order: `(last_used, hash)` for every entry, oldest first.
    lru: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Publish order: `(published, hash)` for every entry with a non-zero publish
    /// timestamp (settled entries are not logged).  Lets the cluster ask in
    /// O(log n) whether any entry's visibility flips between two epoch starts.
    publish_log: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Bumped whenever an entry is inserted or removed (recency refreshes do not
    /// count), so probe memoisation can extend to the network tier.
    generation: u64,
    /// Bumped whenever publication *metadata* changes in a way that can alter some
    /// instance's visible set or propagation flags: an entry's publish timestamp
    /// moving earlier, its origin set growing while still unsettled, or a
    /// [`NetKvPool::settle`].  Origin growth on settled (publish-zero) entries is
    /// deliberately not counted — such entries are already visible to everyone and
    /// can never be flagged as propagated.
    meta_generation: u64,
}

impl NetState {
    /// Refreshes an entry's recency, never moving it backwards (a spill of a stale
    /// duplicate must not demote an entry a recent reload marked hot).  A duplicate
    /// spill also keeps the *earliest* publication — content already on its way to
    /// the cluster does not restart its propagation clock — while the spiller joins
    /// the entry's origin set either way.
    fn touch(&mut self, hash: TokenBlockHash, now: SimTime, publication: Option<(SimTime, u64)>) {
        if let Some(entry) = self.entries.get_mut(&hash) {
            if let Some((published, origins)) = publication {
                if published < entry.published {
                    if entry.published > SimTime::ZERO {
                        self.publish_log.remove(&(entry.published, hash));
                    }
                    entry.published = published;
                    if published > SimTime::ZERO {
                        self.publish_log.insert((published, hash));
                    }
                    self.meta_generation += 1;
                }
                if entry.origins | origins != entry.origins {
                    entry.origins |= origins;
                    if entry.published > SimTime::ZERO {
                        self.meta_generation += 1;
                    }
                }
            }
            let previous = entry.last_used;
            if previous < now {
                self.lru.remove(&(previous, hash));
                entry.last_used = now;
                self.lru.insert((now, hash));
            }
        }
    }

    /// Inserts a new entry (the hash must not be resident), evicting the LRU victim
    /// first if the pool is full — the one place the eviction/insert/generation
    /// discipline lives, shared by [`NetKvPool::offload_spilled`],
    /// [`NetKvPool::merge_from`] and [`NetKvPool::absorb`].  Returns how many
    /// residents were displaced (0 or 1).
    fn insert_entry(
        &mut self,
        capacity_blocks: u64,
        hash: TokenBlockHash,
        last_used: SimTime,
        published: SimTime,
        origins: u64,
    ) -> u64 {
        debug_assert!(capacity_blocks > 0 && !self.entries.contains_key(&hash));
        let mut evicted = 0;
        if self.entries.len() as u64 >= capacity_blocks {
            if let Some((_, victim)) = self.lru.pop_first() {
                if let Some(old) = self.entries.remove(&victim) {
                    if old.published > SimTime::ZERO {
                        self.publish_log.remove(&(old.published, victim));
                    }
                }
                self.generation += 1;
                evicted += 1;
            }
        }
        self.entries.insert(
            hash,
            NetEntry {
                last_used,
                published,
                origins,
                propagated: false,
            },
        );
        self.lru.insert((last_used, hash));
        if published > SimTime::ZERO {
            self.publish_log.insert((published, hash));
        }
        self.generation += 1;
        evicted
    }
}

/// A capacity-bounded, cluster-shared pool of KV blocks behind the network link.
///
/// Deterministic like the CPU tier: eviction order is `(last_used, hash)`, oldest
/// first, with the hash as the tie-break so map iteration order never leaks into
/// behaviour.
///
/// ```
/// use kvcache::{hash_token_blocks, NetKvPool};
/// use simcore::SimTime;
///
/// let block_bytes = 16 * 128 * 1024; // 16 tokens x 128 KiB/token
/// let mut pool = NetKvPool::new(1 << 30, block_bytes);
/// let tokens: Vec<u32> = (0..160).collect();
/// let hashes = hash_token_blocks(&tokens, 16);
/// let (written, evicted) = pool.offload(&hashes, SimTime::ZERO);
/// assert_eq!((written, evicted), (10, 0));
/// assert_eq!(pool.lookup_prefix_blocks(&hashes), 10);
/// ```
#[derive(Debug, Clone)]
pub struct NetKvPool {
    block_bytes: u64,
    capacity_blocks: u64,
    /// Shared with outstanding [`NetPoolView`]s; mutations go through
    /// [`Arc::make_mut`], so a pool whose state is still referenced by views clones
    /// once on first write and in-place thereafter.
    state: Arc<NetState>,
    /// How long after a spill its content becomes visible cluster-wide (applied to
    /// the publish timestamp at [`Self::offload`] time; zero = immediate).
    propagation_delay: SimDuration,
    /// The instance this pool is an installed snapshot of (`None` for the shared
    /// pool itself); stamps the origin of every spill recorded into the snapshot.
    owner: Option<usize>,
}

impl NetKvPool {
    /// Creates a pool of `capacity_bytes` holding blocks of `block_bytes` each (the
    /// full KV of one token-block, all layers).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn new(capacity_bytes: u64, block_bytes: u64) -> NetKvPool {
        assert!(block_bytes > 0, "block size in bytes must be positive");
        NetKvPool {
            block_bytes,
            capacity_blocks: capacity_bytes / block_bytes,
            state: Arc::new(NetState::default()),
            propagation_delay: SimDuration::ZERO,
            owner: None,
        }
    }

    /// Sets the cluster-wide propagation delay applied to every future spill's
    /// publish timestamp (see the module docs).
    pub fn with_propagation_delay(mut self, delay: SimDuration) -> NetKvPool {
        self.propagation_delay = delay;
        self
    }

    /// The configured propagation delay.
    pub fn propagation_delay(&self) -> SimDuration {
        self.propagation_delay
    }

    /// Bytes of KV held per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Maximum number of blocks the pool can hold.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of blocks currently resident.
    pub fn resident_blocks(&self) -> u64 {
        self.state.entries.len() as u64
    }

    /// Bytes currently occupied.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_bytes
    }

    /// Monotonically increasing counter that changes exactly when the pool *contents*
    /// change.  While it is unchanged, every [`Self::lookup_prefix_blocks`] answer
    /// remains valid (the contract probe memoisation relies on).
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// Monotonically increasing counter that changes when publication *metadata*
    /// changes in a visibility-relevant way (publication-time lowering, origin
    /// growth on an unsettled entry, settling).  Together with
    /// [`Self::generation`] and [`Self::published_in`] it lets the cluster prove
    /// a propagation-epoch boundary changed nobody's visible set.
    pub fn meta_generation(&self) -> u64 {
        self.state.meta_generation
    }

    /// Whether any resident entry's publish timestamp lies in `(after, upto]` —
    /// i.e. whether an epoch boundary moving the visibility horizon from `after`
    /// to `upto` surfaces anything new.  O(log n).
    pub fn published_in(&self, after: SimTime, upto: SimTime) -> bool {
        if upto <= after {
            return false;
        }
        self.state
            .publish_log
            .range((
                Bound::Excluded((after, TokenBlockHash(u64::MAX))),
                Bound::Included((upto, TokenBlockHash(u64::MAX))),
            ))
            .next()
            .is_some()
    }

    /// Publication metadata of one resident entry — `(published, origins)` — or
    /// `None` if the hash is not resident.  Read-only introspection for shadow-model
    /// tests of the spill paths; simulation code never consults it.
    pub fn entry_meta(&self, hash: TokenBlockHash) -> Option<(SimTime, u64)> {
        self.state
            .entries
            .get(&hash)
            .map(|e| (e.published, e.origins))
    }

    /// Admits the given block-hash chain into the pool, evicting the
    /// least-recently-used entries if it is full.  New entries publish at
    /// `now + propagation_delay`.
    ///
    /// Returns `(written, evicted)`: how many blocks were actually inserted (existing
    /// entries are refreshed, not duplicated) and how many residents were displaced.
    pub fn offload(&mut self, hashes: &[TokenBlockHash], now: SimTime) -> (u64, u64) {
        self.offload_spilled(hashes, now, now)
    }

    /// Like [`Self::offload`], but separating the entries' LRU recency
    /// (`last_used`, carried down the tier hierarchy so the net tier's eviction
    /// order extends the CPU tier's) from the virtual time the spill actually
    /// happens (`spilled_at`, which starts the propagation clock).  The eviction
    /// cascade spills *cold* blocks — anchoring publication to their stale recency
    /// would publish them in the past and bypass the configured delay.
    pub fn offload_spilled(
        &mut self,
        hashes: &[TokenBlockHash],
        last_used: SimTime,
        spilled_at: SimTime,
    ) -> (u64, u64) {
        let mut written = 0;
        let mut evicted = 0;
        let published = spilled_at + self.propagation_delay;
        let origins = origin_bit(self.owner);
        let capacity = self.capacity_blocks;
        if capacity == 0 {
            return (0, 0);
        }
        let state = Arc::make_mut(&mut self.state);
        for hash in hashes {
            if let Some(entry) = state.entries.get_mut(hash) {
                // The holder has now spilled this content itself: from here on the
                // window-boundary model would keep it readable in the holder's own
                // snapshot too, so later reloads are no longer propagation wins.
                entry.propagated = false;
                state.touch(*hash, last_used, Some((published, origins)));
                continue;
            }
            evicted += state.insert_entry(capacity, *hash, last_used, published, origins);
            written += 1;
        }
        (written, evicted)
    }

    /// The hashes of every resident block, in unspecified order (used to snapshot
    /// the tier into an immutable [`PrefixProbe`](crate::PrefixProbe)).
    pub fn resident_hashes(&self) -> impl Iterator<Item = TokenBlockHash> + '_ {
        self.state.entries.keys().copied()
    }

    /// Returns how many *leading* blocks of `hashes` are present in the pool (the
    /// reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            if self.state.entries.contains_key(hash) {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }

    /// Marks the leading `blocks` blocks of `hashes` as reloaded (refreshing their
    /// recency) and returns the bytes that must cross the network link.  The remote
    /// copy is retained — a reload is a copy, not a move.
    pub fn reload_prefix(&mut self, hashes: &[TokenBlockHash], blocks: u64, now: SimTime) -> u64 {
        self.reload_prefix_accounted(hashes, blocks, now).bytes
    }

    /// Like [`Self::reload_prefix`], but also counting how many of the reloaded
    /// blocks were flagged as mid-window propagated by a visibility-filtered
    /// snapshot or view — reloads that the window-boundary-only propagation model
    /// would have missed.
    pub fn reload_prefix_accounted(
        &mut self,
        hashes: &[TokenBlockHash],
        blocks: u64,
        now: SimTime,
    ) -> NetReload {
        let blocks = blocks.min(hashes.len() as u64);
        let mut reload = NetReload::default();
        let block_bytes = self.block_bytes;
        let state = Arc::make_mut(&mut self.state);
        for hash in &hashes[..blocks as usize] {
            if let Some(entry) = state.entries.get(hash) {
                if entry.propagated {
                    reload.propagated_blocks += 1;
                }
                state.touch(*hash, now, None);
                reload.bytes += block_bytes;
            }
        }
        reload
    }

    /// Merges another pool's contents into this one (the merge of the per-instance
    /// snapshots back into the cluster-shared pool at a propagation-epoch or window
    /// boundary).
    ///
    /// Entries are replayed oldest-first in `(last_used, hash)` order, refreshing
    /// duplicates to the younger timestamp (and the *earlier* publication); capacity
    /// overflow evicts LRU as usual.  Deterministic: the outcome depends only on the
    /// two pools' contents, never on map iteration order.  Propagation flags never
    /// survive a merge — the shared pool is the source of truth and the next
    /// visibility-filtered install recomputes them.  Returns how many residents the
    /// merge displaced, so the caller can account the churn.
    pub fn merge_from(&mut self, other: &NetKvPool) -> u64 {
        if Arc::ptr_eq(&self.state, &other.state) {
            // Merging an untouched copy-on-write snapshot of ourselves: every entry
            // would replay as a no-op touch.
            return 0;
        }
        let mut evicted = 0;
        let capacity = self.capacity_blocks;
        let state = Arc::make_mut(&mut self.state);
        for (last_used, hash) in &other.state.lru {
            let entry = &other.state.entries[hash];
            if state.entries.contains_key(hash) {
                state.touch(*hash, *last_used, Some((entry.published, entry.origins)));
                continue;
            }
            if capacity == 0 {
                continue;
            }
            evicted +=
                state.insert_entry(capacity, *hash, *last_used, entry.published, entry.origins);
        }
        evicted
    }

    /// Replays a view's surrendered delta into the shared pool — the O(touched)
    /// equivalent of materialising the view and [`Self::merge_from`]-ing it.
    ///
    /// Exactness contract (enforced by the caller, see the module docs): every entry
    /// the view left untouched merges as a no-op, so replaying only the overlay is
    /// identical to the legacy dense merge *provided no eviction occurs anywhere in
    /// the boundary's merges*.  Callers must pre-check capacity across the whole
    /// boundary and fall back to dense merges otherwise; a delta extracted from a
    /// view that materialised dense mid-window replays through the dense merge path
    /// automatically.  Returns how many residents were displaced (always 0 under the
    /// contract for overlay deltas, counted anyway for honesty).
    pub fn absorb(&mut self, delta: ViewDelta) -> u64 {
        match delta.repr {
            DeltaRepr::Dense(pool) => self.merge_from(&pool),
            DeltaRepr::Overlay { entries, lru } => {
                let mut evicted = 0;
                let capacity = self.capacity_blocks;
                let state = Arc::make_mut(&mut self.state);
                for (last_used, hash) in &lru {
                    let entry = &entries[hash];
                    if state.entries.contains_key(hash) {
                        state.touch(*hash, *last_used, Some((entry.published, entry.origins)));
                        continue;
                    }
                    if capacity == 0 {
                        continue;
                    }
                    evicted += state.insert_entry(
                        capacity,
                        *hash,
                        *last_used,
                        entry.published,
                        entry.origins,
                    );
                }
                evicted
            }
        }
    }

    /// The dense twin of [`Self::view_at`]: clones the pool with the same
    /// visibility filter applied.  The replay pipeline installs views; this full
    /// clone stays as the reference the view property tests pin them against.
    #[cfg(test)]
    pub fn visible_snapshot(&self, visible_at: SimTime, owner: usize) -> NetKvPool {
        let mut state = NetState {
            generation: self.state.generation,
            meta_generation: self.state.meta_generation,
            ..NetState::default()
        };
        for (hash, entry) in &self.state.entries {
            let own = entry.origins & origin_bit(Some(owner)) != 0;
            if own || entry.published <= visible_at {
                let entry = NetEntry {
                    propagated: !own && entry.published > SimTime::ZERO,
                    ..*entry
                };
                state.entries.insert(*hash, entry);
                state.lru.insert((entry.last_used, *hash));
                if entry.published > SimTime::ZERO {
                    state.publish_log.insert((entry.published, *hash));
                }
            }
        }
        NetKvPool {
            block_bytes: self.block_bytes,
            capacity_blocks: self.capacity_blocks,
            state: Arc::new(state),
            propagation_delay: self.propagation_delay,
            owner: Some(owner),
        }
    }

    /// A copy-on-write view over the whole pool, visibility-unfiltered — the cheap
    /// replacement for cloning the pool into an instance at window start.  Reads
    /// see every resident entry (exactly like a full clone would) and spills stay
    /// in the view's private overlay until [`NetPoolView::into_delta`].
    pub fn view(&self) -> NetPoolView {
        NetPoolView::cow(self, None, self.owner)
    }

    /// A copy-on-write view filtered to what instance `owner` may read during the
    /// propagation epoch starting at `visible_at`: entries already published by
    /// then, plus `owner`'s *own* spills regardless of publish time — the
    /// window-boundary model keeps an instance's own spills readable all window,
    /// and a propagation delay models fabric latency to *other* nodes, not a node
    /// forgetting its own writes.  Entries that another instance published after
    /// virtual time zero (i.e. spilled earlier in the *same* replay window —
    /// [`Self::settle`] zeroes everything older at window start) are flagged as
    /// propagated, so their reloads can be accounted as wins of the within-window
    /// propagation model; `owner`'s own spills never are.  Spills recorded into
    /// the view during the epoch carry `owner` as their origin.
    pub fn view_at(&self, visible_at: SimTime, owner: usize) -> NetPoolView {
        NetPoolView::cow(self, Some(visible_at), Some(owner))
    }

    /// Marks every resident entry as fully published (publish timestamp zero, no
    /// origin, no propagation flag).  The cluster calls this at the start of each
    /// replay window: whatever was spilled in earlier windows has long since crossed
    /// the fabric, so only *this* window's spills are subject to the propagation
    /// delay.  (Virtual time restarts at zero with each replayed trace, so
    /// carried-over publish timestamps from a previous window would otherwise read
    /// as future ones.)
    pub fn settle(&mut self) {
        let state = Arc::make_mut(&mut self.state);
        for entry in state.entries.values_mut() {
            entry.published = SimTime::ZERO;
            entry.origins = 0;
            entry.propagated = false;
        }
        if !state.publish_log.is_empty() {
            state.publish_log.clear();
            state.meta_generation += 1;
        }
    }

    /// Debug-only structural check of the LRU and publish-log index invariants.
    #[cfg(test)]
    fn assert_lru_invariant(&self) {
        let expected: BTreeSet<(SimTime, TokenBlockHash)> = self
            .state
            .entries
            .iter()
            .map(|(h, e)| (e.last_used, *h))
            .collect();
        assert_eq!(expected, self.state.lru, "net LRU index out of sync");
        let expected: BTreeSet<(SimTime, TokenBlockHash)> = self
            .state
            .entries
            .iter()
            .filter(|(_, e)| e.published > SimTime::ZERO)
            .map(|(h, e)| (e.published, *h))
            .collect();
        assert_eq!(
            expected, self.state.publish_log,
            "net publish log out of sync"
        );
    }
}

/// The copy-on-write body of a [`NetPoolView`]: a shared base, the epoch's
/// visibility filter, and a private overlay of touched/added entries.
#[derive(Debug, Clone)]
struct CowView {
    base: Arc<NetState>,
    block_bytes: u64,
    capacity_blocks: u64,
    propagation_delay: SimDuration,
    owner: Option<usize>,
    /// `None` = unfiltered (full-clone semantics, window-boundary sharing);
    /// `Some(at)` = the propagation-epoch visibility horizon.
    visible_at: Option<SimTime>,
    /// Entries the view touched or added; always consulted before the base.
    overlay: HashMap<TokenBlockHash, NetEntry>,
    /// `(last_used, hash)` for every overlay entry, oldest first — the replay
    /// order [`NetKvPool::absorb`] uses, mirroring the dense merge.
    overlay_lru: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Overlay entries with no base counterpart at all: the only entries that can
    /// grow the shared pool at merge time.
    added_new: u64,
    /// Overlay entries whose base counterpart is invisible to this view (published
    /// past the horizon, not own): residents of the materialised snapshot, but
    /// merge-time touches of the shared pool.
    added_shadow: u64,
    /// Content-generation bumps the equivalent dense snapshot would have recorded
    /// (one per fresh overlay insert; the no-evict guard means evictions never
    /// contribute).
    gen_bumps: u64,
    /// Lazily-computed count of visible base entries (recomputing per
    /// `resident_blocks` call would be O(base)).
    visible_base: Cell<Option<u64>>,
}

impl CowView {
    fn base_visible(&self, entry: &NetEntry) -> bool {
        match self.visible_at {
            None => true,
            Some(at) => entry.origins & origin_bit(self.owner) != 0 || entry.published <= at,
        }
    }

    fn base_flag(&self, entry: &NetEntry) -> bool {
        self.visible_at.is_some()
            && entry.origins & origin_bit(self.owner) == 0
            && entry.published > SimTime::ZERO
    }

    fn visible_base_count(&self) -> u64 {
        if let Some(count) = self.visible_base.get() {
            return count;
        }
        let count = match self.visible_at {
            None => self.base.entries.len() as u64,
            Some(_) => self
                .base
                .entries
                .values()
                .filter(|e| self.base_visible(e))
                .count() as u64,
        };
        self.visible_base.set(Some(count));
        count
    }

    /// Whether the *next* fresh insert could force an eviction in the equivalent
    /// dense snapshot.  Conservative (counts invisible base entries as resident);
    /// a false positive merely materialises the view early, never corrupts it.
    fn insert_may_evict(&self) -> bool {
        self.base.entries.len() as u64 + self.added_new >= self.capacity_blocks
    }

    fn reload_one(&mut self, hash: TokenBlockHash, now: SimTime) -> Option<bool> {
        if let Some(entry) = self.overlay.get_mut(&hash) {
            let flag = entry.propagated;
            let previous = entry.last_used;
            if previous < now {
                self.overlay_lru.remove(&(previous, hash));
                entry.last_used = now;
                self.overlay_lru.insert((now, hash));
            }
            return Some(flag);
        }
        let entry = *self.base.entries.get(&hash)?;
        if !self.base_visible(&entry) {
            return None;
        }
        let flag = self.base_flag(&entry);
        if entry.last_used < now {
            // Recency moved forward: shadow the base entry in the overlay (the
            // merge replays this as a touch, exactly like the dense path).
            self.overlay.insert(
                hash,
                NetEntry {
                    last_used: now,
                    propagated: flag,
                    ..entry
                },
            );
            self.overlay_lru.insert((now, hash));
        }
        Some(flag)
    }

    /// One hash of a spill, under the caller-checked no-evict guarantee.  Returns
    /// how many blocks were written (0 for refreshes of present entries).
    fn spill_one(&mut self, hash: TokenBlockHash, last_used: SimTime, spilled_at: SimTime) -> u64 {
        let published = spilled_at + self.propagation_delay;
        let bit = origin_bit(self.owner);
        if let Some(entry) = self.overlay.get_mut(&hash) {
            entry.propagated = false;
            entry.published = entry.published.min(published);
            entry.origins |= bit;
            let previous = entry.last_used;
            if previous < last_used {
                self.overlay_lru.remove(&(previous, hash));
                entry.last_used = last_used;
                self.overlay_lru.insert((last_used, hash));
            }
            return 0;
        }
        if let Some(base_entry) = self.base.entries.get(&hash) {
            if self.base_visible(base_entry) {
                // Present in the equivalent snapshot: refresh, don't duplicate.
                let entry = NetEntry {
                    last_used: base_entry.last_used.max(last_used),
                    published: base_entry.published.min(published),
                    origins: base_entry.origins | bit,
                    propagated: false,
                };
                self.overlay.insert(hash, entry);
                self.overlay_lru.insert((entry.last_used, hash));
                return 0;
            }
            // Invisible base entry: the snapshot would not contain it, so this is
            // a fresh insert there — but a merge-time touch of the shared pool.
            self.overlay.insert(
                hash,
                NetEntry {
                    last_used,
                    published,
                    origins: bit,
                    propagated: false,
                },
            );
            self.overlay_lru.insert((last_used, hash));
            self.added_shadow += 1;
            self.gen_bumps += 1;
            return 1;
        }
        self.overlay.insert(
            hash,
            NetEntry {
                last_used,
                published,
                origins: bit,
                propagated: false,
            },
        );
        self.overlay_lru.insert((last_used, hash));
        self.added_new += 1;
        self.gen_bumps += 1;
        1
    }

    fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            let present = self.overlay.contains_key(hash)
                || self
                    .base
                    .entries
                    .get(hash)
                    .is_some_and(|e| self.base_visible(e));
            if present {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }

    /// Materialises the dense [`NetKvPool`] this view is equivalent to: the
    /// visible base entries (with freshly computed propagation flags) shadowed by
    /// the overlay.
    fn materialise(&self) -> NetKvPool {
        let mut state = NetState {
            generation: self.base.generation + self.gen_bumps,
            meta_generation: self.base.meta_generation,
            ..NetState::default()
        };
        for (hash, entry) in &self.base.entries {
            if self.overlay.contains_key(hash) || !self.base_visible(entry) {
                continue;
            }
            let entry = NetEntry {
                propagated: self.base_flag(entry),
                ..*entry
            };
            state.entries.insert(*hash, entry);
            state.lru.insert((entry.last_used, *hash));
            if entry.published > SimTime::ZERO {
                state.publish_log.insert((entry.published, *hash));
            }
        }
        for (hash, entry) in &self.overlay {
            state.entries.insert(*hash, *entry);
            state.lru.insert((entry.last_used, *hash));
            if entry.published > SimTime::ZERO {
                state.publish_log.insert((entry.published, *hash));
            }
        }
        NetKvPool {
            block_bytes: self.block_bytes,
            capacity_blocks: self.capacity_blocks,
            state: Arc::new(state),
            propagation_delay: self.propagation_delay,
            owner: self.owner,
        }
    }
}

#[derive(Debug, Clone)]
enum ViewRepr {
    Cow(CowView),
    /// A view that had to give up the copy-on-write discipline (an insert could
    /// have evicted) and fell back to a dense pool — from that point on it *is*
    /// the legacy snapshot, evictions and all.
    Dense(NetKvPool),
}

/// An instance's window/epoch working set of the network tier: a copy-on-write
/// [`NetPoolView::shares_base`] snapshot of the shared [`NetKvPool`] that records
/// the instance's touches in a private overlay, surrendered back to the cluster as
/// a [`ViewDelta`] at the next boundary.  Mirrors the pool's read/spill/reload API
/// so [`KvCacheManager`](crate::KvCacheManager) can use either interchangeably.
#[derive(Debug, Clone)]
pub struct NetPoolView {
    repr: ViewRepr,
}

impl NetPoolView {
    fn cow(pool: &NetKvPool, visible_at: Option<SimTime>, owner: Option<usize>) -> NetPoolView {
        NetPoolView {
            repr: ViewRepr::Cow(CowView {
                base: Arc::clone(&pool.state),
                block_bytes: pool.block_bytes,
                capacity_blocks: pool.capacity_blocks,
                propagation_delay: pool.propagation_delay,
                owner,
                visible_at,
                overlay: HashMap::new(),
                overlay_lru: BTreeSet::new(),
                added_new: 0,
                added_shadow: 0,
                gen_bumps: 0,
                visible_base: Cell::new(None),
            }),
        }
    }

    /// Wraps an already-dense pool (a warm-seeded snapshot, a test fixture) in the
    /// view interface.
    pub fn dense(pool: NetKvPool) -> NetPoolView {
        NetPoolView {
            repr: ViewRepr::Dense(pool),
        }
    }

    /// Bytes of KV held per block.
    pub fn block_bytes(&self) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.block_bytes,
            ViewRepr::Dense(pool) => pool.block_bytes(),
        }
    }

    /// Maximum number of blocks the underlying pool can hold.
    pub fn capacity_blocks(&self) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.capacity_blocks,
            ViewRepr::Dense(pool) => pool.capacity_blocks(),
        }
    }

    /// Number of blocks readable through the view.
    pub fn resident_blocks(&self) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.visible_base_count() + view.added_new + view.added_shadow,
            ViewRepr::Dense(pool) => pool.resident_blocks(),
        }
    }

    /// Bytes readable through the view.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_bytes()
    }

    /// The content generation of the equivalent dense snapshot (base generation
    /// plus the view's own fresh inserts) — keeps probe memoisation exact.
    pub fn generation(&self) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.base.generation + view.gen_bumps,
            ViewRepr::Dense(pool) => pool.generation(),
        }
    }

    /// Publication metadata of one readable entry (see [`NetKvPool::entry_meta`]).
    pub fn entry_meta(&self, hash: TokenBlockHash) -> Option<(SimTime, u64)> {
        match &self.repr {
            ViewRepr::Cow(view) => {
                if let Some(entry) = view.overlay.get(&hash) {
                    return Some((entry.published, entry.origins));
                }
                let entry = view.base.entries.get(&hash)?;
                if !view.base_visible(entry) {
                    return None;
                }
                Some((entry.published, entry.origins))
            }
            ViewRepr::Dense(pool) => pool.entry_meta(hash),
        }
    }

    /// The hashes of every readable block, in unspecified order.
    pub fn resident_hashes(&self) -> Box<dyn Iterator<Item = TokenBlockHash> + '_> {
        match &self.repr {
            ViewRepr::Cow(view) => Box::new(
                view.base
                    .entries
                    .iter()
                    .filter(|(_, e)| view.base_visible(e))
                    .map(|(h, _)| *h)
                    .chain(view.overlay.keys().copied().filter(|h| {
                        view.base
                            .entries
                            .get(h)
                            .is_none_or(|e| !view.base_visible(e))
                    })),
            ),
            ViewRepr::Dense(pool) => Box::new(pool.resident_hashes()),
        }
    }

    /// How many *leading* blocks of `hashes` are readable (the reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.lookup_prefix_blocks(hashes),
            ViewRepr::Dense(pool) => pool.lookup_prefix_blocks(hashes),
        }
    }

    /// See [`NetKvPool::reload_prefix`].
    pub fn reload_prefix(&mut self, hashes: &[TokenBlockHash], blocks: u64, now: SimTime) -> u64 {
        self.reload_prefix_accounted(hashes, blocks, now).bytes
    }

    /// See [`NetKvPool::reload_prefix_accounted`].
    pub fn reload_prefix_accounted(
        &mut self,
        hashes: &[TokenBlockHash],
        blocks: u64,
        now: SimTime,
    ) -> NetReload {
        match &mut self.repr {
            ViewRepr::Cow(view) => {
                let blocks = blocks.min(hashes.len() as u64);
                let mut reload = NetReload::default();
                for hash in &hashes[..blocks as usize] {
                    if let Some(flag) = view.reload_one(*hash, now) {
                        if flag {
                            reload.propagated_blocks += 1;
                        }
                        reload.bytes += view.block_bytes;
                    }
                }
                reload
            }
            ViewRepr::Dense(pool) => pool.reload_prefix_accounted(hashes, blocks, now),
        }
    }

    /// See [`NetKvPool::offload`].
    pub fn offload(&mut self, hashes: &[TokenBlockHash], now: SimTime) -> (u64, u64) {
        self.offload_spilled(hashes, now, now)
    }

    /// See [`NetKvPool::offload_spilled`].  A view about to evict materialises
    /// itself dense first, so snapshot-local eviction order is exactly legacy.
    pub fn offload_spilled(
        &mut self,
        hashes: &[TokenBlockHash],
        last_used: SimTime,
        spilled_at: SimTime,
    ) -> (u64, u64) {
        let mut written = 0;
        let mut index = 0;
        while index < hashes.len() {
            match &mut self.repr {
                ViewRepr::Cow(view) => {
                    if view.capacity_blocks == 0 {
                        break;
                    }
                    if view.insert_may_evict() {
                        self.materialise_in_place();
                        continue;
                    }
                    written += view.spill_one(hashes[index], last_used, spilled_at);
                    index += 1;
                }
                ViewRepr::Dense(pool) => {
                    let (w, e) = pool.offload_spilled(&hashes[index..], last_used, spilled_at);
                    return (written + w, e);
                }
            }
        }
        (written, 0)
    }

    /// Whether this view still reads the given pool's current state — the
    /// precondition for the O(touched) delta merge (a pool mutation since the view
    /// was taken, or a dense fallback, forces the legacy dense merge).
    pub fn shares_base(&self, pool: &NetKvPool) -> bool {
        match &self.repr {
            ViewRepr::Cow(view) => Arc::ptr_eq(&view.base, &pool.state),
            ViewRepr::Dense(_) => false,
        }
    }

    /// The most entries this view's merge could add to the shared pool — the term
    /// the cluster sums into the boundary-wide no-evict capacity check.
    pub fn merge_added_upper_bound(&self) -> u64 {
        match &self.repr {
            ViewRepr::Cow(view) => view.added_new,
            ViewRepr::Dense(pool) => pool.resident_blocks(),
        }
    }

    /// The dense [`NetKvPool`] this view is equivalent to (non-consuming; the
    /// property suite's bridge between the two worlds).
    pub fn materialise(&self) -> NetKvPool {
        match &self.repr {
            ViewRepr::Cow(view) => view.materialise(),
            ViewRepr::Dense(pool) => pool.clone(),
        }
    }

    fn materialise_in_place(&mut self) {
        if let ViewRepr::Cow(view) = &self.repr {
            self.repr = ViewRepr::Dense(view.materialise());
        }
    }

    /// Consumes the view into the dense pool it is equivalent to.
    pub fn into_pool(self) -> NetKvPool {
        match self.repr {
            ViewRepr::Cow(view) => view.materialise(),
            ViewRepr::Dense(pool) => pool,
        }
    }

    /// Surrenders the view's merge contribution, dropping its base reference (so
    /// the caller can mutate the shared pool without a copy-on-write clone).
    pub fn into_delta(self) -> ViewDelta {
        match self.repr {
            ViewRepr::Cow(view) => ViewDelta {
                repr: DeltaRepr::Overlay {
                    entries: view.overlay,
                    lru: view.overlay_lru,
                },
            },
            ViewRepr::Dense(pool) => ViewDelta {
                repr: DeltaRepr::Dense(pool),
            },
        }
    }
}

#[derive(Debug)]
enum DeltaRepr {
    Overlay {
        entries: HashMap<TokenBlockHash, NetEntry>,
        lru: BTreeSet<(SimTime, TokenBlockHash)>,
    },
    Dense(NetKvPool),
}

/// A view's surrendered merge contribution (see [`NetPoolView::into_delta`]),
/// replayed into the shared pool by [`NetKvPool::absorb`].
#[derive(Debug)]
pub struct ViewDelta {
    repr: DeltaRepr,
}

impl ViewDelta {
    /// Wraps a dense pool as a delta, for merge paths that materialised their views
    /// (the whole pool replays through the legacy dense merge).
    pub fn from_pool(pool: NetKvPool) -> ViewDelta {
        ViewDelta {
            repr: DeltaRepr::Dense(pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_token_blocks;

    const BLOCK_TOKENS: usize = 16;
    const BLOCK_BYTES: u64 = 1024;

    fn hashes(start: u32, tokens: usize) -> Vec<TokenBlockHash> {
        let toks: Vec<u32> = (start..start + tokens as u32).collect();
        hash_token_blocks(&toks, BLOCK_TOKENS)
    }

    #[test]
    fn offload_lookup_reload_round_trip() {
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let chain = hashes(0, 320);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 0);
        assert_eq!(pool.offload(&chain, SimTime::ZERO), (20, 0));
        assert_eq!(pool.resident_blocks(), 20);
        assert_eq!(pool.resident_bytes(), 20 * BLOCK_BYTES);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 20);
        let bytes = pool.reload_prefix(&chain, 5, SimTime::from_secs(1));
        assert_eq!(bytes, 5 * BLOCK_BYTES);
        pool.assert_lru_invariant();
    }

    #[test]
    fn duplicate_offloads_refresh_without_growing() {
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let chain = hashes(0, 160);
        pool.offload(&chain, SimTime::ZERO);
        let generation = pool.generation();
        assert_eq!(pool.offload(&chain, SimTime::from_secs(1)), (0, 0));
        assert_eq!(pool.resident_blocks(), 10);
        assert_eq!(pool.generation(), generation, "refreshes keep contents");
        pool.assert_lru_invariant();
    }

    #[test]
    fn eviction_is_deterministic_under_timestamp_ties() {
        let chain = hashes(0, 8 * BLOCK_TOKENS);
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        for _ in 0..4 {
            let mut pool = NetKvPool::new(8 * BLOCK_BYTES, BLOCK_BYTES);
            pool.offload(&chain, SimTime::ZERO);
            let (_, evicted) =
                pool.offload(&hashes(1_000_000, 2 * BLOCK_TOKENS), SimTime::from_secs(1));
            assert_eq!(evicted, 2);
            for victim in &sorted[..2] {
                assert_eq!(pool.lookup_prefix_blocks(std::slice::from_ref(victim)), 0);
            }
            pool.assert_lru_invariant();
        }
    }

    #[test]
    fn merge_unions_contents_and_keeps_younger_recency() {
        let mut shared = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let a = hashes(0, 160);
        let b = hashes(50_000, 160);
        shared.offload(&a, SimTime::ZERO);

        // Two instance snapshots diverge: one refreshed `a`, the other added `b`.
        let mut from_zero = shared.clone();
        from_zero.offload(&a, SimTime::from_secs(5));
        let mut from_one = shared.clone();
        from_one.offload(&b, SimTime::from_secs(3));

        shared.merge_from(&from_zero);
        shared.merge_from(&from_one);
        assert_eq!(shared.lookup_prefix_blocks(&a), 10);
        assert_eq!(shared.lookup_prefix_blocks(&b), 10);
        assert_eq!(shared.resident_blocks(), 20);

        // Merge order does not matter for contents: replay in the other order.
        let mut other_order = NetKvPool::new(1 << 20, BLOCK_BYTES);
        other_order.offload(&a, SimTime::ZERO);
        other_order.merge_from(&from_one);
        other_order.merge_from(&from_zero);
        assert_eq!(other_order.state.entries, shared.state.entries);
        shared.assert_lru_invariant();
    }

    #[test]
    fn zero_capacity_pool_is_inert() {
        let mut pool = NetKvPool::new(0, BLOCK_BYTES);
        let chain = hashes(0, 160);
        assert_eq!(pool.offload(&chain, SimTime::ZERO), (0, 0));
        assert_eq!(pool.resident_blocks(), 0);
        assert_eq!(pool.generation(), 0);
        let mut view = pool.view();
        assert_eq!(view.offload(&chain, SimTime::ZERO), (0, 0));
        assert_eq!(view.resident_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_bytes_panics() {
        NetKvPool::new(1 << 20, 0);
    }

    #[test]
    fn visible_snapshot_hides_unpublished_entries_and_flags_propagated_ones() {
        let delay = simcore::SimDuration::from_millis(500);
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        assert_eq!(pool.propagation_delay(), delay);
        let early = hashes(0, 160);
        let late = hashes(100_000, 160);
        pool.offload(&early, SimTime::ZERO); // publishes at 500ms
        pool.offload(&late, SimTime::from_millis(400)); // publishes at 900ms

        // Before anything publishes, the snapshot is empty.
        assert_eq!(
            pool.visible_snapshot(SimTime::from_millis(100), 0)
                .resident_blocks(),
            0
        );
        // At 500ms the early chain is visible (and flagged as mid-window
        // propagated), the late one still in flight.
        let snap = pool.visible_snapshot(SimTime::from_millis(500), 0);
        assert_eq!(snap.lookup_prefix_blocks(&early), 10);
        assert_eq!(snap.lookup_prefix_blocks(&late), 0);
        assert_eq!(
            snap.clone()
                .reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 10,
            }
        );
        // At 900ms both are visible.
        let snap = pool.visible_snapshot(SimTime::from_millis(900), 0);
        assert_eq!(snap.resident_blocks(), 20);

        // Settling marks everything as published long ago: visible everywhere,
        // never counted as propagated.
        pool.settle();
        let mut snap = pool.visible_snapshot(SimTime::ZERO, 0);
        assert_eq!(snap.resident_blocks(), 20);
        assert_eq!(
            snap.reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 0,
            }
        );
        snap.assert_lru_invariant();
    }

    #[test]
    fn merge_keeps_the_earliest_publication_and_drops_propagation_flags() {
        let delay = simcore::SimDuration::from_secs(1);
        let shared = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        let chain = hashes(0, 160);

        // Two instances spill the same content at different times; the merged entry
        // must publish at the *earlier* instant regardless of merge order.
        let mut from_zero = shared.clone();
        from_zero.offload(&chain, SimTime::from_secs(2)); // publishes at 3s
        let mut from_one = shared.clone();
        from_one.offload(&chain, SimTime::from_secs(5)); // publishes at 6s

        for order in [[&from_zero, &from_one], [&from_one, &from_zero]] {
            let mut merged = shared.clone();
            for local in order {
                merged.merge_from(local);
            }
            // Published at 3s: hidden at 2.9s, visible (and propagated) at 3s.
            assert_eq!(
                merged
                    .visible_snapshot(SimTime::from_millis(2_900), 0)
                    .resident_blocks(),
                0
            );
            let mut snap = merged.visible_snapshot(SimTime::from_secs(3), 0);
            assert_eq!(snap.lookup_prefix_blocks(&chain), 10);
            assert_eq!(
                snap.reload_prefix_accounted(&chain, 10, SimTime::from_secs(7))
                    .propagated_blocks,
                10
            );
            // Recency follows the younger spill.
            assert_eq!(
                merged.state.entries[&chain[0]].last_used,
                SimTime::from_secs(5)
            );
            merged.assert_lru_invariant();
        }

        // Origin honesty: an instance's *own* same-window spills are never flagged
        // as propagated — the window-boundary model serves those reloads too.
        let mut own = NetKvPool::new(1 << 20, BLOCK_BYTES)
            .with_propagation_delay(delay)
            .visible_snapshot(SimTime::ZERO, 0);
        own.offload(&chain, SimTime::from_secs(1)); // origin = Some(0)
        let mut shared2 = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        shared2.merge_from(&own);
        // An instance never loses sight of its *own* spills: the publish time gates
        // other instances only.
        assert_eq!(
            shared2
                .visible_snapshot(SimTime::ZERO, 0)
                .lookup_prefix_blocks(&chain),
            10
        );
        assert_eq!(
            shared2
                .visible_snapshot(SimTime::ZERO, 1)
                .lookup_prefix_blocks(&chain),
            0
        );
        // Visible from 2s on; not propagated for instance 0, propagated for 1.
        let mut for_origin = shared2.visible_snapshot(SimTime::from_secs(2), 0);
        assert_eq!(
            for_origin
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(3))
                .propagated_blocks,
            0
        );
        let mut for_other = shared2.visible_snapshot(SimTime::from_secs(2), 1);
        assert_eq!(
            for_other
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(3))
                .propagated_blocks,
            10
        );
        // Once the holder spills the same content itself, the window-boundary model
        // would serve later reloads from its own snapshot too — the flag clears and
        // repeat reloads stop counting as propagation wins.
        for_other.offload(&chain, SimTime::from_secs(4));
        assert_eq!(
            for_other
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(5))
                .propagated_blocks,
            0
        );

        // Merging a snapshot whose entries are flagged as propagated never carries
        // the flag into the shared pool.
        let mut flagged = from_zero.visible_snapshot(SimTime::from_secs(3), 0);
        assert_eq!(flagged.resident_blocks(), 10);
        let mut fresh = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        fresh.merge_from(&flagged);
        assert!(fresh.state.entries.values().all(|e| !e.propagated));
        // ... while the flagged snapshot itself still reports propagated reloads.
        assert!(
            flagged
                .reload_prefix_accounted(&chain, 1, SimTime::from_secs(9))
                .propagated_blocks
                > 0
        );
    }

    #[test]
    fn published_in_tracks_the_publish_log() {
        let delay = simcore::SimDuration::from_millis(500);
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        assert!(!pool.published_in(SimTime::ZERO, SimTime::from_secs(10)));
        pool.offload(&hashes(0, 160), SimTime::ZERO); // publishes at 500ms
        assert!(pool.published_in(SimTime::ZERO, SimTime::from_millis(500)));
        assert!(pool.published_in(SimTime::from_millis(499), SimTime::from_millis(500)));
        // The interval is (after, upto]: a boundary exactly at the publish time
        // already surfaced the entry, so the *next* one sees nothing new.
        assert!(!pool.published_in(SimTime::from_millis(500), SimTime::from_secs(10)));
        assert!(!pool.published_in(SimTime::ZERO, SimTime::from_millis(499)));
        // Degenerate and reversed intervals are empty.
        assert!(!pool.published_in(SimTime::from_millis(500), SimTime::from_millis(500)));
        assert!(!pool.published_in(SimTime::from_secs(2), SimTime::from_secs(1)));
        // Settling clears the log (and bumps the meta generation).
        let meta = pool.meta_generation();
        pool.settle();
        assert!(pool.meta_generation() > meta);
        assert!(!pool.published_in(SimTime::ZERO, SimTime::from_secs(10)));
        pool.assert_lru_invariant();
    }

    #[test]
    fn meta_generation_moves_with_visibility_relevant_changes_only() {
        let delay = simcore::SimDuration::from_secs(1);
        let mut shared = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        let chain = hashes(0, 160);
        shared.offload(&chain, SimTime::ZERO);
        shared.settle();
        let meta = shared.meta_generation();

        // A reload only refreshes recency: nobody's visible set moves.
        shared.reload_prefix(&chain, 10, SimTime::from_secs(1));
        assert_eq!(shared.meta_generation(), meta);

        // Re-spilling settled content keeps publication at zero (already visible to
        // all, never flaggable): the origin-set growth is visibility-irrelevant.
        shared.offload(&chain, SimTime::from_secs(2));
        assert_eq!(shared.meta_generation(), meta);

        // A merge that *lowers* a publish timestamp flips future visibility.
        let mut snap = shared.visible_snapshot(SimTime::ZERO, 0);
        snap.offload(&hashes(90_000, 16), SimTime::from_secs(3)); // publishes at 4s
        shared.merge_from(&snap);
        let meta_after_insert = shared.meta_generation();
        let mut earlier = shared.visible_snapshot(SimTime::from_secs(10), 1);
        earlier.offload(&hashes(90_000, 16), SimTime::from_secs(1)); // publishes at 2s
        shared.merge_from(&earlier);
        assert!(shared.meta_generation() > meta_after_insert);
        shared.assert_lru_invariant();
    }

    /// Shared-state plumbing: a view is O(1) to take, reads through to the base,
    /// and its mere existence never perturbs the pool it was taken from.
    #[test]
    fn views_read_through_and_leave_the_pool_untouched() {
        let delay = simcore::SimDuration::from_millis(500);
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        let early = hashes(0, 160);
        let late = hashes(100_000, 160);
        pool.offload(&early, SimTime::ZERO); // publishes at 500ms
        pool.offload(&late, SimTime::from_millis(400)); // publishes at 900ms

        let mut view = pool.view_at(SimTime::from_millis(500), 1);
        assert!(view.shares_base(&pool));
        assert_eq!(view.lookup_prefix_blocks(&early), 10);
        assert_eq!(view.lookup_prefix_blocks(&late), 0);
        assert_eq!(view.resident_blocks(), 10);
        assert_eq!(view.resident_bytes(), 10 * BLOCK_BYTES);
        assert_eq!(view.generation(), pool.generation());
        let mut from_view: Vec<TokenBlockHash> = view.resident_hashes().collect();
        let mut from_snap: Vec<TokenBlockHash> = pool
            .visible_snapshot(SimTime::from_millis(500), 1)
            .resident_hashes()
            .collect();
        from_view.sort_unstable();
        from_snap.sort_unstable();
        assert_eq!(from_view, from_snap);

        // Reloads and spills stay in the overlay: the shared pool is unmoved.
        let before = pool.clone();
        assert_eq!(
            view.reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 10,
            }
        );
        assert_eq!(
            view.offload(&hashes(200_000, 160), SimTime::from_secs(2)).0,
            10
        );
        assert_eq!(view.resident_blocks(), 20);
        assert_eq!(pool.state.entries, before.state.entries);
        assert_eq!(pool.generation(), before.generation());

        // A pool mutation after the view was taken breaks the sharing link (the
        // cluster's cue to fall back to the dense merge).
        pool.offload(&hashes(300_000, 16), SimTime::from_secs(3));
        assert!(!view.shares_base(&pool));
        pool.assert_lru_invariant();
    }

    /// A tiny deterministic LCG, so the property trials are reproducible.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    fn assert_same_pool(label: &str, actual: &NetKvPool, expected: &NetKvPool) {
        assert_eq!(
            actual.state.entries, expected.state.entries,
            "{label}: entries diverged"
        );
        assert_eq!(
            actual.state.lru, expected.state.lru,
            "{label}: LRU diverged"
        );
        assert_eq!(
            actual.state.publish_log, expected.state.publish_log,
            "{label}: publish log diverged"
        );
        assert_eq!(
            actual.generation(),
            expected.generation(),
            "{label}: generation diverged"
        );
        assert_eq!(actual.owner, expected.owner, "{label}: owner diverged");
        assert_eq!(actual.block_bytes(), expected.block_bytes());
        assert_eq!(actual.capacity_blocks(), expected.capacity_blocks());
        actual.assert_lru_invariant();
        expected.assert_lru_invariant();
    }

    /// The delta-view property pin (the correctness gate of the copy-on-write
    /// rewrite): across several propagation epochs with instances joining and
    /// draining, a [`NetPoolView`] driven by an arbitrary interleaving of lookups,
    /// reloads and spills must stay step-for-step identical to the legacy
    /// [`NetKvPool::visible_snapshot`] full clone — and the boundary merge of its
    /// delta into the shared pool identical to the legacy dense merge.  Runs both
    /// an ample pool (pure delta path) and a squeezed one (dense fallback and
    /// boundary eviction pressure).
    #[test]
    fn delta_views_match_legacy_snapshots_across_epochs() {
        let delay = simcore::SimDuration::from_millis(250);
        for (trial, capacity_blocks) in [(1u64, 4096u64), (2, 4096), (3, 24), (4, 24), (5, 24)] {
            let mut rng = Lcg(0x9E3779B97F4A7C15 ^ trial);
            let mut shared_delta = NetKvPool::new(capacity_blocks * BLOCK_BYTES, BLOCK_BYTES)
                .with_propagation_delay(delay);
            let mut shared_legacy = NetKvPool::new(capacity_blocks * BLOCK_BYTES, BLOCK_BYTES)
                .with_propagation_delay(delay);
            // Pre-seed and settle, like a warm window start.
            shared_delta.offload(&hashes(1, 8 * BLOCK_TOKENS), SimTime::ZERO);
            shared_legacy.offload(&hashes(1, 8 * BLOCK_TOKENS), SimTime::ZERO);
            shared_delta.settle();
            shared_legacy.settle();

            // Membership churn: epoch 0 starts with {0, 1}; 2 joins at epoch 1;
            // 1 drains after epoch 2; 3 joins at epoch 3.
            for epoch in 0u64..5 {
                let boundary = SimTime::from_millis(epoch * 250);
                let members: Vec<usize> = match epoch {
                    0 => vec![0, 1],
                    1 | 2 => vec![0, 1, 2],
                    _ => vec![0, 2, 3],
                };
                let mut views: Vec<(usize, NetPoolView)> = members
                    .iter()
                    .map(|&id| (id, shared_delta.view_at(boundary, id)))
                    .collect();
                let mut snaps: Vec<(usize, NetKvPool)> = members
                    .iter()
                    .map(|&id| (id, shared_legacy.visible_snapshot(boundary, id)))
                    .collect();

                for step in 0..40 {
                    let slot = rng.below(members.len() as u64) as usize;
                    let now = boundary + simcore::SimDuration::from_millis(step * 5);
                    let start = (rng.below(60) * BLOCK_TOKENS as u64) as u32;
                    let blocks = 1 + rng.below(6) as usize;
                    let chain = hashes(start, blocks * BLOCK_TOKENS);
                    let view = &mut views[slot].1;
                    let snap = &mut snaps[slot].1;
                    match rng.below(3) {
                        0 => assert_eq!(
                            view.lookup_prefix_blocks(&chain),
                            snap.lookup_prefix_blocks(&chain),
                            "trial {trial} epoch {epoch} step {step}: lookup diverged"
                        ),
                        1 => {
                            let depth = view.lookup_prefix_blocks(&chain);
                            assert_eq!(
                                view.reload_prefix_accounted(&chain, depth, now),
                                snap.reload_prefix_accounted(&chain, depth, now),
                                "trial {trial} epoch {epoch} step {step}: reload diverged"
                            );
                        }
                        _ => assert_eq!(
                            view.offload_spilled(&chain, now, now),
                            snap.offload_spilled(&chain, now, now),
                            "trial {trial} epoch {epoch} step {step}: spill diverged"
                        ),
                    }
                    assert_eq!(view.resident_blocks(), snap.resident_blocks());
                }

                for ((id, view), (_, snap)) in views.iter().zip(&snaps) {
                    assert_same_pool(
                        &format!("trial {trial} epoch {epoch} instance {id} materialise"),
                        &view.materialise(),
                        snap,
                    );
                }

                // Boundary merge, in instance-id order, mirroring the cluster: all
                // deltas extracted (and the no-evict fit checked) before the first
                // absorb, legacy dense merges on the other side.
                let fits = views.iter().all(|(_, v)| v.shares_base(&shared_delta))
                    && shared_delta.resident_blocks().saturating_add(
                        views.iter().map(|(_, v)| v.merge_added_upper_bound()).sum(),
                    ) <= shared_delta.capacity_blocks();
                let mut delta_evicted = 0;
                if fits {
                    let deltas: Vec<ViewDelta> =
                        views.drain(..).map(|(_, v)| v.into_delta()).collect();
                    for delta in deltas {
                        delta_evicted += shared_delta.absorb(delta);
                    }
                } else {
                    let pools: Vec<NetKvPool> =
                        views.drain(..).map(|(_, v)| v.into_pool()).collect();
                    for pool in pools {
                        delta_evicted += shared_delta.absorb(ViewDelta::from_pool(pool));
                    }
                }
                let mut legacy_evicted = 0;
                for (_, snap) in &snaps {
                    legacy_evicted += shared_legacy.merge_from(snap);
                }
                assert_eq!(
                    delta_evicted, legacy_evicted,
                    "trial {trial} epoch {epoch}: merge eviction count diverged"
                );
                assert_same_pool(
                    &format!("trial {trial} epoch {epoch} shared"),
                    &shared_delta,
                    &shared_legacy,
                );
                assert_eq!(
                    shared_delta.meta_generation(),
                    shared_legacy.meta_generation()
                );
            }
        }
    }
}
