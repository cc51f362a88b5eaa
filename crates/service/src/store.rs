//! The content-addressed, tamper-evident result store.
//!
//! One directory, one append-only `results.jsonl`: each line is a complete
//! JSON object `{"body":{...},"chain":"<32 hex>"}`. The body carries the
//! scenario's [`SpecDigest`] key (see `bd_dispersion::canon`), the spec and
//! outcome, the [`EnvContract`] of the writing process, and `prev` — the
//! chain digest of the previous line (`GENESIS_TIP`, 32 zeros, for the
//! first). `chain` commits to the body's exact bytes under a domain
//! separator, so every entry transitively commits to the entire journal
//! before it. The store keeps a full in-memory index — a lookup never
//! touches the disk — and appends synchronously on `put`, so a process
//! crash can lose at most the entry being written.
//!
//! **What the chain proves** (and what it does not): any in-place edit,
//! record reordering, or truncate-then-append splice breaks a link and is
//! reported with the 1-based index of the first bad entry — by
//! [`ResultStore::open`] (which verifies while replaying) and by
//! [`ResultStore::verify_chain`] (the `/audit` re-read). It is a hash
//! chain, not a MAC: an adversary with write access who rewrites every
//! subsequent line is undetectable, as is truncating the tail exactly at a
//! line boundary. The chain defends provenance against accidents and
//! casual edits; byzantine storage needs an externally anchored tip *and*
//! a record key:
//!
//! * **Anchoring** ([`ResultStore::open_anchored`]): the current tip is
//!   persisted to a separate **anchor file** after every append (write
//!   temp + rename, so the anchor is never torn), and both open and
//!   [`ResultStore::verify_chain`] compare the journal's recomputed tip
//!   against the anchored one — a tail truncated exactly at a line
//!   boundary verifies as a chain but no longer matches the anchor, and
//!   is reported as [`ServiceError::AnchorMismatch`]. Because `put`
//!   appends the journal line *before* rewriting the anchor, a crash
//!   between the two leaves the journal exactly **one entry ahead** of
//!   the anchor; both verifiers accept that single-entry window as
//!   crash-consistent (and re-anchor), while a journal *behind* its
//!   anchor — the truncation signature — always fails. Keep the anchor on
//!   storage the journal's adversary cannot reach, or the two fail
//!   together.
//! * **Keyed records** ([`StoreKey`], `BD_STORE_KEY`): with a key
//!   configured, every appended line additionally carries a `mac` — a
//!   domain-tagged (`bdsm1`) keyed digest over the body bytes — and
//!   verification **requires** a valid MAC on every record. A
//!   forged-but-chain-consistent splice (an adversary who recomputes the
//!   chain digests after rewriting history — the attack the bare chain
//!   cannot see, and the one that slips through the anchor's one-entry
//!   crash window) cannot produce MACs without the key and is rejected as
//!   [`ServiceError::Tampered`]. Journals written without a key stay
//!   readable by unkeyed stores; opening one *with* a key refuses, by
//!   design — keying starts with a fresh (or re-written) journal. The
//!   keyed digest is the same hand-rolled dual-FNV the chain uses: honest
//!   about its tier — it defeats adversaries without the key, not
//!   cryptanalysts; swap in an HMAC when the registry is reachable.
//!
//! **Crash tolerance:** a damaged *final* line that does not decode is the
//! signature of a crash mid-append; `open` drops it and truncates the file
//! to the last good entry, so the next append continues a clean journal.
//! Damage anywhere *before* the tail means something other than a crash
//! happened to the file, and the store refuses to open rather than
//! silently serve half a journal: undecodable interior lines are
//! [`ServiceError::Corrupt`], decodable-but-chain-invalid lines anywhere
//! (tail included — a *complete* wrong line is not a crash signature) are
//! [`ServiceError::Tampered`].
//!
//! **Fault injection:** the write path carries `bd-chaos` injection
//! points ([`StoreOptions::chaos`]) so the crash-recovery drill
//! (`bd-bench --bin chaos`, RESILIENCE.md) can tear appends at a
//! seed-chosen byte, lose the page cache, or lose the anchor rewrite —
//! deterministically. A disabled handle costs one `Option` check per
//! append. [`StoreOptions::break_recovery`] is the drill's teeth mode: it
//! deliberately disables the tail-truncation step of crash recovery so
//! the drill can prove it notices a recovery path that stopped working.

use crate::error::ServiceError;
use bd_chaos::{AnchorFault, Chaos, WriteFault};
use bd_dispersion::canon::SpecDigest;
use bd_dispersion::runner::{Outcome, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the journal inside the store directory.
pub const JOURNAL: &str = "results.jsonl";

/// Environment variable a record key is read from by
/// [`StoreOptions::from_env`] (and therefore every standard open).
pub const STORE_KEY_ENV: &str = "BD_STORE_KEY";

/// Chain link of the empty journal: 32 zeros (no real digest, which is a
/// pair of FNV streams over a domain-tagged body, can collide with it).
pub const GENESIS_TIP: &str = "00000000000000000000000000000000";

/// Domain separator prefixed to every body before digesting, versioning
/// the chain format itself: a digest computed under a different rule can
/// never verify here by accident.
const CHAIN_DOMAIN: &[u8] = b"bdsc1";

/// Domain separator of the keyed record MAC — distinct from the chain
/// domain so a chain digest can never be replayed as a MAC or vice versa.
const MAC_DOMAIN: &[u8] = b"bdsm1";

/// Entry layout constants used to recover the body's exact bytes from a
/// journal line without trusting serializer round-trips. An unkeyed line
/// is `{"body":<body json>,"chain":"<32 hex>"}`; a keyed line is
/// `{"body":<body json>,"chain":"<32 hex>","mac":"<32 hex>"}`.
const LINE_HEAD: &str = "{\"body\":";
const LINE_TAIL: &str = ",\"chain\":\"";
const MAC_TAIL: &str = "\",\"mac\":\"";
/// `,"chain":"` + 32 hex digits + `"}`.
const TAIL_LEN: usize = LINE_TAIL.len() + 32 + 2;
/// `,"chain":"` + 32 hex + `","mac":"` + 32 hex + `"}`.
const KEYED_TAIL_LEN: usize = LINE_TAIL.len() + 32 + MAC_TAIL.len() + 32 + 2;

/// The environment a journal entry was produced under. Committed into the
/// chain, so an audit can tell which code wrote which results — a stored
/// outcome is only as trustworthy as the engine build that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvContract {
    /// Crate version of the writing process.
    pub code_version: String,
    /// The simulation engine the outcome came from.
    pub engine: String,
    /// Journal format tag; bumped on any layout change.
    pub format: String,
}

impl EnvContract {
    /// The contract of this build.
    pub fn current() -> EnvContract {
        EnvContract {
            code_version: env!("CARGO_PKG_VERSION").into(),
            engine: "bd-runtime".into(),
            format: "bdsc1".into(),
        }
    }
}

/// A record-authentication key. With one configured, every appended
/// journal line carries a keyed MAC over its body and verification
/// requires it — the defense the bare hash chain cannot provide against
/// an adversary who rewrites history *and* recomputes the chain.
///
/// Reads from the [`STORE_KEY_ENV`] environment variable by default; the
/// `Debug` rendering never prints the key material.
#[derive(Clone, PartialEq, Eq)]
pub struct StoreKey(Vec<u8>);

impl std::fmt::Debug for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StoreKey(<redacted, {} bytes>)", self.0.len())
    }
}

impl StoreKey {
    /// A key from raw bytes. Empty keys are not a thing: they would make
    /// "keyed" silently mean "unkeyed".
    pub fn new(bytes: impl Into<Vec<u8>>) -> Option<StoreKey> {
        let bytes = bytes.into();
        if bytes.is_empty() {
            None
        } else {
            Some(StoreKey(bytes))
        }
    }

    /// The key configured in the environment (`BD_STORE_KEY`), if any.
    pub fn from_env() -> Option<StoreKey> {
        std::env::var(STORE_KEY_ENV).ok().and_then(StoreKey::new)
    }
}

/// Everything an open can be configured with. [`StoreOptions::from_env`]
/// is what the convenience constructors use: no anchor, no chaos, the key
/// from `BD_STORE_KEY`.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Out-of-band chain-tip anchor file.
    pub anchor: Option<PathBuf>,
    /// Record-authentication key; appends carry MACs and verification
    /// requires them.
    pub key: Option<StoreKey>,
    /// Fault-injection handle for the write path (drills only;
    /// [`Chaos::off`] in production).
    pub chaos: Chaos,
    /// **Teeth mode** — deliberately disable the truncation step of
    /// torn-tail recovery, leaving damaged bytes in place for the next
    /// append to bury. Exists so the chaos drill can prove it detects a
    /// recovery path that stopped working; never set outside a drill.
    pub break_recovery: bool,
}

impl StoreOptions {
    /// The standard options: key from the environment, everything else
    /// off.
    pub fn from_env() -> StoreOptions {
        StoreOptions {
            key: StoreKey::from_env(),
            ..StoreOptions::default()
        }
    }

    /// Anchor the chain tip in `path`.
    pub fn with_anchor(mut self, path: impl Into<PathBuf>) -> StoreOptions {
        self.anchor = Some(path.into());
        self
    }

    /// Authenticate records under `key` (overrides the environment).
    pub fn with_key(mut self, key: Option<StoreKey>) -> StoreOptions {
        self.key = key;
        self
    }

    /// Thread a fault-injection handle into the write path.
    pub fn with_chaos(mut self, chaos: Chaos) -> StoreOptions {
        self.chaos = chaos;
        self
    }
}

/// Read the tip recorded in an anchor file; `None` when the file is
/// missing or empty (a fresh anchor, initialized at open).
fn read_anchor(path: &Path) -> Result<Option<String>, ServiceError> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let tip = text.trim().to_string();
            Ok(if tip.is_empty() { None } else { Some(tip) })
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Persist `tip` to the anchor file via write-temp-then-rename, so a
/// crash mid-write can never leave a torn anchor behind.
fn write_anchor(path: &Path, tip: &str) -> Result<(), ServiceError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{tip}\n"))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// The chain digest of a body's exact serialized bytes.
fn chain_digest(body_json: &str) -> String {
    let mut bytes = Vec::with_capacity(CHAIN_DOMAIN.len() + body_json.len());
    bytes.extend_from_slice(CHAIN_DOMAIN);
    bytes.extend_from_slice(body_json.as_bytes());
    SpecDigest::of_bytes(&bytes).to_string()
}

/// The keyed MAC of a body's exact serialized bytes: domain tag, then the
/// length-prefixed key, then the body. The length prefix keeps
/// `(key="ab", body="c…")` and `(key="a", body="bc…")` distinct.
fn record_mac(key: &StoreKey, body_json: &str) -> String {
    let mut bytes = Vec::with_capacity(MAC_DOMAIN.len() + 8 + key.0.len() + body_json.len());
    bytes.extend_from_slice(MAC_DOMAIN);
    bytes.extend_from_slice(&(key.0.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&key.0);
    bytes.extend_from_slice(body_json.as_bytes());
    SpecDigest::of_bytes(&bytes).to_string()
}

/// The chained payload of one journal line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EntryBody {
    /// 32-hex-digit [`SpecDigest`] rendering (the lookup key).
    digest: String,
    /// The spec that produced the outcome (for humans and audits; lookups
    /// go by digest alone).
    spec: ScenarioSpec,
    /// The stored result, replayed verbatim on a hit.
    outcome: Outcome,
    /// Environment the entry was written under.
    env: EnvContract,
    /// Chain digest of the previous line; [`GENESIS_TIP`] for the first.
    prev: String,
}

/// One journal line: the body plus the digest committing to it. Keyed
/// lines additionally carry a trailing `"mac"` member, recovered
/// positionally (the vendored deserializer ignores unknown members).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    body: EntryBody,
    /// `SpecDigest` of `CHAIN_DOMAIN ++ <body json bytes>`.
    chain: String,
}

/// How one journal line fared under verification against the running tip.
enum LineVerdict {
    /// Decodes, layout intact, chain digest correct (and MAC correct when
    /// a key is configured), links to the tip.
    Good(Box<Entry>),
    /// Does not decode as an entry at all — a crash signature when (and
    /// only when) it is the final line.
    Undecodable(String),
    /// Decodes but fails the chain: wrong layout, wrong digest, missing
    /// or wrong MAC, or a broken `prev` link. Never a crash signature.
    ChainViolation(String),
}

/// Positionally recover `(body bytes, mac hex)` from a trimmed line. The
/// layouts are fixed-width from the end, so no serializer round-trip is
/// involved; when both tails could match (a body whose text happens to end
/// like a MAC segment), the chain digest decides — exactly one slice can
/// verify.
fn split_line(trimmed: &str) -> Vec<(&str, Option<&str>)> {
    let mut candidates = Vec::new();
    if trimmed.len() >= LINE_HEAD.len() + KEYED_TAIL_LEN
        && trimmed.starts_with(LINE_HEAD)
        && trimmed.ends_with("\"}")
        && trimmed[trimmed.len() - KEYED_TAIL_LEN..].starts_with(LINE_TAIL)
        && trimmed[trimmed.len() - KEYED_TAIL_LEN + LINE_TAIL.len() + 32..].starts_with(MAC_TAIL)
    {
        let body = &trimmed[LINE_HEAD.len()..trimmed.len() - KEYED_TAIL_LEN];
        let mac = &trimmed[trimmed.len() - 34..trimmed.len() - 2];
        candidates.push((body, Some(mac)));
    }
    if trimmed.len() >= LINE_HEAD.len() + TAIL_LEN
        && trimmed.starts_with(LINE_HEAD)
        && trimmed.ends_with("\"}")
        && trimmed[trimmed.len() - TAIL_LEN..].starts_with(LINE_TAIL)
    {
        candidates.push((&trimmed[LINE_HEAD.len()..trimmed.len() - TAIL_LEN], None));
    }
    candidates
}

/// Verify one trimmed journal line against the expected `tip` (and `key`,
/// when the store is keyed).
fn verify_line(trimmed: &str, tip: &str, key: Option<&StoreKey>) -> LineVerdict {
    let entry: Entry = match serde_json::from_str(trimmed) {
        Ok(e) => e,
        Err(e) => return LineVerdict::Undecodable(e.to_string()),
    };
    let candidates = split_line(trimmed);
    if candidates.is_empty() {
        return LineVerdict::ChainViolation("entry layout is not the journal format".into());
    }
    let Some((body_json, mac)) = candidates
        .iter()
        .find(|(body, _)| chain_digest(body) == entry.chain)
    else {
        let recomputed = chain_digest(candidates[0].0);
        return LineVerdict::ChainViolation(format!(
            "chain digest mismatch: recorded {}, recomputed {recomputed}",
            entry.chain
        ));
    };
    if let Some(key) = key {
        match mac {
            None => {
                return LineVerdict::ChainViolation(
                    "record carries no MAC but this store is keyed — journal written \
                     unkeyed (or MAC stripped); keying starts with a fresh journal"
                        .into(),
                );
            }
            Some(mac) if *mac != record_mac(key, body_json) => {
                return LineVerdict::ChainViolation(
                    "record MAC does not verify under the configured key: forged record \
                     or wrong key"
                        .into(),
                );
            }
            Some(_) => {}
        }
    }
    if entry.body.prev != tip {
        return LineVerdict::ChainViolation(format!(
            "broken link: prev {} but the preceding entry's digest is {tip}",
            entry.body.prev
        ));
    }
    LineVerdict::Good(Box::new(entry))
}

/// Counters a store accumulates over its lifetime (process-local; they
/// reset on reopen, unlike the journal). [`ResultStore::counters`] reads
/// them in one acquisition of the same lock `get`/`put` update them
/// under, so a snapshot is a single point in time — never a torn view
/// mixing fields from before and after a concurrent update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Lookups answered from the index.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries appended by this process.
    pub appended: u64,
    /// Journal lines dropped by truncated-tail recovery at open.
    pub recovered: u64,
    /// Appends that failed (surfaced as errors; the entry is not
    /// indexed). The daemon degrades after the first of these.
    pub write_failures: u64,
}

/// What a successful [`ResultStore::verify_chain`] audit found.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainAudit {
    /// Entries whose chain verified.
    pub entries: usize,
    /// Chain digest of the final entry ([`GENESIS_TIP`] when empty) — the
    /// value to anchor externally if the storage itself is untrusted.
    pub tip: String,
}

struct Inner {
    index: HashMap<SpecDigest, Outcome>,
    file: File,
    /// Chain digest of the last journal line; the next `put` links to it.
    tip: String,
    /// Lifetime counters, kept under the one lock so `counters()` is a
    /// consistent snapshot (OBSERVABILITY.md, torn-read fix).
    hits: u64,
    misses: u64,
    appended: u64,
    write_failures: u64,
}

/// A content-addressed, append-only store of run [`Outcome`]s. Sync: the
/// daemon's worker pool shares one store across threads.
pub struct ResultStore {
    path: PathBuf,
    /// Out-of-band tip anchor; every append rewrites it and every audit
    /// checks against it. `None` falls back to chain-only verification.
    anchor: Option<PathBuf>,
    /// Record-authentication key; `None` verifies the chain alone.
    key: Option<StoreKey>,
    /// Fault-injection handle ([`Chaos::off`] outside drills).
    chaos: Chaos,
    inner: Mutex<Inner>,
    recovered: u64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("entries", &self.len())
            .field("keyed", &self.key.is_some())
            .finish()
    }
}

/// How an anchored tip relates to the journal's recomputed one.
enum AnchorVerdict {
    /// Identical, or a benign one-entry crash window (journal ahead by
    /// exactly the final entry); the `bool` is whether to re-anchor.
    Accept(bool),
    Mismatch {
        anchored_tip: String,
    },
}

/// Judge `anchored` against the replayed journal: `tip` is the journal's
/// final chain digest, `prev_tip` the digest before the final entry.
/// `put` appends the journal line before rewriting the anchor, so a crash
/// between the two legitimately leaves the journal one entry ahead —
/// that, and only that, is accepted besides an exact match. A journal
/// *behind* its anchor (truncation) or further ahead (not a single-append
/// crash) mismatches.
fn judge_anchor(anchored: Option<String>, tip: &str, prev_tip: Option<&str>) -> AnchorVerdict {
    match anchored {
        None => AnchorVerdict::Accept(true),
        Some(a) if a == tip => AnchorVerdict::Accept(false),
        Some(a) if prev_tip == Some(a.as_str()) => AnchorVerdict::Accept(true),
        Some(a) => AnchorVerdict::Mismatch { anchored_tip: a },
    }
}

impl ResultStore {
    /// Open (creating if needed) the store under `dir`, replaying the
    /// journal into the in-memory index. Every line is chain-verified as
    /// it loads; only an undecodable *final* line (a torn append) is
    /// recovered, by truncating to the last good entry. Key from the
    /// environment (`BD_STORE_KEY`), no anchor, no chaos.
    pub fn open(dir: impl AsRef<Path>) -> Result<ResultStore, ServiceError> {
        ResultStore::open_with(dir, StoreOptions::from_env())
    }

    /// Open the store with its chain tip **anchored out-of-band** in
    /// `anchor` (any writable path, ideally on storage the journal's
    /// adversary cannot reach). A missing or empty anchor file is
    /// initialized from the journal's current tip; an existing one must
    /// match the tip recomputed from the journal — modulo the one-entry
    /// crash window (see the module docs) — or the open fails with
    /// [`ServiceError::AnchorMismatch`]. This is what makes a tail
    /// truncated exactly at a line boundary (invisible to the chain
    /// itself) detectable across restarts. Every subsequent `put`
    /// rewrites the anchor atomically.
    pub fn open_anchored(
        dir: impl AsRef<Path>,
        anchor: impl Into<PathBuf>,
    ) -> Result<ResultStore, ServiceError> {
        ResultStore::open_with(dir, StoreOptions::from_env().with_anchor(anchor))
    }

    /// Open with explicit [`StoreOptions`] — the fully-general
    /// constructor the drills and the daemon use.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<ResultStore, ServiceError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;

        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let mut index = HashMap::new();
        let mut tip = GENESIS_TIP.to_string();
        let mut prev_tip: Option<String> = None;
        let mut good_bytes = 0usize;
        let mut recovered = 0u64;
        let mut offset = 0usize;
        for (lineno, line) in text.split_inclusive('\n').enumerate() {
            let start = offset;
            offset += line.len();
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                good_bytes = offset;
                continue;
            }
            match verify_line(trimmed, &tip, options.key.as_ref()) {
                LineVerdict::Good(entry) => {
                    let digest = SpecDigest::parse(&entry.body.digest).ok_or_else(|| {
                        ServiceError::Tampered {
                            path: path.clone(),
                            index: lineno + 1,
                            msg: format!("bad digest {:?}", entry.body.digest),
                        }
                    })?;
                    index.insert(digest, entry.body.outcome);
                    prev_tip = Some(std::mem::replace(&mut tip, entry.chain));
                    good_bytes = offset;
                }
                LineVerdict::Undecodable(msg) => {
                    // Only a damaged *tail* is recoverable: it must be the
                    // last line of the file.
                    if offset == text.len() {
                        recovered = 1;
                        if options.break_recovery {
                            // Teeth mode: "recover" without truncating —
                            // the torn bytes stay for the next append to
                            // bury, which is exactly the corruption the
                            // drill must detect downstream.
                            good_bytes = offset;
                        } else {
                            good_bytes = start;
                        }
                        break;
                    }
                    return Err(ServiceError::Corrupt {
                        path,
                        line: lineno + 1,
                        msg,
                    });
                }
                LineVerdict::ChainViolation(msg) => {
                    return Err(ServiceError::Tampered {
                        path,
                        index: lineno + 1,
                        msg,
                    });
                }
            }
        }
        if good_bytes < text.len() {
            file.set_len(good_bytes as u64)?;
            file.seek(SeekFrom::End(0))?;
        } else if !text.is_empty() && !text.ends_with('\n') && !options.break_recovery {
            // A crash can persist the final record in full but lose its
            // trailing newline: the record replays fine, but appending
            // after it verbatim would merge two records onto one line.
            // Terminate it before the store accepts writes.
            file.write_all(b"\n")?;
        }

        if let Some(anchor_path) = &options.anchor {
            match judge_anchor(read_anchor(anchor_path)?, &tip, prev_tip.as_deref()) {
                AnchorVerdict::Accept(true) => write_anchor(anchor_path, &tip)?,
                AnchorVerdict::Accept(false) => {}
                AnchorVerdict::Mismatch { anchored_tip } => {
                    return Err(ServiceError::AnchorMismatch {
                        path,
                        anchor: anchor_path.clone(),
                        journal_tip: tip,
                        anchored_tip,
                    });
                }
            }
        }

        Ok(ResultStore {
            path,
            anchor: options.anchor,
            key: options.key,
            chaos: options.chaos,
            inner: Mutex::new(Inner {
                index,
                file,
                tip,
                hits: 0,
                misses: 0,
                appended: 0,
                write_failures: 0,
            }),
            recovered,
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of the out-of-band tip anchor, when one is configured.
    pub fn anchor(&self) -> Option<&Path> {
        self.anchor.as_deref()
    }

    /// Whether records are keyed (appends carry MACs, verification
    /// requires them).
    pub fn keyed(&self) -> bool {
        self.key.is_some()
    }

    /// The fault-injection handle this store was opened with
    /// ([`Chaos::off`] outside drills) — the drill reads its counters.
    pub fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    /// Number of stored outcomes.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").index.len()
    }

    /// Whether the store holds no outcome.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current chain tip ([`GENESIS_TIP`] when empty).
    pub fn tip(&self) -> String {
        self.inner.lock().expect("store lock").tip.clone()
    }

    /// Lifetime counters (process-local), read in one lock acquisition —
    /// a point-in-time snapshot, never a torn view.
    pub fn counters(&self) -> StoreCounters {
        let inner = self.inner.lock().expect("store lock");
        StoreCounters {
            hits: inner.hits,
            misses: inner.misses,
            appended: inner.appended,
            recovered: self.recovered,
            write_failures: inner.write_failures,
        }
    }

    /// The stored outcome for `digest`, counting a hit or a miss.
    pub fn get(&self, digest: &SpecDigest) -> Option<Outcome> {
        let mut inner = self.inner.lock().expect("store lock");
        match inner.index.get(digest) {
            Some(out) => {
                let out = out.clone();
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// The stored outcome for `digest`, without counting a hit or a miss:
    /// a re-read of an outcome already served, not a cache lookup. The
    /// index is append-only, so an outcome once served stays readable.
    pub fn peek(&self, digest: &SpecDigest) -> Option<Outcome> {
        self.inner
            .lock()
            .expect("store lock")
            .index
            .get(digest)
            .cloned()
    }

    /// Persist `outcome` under `digest`, appending one chain-linked
    /// journal line and flushing it. Idempotent: re-putting an existing
    /// digest is a no-op (returns `false`) — first write wins, matching
    /// the append-only journal's replay semantics.
    ///
    /// On a write failure (real, or injected by the chaos handle) the
    /// entry is **not** indexed: the in-memory view never claims an
    /// outcome the journal did not durably record, so a resubmission
    /// after recovery re-simulates and re-appends.
    pub fn put(
        &self,
        digest: SpecDigest,
        spec: &ScenarioSpec,
        outcome: &Outcome,
    ) -> Result<bool, ServiceError> {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.contains_key(&digest) {
            return Ok(false);
        }
        let body = EntryBody {
            digest: digest.to_string(),
            spec: spec.clone(),
            outcome: outcome.clone(),
            env: EnvContract::current(),
            prev: inner.tip.clone(),
        };
        let body_json = serde_json::to_string(&body)
            .map_err(|e| ServiceError::Protocol(format!("encode store entry: {e}")))?;
        let chain = chain_digest(&body_json);
        // Assembled positionally, exactly the layout `verify_line` slices.
        let line = match &self.key {
            None => format!("{LINE_HEAD}{body_json}{LINE_TAIL}{chain}\"}}\n"),
            Some(key) => {
                let mac = record_mac(key, &body_json);
                format!("{LINE_HEAD}{body_json}{LINE_TAIL}{chain}{MAC_TAIL}{mac}\"}}\n")
            }
        };
        match self.chaos.journal_write(line.len()) {
            WriteFault::Clean => {
                inner.file.write_all(line.as_bytes())?;
                inner.file.flush()?;
            }
            WriteFault::Torn { prefix } => {
                // Emulated kill mid-write(2): exactly `prefix` bytes reach
                // the file, then the process is dead — the entry is not
                // indexed and the error names the kill.
                let _ = inner.file.write_all(&line.as_bytes()[..prefix]);
                let _ = inner.file.flush();
                inner.write_failures += 1;
                return Err(ServiceError::Io(std::io::Error::other(format!(
                    "chaos: killed mid-append after {prefix} of {} bytes",
                    line.len()
                ))));
            }
            WriteFault::FsyncLost => {
                inner.write_failures += 1;
                return Err(ServiceError::Io(std::io::Error::other(
                    "chaos: append lost with the page cache",
                )));
            }
        }
        inner.index.insert(digest, outcome.clone());
        inner.tip = chain;
        inner.appended += 1;
        // Anchor after the journal write, under the same lock: the anchor
        // always holds the tip of a journal state that exists on disk.
        if let Some(anchor_path) = &self.anchor {
            match self.chaos.anchor_write() {
                AnchorFault::Clean => write_anchor(anchor_path, &inner.tip)?,
                // Emulated kill (or loss) between the journal append and
                // the anchor rename: the journal runs ahead by one — the
                // crash window `judge_anchor` accepts on reopen.
                AnchorFault::Lost => {}
            }
        }
        Ok(true)
    }

    /// Re-read the journal from disk and verify the whole chain — the
    /// `/audit` endpoint's workhorse. Holds the store lock, so no append
    /// can interleave with the read.
    ///
    /// Unlike `open`, the audit answers one question — "is the file on
    /// disk the file this store wrote?" — so *any* undecodable line,
    /// interior or final, fails it: while the lock is held no append is in
    /// flight, hence a torn tail cannot be ours. All failures report the
    /// 1-based index of the first bad entry. When the store is keyed,
    /// every record's MAC must verify. When the store is anchored, the
    /// recomputed tip must additionally match the anchored one (modulo
    /// the one-entry crash window) — the check that catches a tail
    /// truncated exactly at a line boundary, which leaves a perfectly
    /// valid (shorter) chain behind.
    pub fn verify_chain(&self) -> Result<ChainAudit, ServiceError> {
        let _inner = self.inner.lock().expect("store lock");
        let text = std::fs::read_to_string(&self.path)?;
        let mut tip = GENESIS_TIP.to_string();
        let mut prev_tip: Option<String> = None;
        let mut entries = 0usize;
        for (lineno, line) in text.split_inclusive('\n').enumerate() {
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            match verify_line(trimmed, &tip, self.key.as_ref()) {
                LineVerdict::Good(entry) => {
                    prev_tip = Some(std::mem::replace(&mut tip, entry.chain));
                    entries += 1;
                }
                LineVerdict::Undecodable(msg) | LineVerdict::ChainViolation(msg) => {
                    return Err(ServiceError::Tampered {
                        path: self.path.clone(),
                        index: lineno + 1,
                        msg,
                    });
                }
            }
        }
        if let Some(anchor_path) = &self.anchor {
            if let AnchorVerdict::Mismatch { anchored_tip } =
                judge_anchor(read_anchor(anchor_path)?, &tip, prev_tip.as_deref())
            {
                return Err(ServiceError::AnchorMismatch {
                    path: self.path.clone(),
                    anchor: anchor_path.clone(),
                    journal_tip: tip,
                    anchored_tip,
                });
            }
        }
        Ok(ChainAudit { entries, tip })
    }
}
