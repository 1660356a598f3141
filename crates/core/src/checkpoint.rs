//! Crash-safe checkpointing of the exploration frontier (`DESIGN.md` §14).
//!
//! A checkpoint is a single, self-contained, versioned binary file holding
//! everything needed to *resume* an interrupted exploration run on a fresh
//! process: the pending frontier (configurations with their call stacks,
//! stores, path conditions and branch traces), summaries of the paths
//! already completed, and the run's budget/diagnostic accounting. Nothing
//! else — solver SAT caches, simplifier memos and the term interner are
//! deliberately **not** checkpointed: they are process-local performance
//! caches that a resumed run rebuilds lazily, and serializing them would
//! couple the format to cache internals without changing any verdict.
//!
//! ## Intern-id remapping
//!
//! Interned [`Term`](gillian_gil::Term) ids are mint-order dependent, so a
//! checkpoint never stores them as identity. Instead the whole file shares
//! one post-order term table ([`gillian_gil::serial`]): children appear
//! strictly before parents and every reference is a table slot. Loading
//! re-interns each entry in order, so pointer-equality (and everything
//! keyed on it — path-condition keys, simplifier memos) is rebuilt
//! correctly in the new process, with sharing preserved across the whole
//! frontier.
//!
//! ## File layout (version 2)
//!
//! ```text
//! magic "GILCKPT\0"           8 bytes
//! version                     u32 (little-endian)
//! checksum                    u64 FNV-1a over everything after this field
//! --- checksummed payload ---
//! strategy                    u8 (0 = DFS, 1 = BFS)
//! entry procedure             str
//! term table                  post-order DAG (serial::Encoder)
//! total_cmds                  u64
//! truncated                   u8
//! dropped_paths               u64
//! diagnostics                 count × (name str, u64)   -- forward-tolerant
//! completed paths             count × (trace, outcome str, cmds u64)
//! frontier                    count × FrontierItem
//! ```
//!
//! Version 2 (the bytecode backend) extends each `FrontierItem` with its
//! bytecode resume point: the program counter (`u64`, always equal to the
//! command index — compiled blocks are per-command, so `pc == idx` into
//! the source body) and the count of live evaluation registers (`u32`,
//! always `0`: checkpoints are only taken at command boundaries, where
//! every transient register is dead). Both are validated on load so a v2
//! reader rejects a file that claims mid-expression state it cannot
//! rebuild. Version 1 files are rejected with [`ResumeError::BadVersion`];
//! there is no silent migration, because a silently "upgraded" frontier
//! would erase the format's only cross-version honesty guarantee.
//!
//! The ordering of the header checks is deliberate: a wrong magic reports
//! [`ResumeError::BadMagic`], a patched version byte reports a clean
//! [`ResumeError::BadVersion`] (the checksum does not cover the version, so
//! the report names the real problem), and any flipped payload byte reports
//! [`ResumeError::ChecksumMismatch`] before a single structure is parsed.
//! Loading never panics on untrusted bytes.
//!
//! Writes are atomic: the file is written to `<path>.tmp` and renamed over
//! `<path>`, so a crash mid-write leaves the previous checkpoint intact.

use crate::explore::{ExploreDiagnostics, SearchStrategy};
use crate::interp::{Config, Frame};
use crate::state::GilState;
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder, WireError};
use gillian_gil::Ident;
use gillian_solver::Solver;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The checkpoint file magic.
pub const MAGIC: &[u8; 8] = b"GILCKPT\0";

/// The current checkpoint format version. Version 2 added the bytecode
/// resume point (pc + live-register count) to every frontier item.
pub const VERSION: u32 = 2;

/// When and where the exploration engines write checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// The checkpoint file. Written atomically (tmp file + rename); each
    /// write replaces the previous checkpoint.
    pub path: PathBuf,
    /// Periodic checkpointing: write at most once per this interval,
    /// checked at scheduling points. `None` (the default of
    /// [`CheckpointConfig::at`]) writes only on interruption.
    pub every: Option<Duration>,
    /// Write a final checkpoint when the wall-clock deadline fires, before
    /// pending work is parked as truncated. Default `true`.
    pub on_deadline: bool,
    /// Write a final checkpoint when the run is cancelled. Default `true`.
    pub on_cancel: bool,
}

impl CheckpointConfig {
    /// Checkpoint to `path` on interruption (deadline/cancel/kill) only.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: None,
            on_deadline: true,
            on_cancel: true,
        }
    }

    /// This configuration with periodic checkpointing every `every`.
    pub fn with_interval(mut self, every: Duration) -> Self {
        self.every = Some(every);
        self
    }
}

/// Process-local context a state needs to rebuild itself from a
/// checkpoint: the solving machinery is shared infrastructure, not path
/// state, so it is provided by the resuming process rather than stored.
#[derive(Clone, Debug)]
pub struct StateCtx {
    /// The solver resumed states attach to (one per run, as usual).
    pub solver: Arc<Solver>,
}

impl StateCtx {
    /// A context around `solver`.
    pub fn new(solver: Arc<Solver>) -> Self {
        StateCtx { solver }
    }
}

/// Why a state or store could not be serialized or rebuilt.
#[derive(Debug)]
pub enum StateIoError {
    /// The state/store/memory type does not implement checkpoint
    /// serialization (the [`GilState`]/`SymbolicMemory` defaults).
    Unsupported(&'static str),
    /// The serialized form was malformed or truncated.
    Wire(WireError),
}

impl From<WireError> for StateIoError {
    fn from(e: WireError) -> Self {
        StateIoError::Wire(e)
    }
}

impl std::fmt::Display for StateIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateIoError::Unsupported(what) => {
                write!(f, "{what} does not support checkpoint serialization")
            }
            StateIoError::Wire(e) => write!(f, "state serialization: {e}"),
        }
    }
}

impl std::error::Error for StateIoError {}

/// A completed path as recorded in a checkpoint: its schedule-independent
/// branch trace, outcome kind and command count. Final states are *not*
/// checkpointed — a completed path's verdict is its trace + outcome, and
/// its full state can always be regenerated with
/// [`replay_path`](crate::explore::replay_path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSummary {
    /// The branch trace identifying the path.
    pub trace: Vec<u32>,
    /// The outcome kind (`normal`, `error`, `vanished`, `truncated`,
    /// `engine_error`) — stored as a string for version tolerance.
    pub outcome: String,
    /// Commands executed along the path.
    pub cmds: u64,
}

/// One pending unit of exploration work: a configuration, its per-path
/// command count, and its branch trace. This is the worklist element of
/// both exploration engines and the frontier element of a checkpoint.
#[derive(Clone, Debug)]
pub struct FrontierItem<S: GilState> {
    /// The pending configuration.
    pub config: Config<S>,
    /// Commands executed along this path so far.
    pub cmds: u64,
    /// The branch trace: successor index chosen at every branching step.
    pub trace: Vec<u32>,
}

/// Everything a checkpoint file holds.
#[derive(Clone, Debug)]
pub struct CheckpointData<S: GilState> {
    /// The interrupted run's search strategy (resume re-adopts it — a
    /// different order would still be sound but would break
    /// interrupted-then-resumed ≡ uninterrupted accounting).
    pub strategy: SearchStrategy,
    /// The entry procedure of the original run (informational; resumed
    /// work re-starts from explicit configurations, not the entry).
    pub entry: String,
    /// Commands executed before the checkpoint (resume continues the
    /// global budget from here).
    pub total_cmds: u64,
    /// Whether some budget had already truncated the run.
    pub truncated: bool,
    /// Paths already lost to `max_pending`/`max_paths` caps.
    pub dropped_paths: usize,
    /// Diagnostics accumulated before the checkpoint (interner telemetry
    /// excluded — it is process-local).
    pub diagnostics: ExploreDiagnostics,
    /// Paths completed before the checkpoint.
    pub completed: Vec<PathSummary>,
    /// The pending frontier.
    pub frontier: Vec<FrontierItem<S>>,
}

/// A checkpoint write failure.
#[derive(Debug)]
pub enum SaveError {
    /// Filesystem failure (tmp write or rename).
    Io(std::io::Error),
    /// A frontier state/store could not be serialized.
    State(StateIoError),
}

impl From<StateIoError> for SaveError {
    fn from(e: StateIoError) -> Self {
        SaveError::State(e)
    }
}

impl From<WireError> for SaveError {
    fn from(e: WireError) -> Self {
        SaveError::State(StateIoError::Wire(e))
    }
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaveError::Io(e) => write!(f, "checkpoint write: {e}"),
            SaveError::State(e) => write!(f, "checkpoint encode: {e}"),
        }
    }
}

impl std::error::Error for SaveError {}

/// A checkpoint load failure. Every corruption class reports cleanly;
/// loading never panics on untrusted bytes.
#[derive(Debug)]
pub enum ResumeError {
    /// Filesystem failure reading the checkpoint.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the supported one.
    BadVersion {
        /// The version the file declares.
        found: u32,
        /// The version this build supports.
        expected: u32,
    },
    /// The payload checksum does not match — the file was corrupted or
    /// truncated after the header.
    ChecksumMismatch,
    /// The checksummed payload parsed incorrectly (a format bug or a
    /// checksum collision; includes bad intern-table slots).
    Corrupt(WireError),
    /// A frontier state could not be rebuilt.
    State(StateIoError),
    /// The payload parsed but its contents are inconsistent.
    BadData(&'static str),
}

impl From<WireError> for ResumeError {
    fn from(e: WireError) -> Self {
        ResumeError::Corrupt(e)
    }
}

impl From<StateIoError> for ResumeError {
    fn from(e: StateIoError) -> Self {
        match e {
            StateIoError::Wire(w) => ResumeError::Corrupt(w),
            other => ResumeError::State(other),
        }
    }
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "checkpoint read: {e}"),
            ResumeError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            ResumeError::BadVersion { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            ResumeError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            ResumeError::Corrupt(e) => write!(f, "checkpoint payload corrupt: {e}"),
            ResumeError::State(e) => write!(f, "checkpoint state: {e}"),
            ResumeError::BadData(what) => write!(f, "checkpoint inconsistent: {what}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// FNV-1a over `bytes` — dependency-free corruption detection (not
/// cryptographic; the threat model is torn writes and bit rot, not
/// adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_trace(out: &mut Vec<u8>, trace: &[u32]) -> Result<(), WireError> {
    serial::put_len(out, trace.len(), "branch trace")?;
    for &t in trace {
        serial::put_u32(out, t);
    }
    Ok(())
}

fn read_trace(r: &mut ByteReader) -> Result<Vec<u32>, WireError> {
    let n = r.count()?;
    let mut trace = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        trace.push(r.u32()?);
    }
    Ok(trace)
}

fn diag_pairs(d: &ExploreDiagnostics) -> [(&'static str, u64); 7] {
    [
        ("deadline_hits", d.deadline_hits as u64),
        ("cancellations", d.cancellations as u64),
        ("engine_errors", d.engine_errors as u64),
        ("unknown_verdicts", d.unknown_verdicts),
        ("incremental_hits", d.incremental_hits),
        ("summaries_recorded", d.summaries_recorded),
        ("summaries_applied", d.summaries_applied),
    ]
}

/// Encodes a checkpoint to bytes (the file contents, header included).
pub fn encode_checkpoint<S: GilState>(data: &CheckpointData<S>) -> Result<Vec<u8>, SaveError> {
    let mut enc = Encoder::new();
    // The body is encoded first so the encoder mints every term slot; the
    // table itself is then written *before* the body in the payload, which
    // is the order the decoder needs (slots resolve before use).
    let mut body = Vec::new();
    serial::put_u64(&mut body, data.total_cmds);
    serial::put_u8(&mut body, data.truncated as u8);
    serial::put_u64(&mut body, data.dropped_paths as u64);
    let pairs = diag_pairs(&data.diagnostics);
    serial::put_len(&mut body, pairs.len(), "diagnostics")?;
    for (name, v) in pairs {
        serial::put_str(&mut body, name)?;
        serial::put_u64(&mut body, v);
    }
    serial::put_len(&mut body, data.completed.len(), "completed paths")?;
    for p in &data.completed {
        put_trace(&mut body, &p.trace)?;
        serial::put_str(&mut body, &p.outcome)?;
        serial::put_u64(&mut body, p.cmds);
    }
    serial::put_len(&mut body, data.frontier.len(), "frontier")?;
    for item in &data.frontier {
        put_trace(&mut body, &item.trace)?;
        serial::put_u64(&mut body, item.cmds);
        serial::put_str(&mut body, &item.config.proc)?;
        serial::put_u64(&mut body, item.config.idx as u64);
        // v2: the bytecode resume point. Compiled blocks are per-command,
        // so the pc is the command index; checkpoints happen only at
        // command boundaries, where no transient register is live.
        serial::put_u64(&mut body, item.config.idx as u64);
        serial::put_u32(&mut body, 0);
        serial::put_len(&mut body, item.config.stack.len(), "call stack")?;
        for frame in &item.config.stack {
            serial::put_str(&mut body, &frame.caller)?;
            serial::put_str(&mut body, &frame.ret_var)?;
            serial::put_u64(&mut body, frame.ret_idx as u64);
            S::save_store(&frame.store, &mut enc, &mut body)?;
        }
        item.config.state.save_state(&mut enc, &mut body)?;
    }

    let mut payload = Vec::new();
    serial::put_u8(
        &mut payload,
        match data.strategy {
            SearchStrategy::Dfs => 0,
            SearchStrategy::Bfs => 1,
        },
    );
    serial::put_str(&mut payload, &data.entry)?;
    enc.write_table(&mut payload)?;
    payload.extend_from_slice(&body);

    let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len());
    out.extend_from_slice(MAGIC);
    serial::put_u32(&mut out, VERSION);
    serial::put_u64(&mut out, fnv1a(&payload));
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Writes a checkpoint atomically: encode, write to `<path>.tmp`, rename
/// over `path`. Returns the number of bytes written.
///
/// # Errors
///
/// Fails when a frontier state does not support serialization or the
/// filesystem rejects the write; the previous checkpoint at `path` (if
/// any) is left intact in every failure mode.
pub fn save_checkpoint<S: GilState>(
    path: &Path,
    data: &CheckpointData<S>,
) -> Result<u64, SaveError> {
    let bytes = encode_checkpoint(data)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes).map_err(SaveError::Io)?;
    std::fs::rename(&tmp, path).map_err(SaveError::Io)?;
    Ok(bytes.len() as u64)
}

/// Decodes a checkpoint from raw file bytes, rebuilding every frontier
/// state through `ctx` (intern ids are remapped by re-interning the term
/// table; see the module docs).
///
/// # Errors
///
/// Reports the first failing validation layer: magic, then version, then
/// checksum, then structure. Never panics on untrusted bytes.
pub fn decode_checkpoint<S: GilState>(
    bytes: &[u8],
    ctx: &StateCtx,
) -> Result<CheckpointData<S>, ResumeError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(ResumeError::BadMagic);
    }
    let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
    let version = r.u32()?;
    if version != VERSION {
        return Err(ResumeError::BadVersion {
            found: version,
            expected: VERSION,
        });
    }
    let sum = r.u64()?;
    let payload = r.take(r.remaining())?;
    if fnv1a(payload) != sum {
        return Err(ResumeError::ChecksumMismatch);
    }

    let mut r = ByteReader::new(payload);
    let strategy = match r.u8()? {
        0 => SearchStrategy::Dfs,
        1 => SearchStrategy::Bfs,
        tag => {
            return Err(ResumeError::Corrupt(WireError::BadTag {
                what: "search strategy",
                tag,
            }))
        }
    };
    let entry = r.str()?.to_string();
    let dec = Decoder::read_table(&mut r)?;
    let total_cmds = r.u64()?;
    let truncated = r.u8()? != 0;
    let dropped_paths = r.u64()? as usize;
    let mut diagnostics = ExploreDiagnostics::default();
    let n = r.count()?;
    for _ in 0..n {
        let name = r.str()?;
        let v = r.u64()?;
        // Unknown names are skipped, which keeps minor additions and
        // removals non-breaking: files written before the implication
        // index was removed still carry an `implication_hits` pair.
        match name {
            "deadline_hits" => diagnostics.deadline_hits = v as usize,
            "cancellations" => diagnostics.cancellations = v as usize,
            "engine_errors" => diagnostics.engine_errors = v as usize,
            "unknown_verdicts" => diagnostics.unknown_verdicts = v,
            "incremental_hits" => diagnostics.incremental_hits = v,
            "summaries_recorded" => diagnostics.summaries_recorded = v,
            "summaries_applied" => diagnostics.summaries_applied = v,
            _ => {}
        }
    }
    let n = r.count()?;
    let mut completed = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let trace = read_trace(&mut r)?;
        let outcome = r.str()?.to_string();
        let cmds = r.u64()?;
        completed.push(PathSummary {
            trace,
            outcome,
            cmds,
        });
    }
    let n = r.count()?;
    let mut frontier = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let trace = read_trace(&mut r)?;
        let cmds = r.u64()?;
        let proc = Ident::from(r.str()?);
        let idx = r.u64()? as usize;
        let pc = r.u64()?;
        let live_regs = r.u32()?;
        if pc != idx as u64 {
            return Err(ResumeError::BadData(
                "frontier bytecode pc disagrees with command index",
            ));
        }
        if live_regs != 0 {
            return Err(ResumeError::BadData(
                "frontier claims live evaluation registers at a command boundary",
            ));
        }
        let frames = r.count()?;
        let mut stack = Vec::with_capacity(frames.min(1024));
        for _ in 0..frames {
            let caller = Ident::from(r.str()?);
            let ret_var = Ident::from(r.str()?);
            let ret_idx = r.u64()? as usize;
            let store = S::load_store(ctx, &dec, &mut r)?;
            stack.push(Frame {
                caller,
                ret_var,
                store,
                ret_idx,
            });
        }
        let state = S::load_state(ctx, &dec, &mut r)?;
        frontier.push(FrontierItem {
            config: Config {
                state,
                stack,
                proc,
                idx,
            },
            cmds,
            trace,
        });
    }
    if !r.is_empty() {
        return Err(ResumeError::BadData("trailing bytes after frontier"));
    }
    Ok(CheckpointData {
        strategy,
        entry,
        total_cmds,
        truncated,
        dropped_paths,
        diagnostics,
        completed,
        frontier,
    })
}

/// Reads and decodes the checkpoint at `path`.
///
/// # Errors
///
/// See [`decode_checkpoint`]; filesystem failures report
/// [`ResumeError::Io`].
pub fn load_checkpoint<S: GilState>(
    path: &Path,
    ctx: &StateCtx,
) -> Result<CheckpointData<S>, ResumeError> {
    let bytes = std::fs::read(path).map_err(ResumeError::Io)?;
    decode_checkpoint(&bytes, ctx)
}
