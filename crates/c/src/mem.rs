//! The MiniC concrete and symbolic memory models (paper §4.2) — the
//! CompCert-style memory: separated blocks, block-offset pointers,
//! byte-granular memory values, permissions, and chunked load/store.
//!
//! A memory value occupying byte `off + k` of a stored `n`-byte value `v`
//! is the triple `[v, k, n]` (the unified CompCertS representation the
//! paper adopts for its symbolic memory and notes "could also be applied
//! to the CompCert concrete memory model" — we do exactly that, so the
//! concrete and symbolic heaps have the same shape).
//!
//! ## Actions
//!
//! `A_C = {alloc, free, load, store, loadBytes, storeBytes, dropPerm,
//! checkPerm, sizeBlock, cmpPtr, globalSet, globalGet}` — the heap,
//! permission-table and global-environment management of the paper's
//! action set, minus the concurrency-related actions (Gillian handles
//! sequential programs only, §4.2).
//!
//! ## Undefined behaviour
//!
//! Every UB class the paper's evaluation exercises surfaces as an error
//! value `["UB", kind, detail]`: invalid/null dereference, out-of-bounds
//! access (the Collections-C buffer overflow), use-after-free, double
//! free, uninitialized/partial reads, insufficient permissions, and
//! cross-block or invalid pointer ordering (the Collections-C pointer
//! comparison bugs).
//!
//! ## Documented limitations (matching the paper's §4.2)
//!
//! - allocation sizes must be concrete ("we do not reason about
//!   allocation of symbolic size");
//! - alignment is not checked;
//! - a symbolic store that *partially* overlaps a differently-based run is
//!   not detected (chunk-strided code, which is what compilers emit, never
//!   does this); the differential soundness tests guard the corner.

use crate::chunks::{Chunk, ChunkKind};
use crate::values::POISON;
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::ops::eval_unop;
use gillian_gil::{Expr, LVar, PMap, Sym, UnOp, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Permission levels, ascending (paper: "we model permissions as
/// integers, in ascending order of permissiveness").
pub mod perm {
    /// No access (freed or fully dropped).
    pub const NONE: u8 = 0;
    /// Read-only.
    pub const READABLE: u8 = 1;
    /// Read and write.
    pub const WRITABLE: u8 = 2;
    /// Read, write, and free.
    pub const FREEABLE: u8 = 3;
}

/// Dense codes for the MiniC actions, used by the bytecode backend's
/// per-site inline caches (`gillian_core::exec`): a dispatch site caches
/// the code on first execution and thereafter skips the string match.
mod code {
    pub const ALLOC: u16 = 0;
    pub const FREE: u16 = 1;
    pub const LOAD: u16 = 2;
    pub const STORE: u16 = 3;
    pub const LOAD_BYTES: u16 = 4;
    pub const STORE_BYTES: u16 = 5;
    pub const DROP_PERM: u16 = 6;
    pub const CHECK_PERM: u16 = 7;
    pub const SIZE_BLOCK: u16 = 8;
    pub const CMP_PTR: u16 = 9;
    pub const GLOBAL_SET: u16 = 10;
    pub const GLOBAL_GET: u16 = 11;
}

fn c_action_code(name: &str) -> Option<u16> {
    Some(match name {
        "alloc" => code::ALLOC,
        "free" => code::FREE,
        "load" => code::LOAD,
        "store" => code::STORE,
        "loadBytes" => code::LOAD_BYTES,
        "storeBytes" => code::STORE_BYTES,
        "dropPerm" => code::DROP_PERM,
        "checkPerm" => code::CHECK_PERM,
        "sizeBlock" => code::SIZE_BLOCK,
        "cmpPtr" => code::CMP_PTR,
        "globalSet" => code::GLOBAL_SET,
        "globalGet" => code::GLOBAL_GET,
        _ => return None,
    })
}

fn ub_value(kind: &str, detail: impl std::fmt::Display) -> Value {
    Value::List(vec![
        Value::str("UB"),
        Value::str(kind),
        Value::str(detail.to_string()),
    ])
}

fn ub_expr(kind: &str, detail: impl std::fmt::Display) -> Expr {
    Expr::Val(ub_value(kind, detail))
}

fn wrap_op(chunk: Chunk) -> Option<UnOp> {
    match chunk.kind {
        ChunkKind::Int if chunk.size < 8 => Some(if chunk.signed {
            UnOp::WrapSigned(chunk.size * 8)
        } else {
            UnOp::WrapUnsigned(chunk.size * 8)
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Concrete memory
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
struct ConcBlock {
    size: i64,
    perm: u8,
    freed: bool,
    cells: BTreeMap<i64, (Value, u8, u8)>,
}

/// The concrete MiniC memory.
///
/// Blocks sit behind [`Arc`]s with copy-on-write mutation: cloning a
/// memory is cheap (states clone on every step), and sequential execution
/// mutates blocks in place because the previous state has been dropped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CConcMemory {
    blocks: Arc<BTreeMap<Sym, Arc<ConcBlock>>>,
    globals: Arc<BTreeMap<Arc<str>, Value>>,
}

impl CConcMemory {
    fn block_mut(&mut self, b: Sym) -> Option<&mut ConcBlock> {
        Arc::make_mut(&mut self.blocks)
            .get_mut(&b)
            .map(Arc::make_mut)
    }

    fn blocks_mut(&mut self) -> &mut BTreeMap<Sym, Arc<ConcBlock>> {
        Arc::make_mut(&mut self.blocks)
    }
}

fn value_args(arg: &Value, n: usize, action: &str) -> Result<Vec<Value>, Value> {
    match arg.as_list() {
        Some(items) if items.len() == n => Ok(items.to_vec()),
        _ => Err(ub_value(
            "bad-action-argument",
            format!("{action}: expected {n}-element list, got {arg}"),
        )),
    }
}

fn as_block(v: &Value, action: &str) -> Result<Sym, Value> {
    v.as_sym().ok_or_else(|| {
        ub_value(
            "bad-action-argument",
            format!("{action}: {v} is not a block"),
        )
    })
}

fn as_offset(v: &Value, action: &str) -> Result<i64, Value> {
    v.as_int().ok_or_else(|| {
        ub_value(
            "bad-action-argument",
            format!("{action}: {v} is not an offset"),
        )
    })
}

/// Decodes a stored value through a chunk (concrete).
fn decode_value(v: &Value, chunk: Chunk) -> Result<Value, Value> {
    match (chunk.kind, v) {
        (ChunkKind::Int, Value::Int(_)) => match wrap_op(chunk) {
            Some(op) => eval_unop(op, v).map_err(|e| ub_value("decode", e.0)),
            None => Ok(v.clone()),
        },
        (ChunkKind::Float, Value::Num(_)) => Ok(v.clone()),
        (ChunkKind::Ptr, Value::List(items)) if items.len() == 2 => Ok(v.clone()),
        _ => Err(ub_value(
            "mixed-read",
            format!("value {v} does not decode as a {} chunk", chunk.kind.name()),
        )),
    }
}

/// Encodes a value for storage through a chunk (concrete).
fn encode_value(v: &Value, chunk: Chunk) -> Result<Value, Value> {
    decode_value(v, chunk).map_err(|_| {
        ub_value(
            "mixed-store",
            format!(
                "value {v} cannot be stored through a {} chunk",
                chunk.kind.name()
            ),
        )
    })
}

impl CConcMemory {
    fn block(&self, b: Sym, action: &str) -> Result<&ConcBlock, Value> {
        match self.blocks.get(&b) {
            Some(blk) if blk.freed => {
                Err(ub_value("use-after-free", format!("{action} on freed {b}")))
            }
            Some(blk) => Ok(blk),
            None => Err(ub_value("invalid-block", format!("{action} on {b}"))),
        }
    }

    fn check_bounds(
        blk: &ConcBlock,
        off: i64,
        len: i64,
        b: Sym,
        action: &str,
    ) -> Result<(), Value> {
        if off < 0 || off + len > blk.size {
            Err(ub_value(
                "out-of-bounds",
                format!(
                    "{action} of {len} bytes at {b}+{off} (block size {})",
                    blk.size
                ),
            ))
        } else {
            Ok(())
        }
    }

    fn check_perm(blk: &ConcBlock, need: u8, b: Sym, action: &str) -> Result<(), Value> {
        if blk.perm < need {
            Err(ub_value(
                "insufficient-permission",
                format!("{action} needs permission {need} on {b} (has {})", blk.perm),
            ))
        } else {
            Ok(())
        }
    }

    /// Direct block registration (for interpretation functions).
    pub fn register_block(&mut self, b: Sym, size: i64, perm: u8, freed: bool) {
        self.blocks_mut().insert(
            b,
            Arc::new(ConcBlock {
                size,
                perm,
                freed,
                cells: BTreeMap::new(),
            }),
        );
    }

    /// Direct cell write (for interpretation functions).
    pub fn set_cell(&mut self, b: Sym, off: i64, value: Value, k: u8, n: u8) -> bool {
        match self.block_mut(b) {
            Some(blk) => blk.cells.insert(off, (value, k, n)).is_none(),
            None => false,
        }
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> usize {
        self.blocks.values().filter(|b| !b.freed).count()
    }
}

impl ConcreteMemory for CConcMemory {
    // Concrete dispatch keeps the default (name-keyed) coded delegation:
    // the concrete actions are dominated by their map operations, so the
    // inline cache's only concrete win is resolving the code once.
    fn action_code(&self, name: &str) -> Option<u16> {
        c_action_code(name)
    }

    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        match name {
            "alloc" => {
                let args = value_args(&arg, 2, "alloc")?;
                let b = as_block(&args[0], "alloc")?;
                let size = as_offset(&args[1], "alloc")?;
                if size < 0 {
                    return Err(ub_value("bad-alloc", format!("negative size {size}")));
                }
                if self.blocks.contains_key(&b) {
                    return Err(ub_value("bad-alloc", format!("block {b} exists")));
                }
                self.register_block(b, size, perm::FREEABLE, false);
                Ok(args[0].clone())
            }
            "free" => {
                let args = value_args(&arg, 2, "free")?;
                let b = as_block(&args[0], "free")?;
                let off = as_offset(&args[1], "free")?;
                if off != 0 {
                    return Err(ub_value(
                        "bad-free",
                        format!("free of {b}+{off} (nonzero offset)"),
                    ));
                }
                match self.block_mut(b) {
                    None => Err(ub_value("invalid-block", format!("free of {b}"))),
                    Some(blk) if blk.freed => Err(ub_value(
                        "double-free",
                        format!("free of already freed {b}"),
                    )),
                    Some(blk) => {
                        if blk.perm < perm::FREEABLE {
                            return Err(ub_value(
                                "insufficient-permission",
                                format!("free of {b} with permission {}", blk.perm),
                            ));
                        }
                        blk.freed = true;
                        blk.perm = perm::NONE;
                        blk.cells.clear();
                        Ok(Value::Bool(true))
                    }
                }
            }
            "load" => {
                let args = value_args(&arg, 3, "load")?;
                let chunk = Chunk::from_value(&args[0])
                    .ok_or_else(|| ub_value("bad-action-argument", "load: bad chunk"))?;
                let b = as_block(&args[1], "load")?;
                let off = as_offset(&args[2], "load")?;
                let blk = self.block(b, "load")?;
                Self::check_perm(blk, perm::READABLE, b, "load")?;
                Self::check_bounds(blk, off, chunk.size as i64, b, "load")?;
                let Some((v0, 0, n0)) = blk.cells.get(&off).cloned() else {
                    return Err(ub_value(
                        "uninitialized-read",
                        format!("load at {b}+{off} reads uninitialized or partial bytes"),
                    ));
                };
                if n0 != chunk.size {
                    return Err(ub_value(
                        "mixed-read",
                        format!(
                            "load of {} bytes over a {n0}-byte value at {b}+{off}",
                            chunk.size
                        ),
                    ));
                }
                for i in 1..n0 {
                    match blk.cells.get(&(off + i as i64)) {
                        Some((v, k, n)) if *v == v0 && *k == i && *n == n0 => {}
                        _ => {
                            return Err(ub_value(
                                "mixed-read",
                                format!("load at {b}+{off} reads torn bytes"),
                            ))
                        }
                    }
                }
                decode_value(&v0, chunk)
            }
            "store" => {
                let args = value_args(&arg, 4, "store")?;
                let chunk = Chunk::from_value(&args[0])
                    .ok_or_else(|| ub_value("bad-action-argument", "store: bad chunk"))?;
                let b = as_block(&args[1], "store")?;
                let off = as_offset(&args[2], "store")?;
                let value = encode_value(&args[3], chunk)?;
                let blk = self.block(b, "store")?;
                Self::check_perm(blk, perm::WRITABLE, b, "store")?;
                Self::check_bounds(blk, off, chunk.size as i64, b, "store")?;
                let size = chunk.size;
                let blk = self.block_mut(b).expect("checked above");
                // Invalidate every run with a byte in the written range
                // [off, off + size).
                let lo = off;
                let hi = off + size as i64;
                let mut to_remove: BTreeSet<i64> = BTreeSet::new();
                for (o, (_, k, n)) in blk.cells.iter() {
                    let start = o - *k as i64;
                    if start + *n as i64 > lo && start < hi {
                        for i in 0..*n as i64 {
                            to_remove.insert(start + i);
                        }
                    }
                }
                for o in to_remove {
                    blk.cells.remove(&o);
                }
                for k in 0..size {
                    blk.cells.insert(off + k as i64, (value.clone(), k, size));
                }
                Ok(value)
            }
            "loadBytes" => {
                let args = value_args(&arg, 3, "loadBytes")?;
                let b = as_block(&args[0], "loadBytes")?;
                let off = as_offset(&args[1], "loadBytes")?;
                let len = as_offset(&args[2], "loadBytes")?;
                let blk = self.block(b, "loadBytes")?;
                Self::check_perm(blk, perm::READABLE, b, "loadBytes")?;
                Self::check_bounds(blk, off, len, b, "loadBytes")?;
                let mut out = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match blk.cells.get(&(off + i)) {
                        Some((v, k, n)) => out.push(Value::List(vec![
                            v.clone(),
                            Value::Int(*k as i64),
                            Value::Int(*n as i64),
                        ])),
                        None => out.push(Value::Sym(POISON)),
                    }
                }
                Ok(Value::List(out))
            }
            "storeBytes" => {
                let args = value_args(&arg, 3, "storeBytes")?;
                let b = as_block(&args[0], "storeBytes")?;
                let off = as_offset(&args[1], "storeBytes")?;
                let bytes = args[2]
                    .as_list()
                    .ok_or_else(|| ub_value("bad-action-argument", "storeBytes: bytes"))?
                    .to_vec();
                let len = bytes.len() as i64;
                let blk = self.block(b, "storeBytes")?;
                Self::check_perm(blk, perm::WRITABLE, b, "storeBytes")?;
                Self::check_bounds(blk, off, len, b, "storeBytes")?;
                let blk = self.block_mut(b).expect("checked above");
                for (i, byte) in bytes.into_iter().enumerate() {
                    let at = off + i as i64;
                    if byte == Value::Sym(POISON) {
                        blk.cells.remove(&at);
                    } else if let Some(items) = byte.as_list() {
                        if items.len() == 3 {
                            let k = items[1].as_int().unwrap_or(0) as u8;
                            let n = items[2].as_int().unwrap_or(1) as u8;
                            blk.cells.insert(at, (items[0].clone(), k, n));
                            continue;
                        }
                        return Err(ub_value("bad-action-argument", "storeBytes: bad byte"));
                    } else {
                        return Err(ub_value("bad-action-argument", "storeBytes: bad byte"));
                    }
                }
                Ok(Value::Bool(true))
            }
            "dropPerm" => {
                let args = value_args(&arg, 2, "dropPerm")?;
                let b = as_block(&args[0], "dropPerm")?;
                let p = as_offset(&args[1], "dropPerm")? as u8;
                let blk = self
                    .block_mut(b)
                    .ok_or_else(|| ub_value("invalid-block", format!("dropPerm on {b}")))?;
                blk.perm = blk.perm.min(p);
                Ok(Value::Int(blk.perm as i64))
            }
            "checkPerm" => {
                let b = as_block(&arg, "checkPerm")?;
                match self.blocks.get(&b) {
                    Some(blk) => Ok(Value::Int(blk.perm as i64)),
                    None => Ok(Value::Int(-1)),
                }
            }
            "sizeBlock" => {
                let b = as_block(&arg, "sizeBlock")?;
                let blk = self.block(b, "sizeBlock")?;
                Ok(Value::Int(blk.size))
            }
            "cmpPtr" => {
                let args = value_args(&arg, 3, "cmpPtr")?;
                let op = args[0]
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "cmpPtr: op"))?
                    .to_string();
                let p1 = args[1].as_list().filter(|l| l.len() == 2);
                let p2 = args[2].as_list().filter(|l| l.len() == 2);
                let (Some(p1), Some(p2)) = (p1, p2) else {
                    return Err(ub_value("bad-action-argument", "cmpPtr: non-pointers"));
                };
                let same_block = p1[0] == p2[0];
                match op.as_str() {
                    "eq" => Ok(Value::Bool(p1 == p2)),
                    "ne" => Ok(Value::Bool(p1 != p2)),
                    "lt" | "le" => {
                        // Ordering is defined only within one *valid* block.
                        if !same_block {
                            return Err(ub_value(
                                "ub-pointer-comparison",
                                "ordering of pointers into different blocks",
                            ));
                        }
                        let b = as_block(&p1[0], "cmpPtr")?;
                        let _ = self.block(b, "cmpPtr").map_err(|_| {
                            ub_value("ub-pointer-comparison", "ordering of invalid pointers")
                        })?;
                        let o1 = as_offset(&p1[1], "cmpPtr")?;
                        let o2 = as_offset(&p2[1], "cmpPtr")?;
                        Ok(Value::Bool(if op == "lt" { o1 < o2 } else { o1 <= o2 }))
                    }
                    other => Err(ub_value("bad-action-argument", format!("cmpPtr: {other}"))),
                }
            }
            "globalSet" => {
                let args = value_args(&arg, 2, "globalSet")?;
                let name = args[0]
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "globalSet: name"))?;
                Arc::make_mut(&mut self.globals).insert(Arc::from(name), args[1].clone());
                Ok(args[1].clone())
            }
            "globalGet" => {
                let name = arg
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "globalGet: name"))?;
                self.globals
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ub_value("invalid-global", name))
            }
            other => Err(ub_value("unknown-action", other)),
        }
    }
}

// ---------------------------------------------------------------------
// Symbolic memory
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct SymBlock {
    size: i64,
    perm: u8,
    freed: bool,
    /// Byte cells keyed by *simplified* offset expression. Written only
    /// through [`SymBlock::put`]/[`SymBlock::take`], which keep the two
    /// counters below in step.
    cells: PMap<Expr, (Expr, u8, u8)>,
    /// How many cell offsets are not literal integers.
    symbolic_offsets: usize,
    /// The longest run ever stored here: no live run is longer, so a
    /// run overlapping `[lo, hi)` starts at or after `lo - (max_run - 1)`.
    max_run: u8,
}

/// Blocks compare by content; `max_run` is a bound, not content.
impl PartialEq for SymBlock {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size
            && self.perm == other.perm
            && self.freed == other.freed
            && self.cells == other.cells
    }
}

impl SymBlock {
    fn new(size: i64) -> Self {
        SymBlock {
            size,
            perm: perm::FREEABLE,
            freed: false,
            cells: PMap::new(),
            symbolic_offsets: 0,
            max_run: 0,
        }
    }

    fn put(&mut self, off: Expr, cell: (Expr, u8, u8)) {
        self.max_run = self.max_run.max(cell.2);
        let symbolic = off.as_int().is_none();
        if self.cells.insert(off, cell).is_none() && symbolic {
            self.symbolic_offsets += 1;
        }
    }

    fn take(&mut self, off: &Expr) {
        if self.cells.remove(off).is_some() && off.as_int().is_none() {
            self.symbolic_offsets -= 1;
        }
    }

    /// True when every cell offset is a literal integer — the common
    /// case, where accesses at literal offsets can use direct map lookups
    /// instead of alias branching.
    fn all_offsets_literal(&self) -> bool {
        self.symbolic_offsets == 0
    }

    /// Stores the `size`-byte run of `v` at `base`. First drops the
    /// `old`-byte run starting at `base`, if any, and then every run with
    /// a *concrete* start that overlaps the write (when `base` is
    /// concrete; symbolic partial overlaps are the documented
    /// limitation). A dropped cell the new run re-populates is
    /// overwritten rather than removed and re-inserted — the same cells
    /// result, without shrinking and regrowing the tree.
    fn write_run(
        &mut self,
        base: &Expr,
        old: Option<u8>,
        v: &Expr,
        size: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) {
        let old_keys: Vec<Expr> = (0..old.unwrap_or(0))
            .map(|i| offset_key(base, i, solver, pc))
            .collect();
        let mut dropped = old_keys.clone();
        if let Some(lo) = base.as_int() {
            let hi = lo + size as i64;
            for (start, n) in self.concrete_starts(lo, hi) {
                let start_key = Expr::int(start);
                // The old run is dropped before the overlap search, so a
                // start among its cells is no longer a start.
                if start + n as i64 > lo && !old_keys.contains(&start_key) {
                    dropped.extend((0..n as i64).map(|i| Expr::int(start + i)));
                }
            }
        }
        let new_keys: Vec<Expr> = (0..size).map(|k| offset_key(base, k, solver, pc)).collect();
        for key in &dropped {
            if !new_keys.contains(key) {
                self.take(key);
            }
        }
        for (k, key) in new_keys.into_iter().enumerate() {
            self.put(key, (v.clone(), k as u8, size));
        }
    }

    /// The `(offset, length)` of every run with a literal start in
    /// `[lo - (max_run - 1), hi)` — a superset of the concrete runs that
    /// overlap `[lo, hi)`. Literal-integer keys sort together and in
    /// numeric order, so this is one range scan, not a walk over the
    /// whole block.
    fn concrete_starts(&self, lo: i64, hi: i64) -> Vec<(i64, u8)> {
        let from = lo.saturating_sub(i64::from(self.max_run.max(1)) - 1);
        self.cells
            .range(Expr::int(from)..Expr::int(hi))
            .filter_map(|(off, (_, k, n))| {
                let o = off.as_int()?;
                (*k == 0).then_some((o, *n))
            })
            .collect()
    }

    /// Frees the block: no permission, no cells.
    fn release(&mut self) {
        self.freed = true;
        self.perm = perm::NONE;
        self.cells = PMap::new();
        self.symbolic_offsets = 0;
        self.max_run = 0;
    }
}

/// The symbolic MiniC memory.
///
/// The block table and each block's cells are persistent maps
/// ([`PMap`]): the per-branch memory clones of symbolic execution are
/// O(1), and an action's write copies only the O(log n) nodes on the
/// path to what it changes, sharing the rest with the memory it was
/// cloned from (DESIGN.md §18).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CSymMemory {
    blocks: PMap<Sym, SymBlock>,
    globals: PMap<Arc<str>, Expr>,
}

fn expr_args(arg: &Expr, n: usize, action: &str) -> Result<Vec<Expr>, Expr> {
    let parts: Option<Vec<Expr>> = match arg {
        Expr::List(es) if es.len() == n => Some(es.to_vec()),
        Expr::Val(Value::List(vs)) if vs.len() == n => {
            Some(vs.iter().cloned().map(Expr::Val).collect())
        }
        _ => None,
    };
    parts.ok_or_else(|| {
        ub_expr(
            "bad-action-argument",
            format!("{action}: expected {n}-element list, got {arg}"),
        )
    })
}

fn expr_block(e: &Expr, action: &str) -> Result<Sym, Expr> {
    match e {
        Expr::Val(Value::Sym(s)) => Ok(*s),
        other => Err(ub_expr(
            "bad-action-argument",
            format!("{action}: {other} is not a literal block"),
        )),
    }
}

fn expr_ptr(e: &Expr) -> Option<(Expr, Expr)> {
    match e {
        Expr::List(items) if items.len() == 2 => Some((items[0].clone(), items[1].clone())),
        Expr::Val(Value::List(items)) if items.len() == 2 => {
            Some((Expr::Val(items[0].clone()), Expr::Val(items[1].clone())))
        }
        _ => None,
    }
}

/// The map key for byte `base + k` of a run: a direct constant fold when
/// the (already simplified) base offset is a literal integer — the common
/// case for concrete address arithmetic — and a solver round-trip
/// otherwise. It must agree exactly with what `simplify` would produce
/// (the constant folder), or the cell map would key the same byte two
/// different ways.
fn offset_key(base: &Expr, k: u8, solver: &Solver, pc: &PathCondition) -> Expr {
    if let Some(o) = base.as_int() {
        if let Some(sum) = o.checked_add(k as i64) {
            return Expr::int(sum);
        }
    }
    solver.simplify(pc, &base.clone().add(Expr::int(k as i64)))
}

/// Decodes a stored symbolic value through a chunk.
fn decode_expr(v: &Expr, chunk: Chunk) -> Expr {
    match wrap_op(chunk) {
        Some(op) => v.clone().un(op),
        None => v.clone(),
    }
}

impl CSymMemory {
    /// Direct block registration (for tests).
    pub fn register_block(&mut self, b: Sym, size: i64) {
        self.blocks.insert(b, SymBlock::new(size));
    }

    /// Direct run write (for tests): stores value `v` of `n` bytes at
    /// concrete offset `off`.
    pub fn set_run(&mut self, b: Sym, off: i64, v: Expr, n: u8) {
        let blk = self.blocks.get_mut(&b).expect("block registered");
        for k in 0..n {
            blk.put(Expr::int(off + k as i64), (v.clone(), k, n));
        }
    }

    /// Iterates blocks (for the interpretation function).
    pub fn blocks_iter(&self) -> impl Iterator<Item = (Sym, i64, u8, bool)> + '_ {
        self.blocks
            .iter()
            .map(|(b, blk)| (*b, blk.size, blk.perm, blk.freed))
    }

    /// Iterates cells of a block (for the interpretation function).
    pub fn cells_iter(&self, b: Sym) -> impl Iterator<Item = (&Expr, &(Expr, u8, u8))> {
        self.blocks
            .get(&b)
            .into_iter()
            .flat_map(|blk| blk.cells.iter())
    }

    /// The run-start cells (`k == 0`) of a block.
    fn run_starts(&self, b: Sym) -> Vec<(Expr, Expr, u8)> {
        self.blocks
            .get(&b)
            .map(|blk| {
                blk.cells
                    .iter()
                    .filter(|(_, (_, k, _))| *k == 0)
                    .map(|(off, (v, _, n))| (off.clone(), v.clone(), *n))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Fast-path candidates for an access at a *literal* offset into a
    /// block whose cells are all at literal offsets: at most one run can
    /// match, found by direct lookup instead of scanning every run.
    fn literal_candidates(&self, b: Sym, off: i64) -> Option<Vec<(Expr, Expr, u8)>> {
        let blk = self.blocks.get(&b)?;
        if !blk.all_offsets_literal() {
            return None;
        }
        Some(match blk.cells.get(&Expr::int(off)) {
            Some((v, 0, n)) => vec![(Expr::int(off), v.clone(), *n)],
            // A mid-run hit or a miss: no run *starts* here; the general
            // machinery then produces the torn/uninitialized error branch.
            _ => Vec::new(),
        })
    }

    /// Checks a complete run of `n` cells for value `v` starting at `base`.
    fn run_complete(
        &self,
        b: Sym,
        base: &Expr,
        v: &Expr,
        n: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) -> bool {
        let Some(blk) = self.blocks.get(&b) else {
            return false;
        };
        for i in 1..n {
            let key = offset_key(base, i, solver, pc);
            match blk.cells.get(&key) {
                Some((cv, ck, cn)) if cv == v && *ck == i && *cn == n => {}
                _ => return false,
            }
        }
        true
    }

    /// Validity prologue shared by memory accesses: checks the block and
    /// returns `(in_bounds, out_of_bounds)` constraints for `len` bytes at
    /// `off`, or the immediate error.
    #[allow(clippy::too_many_arguments)]
    fn access_prologue(
        &self,
        action: &str,
        b: Sym,
        off: &Expr,
        len: i64,
        need: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) -> Result<(Expr, Expr), Expr> {
        let Some(blk) = self.blocks.get(&b) else {
            return Err(ub_expr("invalid-block", format!("{action} on {b}")));
        };
        if blk.freed {
            return Err(ub_expr("use-after-free", format!("{action} on freed {b}")));
        }
        if blk.perm < need {
            return Err(ub_expr(
                "insufficient-permission",
                format!("{action} needs permission {need} on {b} (has {})", blk.perm),
            ));
        }
        // Literal offsets (the common case for concrete programs) fold
        // the bounds check directly — same result the simplifier's
        // constant folder would return, without the solver round-trips.
        let in_bounds = match off.as_int() {
            Some(o) => {
                if 0 <= o && o <= blk.size - len {
                    Expr::tt()
                } else {
                    Expr::ff()
                }
            }
            None => {
                let e = Expr::int(0)
                    .le(off.clone())
                    .and(off.clone().le(Expr::int(blk.size - len)));
                solver.simplify(pc, &e)
            }
        };
        let out_of_bounds = match in_bounds.as_bool() {
            Some(b) => Expr::Val(Value::Bool(!b)),
            None => solver.simplify(pc, &in_bounds.clone().not()),
        };
        Ok((in_bounds, out_of_bounds))
    }
}

/// Pushes a branch unless its constraint is trivially false or unsat.
fn push_branch<M>(
    out: &mut Vec<SymBranch<M>>,
    pc: &PathCondition,
    solver: &Solver,
    branch: SymBranch<M>,
) {
    if branch.constraint.as_bool() == Some(false) {
        return;
    }
    if solver.sat_with(pc, &branch.constraint).possibly_sat() {
        out.push(branch);
    }
}

/// The one decision probe a literal fast path keeps: the surviving
/// branch's constraint is the literal `true`, so `push_branch` would gate
/// it on `sat(pc ∧ true)` — and since `simplify(pc, true)` is the
/// identity and [`PathCondition::push`] drops literal `true`, that query
/// is *exactly* `sat(pc)`, issued here without the clone-and-push
/// round-trip. An unsat path condition yields the same empty branch set
/// as the general path.
fn literal_gate<M>(
    pc: &PathCondition,
    solver: &Solver,
    branches: Vec<SymBranch<M>>,
) -> Vec<SymBranch<M>> {
    if solver.check_sat(pc).possibly_sat() {
        branches
    } else {
        Vec::new()
    }
}

/// `simplify(pc, decode_expr(v, chunk))` with the solver round-trip
/// skipped when it is provably the identity: literals and bare logical
/// variables are fixpoints of the simplifier, and a literal under a wrap
/// folds through the same `eval_unop` the simplifier's constant folder
/// uses (errors stay residual there, so those fall through to it).
fn decode_simplified(v: &Expr, chunk: Chunk, pc: &PathCondition, solver: &Solver) -> Expr {
    match wrap_op(chunk) {
        None => match v {
            Expr::Val(_) | Expr::LVar(_) => v.clone(),
            _ => solver.simplify(pc, v),
        },
        Some(op) => {
            if let Expr::Val(val) = v {
                if let Ok(folded) = eval_unop(op, val) {
                    return Expr::Val(folded);
                }
            }
            solver.simplify(pc, &decode_expr(v, chunk))
        }
    }
}

impl CSymMemory {
    // ---- literal fast paths (bytecode backend only) -----------------
    //
    // When the offset is a literal integer and every cell offset of the
    // accessed block is literal, each decision of the general `load`/
    // `store` machinery folds: the bounds check folds in
    // `access_prologue`, at most one run can alias the access (found by
    // direct map lookup, as in `literal_candidates`), its equality
    // constraint folds to the literal `true`, and the out-of-bounds and
    // none-of-the-runs constraints fold to `false`. The branch set is a
    // single branch decided without the solver — except the one residual
    // [`literal_gate`] probe and, for values that are not simplifier
    // fixpoints, the same decode `simplify` the general path issues.
    // These helpers are reachable only from `execute_action_coded` (the
    // bytecode backend); the tree walk stays a byte-identical reference.

    /// The literal-access prologue shared by `fast_load`/`fast_store`:
    /// `None` falls back to the general path (symbolic anything, missing
    /// or freed block, insufficient permission — the error prologues stay
    /// on one code path).
    fn literal_access(&self, args: &[Expr], need: u8) -> Option<(Chunk, Sym, i64, &SymBlock)> {
        let chunk = args[0].as_value().and_then(Chunk::from_value)?;
        let b = match &args[1] {
            Expr::Val(Value::Sym(s)) => *s,
            _ => return None,
        };
        let off = args[2].as_int()?;
        let blk = self.blocks.get(&b)?;
        if blk.freed || blk.perm < need || !blk.all_offsets_literal() {
            return None;
        }
        Some((chunk, b, off, blk))
    }

    fn fast_load(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 3, "load").ok()?;
        let (chunk, b, off, blk) = self.literal_access(&args, perm::READABLE)?;
        let branch = if !(0 <= off && off <= blk.size - chunk.size as i64) {
            SymBranch::err_if(
                self.clone(),
                ub_expr(
                    "out-of-bounds",
                    format!("load of {} bytes at {b}+{off}", chunk.size),
                ),
                Expr::tt(),
            )
        } else {
            match blk.cells.get(&Expr::int(off)) {
                Some((v, 0, n))
                    if *n == chunk.size
                        && self.run_complete(b, &Expr::int(off), v, *n, solver, pc) =>
                {
                    SymBranch::ok_if(
                        self.clone(),
                        decode_simplified(v, chunk, pc, solver),
                        Expr::tt(),
                    )
                }
                Some((_, 0, _)) => SymBranch::err_if(
                    self.clone(),
                    ub_expr("mixed-read", format!("torn load at {b}+{off}")),
                    Expr::tt(),
                ),
                // A mid-run hit or a miss: no run starts here.
                _ => SymBranch::err_if(
                    self.clone(),
                    ub_expr(
                        "uninitialized-read",
                        format!("load at {b}+{off} reads uninitialized bytes"),
                    ),
                    Expr::tt(),
                ),
            }
        };
        Some(literal_gate(pc, solver, vec![branch]))
    }

    fn fast_store(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 4, "store").ok()?;
        let (chunk, b, off, blk) = self.literal_access(&args, perm::WRITABLE)?;
        let branch = if !(0 <= off && off <= blk.size - chunk.size as i64) {
            SymBranch::err_if(
                self.clone(),
                ub_expr(
                    "out-of-bounds",
                    format!("store of {} bytes at {b}+{off}", chunk.size),
                ),
                Expr::tt(),
            )
        } else {
            let value = decode_simplified(&args[3], chunk, pc, solver);
            let base = Expr::int(off);
            // Only a run *starting* here is replaced wholesale; a mid-run
            // overwrite is handled by the concrete-overlap removal, as on
            // the general path's none-of-the-runs branch.
            let old_run = match blk.cells.get(&base) {
                Some((_, 0, n)) => Some(*n),
                _ => None,
            };
            let mut mem = self.clone();
            let mblk = mem.blocks.get_mut(&b).expect("block checked");
            mblk.write_run(&base, old_run, &value, chunk.size, solver, pc);
            SymBranch::ok_if(mem, value, Expr::tt())
        };
        Some(literal_gate(pc, solver, vec![branch]))
    }

    fn fast_free(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 2, "free").ok()?;
        let b = match &args[0] {
            Expr::Val(Value::Sym(s)) => *s,
            _ => return None,
        };
        let off = args[1].as_int()?;
        let blk = self.blocks.get(&b)?;
        if blk.freed || blk.perm < perm::FREEABLE {
            return None;
        }
        let branch = if off == 0 {
            let mut mem = self.clone();
            if let Some(mblk) = mem.blocks.get_mut(&b) {
                mblk.release();
            }
            SymBranch::ok_if(mem, Expr::tt(), Expr::tt())
        } else {
            SymBranch::err_if(
                self.clone(),
                ub_expr("bad-free", format!("free of {b} at nonzero offset {off}")),
                Expr::tt(),
            )
        };
        Some(literal_gate(pc, solver, vec![branch]))
    }

    /// `cmpPtr` on two fully-literal pointers: every comparison folds
    /// through the same `eval_binop` the simplifier's constant folder
    /// uses (`Value`'s derived equality is element-wise on the promoted
    /// pointer lists). The general path issues no satisfiability probes
    /// for `cmpPtr` — only simplifies — so no gate applies here either.
    fn fast_cmp_ptr(&self, arg: &Expr) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 3, "cmpPtr").ok()?;
        let op = match &args[0] {
            Expr::Val(Value::Str(s)) => s.clone(),
            _ => return None,
        };
        let (b1, o1) = expr_ptr(&args[1])?;
        let (b2, o2) = expr_ptr(&args[2])?;
        let (vb1, vo1, vb2, vo2) = match (&b1, &o1, &b2, &o2) {
            (Expr::Val(vb1), Expr::Val(vo1), Expr::Val(vb2), Expr::Val(vo2)) => {
                (vb1, vo1, vb2, vo2)
            }
            _ => return None,
        };
        Some(match op.as_ref() {
            "eq" => vec![SymBranch::ok(
                self.clone(),
                Expr::bool(vb1 == vb2 && vo1 == vo2),
            )],
            "ne" => vec![SymBranch::ok(
                self.clone(),
                Expr::bool(vb1 != vb2 || vo1 != vo2),
            )],
            "lt" | "le" => {
                if vb1 != vb2 {
                    vec![SymBranch::err_if(
                        self.clone(),
                        ub_expr(
                            "ub-pointer-comparison",
                            "ordering of pointers into different blocks",
                        ),
                        Expr::tt(),
                    )]
                } else {
                    let Value::Sym(blk) = vb1 else { return None };
                    match self.blocks.get(blk) {
                        Some(info) if !info.freed => {
                            let (Value::Int(a), Value::Int(c)) = (vo1, vo2) else {
                                // Mixed offset types stay residual under
                                // the folder; let the general path decide.
                                return None;
                            };
                            let cmp = if op.as_ref() == "lt" { a < c } else { a <= c };
                            vec![SymBranch::ok(self.clone(), Expr::bool(cmp))]
                        }
                        _ => vec![SymBranch::err_if(
                            self.clone(),
                            ub_expr("ub-pointer-comparison", "ordering of invalid pointers"),
                            Expr::tt(),
                        )],
                    }
                }
            }
            _ => return None,
        })
    }
}

impl SymbolicMemory for CSymMemory {
    fn action_code(&self, name: &str) -> Option<u16> {
        c_action_code(name)
    }

    fn execute_action_coded(
        &self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // Only the hot heap accesses have literal fast paths; a fast
        // helper returns `None` whenever anything symbolic is involved.
        // Everything else falls back to the general implementation.
        let fast = match code {
            code::LOAD => self.fast_load(arg, pc, solver),
            code::STORE => self.fast_store(arg, pc, solver),
            code::FREE => self.fast_free(arg, pc, solver),
            code::CMP_PTR => self.fast_cmp_ptr(arg),
            _ => None,
        };
        fast.unwrap_or_else(|| self.execute_action(name, arg, pc, solver))
    }
    fn language() -> &'static str {
        "minic"
    }

    fn execute_action(
        &self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        let err1 = |e: Expr| vec![SymBranch::err_if(self.clone(), e, Expr::tt())];
        match name {
            "alloc" => {
                let args = match expr_args(arg, 2, "alloc") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let b = match expr_block(&args[0], "alloc") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let Some(size) = args[1].as_int() else {
                    // Paper §4.2: symbolic allocation sizes are an open
                    // research problem; MiniC rejects them like Gillian-C.
                    return err1(ub_expr(
                        "symbolic-alloc",
                        format!("alloc of symbolic size {}", args[1]),
                    ));
                };
                if size < 0 {
                    return err1(ub_expr("bad-alloc", format!("negative size {size}")));
                }
                if self.blocks.contains_key(&b) {
                    return err1(ub_expr("bad-alloc", format!("block {b} exists")));
                }
                let mut mem = self.clone();
                mem.register_block(b, size);
                vec![SymBranch::ok(mem, args[0].clone())]
            }
            "free" => {
                let args = match expr_args(arg, 2, "free") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let b = match expr_block(&args[0], "free") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let off = &args[1];
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(ub_expr("invalid-block", format!("free of {b}")));
                };
                if blk.freed {
                    return err1(ub_expr("double-free", format!("free of already freed {b}")));
                }
                if blk.perm < perm::FREEABLE {
                    return err1(ub_expr(
                        "insufficient-permission",
                        format!("free of {b} with permission {}", blk.perm),
                    ));
                }
                let mut out = Vec::new();
                let zero = solver.simplify(pc, &off.clone().eq(Expr::int(0)));
                let nonzero = solver.simplify(pc, &zero.clone().not());
                let mut mem = self.clone();
                if let Some(mblk) = mem.blocks.get_mut(&b) {
                    mblk.release();
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::ok_if(mem, Expr::tt(), zero),
                );
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        ub_expr("bad-free", format!("free of {b} at nonzero offset {off}")),
                        nonzero,
                    ),
                );
                out
            }
            "load" => {
                let args = match expr_args(arg, 3, "load") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let chunk = match args[0].as_value().and_then(Chunk::from_value) {
                    Some(c) => c,
                    None => return err1(ub_expr("bad-action-argument", "load: bad chunk")),
                };
                let b = match expr_block(&args[1], "load") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let off = solver.simplify(pc, &args[2]);
                let (in_bounds, oob) = match self.access_prologue(
                    "load",
                    b,
                    &off,
                    chunk.size as i64,
                    perm::READABLE,
                    solver,
                    pc,
                ) {
                    Ok(x) => x,
                    Err(e) => return err1(e),
                };
                let mut out = Vec::new();
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        ub_expr(
                            "out-of-bounds",
                            format!("load of {} bytes at {b}+{off}", chunk.size),
                        ),
                        oob,
                    ),
                );
                let mut none_of = in_bounds.clone();
                let candidates = match off.as_int().and_then(|o| self.literal_candidates(b, o)) {
                    Some(c) => c,
                    None => self.run_starts(b),
                };
                for (base, v, n) in candidates {
                    let eq =
                        solver.simplify(pc, &in_bounds.clone().and(off.clone().eq(base.clone())));
                    none_of = none_of.and(off.clone().ne(base.clone()));
                    if eq.as_bool() == Some(false) || !solver.sat_with(pc, &eq).possibly_sat() {
                        continue;
                    }
                    if n == chunk.size && self.run_complete(b, &base, &v, n, solver, pc) {
                        let decoded = solver.simplify(pc, &decode_expr(&v, chunk));
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::ok_if(self.clone(), decoded, eq),
                        );
                    } else {
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::err_if(
                                self.clone(),
                                ub_expr("mixed-read", format!("torn load at {b}+{off}")),
                                eq,
                            ),
                        );
                    }
                }
                let none_of = solver.simplify(pc, &none_of);
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        ub_expr(
                            "uninitialized-read",
                            format!("load at {b}+{off} reads uninitialized bytes"),
                        ),
                        none_of,
                    ),
                );
                out
            }
            "store" => {
                let args = match expr_args(arg, 4, "store") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let chunk = match args[0].as_value().and_then(Chunk::from_value) {
                    Some(c) => c,
                    None => return err1(ub_expr("bad-action-argument", "store: bad chunk")),
                };
                let b = match expr_block(&args[1], "store") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let off = solver.simplify(pc, &args[2]);
                let value = solver.simplify(pc, &decode_expr(&args[3], chunk));
                let (in_bounds, oob) = match self.access_prologue(
                    "store",
                    b,
                    &off,
                    chunk.size as i64,
                    perm::WRITABLE,
                    solver,
                    pc,
                ) {
                    Ok(x) => x,
                    Err(e) => return err1(e),
                };
                let mut out = Vec::new();
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        ub_expr(
                            "out-of-bounds",
                            format!("store of {} bytes at {b}+{off}", chunk.size),
                        ),
                        oob,
                    ),
                );
                let mut none_of = in_bounds.clone();
                let candidates = match off.as_int().and_then(|o| self.literal_candidates(b, o)) {
                    Some(c) => c,
                    None => self.run_starts(b),
                };
                for (base, _, n) in candidates {
                    let eq =
                        solver.simplify(pc, &in_bounds.clone().and(off.clone().eq(base.clone())));
                    none_of = none_of.and(off.clone().ne(base.clone()));
                    if eq.as_bool() == Some(false) || !solver.sat_with(pc, &eq).possibly_sat() {
                        continue;
                    }
                    let mut mem = self.clone();
                    let blk = mem.blocks.get_mut(&b).expect("block checked");
                    blk.write_run(&base, Some(n), &value, chunk.size, solver, pc);
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(mem, value.clone(), eq),
                    );
                }
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    let mut mem = self.clone();
                    let blk = mem.blocks.get_mut(&b).expect("block checked");
                    blk.write_run(&off, None, &value, chunk.size, solver, pc);
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(mem, value.clone(), none_of),
                    );
                }
                out
            }
            "loadBytes" => {
                let args = match expr_args(arg, 3, "loadBytes") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let b = match expr_block(&args[0], "loadBytes") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let (Some(off), Some(len)) = (args[1].as_int(), args[2].as_int()) else {
                    return err1(ub_expr(
                        "symbolic-bytes",
                        "loadBytes needs concrete offset and length",
                    ));
                };
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(ub_expr("invalid-block", format!("loadBytes on {b}")));
                };
                if blk.freed {
                    return err1(ub_expr("use-after-free", format!("loadBytes on freed {b}")));
                }
                if off < 0 || off + len > blk.size {
                    return err1(ub_expr("out-of-bounds", format!("loadBytes at {b}+{off}")));
                }
                let mut bytes = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match blk.cells.get(&Expr::int(off + i)) {
                        Some((v, k, n)) => bytes.push(Expr::list([
                            v.clone(),
                            Expr::int(*k as i64),
                            Expr::int(*n as i64),
                        ])),
                        None => bytes.push(Expr::Val(Value::Sym(POISON))),
                    }
                }
                vec![SymBranch::ok(self.clone(), Expr::List(bytes.into()))]
            }
            "storeBytes" => {
                let args = match expr_args(arg, 3, "storeBytes") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let b = match expr_block(&args[0], "storeBytes") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let Some(off) = args[1].as_int() else {
                    return err1(ub_expr(
                        "symbolic-bytes",
                        "storeBytes needs a concrete offset",
                    ));
                };
                let bytes: Vec<Expr> = match &args[2] {
                    Expr::List(es) => es.to_vec(),
                    Expr::Val(Value::List(vs)) => vs.iter().cloned().map(Expr::Val).collect(),
                    _ => return err1(ub_expr("bad-action-argument", "storeBytes: bytes")),
                };
                let len = bytes.len() as i64;
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(ub_expr("invalid-block", format!("storeBytes on {b}")));
                };
                if blk.freed {
                    return err1(ub_expr(
                        "use-after-free",
                        format!("storeBytes on freed {b}"),
                    ));
                }
                if blk.perm < perm::WRITABLE {
                    return err1(ub_expr("insufficient-permission", "storeBytes"));
                }
                if off < 0 || off + len > blk.size {
                    return err1(ub_expr("out-of-bounds", format!("storeBytes at {b}+{off}")));
                }
                let mut mem = self.clone();
                let blk = mem.blocks.get_mut(&b).expect("checked");
                for (i, byte) in bytes.into_iter().enumerate() {
                    let key = Expr::int(off + i as i64);
                    if byte == Expr::Val(Value::Sym(POISON)) {
                        blk.take(&key);
                        continue;
                    }
                    let parts = match &byte {
                        Expr::List(items) if items.len() == 3 => items.clone(),
                        Expr::Val(Value::List(items)) if items.len() == 3 => {
                            items.iter().cloned().map(Expr::Val).collect()
                        }
                        _ => return err1(ub_expr("bad-action-argument", "storeBytes: bad byte")),
                    };
                    let (Some(k), Some(n)) = (parts[1].as_int(), parts[2].as_int()) else {
                        return err1(ub_expr("bad-action-argument", "storeBytes: bad byte"));
                    };
                    blk.put(key, (parts[0].clone(), k as u8, n as u8));
                }
                vec![SymBranch::ok(mem, Expr::tt())]
            }
            "dropPerm" => {
                let args = match expr_args(arg, 2, "dropPerm") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let b = match expr_block(&args[0], "dropPerm") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let Some(p) = args[1].as_int() else {
                    return err1(ub_expr("bad-action-argument", "dropPerm: level"));
                };
                let mut mem = self.clone();
                let Some(blk) = mem.blocks.get_mut(&b) else {
                    return err1(ub_expr("invalid-block", format!("dropPerm on {b}")));
                };
                blk.perm = blk.perm.min(p as u8);
                let result = Expr::int(blk.perm as i64);
                vec![SymBranch::ok(mem, result)]
            }
            "checkPerm" => {
                let b = match expr_block(arg, "checkPerm") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                let p = self.blocks.get(&b).map(|blk| blk.perm as i64).unwrap_or(-1);
                vec![SymBranch::ok(self.clone(), Expr::int(p))]
            }
            "sizeBlock" => {
                let b = match expr_block(arg, "sizeBlock") {
                    Ok(b) => b,
                    Err(e) => return err1(e),
                };
                match self.blocks.get(&b) {
                    Some(blk) if !blk.freed => {
                        vec![SymBranch::ok(self.clone(), Expr::int(blk.size))]
                    }
                    Some(_) => err1(ub_expr("use-after-free", format!("sizeBlock on freed {b}"))),
                    None => err1(ub_expr("invalid-block", format!("sizeBlock on {b}"))),
                }
            }
            "cmpPtr" => {
                let args = match expr_args(arg, 3, "cmpPtr") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let op = match &args[0] {
                    Expr::Val(Value::Str(s)) => s.to_string(),
                    _ => return err1(ub_expr("bad-action-argument", "cmpPtr: op")),
                };
                let (Some((b1, o1)), Some((b2, o2))) = (expr_ptr(&args[1]), expr_ptr(&args[2]))
                else {
                    return err1(ub_expr("bad-action-argument", "cmpPtr: non-pointers"));
                };
                match op.as_str() {
                    "eq" => vec![SymBranch::ok(
                        self.clone(),
                        solver.simplify(pc, &args[1].clone().eq(args[2].clone())),
                    )],
                    "ne" => vec![SymBranch::ok(
                        self.clone(),
                        solver.simplify(pc, &args[1].clone().ne(args[2].clone())),
                    )],
                    "lt" | "le" => {
                        // Blocks are literal symbols, so this decides
                        // concretely in practice.
                        let same = solver.simplify(pc, &b1.clone().eq(b2.clone()));
                        match same.as_bool() {
                            Some(false) => err1(ub_expr(
                                "ub-pointer-comparison",
                                "ordering of pointers into different blocks",
                            )),
                            _ => {
                                let blk = match expr_block(&b1, "cmpPtr") {
                                    Ok(b) => b,
                                    Err(e) => return err1(e),
                                };
                                match self.blocks.get(&blk) {
                                    Some(info) if !info.freed => {
                                        let cmp = if op == "lt" { o1.lt(o2) } else { o1.le(o2) };
                                        vec![SymBranch::ok(self.clone(), solver.simplify(pc, &cmp))]
                                    }
                                    _ => err1(ub_expr(
                                        "ub-pointer-comparison",
                                        "ordering of invalid pointers",
                                    )),
                                }
                            }
                        }
                    }
                    other => err1(ub_expr("bad-action-argument", format!("cmpPtr: {other}"))),
                }
            }
            "globalSet" => {
                let args = match expr_args(arg, 2, "globalSet") {
                    Ok(a) => a,
                    Err(e) => return err1(e),
                };
                let name = match &args[0] {
                    Expr::Val(Value::Str(s)) => s.clone(),
                    _ => return err1(ub_expr("bad-action-argument", "globalSet: name")),
                };
                let mut mem = self.clone();
                mem.globals.insert(name, args[1].clone());
                vec![SymBranch::ok(mem, args[1].clone())]
            }
            "globalGet" => {
                let name = match arg {
                    Expr::Val(Value::Str(s)) => s.clone(),
                    _ => return err1(ub_expr("bad-action-argument", "globalGet: name")),
                };
                match self.globals.get(&name) {
                    Some(v) => vec![SymBranch::ok(self.clone(), v.clone())],
                    None => err1(ub_expr("invalid-global", name)),
                }
            }
            other => err1(ub_expr("unknown-action", other)),
        }
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        for blk in self.blocks.values() {
            for (off, (v, _, _)) in &blk.cells {
                out.extend(off.lvars());
                out.extend(v.lvars());
            }
        }
        for v in self.globals.values() {
            out.extend(v.lvars());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::ptr_value;

    fn blk(i: u64) -> Sym {
        Sym(Sym::FIRST_FRESH + i)
    }

    fn alloc_conc(m: &mut CConcMemory, i: u64, size: i64) -> Sym {
        let b = blk(i);
        m.execute_action("alloc", Value::List(vec![Value::Sym(b), Value::Int(size)]))
            .unwrap();
        b
    }

    #[test]
    fn concrete_store_load_round_trip() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let chunk = Chunk::int(4).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(1234),
            ]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(1234));
    }

    #[test]
    fn concrete_narrow_store_wraps() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 8);
        let chunk = Chunk::int(1).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(200),
            ]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(-56), "signed char wraps");
    }

    #[test]
    fn concrete_out_of_bounds_is_ub() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 4);
        let chunk = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "store",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(1), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("out-of-bounds"), "{e}");
    }

    #[test]
    fn concrete_uninitialized_and_torn_reads_are_ub() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let i4 = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "load",
                Value::List(vec![i4.clone(), Value::Sym(b), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("uninitialized"), "{e}");
        // Store 8 bytes, read 4: torn.
        let i8c = Chunk::int(8).to_value();
        m.execute_action(
            "store",
            Value::List(vec![i8c, Value::Sym(b), Value::Int(0), Value::Int(7)]),
        )
        .unwrap();
        let e = m
            .execute_action("load", Value::List(vec![i4, Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("mixed-read"), "{e}");
    }

    #[test]
    fn concrete_overlapping_store_invalidates_old_run() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let i8c = Chunk::int(8).to_value();
        let i4 = Chunk::int(4).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                i8c.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(7),
            ]),
        )
        .unwrap();
        // Overwrite bytes 4..8 with an int: old 8-byte run must die.
        m.execute_action(
            "store",
            Value::List(vec![
                i4.clone(),
                Value::Sym(b),
                Value::Int(4),
                Value::Int(1),
            ]),
        )
        .unwrap();
        let e = m
            .execute_action("load", Value::List(vec![i8c, Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("uninitialized") || e.to_string().contains("mixed"));
        let v = m
            .execute_action("load", Value::List(vec![i4, Value::Sym(b), Value::Int(4)]))
            .unwrap();
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn concrete_free_lifecycle() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 8);
        m.execute_action("free", Value::List(vec![Value::Sym(b), Value::Int(0)]))
            .unwrap();
        let chunk = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("use-after-free"), "{e}");
        let e = m
            .execute_action("free", Value::List(vec![Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("double-free"), "{e}");
    }

    #[test]
    fn concrete_memcpy_via_bytes() {
        let mut m = CConcMemory::default();
        let src = alloc_conc(&mut m, 0, 8);
        let dst = alloc_conc(&mut m, 1, 8);
        let chunk = Chunk::int(8).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(src),
                Value::Int(0),
                Value::Int(99),
            ]),
        )
        .unwrap();
        let bytes = m
            .execute_action(
                "loadBytes",
                Value::List(vec![Value::Sym(src), Value::Int(0), Value::Int(8)]),
            )
            .unwrap();
        m.execute_action(
            "storeBytes",
            Value::List(vec![Value::Sym(dst), Value::Int(0), bytes]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(dst), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(99));
    }

    #[test]
    fn concrete_pointer_comparison_ub() {
        let mut m = CConcMemory::default();
        let b1 = alloc_conc(&mut m, 0, 8);
        let b2 = alloc_conc(&mut m, 1, 8);
        // Equality across blocks is defined.
        let v = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("eq"), ptr_value(b1, 0), ptr_value(b2, 0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Bool(false));
        // Ordering across blocks is UB.
        let e = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("lt"), ptr_value(b1, 0), ptr_value(b2, 0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("ub-pointer-comparison"), "{e}");
        // Ordering within one block is fine.
        let v = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("lt"), ptr_value(b1, 0), ptr_value(b1, 4)]),
            )
            .unwrap();
        assert_eq!(v, Value::Bool(true));
        // Ordering of freed pointers is UB (the Collections-C test bug).
        m.execute_action("free", Value::List(vec![Value::Sym(b1), Value::Int(0)]))
            .unwrap();
        let e = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("le"), ptr_value(b1, 0), ptr_value(b1, 4)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("invalid pointers"), "{e}");
    }

    #[test]
    fn symbolic_load_with_symbolic_offset_branches() {
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 16);
        m.set_run(b, 0, Expr::int(10), 8);
        m.set_run(b, 8, Expr::int(20), 8);
        let off = Expr::lvar(LVar(0));
        pc.push(
            off.clone()
                .type_of()
                .eq(Expr::type_tag(gillian_gil::TypeTag::Int)),
        );
        let chunk = Chunk::int(8).to_expr();
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), off]),
            &pc,
            &solver,
        );
        // out-of-bounds error, two hits, uninitialized-gap error.
        let oks: Vec<_> = branches.iter().filter(|br| br.outcome.is_ok()).collect();
        assert_eq!(oks.len(), 2, "{branches:#?}");
        assert!(branches.iter().filter(|br| br.outcome.is_err()).count() >= 2);
    }

    #[test]
    fn symbolic_concrete_offsets_do_not_branch() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 8);
        m.set_run(b, 0, Expr::lvar(LVar(3)), 8);
        let chunk = Chunk::int(8).to_expr();
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), Expr::int(0)]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1, "{branches:#?}");
        assert_eq!(branches[0].outcome, Ok(Expr::lvar(LVar(3))));
    }

    #[test]
    fn symbolic_out_of_bounds_with_symbolic_index() {
        // The Collections-C off-by-one shape: index i with 0 ≤ i ≤ size is
        // out of bounds exactly at i = size.
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 8);
        m.set_run(b, 0, Expr::int(5), 8);
        let i = Expr::lvar(LVar(0));
        pc.push(Expr::int(0).le(i.clone()));
        pc.push(i.clone().le(Expr::int(1)));
        let chunk = Chunk::int(8).to_expr();
        let off = i.mul(Expr::int(8));
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), off]),
            &pc,
            &solver,
        );
        let errs: Vec<String> = branches
            .iter()
            .filter_map(|br| br.outcome.as_ref().err().map(|e| e.to_string()))
            .collect();
        assert!(
            errs.iter().any(|e| e.contains("out-of-bounds")),
            "i = 1 must be a feasible overflow: {branches:#?}"
        );
        assert!(branches.iter().any(|br| br.outcome.is_ok()));
    }

    #[test]
    fn symbolic_alloc_of_symbolic_size_is_rejected() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = CSymMemory::default();
        let branches = m.execute_action(
            "alloc",
            &Expr::list([Expr::Val(Value::Sym(blk(0))), Expr::lvar(LVar(0))]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert!(branches[0].outcome.is_err());
    }

    /// Nodes of `m` that `parent` does not share (block table plus every
    /// block's cells), and `m`'s total node count.
    fn sharing(m: &CSymMemory, parent: &CSymMemory) -> (usize, usize) {
        let empty = PMap::new();
        let mut unshared = m.blocks.unshared_nodes(&parent.blocks);
        let mut total = m.blocks.node_count();
        for (b, blk) in m.blocks.iter() {
            let theirs = parent.blocks.get(b).map_or(&empty, |p| &p.cells);
            unshared += blk.cells.unshared_nodes(theirs);
            total += blk.cells.node_count();
        }
        (unshared, total)
    }

    #[test]
    fn symbolic_store_shares_all_but_a_path() {
        // 48 blocks; block 7 holds 64 eight-byte runs = 512 cells.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = CSymMemory::default();
        for i in 0..48 {
            m.register_block(blk(i), 512);
        }
        let b = blk(7);
        for r in 0..64 {
            m.set_run(b, 8 * r, Expr::int(r), 8);
        }
        let cells = &m.blocks.get(&b).unwrap().cells;
        assert_eq!(cells.len(), 512);
        let bound = 2 * (m.blocks.height() + cells.height());
        let i8c = Chunk::int(8).to_expr();
        let store = m.action_code("store").unwrap();
        for (off, old) in [(200, Expr::int(25)), (260, Expr::int(-1))] {
            let arg = Expr::list([i8c.clone(), Expr::Val(Value::Sym(b)), Expr::int(off), old]);
            let fast = m.execute_action_coded(store, "store", &arg, &pc, &solver);
            let general = m.execute_action("store", &arg, &pc, &solver);
            for branches in [fast, general] {
                assert_eq!(branches.len(), 1);
                let (unshared, total) = sharing(&branches[0].memory, &m);
                assert!(
                    unshared <= bound && 4 * bound < total,
                    "store at {off} copied {unshared} of {total} nodes (bound {bound})"
                );
            }
        }
    }

    /// The store algorithm `write_run` replaces, on a plain map: drop the
    /// old run, then every concrete run overlapping the write, then
    /// insert the new run.
    fn reference_write(
        cells: &BTreeMap<Expr, (Expr, u8, u8)>,
        base: &Expr,
        old: Option<u8>,
        v: &Expr,
        size: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) -> BTreeMap<Expr, (Expr, u8, u8)> {
        let mut m = cells.clone();
        for i in 0..old.unwrap_or(0) {
            m.remove(&offset_key(base, i, solver, pc));
        }
        if let Some(lo) = base.as_int() {
            let hi = lo + size as i64;
            let starts: Vec<(i64, u8)> = m
                .iter()
                .filter_map(|(off, (_, k, n))| (*k == 0).then_some((off.as_int()?, *n)))
                .collect();
            for (start, n) in starts {
                if start < hi && start + n as i64 > lo {
                    for i in 0..n as i64 {
                        m.remove(&Expr::int(start + i));
                    }
                }
            }
        }
        for k in 0..size {
            m.insert(offset_key(base, k, solver, pc), (v.clone(), k, size));
        }
        m
    }

    #[test]
    fn write_run_matches_the_reference_store() {
        // Random blocks mixing well-formed runs, torn leftovers (cells of
        // any `k`/`n`, as `storeBytes` can leave) and symbolic offsets.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |below: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % below
        };
        let x = Expr::lvar(LVar(0));
        for _ in 0..400 {
            let mut blk = SymBlock::new(96);
            for _ in 0..next(40) {
                let off = next(80) as i64;
                let n = 1 + next(12) as u8;
                if next(3) == 0 {
                    let k = next(n as u64) as u8;
                    blk.put(Expr::int(off), (Expr::int(off), k, n));
                } else {
                    for k in 0..n {
                        blk.put(Expr::int(off + k as i64), (Expr::int(off), k, n));
                    }
                }
            }
            if next(4) == 0 {
                let key = offset_key(&x, next(3) as u8, &solver, &pc);
                blk.put(key, (Expr::int(-7), 0, 1));
            }
            let before: BTreeMap<_, _> = blk
                .cells
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let base = if next(5) == 0 {
                x.clone()
            } else {
                Expr::int(next(88) as i64)
            };
            let old = match blk.cells.get(&base) {
                Some((_, 0, n)) => Some(*n),
                _ => None,
            };
            let size = [1, 2, 4, 8][next(4) as usize];
            let v = Expr::int(1000);
            let want = reference_write(&before, &base, old, &v, size, &solver, &pc);
            blk.write_run(&base, old, &v, size, &solver, &pc);
            assert!(
                blk.cells.iter().eq(want.iter()),
                "store of {size} at {base} (old run {old:?}) over {before:?}"
            );
            let symbolic = blk.cells.keys().filter(|k| k.as_int().is_none()).count();
            assert_eq!(blk.symbolic_offsets, symbolic);
            assert!(blk.cells.values().all(|(_, _, n)| *n <= blk.max_run));
        }
    }
}
