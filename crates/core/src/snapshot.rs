//! Persistent warm state: versioned snapshots of the engine's memo tiers.
//!
//! Every memo tier the [`Engine`](crate::Engine) builds during a run is
//! keyed canonically — by interned layer sequences, hardware
//! parameters, or bit-exact graph encodings — never by process
//! addresses or hash-iteration order (the one instance-keyed map,
//! `ModelInterner::by_instance`, is deliberately *not* persisted). That is what makes cross-process
//! reuse sound: an entry looked up from a snapshot is
//! indistinguishable from one the loading process would have computed
//! itself, so a flow started from a snapshot is bit-identical to the
//! cold flow.
//!
//! # File format
//!
//! A fixed binary header followed by a binary body:
//!
//! ```text
//! offset  size  field
//!      0     8  magic `CLAIRSNP`
//!      8     2  byte-order mark 0xFEFF, little-endian (`FF FE`)
//!     10     4  format version (u32 LE, currently 7)
//!     14     8  body length in bytes (u64 LE)
//!     22     8  FNV-1a-64 checksum of the body (u64 LE)
//!     30     …  body
//! ```
//!
//! The body is three sections in this fixed order. Each section is a
//! `u32` record count followed by its records. Every integer is
//! little-endian and every float is stored as its IEEE-754 bit pattern
//! (`f64::to_bits`, a `u64`), so a round trip is bit-exact.
//!
//! ```text
//! section       record
//! structures    n:u32, n × kind            (position = structural id)
//! louvains      n:u32, n × key word:u64, partition
//! graphs        n:u32, n × sid:u32, hw, n:u32, n × (class, weight:f64),
//!               m:u32, m × (class, class, weight:f64)
//!
//! field         encoding
//! kind          tag:u8, then the variant's fields in declaration order:
//!               0 Conv2d 11 × u32 (pairs as .0, .1), 1 Conv1d 6 × u32,
//!               2 Linear 3 × u32, 3 Activation kind:u8 + elements:u64,
//!               4 Pooling kind:u8 + 2 × u64, 5 Flatten u64, 6 Permute u64
//! hw            sa_size, n_sa, n_act, n_pool: 4 × u32, each non-zero
//! class         OpClass::index as u8
//! partition     n:u32, n × community (m:u32, m × class)
//! ```
//!
//! Records in each section are sorted by their encoded bytes. Each
//! record starts with its key, keys are distinct, and no key's
//! encoding is a prefix of another's (variable-length keys carry
//! their length first), so this is the order of the encoded keys.
//! Structural ids are renumbered into the sorted order of the
//! structures before any other section is written. Snapshots are
//! therefore **byte-identical across thread counts** and across
//! processes that computed the same entries in different orders.
//!
//! # Versioning and invalidation
//!
//! Any reader-visible change to the body layout or to the meaning of a
//! cached value (a cost-model change, a new key field) must bump
//! [`SNAPSHOT_VERSION`]. A reader rejects unknown versions — along
//! with short files, bad magic, foreign byte order, checksum
//! mismatches, and bodies that fail validation — with a typed
//! [`ClaireError::SnapshotInvalid`], and the caller degrades to a cold
//! start. A snapshot is an accelerator, never an input: no failure
//! mode may panic or alter results.
//!
//! # Skipping unchanged saves
//!
//! An engine records which snapshot file its tiers match ([`Persisted`]):
//! after every successful save, and after a successful load into empty
//! tiers. [`Claire::save_warm_state`](crate::Claire::save_warm_state)
//! skips the write while that record still holds (same path, same
//! [`Engine::tier_signature`], same header on disk).
//! [`Engine::save_snapshot`] itself always writes.

use crate::error::ClaireError;
use crate::parallel::{read_lock, write_lock, Engine, UniversalCsr};
use claire_graph::{CsrGraph, Partition, WeightedGraph};
use claire_model::{
    Activation, ActivationKind, Conv1d, Conv2d, Flatten, LayerKind, Linear, OpClass, Permute,
    Pooling, PoolingKind,
};
use claire_ppa::HwParams;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file magic.
const MAGIC: [u8; 8] = *b"CLAIRSNP";

/// Byte-order mark: written little-endian, so the file starts a
/// foreign-endianness (or byte-swapped) header check cheaply.
const BOM: u16 = 0xFEFF;

/// Current snapshot format version. Bump on any layout or
/// cached-value-semantics change; readers reject other versions.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Header length in bytes: magic + BOM + version + length + checksum.
const HEADER_LEN: usize = 8 + 2 + 4 + 8 + 8;

/// Encoded sizes, for checking record counts against the bytes left.
/// A layer kind is at least a tag and one `u64` (Flatten, Permute).
const KIND_MIN: usize = 1 + 8;
const HW_LEN: usize = 4 * 4;

/// FNV-1a 64-bit checksum — dependency-free and byte-order independent.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn invalid(detail: impl Into<String>) -> ClaireError {
    ClaireError::SnapshotInvalid {
        detail: detail.into(),
    }
}

/// The snapshot file an engine's tiers match, recorded after a
/// successful save and after a successful load into empty tiers (only
/// then do the tiers equal the file's contents).
#[derive(Debug)]
pub(crate) struct Persisted {
    path: PathBuf,
    /// [`Engine::tier_signature`] when the tiers matched the file.
    signature: u64,
    /// The file's header. Its length and body checksum identify the
    /// body, so a replaced file shows in one 30-byte read.
    header: [u8; HEADER_LEN],
}

// --- encoding -------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A list length. Tiers hold far fewer than 2³² entries.
fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

fn put_class(out: &mut Vec<u8>, c: OpClass) {
    out.push(c.index() as u8);
}

fn put_hw(out: &mut Vec<u8>, hw: &HwParams) {
    let HwParams {
        sa_size,
        n_sa,
        n_act,
        n_pool,
    } = *hw;
    for v in [sa_size, n_sa, n_act, n_pool] {
        put_u32(out, v);
    }
}

/// A layer kind: its tag, then every field of its variant. The
/// patterns are exhaustive, so adding a field fails to compile here.
fn put_kind(out: &mut Vec<u8>, kind: &LayerKind) {
    match *kind {
        LayerKind::Conv2d(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            ifm,
            groups,
        }) => {
            out.push(0);
            for v in [
                in_channels,
                out_channels,
                kernel.0,
                kernel.1,
                stride.0,
                stride.1,
                padding.0,
                padding.1,
                ifm.0,
                ifm.1,
                groups,
            ] {
                put_u32(out, v);
            }
        }
        LayerKind::Conv1d(Conv1d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            length,
        }) => {
            out.push(1);
            for v in [in_channels, out_channels, kernel, stride, padding, length] {
                put_u32(out, v);
            }
        }
        LayerKind::Linear(Linear {
            in_features,
            out_features,
            tokens,
        }) => {
            out.push(2);
            for v in [in_features, out_features, tokens] {
                put_u32(out, v);
            }
        }
        LayerKind::Activation(Activation { kind, elements }) => {
            out.push(3);
            out.push(kind as u8);
            put_u64(out, elements);
        }
        LayerKind::Pooling(Pooling {
            kind,
            input_elements,
            output_elements,
        }) => {
            out.push(4);
            out.push(kind as u8);
            put_u64(out, input_elements);
            put_u64(out, output_elements);
        }
        LayerKind::Flatten(Flatten { elements }) => {
            out.push(5);
            put_u64(out, elements);
        }
        LayerKind::Permute(Permute { elements }) => {
            out.push(6);
            put_u64(out, elements);
        }
    }
}

fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_len(out, words.len());
    for &w in words {
        put_u64(out, w);
    }
}

fn put_partition(out: &mut Vec<u8>, p: &Partition<OpClass>) {
    put_len(out, p.len());
    for community in p.communities() {
        put_len(out, community.len());
        for &c in community {
            put_class(out, c);
        }
    }
}

/// Appends one section to `out`: the record count, then `items`
/// encoded by `put` and sorted by their encoded bytes. Each record is
/// encoded once, into one shared buffer. Returns the sorted order as
/// indices into `items`.
fn put_section<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    put: impl Fn(&mut Vec<u8>, T),
) -> Vec<usize> {
    let mut buf = Vec::new();
    let mut spans: Vec<Range<usize>> = Vec::new();
    for item in items {
        let start = buf.len();
        put(&mut buf, item);
        spans.push(start..buf.len());
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by(|&a, &b| buf[spans[a].clone()].cmp(&buf[spans[b].clone()]));
    put_len(out, order.len());
    for &i in &order {
        out.extend_from_slice(&buf[spans[i].clone()]);
    }
    order
}

/// Serializes the engine's memo tiers into snapshot bytes (header +
/// body). Pure read: takes every tier lock briefly, never mutates.
pub(crate) fn encode(engine: &Engine) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];

    // Structures come first: their sorted order fixes the structural
    // ids every later section refers to. `old_to_new[old] = new`.
    let old_to_new = {
        let models = read_lock(&engine.models);
        let structures: Vec<(&[LayerKind], u32)> = models
            .by_content
            .iter()
            .map(|(kinds, &sid)| (kinds.as_ref(), sid))
            .collect();
        let order = put_section(&mut out, &structures, |out, &(kinds, _)| {
            put_len(out, kinds.len());
            for kind in kinds {
                put_kind(out, kind);
            }
        });
        let mut old_to_new = vec![u32::MAX; models.batches.len()];
        for (new, i) in order.into_iter().enumerate() {
            old_to_new[structures[i].1 as usize] = new as u32;
        }
        old_to_new
    };
    let renum = |old: u32| old_to_new[old as usize];

    put_section(
        &mut out,
        read_lock(&engine.louvains).iter(),
        |out, (key, partition)| {
            put_words(out, key);
            put_partition(out, partition);
        },
    );

    put_section(
        &mut out,
        read_lock(&engine.graphs).iter(),
        |out, ((sids, hw), ug)| {
            // Graph-tier keys hold structural ids widened to u64; map them
            // through the same renumbering as every other tier.
            put_len(out, sids.len());
            for &s in sids.iter() {
                put_u32(out, renum(s as u32));
            }
            put_hw(out, hw);
            put_len(out, ug.graph.node_count());
            for (&n, w) in ug.graph.nodes() {
                put_class(out, n);
                put_f64(out, w);
            }
            put_len(out, ug.graph.edge_count());
            for (&a, &b, w) in ug.graph.edges() {
                put_class(out, a);
                put_class(out, b);
                put_f64(out, w);
            }
        },
    );

    let (header, body) = out.split_at_mut(HEADER_LEN);
    header.copy_from_slice(&header_for(body));
    out
}

/// The header of a snapshot whose body is `body`.
fn header_for(body: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&BOM.to_le_bytes());
    h[10..14].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    h[14..22].copy_from_slice(&(body.len() as u64).to_le_bytes());
    h[22..].copy_from_slice(&fnv1a(body).to_le_bytes());
    h
}

// --- decoding -------------------------------------------------------------

/// A staged Louvain entry: the canonical `(graph, γ)` key and the
/// memoized partition.
type StagedLouvain = (Box<[u64]>, Arc<Partition<OpClass>>);

/// Everything a snapshot contributes, fully parsed and validated but
/// not yet applied — so a corrupt file can be rejected without having
/// touched any engine state.
#[derive(Debug)]
struct Staged {
    structures: Vec<Box<[LayerKind]>>,
    louvains: Vec<StagedLouvain>,
    graphs: Vec<(Vec<u32>, HwParams, Arc<UniversalCsr>)>,
}

/// A bounds-checked little-endian cursor over a snapshot body.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ClaireError> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(invalid("body ends inside a record"));
        };
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, ClaireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, ClaireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, ClaireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, ClaireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u32s<const N: usize>(&mut self) -> Result<[u32; N], ClaireError> {
        let mut out = [0u32; N];
        for v in &mut out {
            *v = self.u32()?;
        }
        Ok(out)
    }

    /// A list of records of at least `min_len` bytes each. The count
    /// is checked against the bytes left before anything is allocated.
    fn list<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, ClaireError>,
    ) -> Result<Vec<T>, ClaireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_len) > self.rest.len() {
            return Err(invalid(format!(
                "count {n} overruns the {} bytes left",
                self.rest.len()
            )));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn class(&mut self) -> Result<OpClass, ClaireError> {
        let i = self.u8()?;
        OpClass::from_index(usize::from(i))
            .ok_or_else(|| invalid(format!("op class {i} out of range (< {})", OpClass::COUNT)))
    }

    fn hw(&mut self) -> Result<HwParams, ClaireError> {
        let [sa_size, n_sa, n_act, n_pool] = self.u32s()?;
        HwParams::try_new(sa_size, n_sa, n_act, n_pool)
            .map_err(|e| invalid(format!("hardware point: {e}")))
    }

    fn kind(&mut self) -> Result<LayerKind, ClaireError> {
        Ok(match self.u8()? {
            0 => {
                let [in_channels, out_channels, kx, ky, sx, sy, px, py, ix, iy, groups] =
                    self.u32s()?;
                LayerKind::Conv2d(Conv2d {
                    in_channels,
                    out_channels,
                    kernel: (kx, ky),
                    stride: (sx, sy),
                    padding: (px, py),
                    ifm: (ix, iy),
                    groups,
                })
            }
            1 => {
                let [in_channels, out_channels, kernel, stride, padding, length] = self.u32s()?;
                LayerKind::Conv1d(Conv1d {
                    in_channels,
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    length,
                })
            }
            2 => {
                let [in_features, out_features, tokens] = self.u32s()?;
                LayerKind::Linear(Linear {
                    in_features,
                    out_features,
                    tokens,
                })
            }
            3 => {
                let k = self.u8()?;
                let kind = *ActivationKind::ALL
                    .get(usize::from(k))
                    .ok_or_else(|| invalid(format!("activation kind {k} out of range")))?;
                LayerKind::Activation(Activation {
                    kind,
                    elements: self.u64()?,
                })
            }
            4 => {
                let k = self.u8()?;
                let kind = *PoolingKind::ALL
                    .get(usize::from(k))
                    .ok_or_else(|| invalid(format!("pooling kind {k} out of range")))?;
                LayerKind::Pooling(Pooling {
                    kind,
                    input_elements: self.u64()?,
                    output_elements: self.u64()?,
                })
            }
            5 => LayerKind::Flatten(Flatten {
                elements: self.u64()?,
            }),
            6 => LayerKind::Permute(Permute {
                elements: self.u64()?,
            }),
            tag => return Err(invalid(format!("unknown layer tag {tag}"))),
        })
    }

    fn words(&mut self) -> Result<Box<[u64]>, ClaireError> {
        Ok(self.list(8, Self::u64)?.into_boxed_slice())
    }

    /// Validates and rebuilds a partition. [`Partition::from_communities`]
    /// panics on malformed input, so a corrupt snapshot must be caught
    /// here — before any engine state is touched.
    fn partition(&mut self) -> Result<Partition<OpClass>, ClaireError> {
        let communities = self.list(4, |r| r.list(1, Self::class))?;
        let mut seen = [false; OpClass::COUNT];
        for c in &communities {
            if c.is_empty() {
                return Err(invalid("partition with an empty community"));
            }
            for n in c {
                if std::mem::replace(&mut seen[n.index()], true) {
                    return Err(invalid("partition with a node in two communities"));
                }
            }
        }
        Ok(Partition::from_communities(communities))
    }
}

/// Checks the header and returns the body.
fn body_of(bytes: &[u8]) -> Result<&[u8], ClaireError> {
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(invalid(format!(
            "file too short for header ({} < {HEADER_LEN} bytes)",
            bytes.len()
        )));
    };
    if header[..8] != MAGIC {
        return Err(invalid("bad magic (not a CLAIRE snapshot)"));
    }
    let bom = u16::from_le_bytes([header[8], header[9]]);
    if bom != BOM {
        return Err(if bom == BOM.swap_bytes() {
            invalid("foreign-endianness header (byte-swapped BOM)")
        } else {
            invalid(format!("corrupt byte-order mark 0x{bom:04X}"))
        });
    }
    let version = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    if version != SNAPSHOT_VERSION {
        return Err(invalid(format!(
            "version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let le_u64 = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&header[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let len = le_u64(14);
    if len != body.len() as u64 {
        return Err(invalid(format!(
            "truncated body ({} of {len} bytes)",
            body.len()
        )));
    }
    if fnv1a(body) != le_u64(22) {
        return Err(invalid("body checksum mismatch"));
    }
    Ok(body)
}

/// Parses and validates snapshot bytes into staged tier contents.
fn decode(bytes: &[u8]) -> Result<Staged, ClaireError> {
    let mut r = Reader {
        rest: body_of(bytes)?,
    };

    let structures = r.list(4, |r| {
        Ok(r.list(KIND_MIN, Reader::kind)?.into_boxed_slice())
    })?;
    let n = structures.len() as u32;
    let sid = |r: &mut Reader| -> Result<u32, ClaireError> {
        let sid = r.u32()?;
        if sid < n {
            Ok(sid)
        } else {
            Err(invalid(format!("structural id {sid} out of range (< {n})")))
        }
    };

    let louvains = r.list(4 + 4, |r| Ok((r.words()?, Arc::new(r.partition()?))))?;

    let graphs = r.list(4 + HW_LEN + 4 + 4, |r| {
        let sids = r.list(4, sid)?;
        let hw = r.hw()?;
        let nodes = r.list(1 + 8, |r| Ok((r.class()?, r.f64()?)))?;
        let edges = r.list(2 + 8, |r| Ok((r.class()?, r.class()?, r.f64()?)))?;
        let graph = WeightedGraph::from_parts(nodes, edges);
        let csr = CsrGraph::from_weighted(&graph);
        Ok((sids, hw, Arc::new(UniversalCsr { graph, csr })))
    })?;

    if !r.rest.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after the last section",
            r.rest.len()
        )));
    }
    Ok(Staged {
        structures,
        louvains,
        graphs,
    })
}

/// Merges staged snapshot contents into the engine's tiers. Existing
/// live entries always win (`or_insert`): a tier entry is an exact
/// function of its key, so on a genuine collision both sides are
/// equal and keeping the resident one is free.
fn apply(engine: &Engine, staged: Staged) {
    // Intern the snapshot's structures; `sid_map[snapshot_sid]` is the
    // live structural id in this process.
    let sid_map: Vec<u32> = {
        let mut models = write_lock(&engine.models);
        staged
            .structures
            .into_iter()
            .map(|kinds| models.intern_content(kinds))
            .collect()
    };
    let live = |sid: u32| sid_map[sid as usize];

    {
        let mut louvains = write_lock(&engine.louvains);
        for (key, partition) in staged.louvains {
            louvains.entry(key).or_insert(partition);
        }
    }
    {
        let mut graphs = write_lock(&engine.graphs);
        for (sids, hw, ug) in staged.graphs {
            let key: Box<[u64]> = sids.iter().map(|&s| u64::from(live(s))).collect();
            graphs.entry((key, hw)).or_insert(ug);
        }
    }
}

impl Engine {
    /// Writes the engine's memo tiers to `path` as a versioned
    /// snapshot, atomically (write to a sibling temp file, then
    /// rename). Always writes when eligible; see
    /// [`Claire::save_warm_state`](crate::Claire::save_warm_state) for
    /// the save that skips an unchanged file. Returns `false` —
    /// without writing — when the engine cannot produce a reusable
    /// snapshot: cache disabled (nothing to save) or a fault plan
    /// armed (faulted costs and evaluations must not leak into
    /// healthy runs).
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] when the file cannot be
    /// written.
    pub fn save_snapshot(&self, path: &Path) -> Result<bool, ClaireError> {
        if !self.cache_enabled() || self.faults().is_some() {
            return Ok(false);
        }
        let _span = self.telemetry().span("snapshot.save", "persist");
        // Taken before encoding: an entry memoized while the body is
        // written then reads as growth, so the next save rewrites
        // rather than trusting a file that may lack it.
        let signature = self.tier_signature();
        let bytes = encode(self);
        // The temp name is unique per (process, write): two writers
        // sharing one cache dir each rename a *complete* file into
        // place, so the loser can at worst overwrite the winner with
        // another valid snapshot — never a torn interleaving.
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(|e| invalid(format!("write failed: {e}")))?;
        self.record_persisted(path, signature, &bytes);
        Ok(true)
    }

    /// Loads a snapshot from `path` into the engine's memo tiers.
    /// Returns `false` — without reading — when the file does not
    /// exist (a first run is not an error) or when the engine is not
    /// eligible (cache disabled, fault plan armed). Existing live
    /// entries are never overwritten.
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] on any unreadable or invalid
    /// snapshot — short/truncated file, bad magic, foreign byte
    /// order, unknown version, checksum mismatch, malformed body.
    /// The engine is untouched in every error case: validation
    /// completes before any tier is written, so the caller simply
    /// continues cold.
    pub fn load_snapshot(&self, path: &Path) -> Result<bool, ClaireError> {
        if !self.cache_enabled() || self.faults().is_some() {
            return Ok(false);
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(invalid(format!("read failed: {e}"))),
        };
        let _span = self.telemetry().span("snapshot.load", "persist");
        let staged = decode(&bytes)?;
        let was_empty = self.persisted_counts().iter().all(|&c| c == 0);
        apply(self, staged);
        if was_empty {
            self.record_persisted(path, self.tier_signature(), &bytes);
        }
        Ok(true)
    }

    /// The snapshot encoding of the current tiers, for byte-identity
    /// checks without touching the filesystem.
    ///
    /// # Errors
    ///
    /// None: the binary encoding cannot fail. The `Result` keeps the
    /// signature stable for callers.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, ClaireError> {
        Ok(encode(self))
    }

    /// Records that the tiers (at `signature`) match the snapshot
    /// `bytes` at `path`.
    fn record_persisted(&self, path: &Path, signature: u64, bytes: &[u8]) {
        if let Some(header) = bytes.first_chunk::<HEADER_LEN>() {
            *write_lock(&self.persisted) = Some(Persisted {
                path: path.to_path_buf(),
                signature,
                header: *header,
            });
        }
    }

    /// Whether the file at `path` still holds exactly these tiers: the
    /// engine last saved it, or loaded it into empty tiers; nothing
    /// was memoized since; and the file still starts with the header
    /// seen then. Costs a signature and one 30-byte read.
    pub(crate) fn snapshot_is_current(&self, path: &Path) -> bool {
        let expected = match read_lock(&self.persisted).as_ref() {
            Some(p) if p.path == path && p.signature == self.tier_signature() => p.header,
            _ => return false,
        };
        let mut header = [0u8; HEADER_LEN];
        std::fs::File::open(path)
            .and_then(|mut f| f.read_exact(&mut header))
            .is_ok()
            && header == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn empty_engine_round_trips() {
        let engine = Engine::new(1);
        let bytes = encode(&engine);
        let staged = decode(&bytes).expect("fresh snapshot decodes");
        assert!(staged.structures.is_empty());
        let again = Engine::new(1);
        apply(&again, staged);
        assert_eq!(encode(&again), bytes);
    }

    #[test]
    fn header_corruptions_are_typed() {
        let engine = Engine::new(1);
        let bytes = encode(&engine);

        // Truncated below the header.
        let err = decode(&bytes[..10]).unwrap_err();
        assert!(matches!(err, ClaireError::SnapshotInvalid { .. }));

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());

        // Byte-swapped BOM reads as foreign endianness.
        let mut swapped = bytes.clone();
        swapped.swap(8, 9);
        let err = decode(&swapped).unwrap_err();
        assert!(err.to_string().contains("endian"), "{err}");

        // Future version.
        let mut vers = bytes.clone();
        vers[10] = 0xFE;
        let err = decode(&vers).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // A version-6 file, which still carried a comm section.
        let mut old = bytes.clone();
        old[10..14].copy_from_slice(&6u32.to_le_bytes());
        let err = decode(&old).unwrap_err();
        assert!(err.to_string().contains("version 6"), "{err}");

        // Body corruption trips the checksum.
        let mut flip = bytes.clone();
        let last = flip.len() - 1;
        flip[last] ^= 0x01;
        let err = decode(&flip).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// A framed snapshot whose body is the three sections, empty except
    /// for the given `(section index, count, records)`.
    fn with_sections(sections: &[(usize, u32, Vec<u8>)]) -> Vec<u8> {
        let mut body = Vec::new();
        for i in 0..3 {
            match sections.iter().find(|(s, _, _)| *s == i) {
                Some((_, count, records)) => {
                    put_u32(&mut body, *count);
                    body.extend_from_slice(records);
                }
                None => put_u32(&mut body, 0),
            }
        }
        let mut out = header_for(&body).to_vec();
        out.extend_from_slice(&body);
        out
    }

    fn rejection(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(ClaireError::SnapshotInvalid { detail }) => detail,
            other => panic!("expected SnapshotInvalid, got {other:?}"),
        }
    }

    fn hw_bytes(hw: [u32; 4]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in hw {
            put_u32(&mut out, v);
        }
        out
    }

    #[test]
    fn body_errors_are_typed() {
        // A lone empty structure, so structural id 0 is in range.
        let one_structure = (0, 1, vec![0; 4]);

        // An inflated count is refused before anything is allocated.
        let detail = rejection(&with_sections(&[(0, u32::MAX, Vec::new())]));
        assert!(detail.contains("overruns"), "{detail}");

        // Trailing bytes after the last section.
        let mut trailing = encode(&Engine::new(1));
        trailing.push(0);
        let body = trailing[HEADER_LEN..].to_vec();
        trailing[..HEADER_LEN].copy_from_slice(&header_for(&body));
        assert!(rejection(&trailing).contains("trailing"));

        // An unknown layer tag, in a structure of one layer.
        let mut structure = Vec::new();
        put_u32(&mut structure, 1);
        structure.push(7);
        structure.extend([0; 8]);
        assert!(rejection(&with_sections(&[(0, 1, structure)])).contains("layer tag"));

        // A zero hardware parameter, in a graph of no members.
        let mut graph = Vec::new();
        put_u32(&mut graph, 0);
        graph.extend(hw_bytes([16, 0, 16, 8]));
        put_u32(&mut graph, 0);
        put_u32(&mut graph, 0);
        let detail = rejection(&with_sections(&[(2, 1, graph)]));
        assert!(detail.contains("n_sa"), "{detail}");

        // A structural id out of range, as a graph's one member.
        let mut graph = Vec::new();
        put_u32(&mut graph, 1);
        put_u32(&mut graph, 1);
        graph.extend(hw_bytes([16, 16, 16, 8]));
        put_u32(&mut graph, 0);
        put_u32(&mut graph, 0);
        let detail = rejection(&with_sections(&[one_structure, (2, 1, graph)]));
        assert!(detail.contains("structural id 1"), "{detail}");

        // An op class out of range inside a partition.
        let mut louvain = Vec::new();
        put_u32(&mut louvain, 0); // no key words
        put_u32(&mut louvain, 1); // one community
        put_u32(&mut louvain, 1); // of one node
        louvain.push(OpClass::COUNT as u8);
        let detail = rejection(&with_sections(&[(1, 1, louvain)]));
        assert!(detail.contains("op class"), "{detail}");

        // A node in two communities.
        let mut louvain = Vec::new();
        put_u32(&mut louvain, 0);
        put_u32(&mut louvain, 2);
        for _ in 0..2 {
            put_u32(&mut louvain, 1);
            louvain.push(0);
        }
        let detail = rejection(&with_sections(&[(1, 1, louvain)]));
        assert!(detail.contains("two communities"), "{detail}");
    }

    #[test]
    fn every_layer_kind_round_trips() {
        use claire_model::zoo;
        let engine = Engine::new(1);
        for model in [
            zoo::alexnet(),
            zoo::gpt2(),
            zoo::swin_t(),
            zoo::mobilenet_v2(),
        ] {
            let kinds = model.layers().iter().map(|l| l.kind).collect();
            write_lock(&engine.models).intern_content(kinds);
        }
        let bytes = encode(&engine);
        let restored = Engine::new(1);
        apply(&restored, decode(&bytes).expect("decodes"));
        assert_eq!(encode(&restored), bytes);
        let staged = decode(&bytes).expect("decodes");
        let tags: std::collections::BTreeSet<u8> = staged
            .structures
            .iter()
            .flat_map(|s| s.iter())
            .map(|k| {
                let mut out = Vec::new();
                put_kind(&mut out, k);
                out[0]
            })
            .collect();
        assert_eq!(tags.len(), 7, "zoo models cover every layer kind: {tags:?}");
    }
}
