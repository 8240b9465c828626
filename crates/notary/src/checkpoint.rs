//! Per-month checkpoint files for resumable studies.
//!
//! The Notary ran for six years; a crash four months into a long
//! replay must not force a restart from zero. The study runner
//! serializes each completed month's *partial* [`NotaryAggregate`] to
//! `<dir>/<YYYY-MM>.ckpt` and, on resume, reloads the partials and
//! skips the completed months. Because aggregate merging is
//! commutative and accumulation is integer-exact, the resumed final
//! aggregate is **bit-identical** (`PartialEq`) to an uninterrupted
//! run — an acceptance criterion, property-tested in the analysis
//! crate.
//!
//! Unlike the analysis store (`store.rs`), which deliberately drops
//! the data-dependent fingerprint state, a checkpoint must be
//! *lossless*: it carries the month counters (reusing the store's
//! month-line codec, which includes the raw `PositionMean`
//! accumulators), per-month fingerprint class flags, the
//! fingerprint coverage counts, sighting windows, and the
//! aggregate-level failure/salvage counters.
//!
//! Files are written atomically (temp file + rename) so an interrupt
//! mid-write leaves either no checkpoint or a complete one, never a
//! torn file; all sections are emitted in sorted order so identical
//! partials serialize to identical bytes. Since format v2 every file
//! carries an FNV-1a content-checksum footer ([`tlscope_durable`]), so
//! truncation and bit-rot are *detected* at load time; [`load_dir`]
//! quarantines damaged files (rename to `*.ckpt.bad`) and reports
//! their months as incomplete so the runner recomputes them, instead
//! of aborting the whole resume. The v1 format (no footer) is still
//! readable.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tlscope_chron::{Date, Month};
use tlscope_fingerprint::Fingerprint;

use crate::aggregate::{FpClassFlags, NotaryAggregate};
use crate::store::{month_line, parse_month_line};

/// Legacy header: files without a checksum footer.
const HEADER_V1: &str = "# tlscope checkpoint v1";
/// Current header: body sealed with a `sum\tfnv1a:` footer.
const HEADER: &str = "# tlscope checkpoint v2";

/// Errors from checkpoint IO or parsing.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (path carried for context).
    Io(PathBuf, std::io::Error),
    /// A checkpoint file failed to parse; carries path and 1-based line.
    Malformed(PathBuf, usize),
    /// A v2 checkpoint file failed its content-checksum check
    /// (truncated, torn, or bit-rotted on disk).
    Corrupt(PathBuf),
}

impl CheckpointError {
    /// True when the error describes a damaged *file* (recoverable by
    /// quarantining it and recomputing its month) rather than a
    /// filesystem failure that must abort the resume.
    pub fn is_damage(&self) -> bool {
        matches!(
            self,
            CheckpointError::Malformed(..) | CheckpointError::Corrupt(..)
        )
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(p, e) => write!(f, "checkpoint io error at {}: {e}", p.display()),
            CheckpointError::Malformed(p, line) => {
                write!(f, "malformed checkpoint {} (line {line})", p.display())
            }
            CheckpointError::Corrupt(p) => {
                write!(f, "corrupt checkpoint {} (checksum failed)", p.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn flags_to_bits(f: &FpClassFlags) -> u8 {
    (f.rc4 as u8)
        | (f.cbc as u8) << 1
        | (f.aead as u8) << 2
        | (f.des as u8) << 3
        | (f.tdes as u8) << 4
        | (f.null as u8) << 5
        | (f.anon as u8) << 6
}

fn flags_from_bits(bits: u8) -> FpClassFlags {
    FpClassFlags {
        rc4: bits & 1 != 0,
        cbc: bits & 2 != 0,
        aead: bits & 4 != 0,
        des: bits & 8 != 0,
        tdes: bits & 16 != 0,
        null: bits & 32 != 0,
        anon: bits & 64 != 0,
    }
}

/// Comma-join a list of wire ids; `-` marks the empty list (a bare
/// empty field would be ambiguous in a tab-split line).
fn join_ids<T: std::fmt::Display>(ids: &[T]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        ids.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn split_ids<T: std::str::FromStr>(field: &str) -> Option<Vec<T>> {
    if field == "-" {
        return Some(Vec::new());
    }
    field.split(',').map(|p| p.parse().ok()).collect()
}

/// Serialize one partial aggregate to checkpoint text. Deterministic:
/// every section is sorted, so equal partials produce equal bytes.
pub fn to_text(partial: &NotaryAggregate) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (month, stats) in partial.iter_months() {
        out.push_str("month\t");
        out.push_str(&month_line(month, stats));
        out.push('\n');
        // On-disk flag lines key on the stable content hash (id64), not
        // the run-local dense id — the v1 format is unchanged.
        let mut flags: Vec<(u64, &FpClassFlags)> = stats
            .fp_flags
            .iter()
            .map(|(id, f)| (partial.interner.id64_of(*id), f))
            .collect();
        flags.sort_by_key(|(id, _)| *id);
        for (id, f) in flags {
            out.push_str(&format!("flag\t{month}\t{id}\t{}\n", flags_to_bits(f)));
        }
    }
    let mut fps: Vec<(&Fingerprint, u64)> = partial.iter_fp_counts().collect();
    fps.sort();
    for (fp, count) in fps {
        out.push_str(&format!(
            "fp\t{count}\t{}\t{}\t{}\t{}\n",
            join_ids(&fp.ciphers),
            join_ids(&fp.extensions),
            join_ids(&fp.curves),
            join_ids(&fp.point_formats),
        ));
    }
    let mut sightings: Vec<_> = partial
        .sightings
        .iter_raw()
        .map(|(id, s)| (partial.interner.id64_of(*id), s))
        .collect();
    sightings.sort_by_key(|(id, _)| *id);
    for (id, s) in sightings {
        out.push_str(&format!(
            "sight\t{id}\t{}\t{}\t{}\n",
            s.first, s.last, s.connections
        ));
    }
    out.push_str(&format!(
        "fail\t{}\t{}\t{}\n",
        partial.not_tls, partial.garbled_client, partial.salvaged
    ));
    tlscope_durable::seal(out)
}

/// Parse checkpoint text back into a partial aggregate.
///
/// Accepts both the current sealed v2 format (checksum footer
/// verified; failure is [`CheckpointError::Corrupt`]) and the legacy
/// v1 format, which has no footer and is parsed as-is.
pub fn from_text(text: &str, path: &Path) -> Result<NotaryAggregate, CheckpointError> {
    let bad = |n: usize| CheckpointError::Malformed(path.to_path_buf(), n);
    let first = text.lines().next().unwrap_or("");
    let body = if first.starts_with(HEADER) {
        tlscope_durable::open_sealed(text)
            .map_err(|_| CheckpointError::Corrupt(path.to_path_buf()))?
    } else if first.starts_with(HEADER_V1) {
        text
    } else {
        return Err(bad(1));
    };
    let mut lines = body.lines().enumerate();
    lines.next(); // header, validated above
    let mut agg = NotaryAggregate::new();
    // Month stats are buffered so `flag` lines can attach to them in
    // any order relative to their `month` line. Flag and sight lines
    // key on id64 but the in-memory structures key on interned ids, so
    // they are buffered too and resolved once all `fp` lines (which
    // populate the interner) have been read.
    let mut months = BTreeMap::new();
    let mut pending_flags: Vec<(usize, Month, u64, FpClassFlags)> = Vec::new();
    let mut pending_sights: Vec<(usize, u64, Date, Date, u64)> = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let n = idx + 1;
        let (tag, rest) = line.split_once('\t').ok_or(bad(n))?;
        match tag {
            "month" => {
                let (month, stats) = parse_month_line(rest).ok_or(bad(n))?;
                months.insert(month, stats);
            }
            "flag" => {
                let mut f = rest.split('\t');
                let month: Month = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let id: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let bits: u8 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                if !months.contains_key(&month) {
                    return Err(bad(n));
                }
                pending_flags.push((n, month, id, flags_from_bits(bits)));
            }
            "fp" => {
                let mut f = rest.split('\t');
                let count: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let ciphers = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let extensions = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let curves = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let point_formats = f.next().and_then(split_ids::<u8>).ok_or(bad(n))?;
                let id = agg.interner.intern_owned(Fingerprint {
                    ciphers,
                    extensions,
                    curves,
                    point_formats,
                });
                if agg.fp_counts.len() <= id.index() {
                    agg.fp_counts.resize(id.index() + 1, 0);
                }
                agg.fp_counts[id.index()] = count;
            }
            "sight" => {
                let mut f = rest.split('\t');
                let id: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let first: Date = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let last: Date = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let connections: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                pending_sights.push((n, id, first, last, connections));
            }
            "fail" => {
                let mut f = rest.split('\t');
                agg.not_tls = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                agg.garbled_client = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                agg.salvaged = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
            }
            _ => return Err(bad(n)),
        }
    }
    // A flag or sight id64 with no matching `fp` line means the file
    // is internally inconsistent — reject it at that line.
    for (n, month, id64, flags) in pending_flags {
        let id = agg.interner.lookup_id64(id64).ok_or(bad(n))?;
        months
            .get_mut(&month)
            .ok_or(bad(n))?
            .fp_flags
            .insert(id, flags);
    }
    for (n, id64, first, last, connections) in pending_sights {
        let id = agg.interner.lookup_id64(id64).ok_or(bad(n))?;
        agg.sightings.observe(id, first, 0);
        agg.sightings.observe(id, last, connections);
    }
    for (month, stats) in months {
        agg.insert_month(month, stats);
    }
    Ok(agg)
}

fn month_path(dir: &Path, month: Month) -> PathBuf {
    dir.join(format!("{month}.ckpt"))
}

/// Atomically write the partial aggregate for one completed month.
///
/// The temp-then-rename dance guarantees a reader (or a resumed run)
/// never observes a torn checkpoint: the final path either does not
/// exist or holds a complete serialization.
pub fn write_month(
    dir: &Path,
    month: Month,
    partial: &NotaryAggregate,
) -> Result<(), CheckpointError> {
    let final_path = month_path(dir, month);
    tlscope_durable::write_atomic(dir, &format!("{month}.ckpt"), &to_text(partial))
        .map_err(|e| CheckpointError::Io(final_path, e))
}

/// Load one month's checkpoint file.
pub fn read_month(dir: &Path, month: Month) -> Result<NotaryAggregate, CheckpointError> {
    let path = month_path(dir, month);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        // Bit-rot can make a file invalid UTF-8; that is damage to the
        // file's content, not a filesystem failure.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return Err(CheckpointError::Corrupt(path));
        }
        Err(e) => return Err(CheckpointError::Io(path, e)),
    };
    from_text(&text, &path)
}

/// Result of scanning a checkpoint directory with [`load_dir`].
#[derive(Debug)]
pub struct DirLoad {
    /// Merge of every intact month partial.
    pub aggregate: NotaryAggregate,
    /// Months whose checkpoints loaded cleanly (safe to skip).
    pub completed: BTreeSet<Month>,
    /// Quarantine paths (`*.ckpt.bad`) of damaged files that were
    /// moved aside; their months are *not* in `completed`, so the
    /// runner recomputes them.
    pub quarantined: Vec<PathBuf>,
}

/// Scan a checkpoint directory: merge every completed month's partial
/// into one aggregate and report which months are already done.
///
/// A missing directory is a valid cold start (empty aggregate, no
/// completed months). Leftover `.tmp` files from an interrupted write
/// are ignored — their month was not completed. A damaged file
/// (malformed, truncated, or failing its checksum) is quarantined —
/// renamed to `<month>.ckpt.bad` — and its month reported incomplete,
/// so a resume recomputes it instead of aborting; only filesystem
/// errors abort.
pub fn load_dir(dir: &Path) -> Result<DirLoad, CheckpointError> {
    let mut load = DirLoad {
        aggregate: NotaryAggregate::new(),
        completed: BTreeSet::new(),
        quarantined: Vec::new(),
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(load),
        Err(e) => return Err(CheckpointError::Io(dir.to_path_buf(), e)),
    };
    let mut months = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io(dir.to_path_buf(), e))?;
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".ckpt")) else {
            continue;
        };
        if let Ok(month) = stem.parse::<Month>() {
            months.push(month);
        }
    }
    // Sorted merge order keeps loading deterministic (merging is
    // commutative anyway, but determinism should not depend on it).
    months.sort();
    for month in months {
        match read_month(dir, month) {
            Ok(partial) => {
                load.aggregate.merge(partial);
                load.completed.insert(month);
            }
            Err(e) if e.is_damage() => {
                let path = month_path(dir, month);
                let bad = tlscope_durable::quarantine(&path)
                    .map_err(|io| CheckpointError::Io(path, io))?;
                load.quarantined.push(bad);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_chron::Month;
    use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

    fn unique_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-ckpt-{tag}-{pid}-{t}"))
    }

    fn sample_partial(month: Month) -> NotaryAggregate {
        let g = Generator::new(TrafficConfig {
            seed: 77,
            connections_per_month: 250,
            faults: FaultInjector {
                truncate_prob: 0.05,
                corrupt_prob: 0.05,
                ..FaultInjector::none()
            },
        });
        let flows = g.stream_month(month).map(|ev| crate::TappedFlow {
            date: ev.date,
            port: ev.port,
            client: ev.client_flow,
            server: ev.server_flow,
        });
        crate::ingest_serial(flows)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let partial = sample_partial(Month::ym(2015, 6));
        assert!(!partial.sightings.is_empty(), "sample must exercise fps");
        assert!(partial.distinct_fingerprints() > 0);
        let text = to_text(&partial);
        assert!(text.starts_with(HEADER));
        let back = from_text(&text, Path::new("test")).unwrap();
        assert_eq!(partial, back, "checkpoint text must be lossless");
        // Serialization itself is deterministic.
        assert_eq!(text, to_text(&back));
    }

    #[test]
    fn v1_format_is_still_readable() {
        let partial = sample_partial(Month::ym(2016, 2));
        // Reconstruct what a v1 writer produced: same body, v1 header,
        // no checksum footer.
        let sealed = to_text(&partial);
        let body = tlscope_durable::open_sealed(&sealed).unwrap();
        let v1_text = body.replacen(HEADER, HEADER_V1, 1);
        assert!(v1_text.starts_with(HEADER_V1));
        let back = from_text(&v1_text, Path::new("legacy")).unwrap();
        assert_eq!(partial, back, "v1 checkpoints must stay lossless");
    }

    #[test]
    fn dir_roundtrip_merges_to_original() {
        let dir = unique_dir("dir");
        let m1 = Month::ym(2015, 6);
        let m2 = Month::ym(2015, 7);
        let p1 = sample_partial(m1);
        let p2 = sample_partial(m2);
        let mut whole = NotaryAggregate::new();
        whole.merge(sample_partial(m1));
        whole.merge(sample_partial(m2));
        write_month(&dir, m1, &p1).unwrap();
        write_month(&dir, m2, &p2).unwrap();
        // A leftover temp file from an interrupted write is ignored.
        std::fs::write(dir.join("2015-08.ckpt.tmp"), "torn").unwrap();
        let load = load_dir(&dir).unwrap();
        assert_eq!(load.aggregate, whole);
        assert_eq!(load.completed.into_iter().collect::<Vec<_>>(), vec![m1, m2]);
        assert!(load.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_cold_start() {
        let load = load_dir(&unique_dir("absent")).unwrap();
        assert_eq!(load.aggregate, NotaryAggregate::new());
        assert!(load.completed.is_empty());
        assert!(load.quarantined.is_empty());
    }

    #[test]
    fn malformed_files_are_rejected() {
        let p = Path::new("x");
        assert!(matches!(
            from_text("", p),
            Err(CheckpointError::Malformed(_, 1))
        ));
        assert!(matches!(
            from_text("# tlscope checkpoint v1\nbogus\tline\n", p),
            Err(CheckpointError::Malformed(_, 2))
        ));
        assert!(matches!(
            from_text("# tlscope checkpoint v1\nflag\t2015-01\t5\t1\n", p),
            Err(CheckpointError::Malformed(_, 2)),
        ));
        // A sight line referencing an id64 with no fp line is
        // internally inconsistent.
        assert!(matches!(
            from_text(
                "# tlscope checkpoint v1\nsight\t99\t2015-01-01\t2015-01-02\t5\n",
                p
            ),
            Err(CheckpointError::Malformed(_, 2)),
        ));
        // A v2 header without a valid checksum footer is corrupt.
        assert!(matches!(
            from_text("# tlscope checkpoint v2\nfail\t0\t0\t0\n", p),
            Err(CheckpointError::Corrupt(_)),
        ));
        // Error values render.
        let err = from_text("", p).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = from_text("# tlscope checkpoint v2\n", p).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_and_flipped_files_are_corrupt() {
        let partial = sample_partial(Month::ym(2015, 9));
        let text = to_text(&partial);
        let p = Path::new("x");
        // Truncation anywhere past the header is detected.
        let cut = text.len() / 2;
        assert!(matches!(
            from_text(&text[..cut], p),
            Err(CheckpointError::Corrupt(_)),
        ));
        // A single flipped bit is detected.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        assert!(matches!(
            from_text(&flipped, p),
            Err(CheckpointError::Corrupt(_)),
        ));
    }

    #[test]
    fn damaged_files_are_quarantined_not_fatal() {
        let dir = unique_dir("quarantine");
        let m1 = Month::ym(2015, 6);
        let m2 = Month::ym(2015, 7);
        let m3 = Month::ym(2015, 8);
        write_month(&dir, m1, &sample_partial(m1)).unwrap();
        write_month(&dir, m2, &sample_partial(m2)).unwrap();
        write_month(&dir, m3, &sample_partial(m3)).unwrap();
        // Truncate m2's file and garble m3's outright.
        let p2 = dir.join(format!("{m2}.ckpt"));
        let text2 = std::fs::read_to_string(&p2).unwrap();
        std::fs::write(&p2, &text2[..text2.len() / 3]).unwrap();
        let p3 = dir.join(format!("{m3}.ckpt"));
        std::fs::write(&p3, b"not a checkpoint at all\xff\xfe").unwrap();
        let load = load_dir(&dir).unwrap();
        assert_eq!(load.aggregate, sample_partial(m1));
        assert_eq!(load.completed.into_iter().collect::<Vec<_>>(), vec![m1]);
        assert_eq!(
            load.quarantined,
            vec![
                dir.join(format!("{m2}.ckpt.bad")),
                dir.join(format!("{m3}.ckpt.bad"))
            ]
        );
        // The damaged bytes were preserved, and the live names freed.
        assert!(!p2.exists() && !p3.exists());
        assert!(load.quarantined.iter().all(|p| p.exists()));
        // A second load sees one intact month and no new damage.
        let again = load_dir(&dir).unwrap();
        assert_eq!(again.completed.len(), 1);
        assert!(again.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flag_bits_roundtrip_all_combinations() {
        for bits in 0u8..128 {
            assert_eq!(flags_to_bits(&flags_from_bits(bits)), bits);
        }
    }
}
