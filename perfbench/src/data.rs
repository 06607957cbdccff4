//! Seeded inputs: databases, planted families and query streams.
//!
//! Everything here is a pure function of the seed and the sizes, so the
//! same seed stages byte-identical fragments and sends identical queries.

use std::io;
use std::path::Path;

use parblast_blast::DbStats;
use parblast_mpiblast::Scheme;
use parblast_seqdb::{
    extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Query length: the paper's 568-nt query cut from `ecoli.nt`.
pub(crate) const QUERY_LEN: usize = 568;

/// A generated database before formatting.
pub struct Database {
    /// `(defline, 2-bit codes)` in storage order.
    pub seqs: Vec<(String, Vec<u8>)>,
    /// Whole-database statistics (E-values use the full database).
    pub stats: DbStats,
}

/// An `nt`-like background database of `residues` residues.
pub fn background(seed: u64, residues: u64) -> Database {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed,
        ..Default::default()
    });
    let mut seqs = Vec::new();
    while let Some(s) = g.next() {
        seqs.push(s);
    }
    Database {
        seqs,
        stats: DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        },
    }
}

/// Planted homolog families: `families` random sources of `len` residues,
/// each stored with `copies` mutated copies (`divergence` substitution
/// rate). Subject ids are `famFFF.KK` (`KK = 00` is the source).
pub(crate) struct Families {
    /// Family sources, indexed by family.
    pub(crate) sources: Vec<Vec<u8>>,
    /// Stored members per family (source + copies).
    pub(crate) members: usize,
}

impl Families {
    /// Subject id of member `k` of family `f`.
    pub(crate) fn subject_id(f: usize, k: usize) -> String {
        format!("fam{f:03}.{k:02}")
    }
}

/// Add planted families to `db`, spread through the background so every
/// fragment holds some members.
pub(crate) fn plant_families(
    db: &mut Database,
    seed: u64,
    families: usize,
    len: usize,
    copies: usize,
    divergence: f64,
) -> Families {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FA3_11E5);
    let sources: Vec<Vec<u8>> = (0..families)
        .map(|_| (0..len).map(|_| rng.random_range(0..4u8)).collect())
        .collect();
    let mut members = Vec::new();
    for (f, src) in sources.iter().enumerate() {
        for k in 0..=copies {
            let codes = if k == 0 {
                src.clone()
            } else {
                mutate(src, divergence, &mut rng)
            };
            let id = Families::subject_id(f, k);
            members.push((format!("{id} planted family {f} member {k}"), codes));
        }
    }
    let stride = (db.seqs.len() / members.len().max(1)).max(1);
    for (i, m) in members.into_iter().enumerate() {
        db.stats.residues += m.1.len() as u64;
        db.stats.nseq += 1;
        let at = ((i + 1) * stride + i).min(db.seqs.len());
        db.seqs.insert(at, m);
    }
    Families {
        sources,
        members: copies + 1,
    }
}

fn mutate(seq: &[u8], rate: f64, rng: &mut StdRng) -> Vec<u8> {
    seq.iter()
        .map(|&c| {
            if rng.random::<f64>() < rate {
                (c + 1 + rng.random_range(0..3u8)) & 3
            } else {
                c
            }
        })
        .collect()
}

/// `n` queries cut from the database itself (2% mutated), so every
/// search finds its source subject: the paper's one-shot query shape.
pub fn self_queries(db: &Database, seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1F);
    let long: Vec<&Vec<u8>> = db
        .seqs
        .iter()
        .map(|(_, c)| c)
        .filter(|c| c.len() >= QUERY_LEN)
        .collect();
    (0..n)
        .map(|i| {
            let src = long[rng.random_range(0..long.len())];
            extract_query(src, QUERY_LEN, 0.02, seed.wrapping_add(i as u64))
        })
        .collect()
}

/// `n` queries cut from an independent stream, one per stream sequence:
/// unrelated to every subject, so nearly every subject is a seed-scan
/// miss. The stream's bases are independent (no repeat bias): the
/// database's runs would otherwise seed spurious hits in a biased query.
pub fn unrelated_queries(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut stream = SyntheticNt::new(SyntheticConfig {
        total_residues: u64::MAX,
        repeat_bias: 0.0,
        seed: seed ^ 0x00DD_5EED,
        ..Default::default()
    });
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (_, codes) = stream.next().expect("the stream is unbounded");
        if codes.len() >= QUERY_LEN {
            out.push(extract_query(
                &codes,
                QUERY_LEN,
                0.0,
                seed ^ out.len() as u64,
            ));
        }
    }
    out
}

/// `n` freshly mutated windows of the first `hot` families; returns the
/// queries and each one's family.
pub(crate) fn family_queries(
    fams: &Families,
    seed: u64,
    hot: usize,
    n: usize,
) -> (Vec<Vec<u8>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    let mut queries = Vec::with_capacity(n);
    let mut family = Vec::with_capacity(n);
    for i in 0..n {
        let f = i % hot.min(fams.sources.len());
        queries.push(extract_query(
            &fams.sources[f],
            QUERY_LEN,
            0.03,
            rng.random::<u64>(),
        ));
        family.push(f);
    }
    (queries, family)
}

/// Format `db` into `fragments` volumes under `dir` (the `mpiformatdb`
/// step) and load them into `scheme`. Returns the fragment names and
/// their total size in bytes.
pub(crate) fn format_and_stage(
    db: &Database,
    dir: &Path,
    fragments: u32,
    scheme: &Scheme,
) -> io::Result<(Vec<String>, u64)> {
    let infos = segment_into_fragments(
        &dir.join("fmt"),
        "nt",
        SeqType::Nucleotide,
        fragments,
        db.seqs.iter().cloned(),
    )?;
    let mut names = Vec::with_capacity(infos.len());
    let mut total = 0u64;
    for info in infos {
        let bytes = std::fs::read(&info.path)?;
        let name = info
            .path
            .file_name()
            .expect("fragment path has a file name")
            .to_string_lossy()
            .into_owned();
        scheme.load_fragment(&name, &bytes)?;
        total += bytes.len() as u64;
        names.push(name);
    }
    Ok((names, total))
}
