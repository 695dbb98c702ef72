//! The four workloads, the seeded NGINX inputs, and the seed streams the
//! SQLite statements (`sql.rs`) draw from.
//!
//! Every op class has an exact share of a run (a shuffled deck, not
//! independent draws), so the mean per-op cost barely moves between
//! seeds while the order, the file contents and sizes, the keys and the
//! row contents all do.

use cubicle_mpk::rng::Rng64;

/// Requests per NGINX boot. The server never closes the file it serves
/// (`httpd` opens one descriptor per request), and the VFS has 256
/// descriptors, so request 257 of a boot would get a 404. Capping
/// sessions keeps the benchmark measuring served files.
pub const WEB_SESSION: usize = 200;

/// Files per size class in the NGINX document root.
pub const FILES_PER_CLASS: usize = 4;

/// SQL statement kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `SELECT k, v FROM t WHERE id = ?` (primary key).
    Point,
    /// `SELECT id, v FROM t WHERE k = ?` (secondary index equality).
    Lookup,
    /// `SELECT count(*) FROM t WHERE k BETWEEN ? AND ?` (index range).
    Range,
    /// Autocommit single-row `UPDATE`.
    Update,
    /// Autocommit single-row `INSERT`.
    Insert,
    /// `PRAGMA wal_checkpoint`.
    Checkpoint,
}

/// Every statement kind, in report order.
pub const KINDS: [OpKind; 6] = [
    OpKind::Point,
    OpKind::Lookup,
    OpKind::Range,
    OpKind::Update,
    OpKind::Insert,
    OpKind::Checkpoint,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Point => "point",
            OpKind::Lookup => "lookup",
            OpKind::Range => "range",
            OpKind::Update => "update",
            OpKind::Insert => "insert",
            OpKind::Checkpoint => "checkpoint",
        }
    }

    /// Does the statement commit a transaction?
    pub fn commits(self) -> bool {
        matches!(self, OpKind::Update | OpKind::Insert)
    }
}

/// Shape of an SQLite workload.
#[derive(Debug)]
pub struct SqliteSpec {
    /// Rows loaded before the measured ops (ids `1..=rows`).
    pub rows: i64,
    /// Distinct values of the indexed column `k`.
    pub key_space: i64,
    /// Width of a range query's `k` interval.
    pub range_width: i64,
    /// Pager cache size.
    pub cache_pages: usize,
    /// `(kind, percent)` of the measured ops.
    pub mix: &'static [(OpKind, usize)],
    /// A `PRAGMA wal_checkpoint` after every this many commits (sqldb
    /// has no auto-checkpoint; without one the WAL grows without bound).
    pub checkpoint_every: u64,
    /// Read every row and the whole index once before measuring, so the
    /// measured ops start from a warm cache.
    pub warm: bool,
    /// Boots per leg (each loads the table afresh).
    pub sessions: usize,
}

/// What a workload drives.
#[derive(Debug)]
pub enum Kind {
    /// HTTP GETs of files in the given size classes.
    Web { sizes: [usize; 3] },
    /// SQL statements against one indexed table.
    Sqlite(SqliteSpec),
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Measured ops of a run, per leg: sized so that a run's two legs
    /// take 10-20 s on a 2-vCPU host.
    pub ops: usize,
    /// The paper's Full/Unikraft slowdown for this kind of work.
    pub paper: &'static str,
    pub kind: Kind,
}

const KIB: usize = 1024;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nginx-small",
        ops: 150_000,
        paper: "about 1.15x for files up to 32 KiB (Fig. 7)",
        kind: Kind::Web {
            sizes: [KIB, 4 * KIB, 16 * KIB],
        },
    },
    Workload {
        name: "nginx-large",
        ops: 2_400,
        paper: "growing with size, about 2x at 8 MiB (Fig. 7)",
        kind: Kind::Web {
            sizes: [256 * KIB, 1024 * KIB, 2048 * KIB],
        },
    },
    Workload {
        name: "sqlite-cached",
        ops: 100_000,
        paper: "about 1.8x on cache-friendly queries (Fig. 6, group A)",
        kind: Kind::Sqlite(SqliteSpec {
            rows: 4_000,
            key_space: 1_000,
            range_width: 10,
            cache_pages: 256,
            mix: &[
                (OpKind::Point, 75),
                (OpKind::Lookup, 20),
                (OpKind::Range, 5),
            ],
            checkpoint_every: 256,
            warm: true,
            sessions: 5,
        }),
    },
    Workload {
        name: "sqlite-oscall",
        ops: 100_000,
        paper: "about 8x on OS-heavy queries (Fig. 6, group B)",
        kind: Kind::Sqlite(SqliteSpec {
            rows: 20_000,
            key_space: 5_000,
            range_width: 10,
            cache_pages: 32,
            mix: &[
                (OpKind::Update, 40),
                (OpKind::Insert, 20),
                (OpKind::Point, 40),
            ],
            checkpoint_every: 256,
            warm: false,
            sessions: 4,
        }),
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// How `ops` measured ops split into sessions (one boot each).
    pub fn sessions(&self, ops: usize) -> Vec<usize> {
        let per = match &self.kind {
            Kind::Web { .. } => WEB_SESSION,
            Kind::Sqlite(spec) => ops.div_ceil(spec.sessions),
        };
        let mut out = Vec::new();
        let mut left = ops;
        while left > 0 {
            out.push(left.min(per));
            left -= out[out.len() - 1];
        }
        out
    }
}

/// Independent generator streams derived from one seed, so that adding
/// draws to one input does not shift another.
pub fn stream(seed: u64, purpose: u64) -> Rng64 {
    let mut mix = Rng64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Rng64::new(mix.next_u64())
}

/// `n` class indices, class `i` taking exactly its `weights[i]` share
/// (class 0 absorbs the rounding), shuffled.
pub fn deck(rng: &mut Rng64, n: usize, weights: &[usize]) -> Vec<u8> {
    let total: usize = weights.iter().sum();
    let mut out = Vec::with_capacity(n);
    for (class, &w) in weights.iter().enumerate().skip(1) {
        out.extend(std::iter::repeat_n(class as u8, n * w / total));
    }
    out.extend(std::iter::repeat_n(0, n - out.len()));
    rng.shuffle(&mut out);
    out
}

/// A file of the NGINX document root.
#[derive(Clone, Debug)]
pub struct WebFile {
    pub path: String,
    pub body: Vec<u8>,
}

/// The document root: [`FILES_PER_CLASS`] files per size class, each a
/// few bytes (at most 1/256) short of its class size, with random bytes.
pub fn web_files(seed: u64, sizes: &[usize; 3]) -> Vec<WebFile> {
    let mut rng = stream(seed, 1);
    let mut files = Vec::new();
    for (class, &size) in sizes.iter().enumerate() {
        for i in 0..FILES_PER_CLASS {
            let len = size - rng.range_usize(0, size / 256);
            files.push(WebFile {
                path: format!("/c{class}-{i}.bin"),
                body: rng.bytes(len),
            });
        }
    }
    files
}

/// `n` requests as indices into [`web_files`]: the three size classes in
/// equal shares, a random file within the class.
pub fn web_requests(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = stream(seed, 2);
    deck(&mut rng, n, &[1, 1, 1])
        .into_iter()
        .map(|class| usize::from(class) * FILES_PER_CLASS + rng.range_usize(0, FILES_PER_CLASS))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_hold_exact_shares() {
        let mut rng = Rng64::new(7);
        let d = deck(&mut rng, 1000, &[75, 20, 5]);
        let count = |c: u8| d.iter().filter(|&&x| x == c).count();
        assert_eq!((count(0), count(1), count(2)), (750, 200, 50));
        assert_ne!(d[..20], [0u8; 20], "shuffled");
    }

    #[test]
    fn sessions_cover_all_ops() {
        let web = find("nginx-small").unwrap();
        assert_eq!(web.sessions(450), vec![200, 200, 50]);
        let sql = find("sqlite-oscall").unwrap();
        assert_eq!(sql.sessions(10), vec![3, 3, 3, 1]);
        assert_eq!(sql.sessions(sql.ops), vec![25_000; 4]);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let sizes = [1024, 4096, 16384];
        let a = web_files(1, &sizes);
        assert_eq!(a.len(), 3 * FILES_PER_CLASS);
        for (i, f) in a.iter().enumerate() {
            let size = sizes[i / FILES_PER_CLASS];
            assert!(f.body.len() <= size && f.body.len() > size - size / 256);
        }
        assert_eq!(a[0].body, web_files(1, &sizes)[0].body);
        assert_ne!(a[0].body, web_files(2, &sizes)[0].body);
        assert_eq!(web_requests(1, 50), web_requests(1, 50));
        assert_ne!(web_requests(1, 50), web_requests(2, 50));
    }
}
