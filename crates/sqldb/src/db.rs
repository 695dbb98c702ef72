//! The `Database` object: schema catalog, DDL, DML entry points,
//! transaction control.

use crate::ast::{ColumnDef, Stmt};
use crate::btree;
use crate::error::{Result, SqlError};
use crate::exec;
use crate::pager::{JournalMode, Pager, DEFAULT_CACHE_PAGES};
use crate::parser::parse_all;
use crate::record::{decode_record, encode_index_key, encode_record, encode_rowid};
use crate::storage::StorageEnv;
use crate::value::{Affinity, SqlValue};
use cubicle_core::System;
use std::collections::HashMap;

/// Result of executing one statement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<SqlValue>>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct ColumnInfo {
    pub name: String,
    pub affinity: Affinity,
    pub decl_type: String,
    pub not_null: bool,
    pub primary_key: bool,
    pub unique: bool,
    pub default: Option<SqlValue>,
}

#[derive(Clone, Debug)]
pub(crate) struct TableInfo {
    pub name: String,
    pub root: u32,
    pub columns: Vec<ColumnInfo>,
    /// `INTEGER PRIMARY KEY` column index (rowid alias), if any.
    pub rowid_alias: Option<usize>,
    pub next_rowid: Option<i64>,
}

#[derive(Clone, Debug)]
pub(crate) struct IndexInfo {
    pub name: String,
    pub table: String,
    pub col_indices: Vec<usize>,
    pub unique: bool,
    pub root: u32,
}

/// An open database connection.
pub struct Database {
    pub(crate) pager: Pager,
    pub(crate) tables: HashMap<String, TableInfo>,
    pub(crate) indexes: HashMap<String, IndexInfo>,
    explicit_txn: bool,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.len())
            .field("indexes", &self.indexes.len())
            .field("explicit_txn", &self.explicit_txn)
            .finish()
    }
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Pads a decoded record to the table's current width: columns added by
/// `ALTER TABLE … ADD COLUMN` read as their default on old rows.
pub(crate) fn pad_row(info: &TableInfo, mut row: Vec<SqlValue>) -> Vec<SqlValue> {
    while row.len() < info.columns.len() {
        let c = &info.columns[row.len()];
        row.push(c.default.clone().unwrap_or(SqlValue::Null));
    }
    row
}

impl Database {
    /// Opens (creating or recovering) the database at `path` using the
    /// given storage environment.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn open(sys: &mut System, env: Box<dyn StorageEnv>, path: &str) -> Result<Database> {
        Database::open_with_cache(sys, env, path, DEFAULT_CACHE_PAGES)
    }

    /// [`Database::open`] with an explicit page-cache size.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn open_with_cache(
        sys: &mut System,
        env: Box<dyn StorageEnv>,
        path: &str,
        cache_pages: usize,
    ) -> Result<Database> {
        Database::open_with_mode(sys, env, path, cache_pages, JournalMode::Wal)
    }

    /// [`Database::open`] with an explicit page-cache size and journal
    /// mode ([`JournalMode::Rollback`] is the pre-WAL baseline, kept for
    /// A/B measurement).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn open_with_mode(
        sys: &mut System,
        env: Box<dyn StorageEnv>,
        path: &str,
        cache_pages: usize,
        mode: JournalMode,
    ) -> Result<Database> {
        let pager = Pager::open_with_mode(sys, env, path, cache_pages, mode)?;
        let mut db = Database {
            pager,
            tables: HashMap::new(),
            indexes: HashMap::new(),
            explicit_txn: false,
        };
        db.load_schema(sys)?;
        Ok(db)
    }

    /// Closes the database ([`Pager::close`]): an open transaction rolls
    /// back, and its files and what the storage holds for them are
    /// released.
    ///
    /// # Errors
    ///
    /// I/O errors; every file is closed regardless.
    pub fn close(self, sys: &mut System) -> Result<()> {
        self.pager.close(sys)
    }

    /// Pager statistics (cache hits/misses, syncs, commits).
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.pager.stats
    }

    /// Folds the WAL back into the database file (no-op outside WAL
    /// mode). Returns `true` when the log was fully checkpointed.
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] inside an explicit transaction; I/O
    /// errors.
    pub fn checkpoint(&mut self, sys: &mut System) -> Result<bool> {
        self.pager.checkpoint(sys)
    }

    /// Direct access to the pager, for harnesses that need WAL
    /// introspection ([`Pager::wal_end`] etc.) or incremental
    /// checkpoints.
    pub fn pager_mut(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Executes a single SQL statement.
    ///
    /// # Errors
    ///
    /// Parse, semantic, constraint, or storage errors. Outside an
    /// explicit transaction the statement is atomic (auto-commit with
    /// rollback on failure).
    pub fn execute(&mut self, sys: &mut System, sql: &str) -> Result<QueryResult> {
        // SQL front-end work (tokenize/parse/prepare): roughly linear in
        // statement length on the paper's testbed.
        sys.charge(2_050 + 2 * sql.len() as u64);
        let mut last = QueryResult::default();
        for stmt in parse_all(sql)? {
            last = self.execute_stmt(sys, stmt)?;
        }
        Ok(last)
    }

    /// Convenience: run a query and return only its rows.
    ///
    /// # Errors
    ///
    /// As [`Database::execute`].
    pub fn query(&mut self, sys: &mut System, sql: &str) -> Result<Vec<Vec<SqlValue>>> {
        Ok(self.execute(sys, sql)?.rows)
    }

    fn execute_stmt(&mut self, sys: &mut System, stmt: Stmt) -> Result<QueryResult> {
        let out = self.run_stmt(sys, stmt);
        if out.is_err() && self.explicit_txn && !self.pager.in_txn() {
            // The pager rolled the transaction back under the failed
            // statement (a page spill that could not be written), as
            // SQLite does on an I/O error: the explicit transaction is
            // over, and a later COMMIT fails instead of committing a
            // torn transaction.
            self.explicit_txn = false;
            let _ = self.load_schema(sys);
        }
        out
    }

    fn run_stmt(&mut self, sys: &mut System, stmt: Stmt) -> Result<QueryResult> {
        match stmt {
            Stmt::Begin => {
                if self.explicit_txn {
                    return Err(SqlError::Transaction("nested BEGIN".into()));
                }
                self.pager.begin(sys)?;
                self.explicit_txn = true;
                Ok(QueryResult::default())
            }
            Stmt::Commit => {
                if !self.explicit_txn {
                    return Err(SqlError::Transaction("COMMIT outside a transaction".into()));
                }
                self.explicit_txn = false;
                self.commit(sys)?;
                Ok(QueryResult::default())
            }
            Stmt::Rollback => {
                if !self.explicit_txn {
                    return Err(SqlError::Transaction(
                        "ROLLBACK outside a transaction".into(),
                    ));
                }
                self.explicit_txn = false;
                self.pager.rollback(sys)?;
                self.load_schema(sys)?;
                Ok(QueryResult::default())
            }
            Stmt::Select(sel) => exec::run_select(self, sys, &sel),
            // `wal_checkpoint` must not sit inside a transaction of its
            // own making; every other pragma takes the ordinary
            // auto-commit path below.
            Stmt::Pragma(name) if name == "wal_checkpoint" => self.pragma(sys, &name),
            other => {
                // Writes are wrapped in an automatic transaction unless
                // an explicit one is open.
                let auto = !self.explicit_txn;
                if auto {
                    self.pager.begin(sys)?;
                }
                let out = self.execute_write(sys, other);
                match (&out, auto) {
                    (Ok(_), true) => self.commit(sys)?,
                    (Err(_), true) => {
                        if self.pager.in_txn() {
                            self.pager.rollback(sys)?;
                        }
                        self.load_schema(sys)?;
                    }
                    _ => {}
                }
                out
            }
        }
    }

    /// Commits the pager's transaction. The pager rolls a failed commit
    /// back, so the schema is reloaded as after a ROLLBACK; the commit's
    /// own error wins.
    fn commit(&mut self, sys: &mut System) -> Result<()> {
        let out = self.pager.commit(sys);
        if out.is_err() {
            let _ = self.load_schema(sys);
        }
        out
    }

    fn execute_write(&mut self, sys: &mut System, stmt: Stmt) -> Result<QueryResult> {
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => self.create_table(sys, &name, &columns, if_not_exists),
            Stmt::CreateIndex {
                name,
                table,
                columns,
                unique,
                if_not_exists,
            } => self.create_index(sys, &name, &table, &columns, unique, if_not_exists),
            Stmt::DropTable { name, if_exists } => self.drop_table(sys, &name, if_exists),
            Stmt::DropIndex { name, if_exists } => self.drop_index(sys, &name, if_exists),
            Stmt::Insert {
                table,
                columns,
                rows,
            } => self.insert_rows(sys, &table, columns.as_deref(), &rows),
            Stmt::Update {
                table,
                sets,
                where_,
            } => exec::run_update(self, sys, &table, &sets, where_.as_ref()),
            Stmt::Delete { table, where_ } => exec::run_delete(self, sys, &table, where_.as_ref()),
            Stmt::AlterRename { table, to } => self.alter_rename(sys, &table, &to),
            Stmt::AlterAddColumn { table, column } => self.alter_add_column(sys, &table, &column),
            Stmt::Pragma(name) => self.pragma(sys, &name),
            Stmt::Select(_) | Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
                unreachable!("handled by execute_stmt")
            }
        }
    }

    // ------------------------------------------------------------------
    // Schema catalog
    // ------------------------------------------------------------------

    fn load_schema(&mut self, sys: &mut System) -> Result<()> {
        self.tables.clear();
        self.indexes.clear();
        let root = self.pager.schema_root();
        if root == 0 {
            return Ok(());
        }
        let mut cur = btree::Cursor::seek(sys, &mut self.pager, root, None)?;
        let mut raw = Vec::new();
        while let Some((_, value)) = cur.next(sys, &mut self.pager)? {
            raw.push(value);
        }
        for value in raw {
            let rec = decode_record(&value)?;
            let kind = match &rec[0] {
                SqlValue::Text(t) => t.clone(),
                _ => return Err(SqlError::Corrupt("catalog kind".into())),
            };
            match kind.as_str() {
                "table" => {
                    let t = decode_table_meta(&rec)?;
                    self.tables.insert(norm(&t.name), t);
                }
                "index" => {
                    let i = decode_index_meta(&rec)?;
                    self.indexes.insert(norm(&i.name), i);
                }
                other => return Err(SqlError::Corrupt(format!("catalog kind `{other}`"))),
            }
        }
        Ok(())
    }

    fn catalog_key(kind: &str, name: &str) -> Vec<u8> {
        encode_index_key(
            &[SqlValue::Text(kind.into()), SqlValue::Text(norm(name))],
            None,
        )
    }

    fn catalog_put(
        &mut self,
        sys: &mut System,
        kind: &str,
        name: &str,
        rec: &[SqlValue],
    ) -> Result<()> {
        let mut root = self.pager.schema_root();
        if root == 0 {
            root = btree::create(sys, &mut self.pager)?;
        }
        let key = Self::catalog_key(kind, name);
        let new_root = btree::insert(sys, &mut self.pager, root, &key, &encode_record(rec))?;
        if new_root != self.pager.schema_root() {
            self.pager.set_schema_root(sys, new_root)?;
        }
        Ok(())
    }

    fn catalog_delete(&mut self, sys: &mut System, kind: &str, name: &str) -> Result<()> {
        let root = self.pager.schema_root();
        if root != 0 {
            btree::delete(sys, &mut self.pager, root, &Self::catalog_key(kind, name))?;
        }
        Ok(())
    }

    pub(crate) fn table(&self, name: &str) -> Result<&TableInfo> {
        self.tables
            .get(&norm(name))
            .ok_or_else(|| SqlError::NoSuchTable(name.into()))
    }

    pub(crate) fn indexes_of(&self, table: &str) -> Vec<IndexInfo> {
        let t = norm(table);
        let mut v: Vec<IndexInfo> = self
            .indexes
            .values()
            .filter(|i| norm(&i.table) == t)
            .cloned()
            .collect();
        // HashMap iteration order is seeded per process; sort so plan
        // selection (and thus the simulated cycle count) is reproducible
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    fn create_table(
        &mut self,
        sys: &mut System,
        name: &str,
        columns: &[ColumnDef],
        if_not_exists: bool,
    ) -> Result<QueryResult> {
        if self.tables.contains_key(&norm(name)) {
            if if_not_exists {
                return Ok(QueryResult::default());
            }
            return Err(SqlError::AlreadyExists(name.into()));
        }
        if columns.is_empty() {
            return Err(SqlError::Misuse("table needs at least one column".into()));
        }
        let mut cols = Vec::with_capacity(columns.len());
        let mut rowid_alias = None;
        for (i, c) in columns.iter().enumerate() {
            let affinity = Affinity::from_decl(&c.decl_type);
            if c.primary_key && affinity == Affinity::Integer && rowid_alias.is_none() {
                rowid_alias = Some(i);
            }
            cols.push(ColumnInfo {
                name: c.name.clone(),
                affinity,
                decl_type: c.decl_type.clone(),
                not_null: c.not_null,
                primary_key: c.primary_key,
                unique: c.unique,
                default: c.default.clone(),
            });
        }
        let root = btree::create(sys, &mut self.pager)?;
        let info = TableInfo {
            name: name.into(),
            root,
            columns: cols,
            rowid_alias,
            next_rowid: Some(1),
        };
        self.catalog_put(sys, "table", name, &encode_table_meta(&info))?;
        self.tables.insert(norm(name), info);
        // UNIQUE columns and non-integer PRIMARY KEYs get automatic
        // unique indexes.
        for (i, c) in columns.iter().enumerate() {
            let needs_index = c.unique || (c.primary_key && rowid_alias != Some(i));
            if needs_index {
                let idx_name = format!("autoindex_{}_{}", norm(name), i + 1);
                self.create_index(
                    sys,
                    &idx_name,
                    name,
                    std::slice::from_ref(&c.name),
                    true,
                    false,
                )?;
            }
        }
        Ok(QueryResult::default())
    }

    fn create_index(
        &mut self,
        sys: &mut System,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
        if_not_exists: bool,
    ) -> Result<QueryResult> {
        if self.indexes.contains_key(&norm(name)) {
            if if_not_exists {
                return Ok(QueryResult::default());
            }
            return Err(SqlError::AlreadyExists(name.into()));
        }
        let tinfo = self.table(table)?.clone();
        let mut col_indices = Vec::with_capacity(columns.len());
        for c in columns {
            let idx = tinfo
                .columns
                .iter()
                .position(|ci| ci.name.eq_ignore_ascii_case(c))
                .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))?;
            col_indices.push(idx);
        }
        let mut root = btree::create(sys, &mut self.pager)?;
        // Backfill from existing rows.
        let mut cur = btree::Cursor::seek(sys, &mut self.pager, tinfo.root, None)?;
        let mut entries = Vec::new();
        while let Some((key, value)) = cur.next(sys, &mut self.pager)? {
            let rowid = crate::record::decode_rowid(&key)?;
            let row = pad_row(&tinfo, decode_record(&value)?);
            let vals: Vec<SqlValue> = col_indices.iter().map(|&i| row[i].clone()).collect();
            entries.push((vals, rowid));
        }
        for (vals, rowid) in entries {
            if unique {
                self.check_unique(sys, root, &vals, &tinfo.name, name)?;
            }
            let key = encode_index_key(&vals, Some(rowid));
            root = btree::insert(sys, &mut self.pager, root, &key, &[])?;
        }
        let info = IndexInfo {
            name: name.into(),
            table: tinfo.name.clone(),
            col_indices,
            unique,
            root,
        };
        self.catalog_put(sys, "index", name, &encode_index_meta_rec(&info))?;
        self.indexes.insert(norm(name), info);
        Ok(QueryResult::default())
    }

    fn drop_table(&mut self, sys: &mut System, name: &str, if_exists: bool) -> Result<QueryResult> {
        let Some(info) = self.tables.remove(&norm(name)) else {
            if if_exists {
                return Ok(QueryResult::default());
            }
            return Err(SqlError::NoSuchTable(name.into()));
        };
        btree::free_tree(sys, &mut self.pager, info.root)?;
        self.catalog_delete(sys, "table", name)?;
        let idxs: Vec<String> = self
            .indexes_of(name)
            .iter()
            .map(|i| i.name.clone())
            .collect();
        for idx in idxs {
            self.drop_index(sys, &idx, true)?;
        }
        Ok(QueryResult::default())
    }

    fn drop_index(&mut self, sys: &mut System, name: &str, if_exists: bool) -> Result<QueryResult> {
        let Some(info) = self.indexes.remove(&norm(name)) else {
            if if_exists {
                return Ok(QueryResult::default());
            }
            return Err(SqlError::NoSuchIndex(name.into()));
        };
        btree::free_tree(sys, &mut self.pager, info.root)?;
        self.catalog_delete(sys, "index", name)?;
        Ok(QueryResult::default())
    }

    // ------------------------------------------------------------------
    // INSERT and index maintenance
    // ------------------------------------------------------------------

    fn insert_rows(
        &mut self,
        sys: &mut System,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<crate::ast::Expr>],
    ) -> Result<QueryResult> {
        let tinfo = self.table(table)?.clone();
        // map provided expression positions → column indices
        let targets: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    tinfo
                        .columns
                        .iter()
                        .position(|ci| ci.name.eq_ignore_ascii_case(c))
                        .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<_>>()?,
            None => (0..tinfo.columns.len()).collect(),
        };
        let mut affected = 0u64;
        for row_exprs in rows {
            if row_exprs.len() != targets.len() {
                return Err(SqlError::Misuse(format!(
                    "{} values for {} columns",
                    row_exprs.len(),
                    targets.len()
                )));
            }
            let mut row: Vec<SqlValue> = tinfo
                .columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(SqlValue::Null))
                .collect();
            for (expr, &target) in row_exprs.iter().zip(&targets) {
                let v = exec::eval_const(self, sys, expr)?;
                row[target] = tinfo.columns[target].affinity.apply(v);
            }
            self.insert_row(sys, table, row)?;
            affected += 1;
        }
        Ok(QueryResult {
            rows_affected: affected,
            ..Default::default()
        })
    }

    /// Inserts one materialised row (used by INSERT and UPDATE).
    pub(crate) fn insert_row(
        &mut self,
        sys: &mut System,
        table: &str,
        mut row: Vec<SqlValue>,
    ) -> Result<i64> {
        let tname = norm(table);
        let tinfo = self.table(table)?.clone();
        // rowid selection
        let rowid = match tinfo.rowid_alias {
            Some(pk) if !row[pk].is_null() => match row[pk] {
                SqlValue::Integer(i) => i,
                _ => {
                    return Err(SqlError::Constraint(format!(
                        "datatype mismatch for INTEGER PRIMARY KEY {}",
                        tinfo.columns[pk].name
                    )))
                }
            },
            _ => self.next_rowid(sys, &tname)?,
        };
        if let Some(pk) = tinfo.rowid_alias {
            row[pk] = SqlValue::Integer(rowid);
        }
        // NOT NULL checks
        for (c, v) in tinfo.columns.iter().zip(&row) {
            if c.not_null && v.is_null() {
                return Err(SqlError::Constraint(format!("NOT NULL column {}", c.name)));
            }
        }
        // PRIMARY KEY (rowid) uniqueness
        let key = encode_rowid(rowid);
        if btree::get(sys, &mut self.pager, tinfo.root, &key)?.is_some() {
            return Err(SqlError::Constraint(format!("duplicate rowid {rowid}")));
        }
        // UNIQUE index checks, then index insertion
        let indexes = self.indexes_of(table);
        for idx in &indexes {
            let vals: Vec<SqlValue> = idx.col_indices.iter().map(|&i| row[i].clone()).collect();
            if idx.unique {
                self.check_unique(sys, idx.root, &vals, table, &idx.name)?;
            }
        }
        let new_root = btree::insert(sys, &mut self.pager, tinfo.root, &key, &encode_record(&row))?;
        self.update_table_root(sys, &tname, new_root)?;
        for idx in &indexes {
            let vals: Vec<SqlValue> = idx.col_indices.iter().map(|&i| row[i].clone()).collect();
            let ikey = encode_index_key(&vals, Some(rowid));
            let iroot = self.indexes[&norm(&idx.name)].root;
            let new_iroot = btree::insert(sys, &mut self.pager, iroot, &ikey, &[])?;
            self.update_index_root(sys, &idx.name, new_iroot)?;
        }
        // advance the cached rowid cursor
        if let Some(t) = self.tables.get_mut(&tname) {
            let next = t.next_rowid.get_or_insert(rowid + 1);
            if *next <= rowid {
                *next = rowid + 1;
            }
        }
        Ok(rowid)
    }

    /// Removes one row (by rowid) and its index entries.
    pub(crate) fn delete_row(&mut self, sys: &mut System, table: &str, rowid: i64) -> Result<bool> {
        let tinfo = self.table(table)?.clone();
        let key = encode_rowid(rowid);
        let Some(value) = btree::get(sys, &mut self.pager, tinfo.root, &key)? else {
            return Ok(false);
        };
        let row = pad_row(&tinfo, decode_record(&value)?);
        btree::delete(sys, &mut self.pager, tinfo.root, &key)?;
        for idx in self.indexes_of(table) {
            let vals: Vec<SqlValue> = idx.col_indices.iter().map(|&i| row[i].clone()).collect();
            let ikey = encode_index_key(&vals, Some(rowid));
            btree::delete(sys, &mut self.pager, idx.root, &ikey)?;
        }
        Ok(true)
    }

    fn check_unique(
        &mut self,
        sys: &mut System,
        index_root: u32,
        vals: &[SqlValue],
        table: &str,
        index: &str,
    ) -> Result<()> {
        // NULLs never collide (SQL semantics).
        if vals.iter().any(SqlValue::is_null) {
            return Ok(());
        }
        let prefix = encode_index_key(vals, None);
        let mut cur = btree::Cursor::seek(sys, &mut self.pager, index_root, Some(&prefix))?;
        if let Some((key, _)) = cur.next(sys, &mut self.pager)? {
            if key.starts_with(&prefix) {
                return Err(SqlError::Constraint(format!(
                    "UNIQUE constraint failed: {table} ({index})"
                )));
            }
        }
        Ok(())
    }

    fn next_rowid(&mut self, sys: &mut System, tname: &str) -> Result<i64> {
        let info = self.tables.get(tname).expect("caller resolved").clone();
        if let Some(n) = info.next_rowid {
            return Ok(n);
        }
        let next = match btree::last_key(sys, &mut self.pager, info.root)? {
            Some(k) => crate::record::decode_rowid(&k)? + 1,
            None => 1,
        };
        if let Some(t) = self.tables.get_mut(tname) {
            t.next_rowid = Some(next);
        }
        Ok(next)
    }

    pub(crate) fn update_table_root(
        &mut self,
        sys: &mut System,
        tname: &str,
        new_root: u32,
    ) -> Result<()> {
        let info = self.tables.get(tname).expect("resolved").clone();
        if info.root == new_root {
            return Ok(());
        }
        let mut info2 = info;
        info2.root = new_root;
        self.catalog_put(
            sys,
            "table",
            &info2.name.clone(),
            &encode_table_meta(&info2),
        )?;
        self.tables.insert(tname.to_string(), info2);
        Ok(())
    }

    fn update_index_root(&mut self, sys: &mut System, name: &str, new_root: u32) -> Result<()> {
        let key = norm(name);
        let info = self.indexes.get(&key).expect("resolved").clone();
        if info.root == new_root {
            return Ok(());
        }
        let mut info2 = info;
        info2.root = new_root;
        self.catalog_put(
            sys,
            "index",
            &info2.name.clone(),
            &encode_index_meta_rec(&info2),
        )?;
        self.indexes.insert(key, info2);
        Ok(())
    }

    // ------------------------------------------------------------------
    // ALTER TABLE
    // ------------------------------------------------------------------

    fn alter_rename(&mut self, sys: &mut System, table: &str, to: &str) -> Result<QueryResult> {
        if self.tables.contains_key(&norm(to)) {
            return Err(SqlError::AlreadyExists(to.into()));
        }
        let Some(mut info) = self.tables.remove(&norm(table)) else {
            return Err(SqlError::NoSuchTable(table.into()));
        };
        self.catalog_delete(sys, "table", table)?;
        info.name = to.to_string();
        self.catalog_put(sys, "table", to, &encode_table_meta(&info))?;
        self.tables.insert(norm(to), info);
        // indexes follow their table
        let renames: Vec<String> = self
            .indexes
            .values()
            .filter(|i| norm(&i.table) == norm(table))
            .map(|i| i.name.clone())
            .collect();
        for idx_name in renames {
            let key = norm(&idx_name);
            if let Some(mut idx) = self.indexes.remove(&key) {
                idx.table = to.to_string();
                self.catalog_put(
                    sys,
                    "index",
                    &idx.name.clone(),
                    &encode_index_meta_rec(&idx),
                )?;
                self.indexes.insert(key, idx);
            }
        }
        Ok(QueryResult::default())
    }

    fn alter_add_column(
        &mut self,
        sys: &mut System,
        table: &str,
        column: &ColumnDef,
    ) -> Result<QueryResult> {
        let Some(info) = self.tables.get(&norm(table)) else {
            return Err(SqlError::NoSuchTable(table.into()));
        };
        if info
            .columns
            .iter()
            .any(|c| c.name.eq_ignore_ascii_case(&column.name))
        {
            return Err(SqlError::AlreadyExists(format!("{table}.{}", column.name)));
        }
        if column.primary_key {
            return Err(SqlError::Misuse("cannot ADD a PRIMARY KEY column".into()));
        }
        if column.not_null && column.default.is_none() {
            return Err(SqlError::Misuse(
                "NOT NULL column added without a default value".into(),
            ));
        }
        // Existing rows are untouched (short records read the default) —
        // SQLite's constant-time ADD COLUMN.
        let mut info = info.clone();
        info.columns.push(ColumnInfo {
            name: column.name.clone(),
            affinity: Affinity::from_decl(&column.decl_type),
            decl_type: column.decl_type.clone(),
            not_null: column.not_null,
            primary_key: false,
            unique: column.unique,
            default: column.default.clone(),
        });
        self.catalog_put(sys, "table", &info.name.clone(), &encode_table_meta(&info))?;
        self.tables.insert(norm(table), info);
        if column.unique {
            let idx_name = format!("autoindex_{}_{}", norm(table), column.name);
            let col = column.name.clone();
            self.create_index(sys, &idx_name, table, &[col], true, false)?;
        }
        Ok(QueryResult::default())
    }

    // ------------------------------------------------------------------
    // PRAGMA
    // ------------------------------------------------------------------

    fn pragma(&mut self, sys: &mut System, name: &str) -> Result<QueryResult> {
        match name {
            "integrity_check" => {
                let mut problems = Vec::new();
                let mut tables: Vec<TableInfo> = self.tables.values().cloned().collect();
                // hash order varies per process; walk tables in name order
                // so the page-cache access pattern is reproducible
                tables.sort_by(|a, b| a.name.cmp(&b.name));
                for t in &tables {
                    let nrows = match btree::validate(sys, &mut self.pager, t.root) {
                        Ok(n) => n,
                        Err(e) => {
                            problems.push(format!("table {}: {e}", t.name));
                            continue;
                        }
                    };
                    for idx in self.indexes_of(&t.name) {
                        match btree::validate(sys, &mut self.pager, idx.root) {
                            Ok(n) if n != nrows => problems.push(format!(
                                "index {} has {n} entries, table {} has {nrows}",
                                idx.name, t.name
                            )),
                            Ok(_) => {}
                            Err(e) => problems.push(format!("index {}: {e}", idx.name)),
                        }
                    }
                }
                let rows = if problems.is_empty() {
                    vec![vec![SqlValue::Text("ok".into())]]
                } else {
                    problems
                        .into_iter()
                        .map(|p| vec![SqlValue::Text(p)])
                        .collect()
                };
                Ok(QueryResult {
                    columns: vec!["integrity_check".into()],
                    rows,
                    rows_affected: 0,
                })
            }
            "wal_checkpoint" => {
                let done = if self.explicit_txn {
                    false // busy: cannot checkpoint under an open txn
                } else {
                    self.pager.checkpoint(sys)?
                };
                Ok(QueryResult {
                    columns: vec!["wal_checkpoint".into()],
                    rows: vec![vec![SqlValue::Text(
                        if done { "ok" } else { "busy" }.into(),
                    )]],
                    rows_affected: 0,
                })
            }
            _ => Ok(QueryResult::default()), // unknown pragmas are no-ops
        }
    }
}

// ---------------------------------------------------------------------------
// Catalog record encoding
// ---------------------------------------------------------------------------

fn encode_table_meta(t: &TableInfo) -> Vec<SqlValue> {
    let mut rec = vec![
        SqlValue::Text("table".into()),
        SqlValue::Text(t.name.clone()),
        SqlValue::Integer(i64::from(t.root)),
        SqlValue::Integer(t.columns.len() as i64),
    ];
    for c in &t.columns {
        let flags =
            i64::from(c.not_null) | (i64::from(c.primary_key) << 1) | (i64::from(c.unique) << 2);
        rec.push(SqlValue::Text(c.name.clone()));
        rec.push(SqlValue::Text(c.decl_type.clone()));
        rec.push(SqlValue::Integer(flags));
        rec.push(c.default.clone().unwrap_or(SqlValue::Null));
    }
    rec
}

fn decode_table_meta(rec: &[SqlValue]) -> Result<TableInfo> {
    let get_text = |i: usize| -> Result<String> {
        match rec.get(i) {
            Some(SqlValue::Text(s)) => Ok(s.clone()),
            _ => Err(SqlError::Corrupt("catalog text field".into())),
        }
    };
    let get_int = |i: usize| -> Result<i64> {
        match rec.get(i) {
            Some(SqlValue::Integer(v)) => Ok(*v),
            _ => Err(SqlError::Corrupt("catalog int field".into())),
        }
    };
    let name = get_text(1)?;
    let root = get_int(2)? as u32;
    let ncols = get_int(3)? as usize;
    let mut columns = Vec::with_capacity(ncols);
    let mut rowid_alias = None;
    for i in 0..ncols {
        let base = 4 + i * 4;
        let cname = get_text(base)?;
        let decl = get_text(base + 1)?;
        let flags = get_int(base + 2)?;
        let default = match rec.get(base + 3) {
            Some(SqlValue::Null) => None,
            Some(v) => Some(v.clone()),
            None => return Err(SqlError::Corrupt("catalog column default".into())),
        };
        let affinity = Affinity::from_decl(&decl);
        let primary_key = flags & 2 != 0;
        if primary_key && affinity == Affinity::Integer && rowid_alias.is_none() {
            rowid_alias = Some(i);
        }
        columns.push(ColumnInfo {
            name: cname,
            affinity,
            decl_type: decl,
            not_null: flags & 1 != 0,
            primary_key,
            unique: flags & 4 != 0,
            default,
        });
    }
    Ok(TableInfo {
        name,
        root,
        columns,
        rowid_alias,
        next_rowid: None,
    })
}

fn encode_index_meta_rec(i: &IndexInfo) -> Vec<SqlValue> {
    let mut rec = vec![
        SqlValue::Text("index".into()),
        SqlValue::Text(i.name.clone()),
        SqlValue::Text(i.table.clone()),
        SqlValue::Integer(i64::from(i.root)),
        SqlValue::Integer(i64::from(i.unique)),
        SqlValue::Integer(i.col_indices.len() as i64),
    ];
    for &c in &i.col_indices {
        rec.push(SqlValue::Integer(c as i64));
    }
    rec
}

fn decode_index_meta(rec: &[SqlValue]) -> Result<IndexInfo> {
    let text = |i: usize| -> Result<String> {
        match rec.get(i) {
            Some(SqlValue::Text(s)) => Ok(s.clone()),
            _ => Err(SqlError::Corrupt("catalog text field".into())),
        }
    };
    let int = |i: usize| -> Result<i64> {
        match rec.get(i) {
            Some(SqlValue::Integer(v)) => Ok(*v),
            _ => Err(SqlError::Corrupt("catalog int field".into())),
        }
    };
    let n = int(5)? as usize;
    let mut col_indices = Vec::with_capacity(n);
    for i in 0..n {
        col_indices.push(int(6 + i)? as usize);
    }
    Ok(IndexInfo {
        name: text(1)?,
        table: text(2)?,
        root: int(3)? as u32,
        unique: int(4)? != 0,
        col_indices,
    })
}
