//! The catalog: named schemas, tables and views (§6).
//!
//! §6: "The catalog contains pointers to lists of schemas, tables and
//! views." eider keeps a single implicit schema (`main`); multiple schemas
//! are parsed but all resolve here (see DESIGN.md non-goals). Names are
//! case-insensitive, as in SQL.
//!
//! Table *data* lives in [`eider_txn::DataTable`]; catalog entries bind a
//! name and column definitions (names, types, NOT NULL constraints,
//! defaults) to that versioned storage.

use eider_txn::DataTable;
use eider_vector::{EiderError, LogicalType, Result, Value};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One column of a table definition.
#[derive(Debug, Clone)]
pub struct ColumnDefinition {
    pub name: String,
    pub ty: LogicalType,
    pub not_null: bool,
    /// Value used by INSERTs that omit the column (NULL when absent).
    pub default: Option<Value>,
}

impl ColumnDefinition {
    pub fn new(name: impl Into<String>, ty: LogicalType) -> Self {
        ColumnDefinition { name: name.into(), ty, not_null: false, default: None }
    }

    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }
}

/// A named table bound to versioned storage.
#[derive(Debug)]
pub struct TableEntry {
    pub name: String,
    pub columns: Vec<ColumnDefinition>,
    pub data: Arc<DataTable>,
}

impl TableEntry {
    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_types(&self) -> Vec<LogicalType> {
        self.columns.iter().map(|c| c.ty).collect()
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Current table statistics for the cost-based optimizer, derived
    /// on demand from storage metadata (see [`eider_txn::TableStats`]).
    pub fn stats(&self) -> std::sync::Arc<eider_txn::TableStats> {
        self.data.table_stats()
    }
}

/// A named view: a stored SQL query expanded at bind time.
#[derive(Debug, Clone)]
pub struct ViewEntry {
    pub name: String,
    pub sql: String,
}

/// The catalog. Thread-safe; DDL takes write locks, lookups read locks.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    views: RwLock<HashMap<String, Arc<ViewEntry>>>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Arc<Self> {
        Arc::new(Catalog::default())
    }

    /// Create a table. Validates that column names are unique and
    /// non-empty.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<ColumnDefinition>,
        if_not_exists: bool,
    ) -> Result<Arc<TableEntry>> {
        if columns.is_empty() {
            return Err(EiderError::Catalog(format!("table {name} must have at least one column")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if c.name.is_empty() {
                return Err(EiderError::Catalog("empty column name".into()));
            }
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(EiderError::Catalog(format!(
                    "duplicate column name \"{}\" in table {name}",
                    c.name
                )));
            }
        }
        let mut tables = self.tables.write();
        if let Some(existing) = tables.get(&key(name)) {
            if if_not_exists {
                return Ok(Arc::clone(existing));
            }
            return Err(EiderError::Catalog(format!("table \"{name}\" already exists")));
        }
        if self.views.read().contains_key(&key(name)) {
            return Err(EiderError::Catalog(format!("a view named \"{name}\" already exists")));
        }
        let types = columns.iter().map(|c| c.ty).collect();
        let entry =
            Arc::new(TableEntry { name: name.to_string(), columns, data: DataTable::new(types) });
        tables.insert(key(name), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut tables = self.tables.write();
        match tables.remove(&key(name)) {
            Some(_) => Ok(()),
            None if if_exists => Ok(()),
            None => Err(EiderError::Catalog(format!("table \"{name}\" does not exist"))),
        }
    }

    pub fn get_table(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .read()
            .get(&key(name))
            .cloned()
            .ok_or_else(|| EiderError::Catalog(format!("table \"{name}\" does not exist")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&key(name))
    }

    pub fn create_view(&self, name: &str, sql: &str, or_replace: bool) -> Result<()> {
        if self.tables.read().contains_key(&key(name)) {
            return Err(EiderError::Catalog(format!("a table named \"{name}\" already exists")));
        }
        let mut views = self.views.write();
        if views.contains_key(&key(name)) && !or_replace {
            return Err(EiderError::Catalog(format!("view \"{name}\" already exists")));
        }
        views.insert(
            key(name),
            Arc::new(ViewEntry { name: name.to_string(), sql: sql.to_string() }),
        );
        Ok(())
    }

    pub fn drop_view(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut views = self.views.write();
        match views.remove(&key(name)) {
            Some(_) => Ok(()),
            None if if_exists => Ok(()),
            None => Err(EiderError::Catalog(format!("view \"{name}\" does not exist"))),
        }
    }

    pub fn get_view(&self, name: &str) -> Option<Arc<ViewEntry>> {
        self.views.read().get(&key(name)).cloned()
    }

    /// Sorted table names (stable output for `SHOW TABLES` and tests).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }

    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.read().values().map(|v| v.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDefinition> {
        vec![
            ColumnDefinition::new("id", LogicalType::Integer).not_null(),
            ColumnDefinition::new("name", LogicalType::Varchar),
        ]
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let cat = Catalog::new();
        cat.create_table("Orders", cols(), false).unwrap();
        let t = cat.get_table("ORDERS").unwrap();
        assert_eq!(t.name, "Orders");
        assert_eq!(t.column_index("ID"), Some(0));
        assert_eq!(t.column_index("missing"), None);
        assert_eq!(t.column_types(), vec![LogicalType::Integer, LogicalType::Varchar]);
    }

    #[test]
    fn duplicate_table_rejected_unless_if_not_exists() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        assert!(cat.create_table("T", cols(), false).is_err());
        let again = cat.create_table("t", cols(), true).unwrap();
        assert_eq!(again.name, "t");
    }

    #[test]
    fn duplicate_column_rejected() {
        let cat = Catalog::new();
        let bad = vec![
            ColumnDefinition::new("x", LogicalType::Integer),
            ColumnDefinition::new("X", LogicalType::Integer),
        ];
        assert!(cat.create_table("t", bad, false).is_err());
    }

    #[test]
    fn drop_table_semantics() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        cat.drop_table("T", false).unwrap();
        assert!(!cat.has_table("t"));
        assert!(cat.drop_table("t", false).is_err());
        cat.drop_table("t", true).unwrap();
    }

    #[test]
    fn views() {
        let cat = Catalog::new();
        cat.create_view("v", "SELECT 1", false).unwrap();
        assert!(cat.create_view("v", "SELECT 2", false).is_err());
        cat.create_view("v", "SELECT 2", true).unwrap();
        assert_eq!(cat.get_view("V").unwrap().sql, "SELECT 2");
        cat.drop_view("v", false).unwrap();
        assert!(cat.get_view("v").is_none());
    }

    #[test]
    fn name_collisions_between_tables_and_views() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        assert!(cat.create_view("t", "SELECT 1", false).is_err());
        cat.create_view("v", "SELECT 1", false).unwrap();
        assert!(cat.create_table("v", cols(), false).is_err());
    }

    #[test]
    fn sorted_listings() {
        let cat = Catalog::new();
        cat.create_table("zeta", cols(), false).unwrap();
        cat.create_table("alpha", cols(), false).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha", "zeta"]);
    }
}
