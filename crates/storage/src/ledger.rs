//! Accumulated I/O accounting.

/// A running ledger of simulated I/O performed against the file system.
///
/// The execution engine charges every scan and materialization here; the
/// experiment harness reads it back to report bytes-read / bytes-written /
/// task-count columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Total simulated bytes read.
    pub read_bytes: u64,
    /// Total simulated bytes written.
    pub write_bytes: u64,
    /// Number of file-read operations.
    pub files_read: u64,
    /// Number of file-write (create) operations.
    pub files_written: u64,
    /// Number of file deletions (evictions).
    pub files_deleted: u64,
}

impl CostLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.read_bytes += bytes;
        self.files_read += 1;
    }

    /// Record a write of `bytes`.
    pub fn record_write(&mut self, bytes: u64) {
        self.write_bytes += bytes;
        self.files_written += 1;
    }

    /// Record a deletion.
    pub fn record_delete(&mut self) {
        self.files_deleted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = CostLedger::new();
        l.record_read(100);
        l.record_read(50);
        l.record_write(30);
        l.record_delete();
        assert_eq!(l.read_bytes, 150);
        assert_eq!(l.files_read, 2);
        assert_eq!(l.write_bytes, 30);
        assert_eq!(l.files_written, 1);
        assert_eq!(l.files_deleted, 1);
    }
}
