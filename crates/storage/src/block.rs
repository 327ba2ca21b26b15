//! Block-size configuration and file→block math.

/// Default simulated block size. The paper's clusters use HDFS with 64–128 MB
/// blocks; we default to 128 MB of *simulated* bytes.
pub const DEFAULT_BLOCK_BYTES: u64 = 128 * 1024 * 1024;

/// Block-size configuration for the simulated file system.
///
/// Every stored file occupies an integral number of blocks and a scan of the
/// file launches one map task per block (the dominant Hadoop behaviour the
/// paper's cluster-utilization analysis relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Size of one block in simulated bytes. Must be nonzero.
    pub block_bytes: u64,
}

impl Default for BlockConfig {
    fn default() -> Self {
        Self {
            block_bytes: DEFAULT_BLOCK_BYTES,
        }
    }
}

impl BlockConfig {
    /// Create a configuration with the given block size.
    ///
    /// # Panics
    /// Panics if `block_bytes == 0`.
    pub fn new(block_bytes: u64) -> Self {
        assert!(block_bytes > 0, "block size must be nonzero");
        Self { block_bytes }
    }

    /// Number of blocks a file of `bytes` simulated bytes occupies.
    /// Empty files still occupy one block (they still cost a task to open,
    /// which is what makes many tiny fragments expensive).
    pub fn blocks_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.block_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_up() {
        let cfg = BlockConfig::new(100);
        assert_eq!(cfg.blocks_for(0), 1);
        assert_eq!(cfg.blocks_for(1), 1);
        assert_eq!(cfg.blocks_for(100), 1);
        assert_eq!(cfg.blocks_for(101), 2);
        assert_eq!(cfg.blocks_for(1000), 10);
    }

    #[test]
    fn default_is_128mb() {
        assert_eq!(BlockConfig::default().block_bytes, 128 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_block_size_rejected() {
        let _ = BlockConfig::new(0);
    }

    #[test]
    fn many_small_files_cost_more_tasks_than_one_big_file() {
        // The small-file penalty behind the paper's E-60 result.
        let cfg = BlockConfig::new(128);
        let one_big = cfg.blocks_for(1280);
        let many_small: u64 = std::iter::repeat_n(16u64, 80)
            .map(|s| cfg.blocks_for(s))
            .sum();
        assert_eq!(one_big, 10);
        assert_eq!(many_small, 80);
        assert!(many_small > one_big);
    }
}
