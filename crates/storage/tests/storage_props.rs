//! Stateful property tests for the simulated file system and pool
//! accounting: arbitrary operation sequences preserve the invariants the
//! rest of the stack relies on.

use deepsea_storage::{BlockConfig, CostWeights, PoolAccountant, SimFs};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u64), // sim bytes
    Read(usize), // index into live files (mod len)
    Delete(usize),
    Stat(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100_000).prop_map(Op::Create),
        (0usize..64).prop_map(Op::Read),
        (0usize..64).prop_map(Op::Delete),
        (0usize..64).prop_map(Op::Stat),
    ]
}

proptest! {
    /// After any operation sequence: total_bytes == Σ live file sizes,
    /// file_count == live files, reads of live files always succeed, reads
    /// of deleted files always fail, and the ledger only grows.
    #[test]
    fn fs_invariants_under_random_ops(ops in proptest::collection::vec(op(), 1..80)) {
        let fs: SimFs<Vec<u8>> = SimFs::new(BlockConfig::new(4096), CostWeights::default());
        let mut live: Vec<(deepsea_storage::FileId, u64)> = Vec::new();
        let mut deleted = Vec::new();
        let mut last_ledger = fs.ledger();
        for op in ops {
            match op {
                Op::Create(bytes) => {
                    let (id, cost) = fs.create("f", bytes, vec![1, 2, 3]);
                    prop_assert!(cost >= 0.0);
                    live.push((id, bytes));
                }
                Op::Read(i) if !live.is_empty() => {
                    let (id, bytes) = live[i % live.len()];
                    let out = fs.try_read(id).expect("live file readable");
                    prop_assert_eq!(out.sim_bytes, bytes);
                    prop_assert_eq!(out.value.as_slice(), &[1, 2, 3]);
                }
                Op::Delete(i) if !live.is_empty() => {
                    let (id, bytes) = live.remove(i % live.len());
                    prop_assert_eq!(fs.delete(id), Some(bytes));
                    deleted.push(id);
                }
                Op::Stat(i) if !live.is_empty() => {
                    let (id, bytes) = live[i % live.len()];
                    prop_assert_eq!(fs.sim_bytes(id), Some(bytes));
                }
                _ => {}
            }
            // Invariants after every step.
            prop_assert_eq!(fs.file_count(), live.len());
            prop_assert_eq!(fs.total_bytes(), live.iter().map(|(_, b)| b).sum::<u64>());
            let ledger = fs.ledger();
            prop_assert!(ledger.read_bytes >= last_ledger.read_bytes);
            prop_assert!(ledger.write_bytes >= last_ledger.write_bytes);
            last_ledger = ledger;
        }
        for id in deleted {
            prop_assert!(fs.try_read(id).is_err());
            prop_assert!(fs.sim_bytes(id).is_none());
        }
    }

    /// Pool accounting: any interleaving of reserve/release keeps
    /// used == Σ reservations − releases, with no violation.
    #[test]
    fn pool_accounting_balances(
        requests in proptest::collection::vec(1u64..100_000, 1..50),
    ) {
        let mut pool = PoolAccountant::new();
        let mut held: Vec<u64> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            if i % 3 == 2 && !held.is_empty() {
                let b = held.pop().unwrap();
                prop_assert!(pool.release(b).is_ok(), "releasing held bytes cannot fail");
            } else {
                let before = pool.used();
                pool.reserve(*r);
                held.push(*r);
                prop_assert_eq!(pool.used(), before + r);
            }
            prop_assert_eq!(pool.used(), held.iter().sum::<u64>());
            prop_assert_eq!(pool.violations(), 0);
        }
    }

    /// Blocks-for is monotone and inverse-consistent with block size.
    #[test]
    fn blocks_monotone(bytes in 0u64..1_000_000_000, block in 1u64..100_000_000) {
        let cfg = BlockConfig::new(block);
        let b = cfg.blocks_for(bytes);
        prop_assert!(b >= 1);
        prop_assert!(b.saturating_sub(1) * block < bytes.max(1));
        prop_assert!(bytes <= b * block);
        prop_assert!(cfg.blocks_for(bytes + block) >= b);
    }
}
