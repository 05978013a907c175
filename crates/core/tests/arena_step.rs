//! Once warm, a paper-shaped PPN training step runs entirely on buffers the
//! tensor arena recycles: no request reaches the system allocator.

use ppn_core::config::{RewardConfig, TrainConfig};
use ppn_core::ppn::Variant;
use ppn_core::trainer::Trainer;
use ppn_market::{Dataset, Preset};
use ppn_tensor::storage::arena_stats;

#[test]
fn warm_paper_shaped_ppn_step_does_not_allocate() {
    // Crypto-A has the paper's m = 12 assets; `Trainer::new` builds
    // `NetConfig::paper(12)` and the default batch is B = 16.
    let ds = Dataset::load(Preset::CryptoA);
    assert_eq!(ds.assets(), 12);
    let cfg = TrainConfig { seed: 7, ..TrainConfig::default() };
    assert_eq!(cfg.batch, 16);
    let mut trainer = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg);
    for _ in 0..2 {
        trainer.step();
    }
    let warm = arena_stats();
    for _ in 0..2 {
        trainer.step();
    }
    let after = arena_stats();
    assert_eq!(after.alloc_bytes, warm.alloc_bytes, "a warm step reached the allocator");
    assert_eq!(after.arena_misses, warm.arena_misses, "a warm step missed the arena");
    assert!(after.arena_hits > warm.arena_hits, "a warm step never hit the arena");
}
