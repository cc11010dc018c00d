//! Satellite of the layout-aware-planning refactor: the default
//! decision rule must reproduce the pre-refactor planner byte-for-byte across the
//! full 18-point CLI sweep (9 geometries x {f64, f32}).
//!
//! The pinned strings below are `SolvePlan::describe()` under the
//! default config. The 11 Fig. 12/13 points among them are
//! certified pre-refactor by `plan_snapshots.rs`; the remaining f32
//! widths were captured from the same decision path. The
//! proptest side hammers purity: arbitrary seeds and execution-config
//! noise must never perturb a default plan.

use proptest::prelude::*;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};

/// The Fig. 12/13 sweep grid: 9 geometries at both scalar widths.
const SWEEP: &[(usize, usize)] = &[
    (64, 512),
    (256, 512),
    (1024, 512),
    (64, 2048),
    (256, 2048),
    (2048, 64),
    (256, 256),
    (16, 1024),
    (1, 16384),
];

/// Pinned `describe()` for every sweep point under the default rule.
const GOLDEN: &str = r#"
=== m=64 n=512 f64 ===
plan: m=64 n=512 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (360448 elems, 2883584 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (32768 elems)
     3. upload b -> buf[1] b (32768 elems)
     4. upload c -> buf[2] c (32768 elems)
     5. upload d -> buf[3] d (32768 elems)
     6. alloc buf[4] x (32768 elems)
     7. alloc buf[5] out_a (32768 elems)
     8. alloc buf[6] out_b (32768 elems)
     9. alloc buf[7] out_c (32768 elems)
    10. alloc buf[8] out_d (32768 elems)
    11. launch tiled_pcr grid=64 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (32768 elems)
    13. alloc buf[10] d_prime (32768 elems)
    14. launch p_thomas grid=32 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 64, n: 512, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=64 n=512 f32 ===
plan: m=64 n=512 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (360448 elems, 1441792 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (32768 elems)
     3. upload b -> buf[1] b (32768 elems)
     4. upload c -> buf[2] c (32768 elems)
     5. upload d -> buf[3] d (32768 elems)
     6. alloc buf[4] x (32768 elems)
     7. alloc buf[5] out_a (32768 elems)
     8. alloc buf[6] out_b (32768 elems)
     9. alloc buf[7] out_c (32768 elems)
    10. alloc buf[8] out_d (32768 elems)
    11. launch tiled_pcr grid=64 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (32768 elems)
    13. alloc buf[10] d_prime (32768 elems)
    14. launch p_thomas grid=32 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 64, n: 512, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=256 n=512 f64 ===
plan: m=256 n=512 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (1441792 elems, 11534336 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] out_a (131072 elems)
     8. alloc buf[6] out_b (131072 elems)
     9. alloc buf[7] out_c (131072 elems)
    10. alloc buf[8] out_d (131072 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (131072 elems)
    13. alloc buf[10] d_prime (131072 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 512, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=256 n=512 f32 ===
plan: m=256 n=512 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (1441792 elems, 5767168 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] out_a (131072 elems)
     8. alloc buf[6] out_b (131072 elems)
     9. alloc buf[7] out_c (131072 elems)
    10. alloc buf[8] out_d (131072 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (131072 elems)
    13. alloc buf[10] d_prime (131072 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 512, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=1024 n=512 f64 ===
plan: m=1024 n=512 f64 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (3670016 elems, 29360128 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch p_thomas grid=8 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 1024, n: 512 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== m=1024 n=512 f32 ===
plan: m=1024 n=512 f32 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (3670016 elems, 14680064 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch p_thomas grid=8 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 1024, n: 512 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== m=64 n=2048 f64 ===
plan: m=64 n=2048 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (1441792 elems, 11534336 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] out_a (131072 elems)
     8. alloc buf[6] out_b (131072 elems)
     9. alloc buf[7] out_c (131072 elems)
    10. alloc buf[8] out_d (131072 elems)
    11. launch tiled_pcr grid=64 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (131072 elems)
    13. alloc buf[10] d_prime (131072 elems)
    14. launch p_thomas grid=32 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 64, n: 2048, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=64 n=2048 f32 ===
plan: m=64 n=2048 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (1441792 elems, 5767168 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] out_a (131072 elems)
     8. alloc buf[6] out_b (131072 elems)
     9. alloc buf[7] out_c (131072 elems)
    10. alloc buf[8] out_d (131072 elems)
    11. launch tiled_pcr grid=64 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (131072 elems)
    13. alloc buf[10] d_prime (131072 elems)
    14. launch p_thomas grid=32 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 64, n: 2048, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=256 n=2048 f64 ===
plan: m=256 n=2048 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (5767168 elems, 46137344 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] out_a (524288 elems)
     8. alloc buf[6] out_b (524288 elems)
     9. alloc buf[7] out_c (524288 elems)
    10. alloc buf[8] out_d (524288 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (524288 elems)
    13. alloc buf[10] d_prime (524288 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 2048, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=256 n=2048 f32 ===
plan: m=256 n=2048 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (5767168 elems, 23068672 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] out_a (524288 elems)
     8. alloc buf[6] out_b (524288 elems)
     9. alloc buf[7] out_c (524288 elems)
    10. alloc buf[8] out_d (524288 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (524288 elems)
    13. alloc buf[10] d_prime (524288 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 2048, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=2048 n=64 f64 ===
plan: m=2048 n=64 f64 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (917504 elems, 7340032 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch p_thomas grid=16 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 2048, n: 64 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== m=2048 n=64 f32 ===
plan: m=2048 n=64 f32 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (917504 elems, 3670016 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch p_thomas grid=16 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 2048, n: 64 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== m=256 n=256 f64 ===
plan: m=256 n=256 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (720896 elems, 5767168 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (65536 elems)
     3. upload b -> buf[1] b (65536 elems)
     4. upload c -> buf[2] c (65536 elems)
     5. upload d -> buf[3] d (65536 elems)
     6. alloc buf[4] x (65536 elems)
     7. alloc buf[5] out_a (65536 elems)
     8. alloc buf[6] out_b (65536 elems)
     9. alloc buf[7] out_c (65536 elems)
    10. alloc buf[8] out_d (65536 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (65536 elems)
    13. alloc buf[10] d_prime (65536 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 256, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=256 n=256 f32 ===
plan: m=256 n=256 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=false layout=Contiguous
  buffers: 11 (720896 elems, 2883584 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (65536 elems)
     3. upload b -> buf[1] b (65536 elems)
     4. upload c -> buf[2] c (65536 elems)
     5. upload d -> buf[3] d (65536 elems)
     6. alloc buf[4] x (65536 elems)
     7. alloc buf[5] out_a (65536 elems)
     8. alloc buf[6] out_b (65536 elems)
     9. alloc buf[7] out_c (65536 elems)
    10. alloc buf[8] out_d (65536 elems)
    11. launch tiled_pcr grid=256 threads=64 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=6 sub_tile=64
    12. alloc buf[9] c_prime (65536 elems)
    13. alloc buf[10] d_prime (65536 elems)
    14. launch p_thomas grid=128 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 256, n: 256, k: 6 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=16 n=1024 f64 ===
plan: m=16 n=1024 f64 on GTX480
  k=7 mapping=BlockGroupPerSystem(2) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 1441792 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=32 threads=128 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=7 sub_tile=128
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=16 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 16, n: 1024, k: 7 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=16 n=1024 f32 ===
plan: m=16 n=1024 f32 on GTX480
  k=7 mapping=BlockGroupPerSystem(2) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 720896 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=32 threads=128 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=7 sub_tile=128
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=16 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 16, n: 1024, k: 7 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=1 n=16384 f64 ===
plan: m=1 n=16384 f64 on GTX480
  k=8 mapping=BlockGroupPerSystem(16) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 1441792 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=16 threads=256 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=8 sub_tile=256
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=2 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 8 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== m=1 n=16384 f32 ===
plan: m=1 n=16384 f32 on GTX480
  k=8 mapping=BlockGroupPerSystem(16) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 720896 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=16 threads=256 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=8 sub_tile=256
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=2 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 8 }
    15. download buf[4] x
    16. convert-back <- Contiguous
"#;

/// Split the `=== key ===`-delimited blob into (key, body) pairs.
fn parse_golden() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in GOLDEN.lines() {
        if let Some(k) = line.strip_prefix("=== ").and_then(|r| r.strip_suffix(" ===")) {
            out.push((k.to_string(), String::new()));
        } else if let Some(last) = out.last_mut() {
            if !line.is_empty() {
                last.1.push_str(line);
                last.1.push('\n');
            }
        }
    }
    out
}

fn legacy_plan(m: usize, n: usize, bytes: usize, config: &GpuSolverConfig) -> String {
    let solver = GpuTridiagSolver::new(gpu_sim::DeviceSpec::gtx480(), *config);
    solver
        .plan_geometry(m, n, bytes)
        .unwrap_or_else(|e| panic!("m={m} n={n}: {e}"))
        .describe()
}

/// Every sweep point, both widths, against the pinned golden text.
#[test]
fn legacy_plans_match_the_pinned_sweep() {
    let golden = parse_golden();
    assert_eq!(golden.len(), SWEEP.len() * 2, "golden blob size");
    let mut it = golden.iter();
    for &(m, n) in SWEEP {
        for bytes in [8usize, 4] {
            let prec = if bytes == 4 { "f32" } else { "f64" };
            let (key, body) = it.next().unwrap();
            assert_eq!(key, &format!("m={m} n={n} {prec}"), "golden order");
            let got = legacy_plan(m, n, bytes, &GpuSolverConfig::default());
            assert_eq!(&got, body, "Legacy plan drifted for m={m} n={n} {prec}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planning is pure: no execution-config switch or rebuild may
    /// perturb a default plan's bytes on any sweep point.
    #[test]
    fn legacy_plans_are_pure_under_config_noise(
        idx in 0usize..18,
        sanitize in any::<bool>(),
        lint in any::<bool>(),
    ) {
        let (m, n) = SWEEP[idx / 2];
        let bytes = if idx % 2 == 0 { 8 } else { 4 };
        let base = legacy_plan(m, n, bytes, &GpuSolverConfig::default());
        let noisy = GpuSolverConfig {
            exec: match (sanitize, lint) {
                (true, true) => gpu_sim::ExecConfig::checked(),
                (true, false) => gpu_sim::ExecConfig::sanitized(),
                (false, true) => gpu_sim::ExecConfig::planned(),
                (false, false) => gpu_sim::ExecConfig::default(),
            },
            ..Default::default()
        };
        prop_assert_eq!(
            &legacy_plan(m, n, bytes, &noisy),
            &base,
            "exec config noise perturbed the plan at m={} n={} bytes={}",
            m, n, bytes
        );
        // Rebuild determinism, JSON included.
        let solver = GpuTridiagSolver::new(gpu_sim::DeviceSpec::gtx480(), GpuSolverConfig::default());
        let p1 = solver.plan_geometry(m, n, bytes).unwrap();
        let p2 = solver.plan_geometry(m, n, bytes).unwrap();
        prop_assert_eq!(p1.to_json().to_string(), p2.to_json().to_string());
        prop_assert_eq!(p1, p2);
    }
}
