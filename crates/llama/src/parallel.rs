//! CPU parallelism utilities: row-partitioned parallel GEMV/GEMM kernels
//! ([`par_matvec`], [`par_matmul`] and their fused-dequant twins) built on
//! `std::thread::scope`, behind `MatVecStrategy::Parallel`. They are
//! data-race free by construction (each worker owns a disjoint `&mut`
//! chunk of the output) and deliberately avoid work-stealing: the
//! workloads are regular, so static partitioning is within a few percent
//! of optimal and much easier to reason about. Rows are handed out in
//! whole [`ROW_TILE`]s ([`split_row_tiles`]), the unit both the register
//! tiling and the quantized layout work in. Everything here is `std`-only.

use crate::ops::ROW_TILE;
use crate::quant::QuantMatrix;
use std::ops::Range;

/// Minimum number of multiply-accumulates per worker before parallelism
/// pays for thread wake-up; below this, [`par_matvec`] runs serially.
const PAR_MIN_MACS_PER_THREAD: usize = 64 * 1024;

/// Environment variable that pins the worker count returned by
/// [`recommended_threads`], so bench runs are reproducible across hosts.
pub const THREADS_ENV: &str = "SPEEDLLM_THREADS";

/// Returns a sensible worker count: the `SPEEDLLM_THREADS` environment
/// variable when set to a positive integer (capped at 64 as a fat-finger
/// guard), otherwise available parallelism capped at 16 (beyond that,
/// memory bandwidth dominates for matvec).
#[must_use]
pub fn recommended_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Splits `n` items into at most `parts` contiguous ranges of near-equal
/// length. Returns fewer ranges when `n < parts`. Ranges are non-empty,
/// disjoint, and cover `0..n`.
#[must_use]
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `rows` into at most `parts` contiguous ranges that start on
/// [`ROW_TILE`] boundaries — whole row tiles, near-equal in number, the
/// last range taking the ragged tail — so no worker's range straddles a
/// tile of the kernels' register tiling or of the quantized layout.
#[must_use]
pub fn split_row_tiles(rows: usize, parts: usize) -> Vec<Range<usize>> {
    split_ranges(rows.div_ceil(ROW_TILE), parts)
        .into_iter()
        .map(|tiles| tiles.start * ROW_TILE..(tiles.end * ROW_TILE).min(rows))
        .collect()
}

/// Runs `kernel(chunk, range)` on scoped workers, one per range of
/// [`split_row_tiles`], `chunk` being the `range.len() * batch` outputs of
/// that range: disjoint `&mut` chunks of the row-major `[rows][batch]`
/// `out`, so the workers are data-race free by construction.
fn par_rows(
    out: &mut [f32],
    rows: usize,
    batch: usize,
    threads: usize,
    kernel: impl Fn(&mut [f32], Range<usize>) + Sync,
) {
    std::thread::scope(|s| {
        let mut rest = out;
        for range in split_row_tiles(rows, threads) {
            let (chunk, tail) = rest.split_at_mut(range.len() * batch);
            rest = tail;
            let kernel = &kernel;
            s.spawn(move || kernel(chunk, range));
        }
    });
}

/// Parallel dense matvec: `out[r] = w[r, :] · x` with rows statically
/// partitioned over `threads` workers. Every worker runs its row range
/// through [`crate::ops::matmul_rows_xt`], the kernel behind the serial
/// [`crate::ops::matvec`], so results are bit-identical regardless of
/// thread count. Falls back to the serial kernel when the work is too
/// small to amortize thread wake-up.
pub fn par_matvec(out: &mut [f32], w: &[f32], x: &[f32], rows: usize, cols: usize, threads: usize) {
    assert_eq!(out.len(), rows);
    assert_eq!(w.len(), rows * cols);
    assert_eq!(x.len(), cols);
    if threads <= 1 || rows * cols < PAR_MIN_MACS_PER_THREAD * 2 {
        crate::ops::matvec(out, w, x, rows, cols);
        return;
    }
    par_rows(out, rows, 1, threads, |chunk, range| {
        crate::ops::matmul_rows_xt(chunk, w, x, range, cols, 1);
    });
}

/// Parallel batched matmul: `out[r * batch + b] = w[r, :] · xs[b]` with
/// rows statically partitioned over `threads` workers, exactly like
/// [`par_matvec`]. The activations are transposed to batch-major once
/// (workers share the read-only transpose). Every worker runs the same
/// [`crate::ops::matmul_rows_xt`] lane-blocked kernel as the serial
/// [`crate::ops::matmul`], so results are bit-identical regardless of
/// thread count. Falls back to the serial kernel when the total work is
/// too small to amortize thread wake-up.
pub fn par_matmul(
    out: &mut [f32],
    w: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    threads: usize,
) {
    assert_eq!(out.len(), rows * batch);
    assert_eq!(w.len(), rows * cols);
    assert_eq!(xs.len(), batch * cols);
    if threads <= 1 || rows * cols * batch < PAR_MIN_MACS_PER_THREAD * 2 {
        crate::ops::matmul(out, w, xs, rows, cols, batch);
        return;
    }
    let xt = crate::ops::transpose_batch_major(xs, cols, batch);
    par_rows(out, rows, batch, threads, |chunk, range| {
        crate::ops::matmul_rows_xt(chunk, w, &xt, range, cols, batch);
    });
}

/// Parallel fused dequant matvec: the quantized twin of [`par_matvec`].
/// Rows are statically partitioned and each worker runs
/// [`crate::qgemm::qmatvec_rows`], so results are bit-identical regardless
/// of thread count. Falls back to the serial kernel when the work is too
/// small to amortize thread wake-up.
pub fn par_qmatvec(out: &mut [f32], w: &QuantMatrix, x: &[f32], threads: usize) {
    let (rows, cols) = (w.rows(), w.cols());
    assert_eq!(out.len(), rows);
    assert_eq!(x.len(), cols);
    if threads <= 1 || rows * cols < PAR_MIN_MACS_PER_THREAD * 2 {
        crate::qgemm::qmatvec(out, w, x);
        return;
    }
    par_rows(out, rows, 1, threads, |chunk, range| {
        crate::qgemm::qmatvec_rows(chunk, w, range, x);
    });
}

/// Parallel batched fused dequant-GEMM: the quantized twin of
/// [`par_matmul`]. Workers run [`crate::qgemm::qmatmul_rows_xt`] over
/// disjoint row ranges of the shared batch-major transpose, so results are
/// bit-identical to the serial [`crate::qgemm::qmatmul`] regardless of
/// thread count.
pub fn par_qmatmul(out: &mut [f32], w: &QuantMatrix, xs: &[f32], batch: usize, threads: usize) {
    let (rows, cols) = (w.rows(), w.cols());
    assert_eq!(out.len(), rows * batch);
    assert_eq!(xs.len(), batch * cols);
    if threads <= 1 || rows * cols * batch < PAR_MIN_MACS_PER_THREAD * 2 {
        crate::qgemm::qmatmul(out, w, xs, batch);
        return;
    }
    let xt = crate::ops::transpose_batch_major(xs, cols, batch);
    par_rows(out, rows, batch, threads, |chunk, range| {
        crate::qgemm::qmatmul_rows_xt(chunk, w, &xt, range, batch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, parts);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    assert!(!r.is_empty(), "ranges must be non-empty");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
                if n > 0 {
                    assert!(ranges.len() <= parts.min(n));
                }
            }
        }
    }

    #[test]
    fn split_ranges_balance_within_one() {
        let ranges = split_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn par_matvec_matches_serial_small_and_large() {
        for (rows, cols) in [(3usize, 5usize), (257, 1031)] {
            let w: Vec<f32> = (0..rows * cols).map(|i| ((i % 13) as f32) - 6.0).collect();
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.1).sin()).collect();
            let mut serial = vec![0.0f32; rows];
            crate::ops::matvec(&mut serial, &w, &x, rows, cols);
            for threads in [1usize, 2, 4, 7] {
                let mut par = vec![0.0f32; rows];
                par_matvec(&mut par, &w, &x, rows, cols, threads);
                for (a, b) in serial.iter().zip(&par) {
                    assert!((a - b).abs() < 1e-4, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn par_matmul_is_bit_identical_to_serial() {
        // Large enough to clear the serial-fallback threshold, so the
        // scoped-thread path really runs.
        let (rows, cols) = (193usize, 517usize);
        let w: Vec<f32> = (0..rows * cols).map(|i| ((i % 23) as f32) - 11.0).collect();
        for batch in [1usize, 3, 4] {
            let xs: Vec<f32> = (0..batch * cols).map(|i| (i as f32 * 0.05).sin()).collect();
            let mut serial = vec![0.0f32; rows * batch];
            crate::ops::matmul(&mut serial, &w, &xs, rows, cols, batch);
            for threads in [1usize, 2, 5] {
                let mut par = vec![0.0f32; rows * batch];
                par_matmul(&mut par, &w, &xs, rows, cols, batch, threads);
                // Exact equality: same dot over the same operands per element.
                assert_eq!(serial, par, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    fn split_row_tiles_cuts_on_tile_boundaries() {
        for rows in [0usize, 1, 8, 17, 100, 32000] {
            for parts in [1usize, 2, 3, 5, 200] {
                let ranges = split_row_tiles(rows, parts);
                assert!(ranges.len() <= parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    assert_eq!(r.start % ROW_TILE, 0, "rows={rows} parts={parts}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, rows, "rows={rows} parts={parts}");
            }
        }
        // Near-equal row counts would cut 32000 rows at 10667, inside a tile.
        assert_eq!(split_row_tiles(32000, 3)[0], 0..10672);
    }

    /// Tile-aligned partitions, a ragged last tile (17 rows) and the
    /// classifier's row count, at shapes wide enough that the scoped
    /// workers really run: every kernel is bitwise equal to serial.
    #[test]
    fn tile_partitioned_workers_are_bit_identical_to_serial() {
        use crate::quant::QuantKind;
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(15);
        for (rows, cols) in [(17usize, 8192 + 40), (32000, 40)] {
            assert!(rows * cols >= PAR_MIN_MACS_PER_THREAD * 2);
            let batch = 3;
            let mut w = vec![0.0f32; rows * cols];
            let mut xs = vec![0.0f32; batch * cols];
            rng.fill_normal(&mut w, 0.3);
            rng.fill_normal(&mut xs, 1.0);
            let x = &xs[..cols];
            let quants = [QuantKind::Int8, QuantKind::Int4]
                .map(|kind| QuantMatrix::quantize_with(&w, rows, cols, kind));

            let mut serial_v = vec![0.0f32; rows];
            let mut serial_m = vec![0.0f32; rows * batch];
            let mut par_v = vec![f32::NAN; rows];
            let mut par_m = vec![f32::NAN; rows * batch];
            let same = |what: &str, serial: &[f32], par: &[f32]| {
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(serial), bits(par), "{what}, {rows} rows");
            };
            for threads in [2usize, 3, 5] {
                crate::ops::matvec(&mut serial_v, &w, x, rows, cols);
                par_matvec(&mut par_v, &w, x, rows, cols, threads);
                same("f32 matvec", &serial_v, &par_v);
                crate::ops::matmul(&mut serial_m, &w, &xs, rows, cols, batch);
                par_matmul(&mut par_m, &w, &xs, rows, cols, batch, threads);
                same("f32 matmul", &serial_m, &par_m);
                for qm in &quants {
                    crate::qgemm::qmatvec(&mut serial_v, qm, x);
                    par_qmatvec(&mut par_v, qm, x, threads);
                    same(qm.kind().name(), &serial_v, &par_v);
                    crate::qgemm::qmatmul(&mut serial_m, qm, &xs, batch);
                    par_qmatmul(&mut par_m, qm, &xs, batch, threads);
                    same(qm.kind().name(), &serial_m, &par_m);
                }
            }
        }
    }

    #[test]
    fn threads_env_override_pins_worker_count() {
        // Process-global env var: restore whatever was set so concurrently
        // running tests only ever observe a valid positive override.
        let prev = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(recommended_threads(), 3);
        std::env::set_var(THREADS_ENV, "999");
        assert_eq!(recommended_threads(), 64, "override is capped");
        match prev {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        // Garbage and non-positive values fall back to the default.
        for bad in ["0", "-2", "lots", ""] {
            let prev = std::env::var(THREADS_ENV).ok();
            std::env::set_var(THREADS_ENV, bad);
            assert!(recommended_threads() >= 1);
            match prev {
                Some(v) => std::env::set_var(THREADS_ENV, v),
                None => std::env::remove_var(THREADS_ENV),
            }
        }
    }

    #[test]
    fn recommended_threads_is_positive() {
        assert!(recommended_threads() >= 1);
    }
}
