//! The walk's large GEMMs on both host cores (DESIGN.md §13): a row split
//! between the calling thread and one helper thread per [`with_cores`]
//! scope. Each output element is still computed by one thread with the
//! unchanged body, so the split is bit-identical to the serial GEMM; the
//! caller runs every row a late or descheduled helper has not taken.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use speedllm_telemetry as tel;

use crate::ops::{self, ROW_TILE, SPLIT_GROUP};
use crate::quant::QuantMatrix;

/// Multiply-adds (`rows × cols × batch`) below which a GEMM stays serial.
/// `cpu_kernels -- _f32_w1_` with the bound at 0 (2-vCPU Xeon, µs, serial
/// → split, five runs): 64² 0.5–0.9 → 2.2–2.6, 128² 1.8–2.9 → 3.5–4.8,
/// 192² 3.7–5.8 → 4.8–6.1, 256² 6.5–8.5 → 6.7–7.8. In cache the split
/// pays from 256²; streamed, as in the walk, more. 288² is 83 K.
const MIN_SPLIT: usize = 1 << 16;

/// Multiply-adds of a whole walk below which it starts no helper: a spawn
/// and join cost 35 µs, more on a loaded host, where stories260K decode at
/// width 8 (2 M) ran 45% slower with one. A stories15M row is 15 M.
const MIN_WALK: usize = 1 << 22;

/// How long a waiting thread spins before it blocks (hand-offs: 0.7 µs spinning, 12 µs blocking).
const SPIN: Duration = Duration::from_micros(100);

/// A GEMM body and its matrix: [`Gemm::run`] serial, [`Cores::run`] split.
#[derive(Clone, Copy, Debug)]
pub enum Gemm<'w> {
    /// Kernel-order f32 ([`ops::tiled_matmul_rows_xt`]) and its columns.
    KernelOrder(&'w [f32], usize),
    /// Split-order f32 ([`ops::to_split_order`], [`ops::split_gemm`]).
    SplitExact(&'w [f32], usize),
    /// Split-order f32, screened on its high halves.
    SplitScreen(&'w [f32], usize),
    /// Int8 or int4, the matrix's kind picking the loader.
    Quant(&'w QuantMatrix),
}

impl Gemm<'_> {
    /// `out[(r - rows.start) * batch + b] = w[r, :] · x_b`, `r` in `rows`.
    pub fn run(self, out: &mut [f32], xt: &[f32], rows: Range<usize>, batch: usize) {
        match self {
            Self::KernelOrder(w, cols) => ops::tiled_matmul_rows_xt(out, w, xt, rows, cols, batch),
            Self::SplitExact(w, cols) => ops::split_gemm::<true>(out, w, xt, rows, cols, batch),
            Self::SplitScreen(w, cols) => ops::split_gemm::<false>(out, w, xt, rows, cols, batch),
            Self::Quant(w) => crate::qgemm::qmatmul_rows_xt(out, w, xt, rows, batch),
        }
    }

    /// Columns, and the rows of a step of the widest body copy (tile pair).
    fn shape(self) -> (usize, usize) {
        match self {
            Self::KernelOrder(_, cols) => (cols, 2 * ROW_TILE),
            Self::SplitExact(_, cols) | Self::SplitScreen(_, cols) => (cols, SPLIT_GROUP),
            Self::Quant(w) => (w.cols(), 2 * ROW_TILE),
        }
    }
}

thread_local! {
    static REFUSE_SPAWN: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with its walks' helper spawns failing. Tests: the serial oracle.
#[doc(hidden)]
pub fn with_spawn_refused<R>(f: impl FnOnce() -> R) -> R {
    let refused = REFUSE_SPAWN.replace(true);
    let r = f();
    REFUSE_SPAWN.set(refused);
    r
}

/// The helper's activations and output, kept so split GEMMs allocate none.
#[derive(Clone, Debug, Default)]
pub struct Buffers(Vec<f32>, Vec<f32>);

/// The posted GEMM (body, first row, width), the rows no thread has taken,
/// the chunk (a multiple of the body's step) they go in, and how many
/// threads are blocked on a change.
#[derive(Default)]
struct State<'w> {
    job: Option<(Gemm<'w>, usize, usize)>,
    left: Range<usize>,
    chunk: usize,
    closed: bool,
    sleepers: usize,
}

#[derive(Default)]
struct Mailbox<'w> {
    state: Mutex<State<'w>>,
    /// Held by the helper while it runs chunks; poisoned if it panics.
    buffers: Mutex<Buffers>,
    changed: Condvar,
    /// State changes, read by a spinning thread (relaxed: the lock orders).
    changes: AtomicUsize,
}

/// A poisoned lock holds valid data: the buffers are written before read.
fn unpoison<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<'w> Mailbox<'w> {
    /// The state, once `ready` holds: spun for [`SPIN`], then waited for.
    fn wait_for(&self, ready: impl Fn(&State<'w>) -> bool) -> MutexGuard<'_, State<'w>> {
        let start = Instant::now();
        let mut st = unpoison(self.state.lock());
        while !ready(&st) {
            let seen = self.changes.load(Ordering::Relaxed);
            if start.elapsed() < SPIN {
                drop(st);
                while self.changes.load(Ordering::Relaxed) == seen && start.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
                st = unpoison(self.state.lock());
            } else {
                st.sleepers += 1;
                st = unpoison(self.changed.wait(st));
                st.sleepers -= 1;
            }
        }
        st
    }

    /// Publishes a change made under `st`.
    fn publish(&self, st: MutexGuard<'_, State<'w>>) {
        self.changes.fetch_add(1, Ordering::Relaxed);
        if st.sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// A chunk of the rows left, with its GEMM: from the front for the
    /// caller, from the back for the helper; `None` once the two have met.
    fn take(&self, back: bool) -> Option<(Gemm<'w>, usize, usize, Range<usize>)> {
        let mut st = self.wait_for(|_| true);
        let (left, chunk, (g, first, b)) = (st.left.clone(), st.chunk, st.job?);
        if left.is_empty() {
            return None;
        }
        let r = if back {
            st.left.end = ((left.end - 1) / chunk * chunk).max(left.start);
            st.left.end..left.end
        } else {
            st.left.start = ((left.start / chunk + 1) * chunk).min(left.end);
            left.start..st.left.start
        };
        Some((g, first, b, r))
    }

    /// The helper thread: runs chunks from the back until the scope ends.
    fn serve(&self) {
        while !self.wait_for(|s| !s.left.is_empty() || s.closed).closed {
            let mut buf = unpoison(self.buffers.lock());
            let Buffers(xt, out) = &mut *buf;
            while let Some((g, first, b, r)) = self.take(true) {
                let theirs = &mut out[(r.start - first) * b..(r.end - first) * b];
                g.run(theirs, xt, r, b);
            }
        }
    }
}

/// The calling thread and, once a GEMM is worth splitting, one helper
/// thread of the enclosing [`with_cores`] scope.
pub struct Cores<'scope, 'w> {
    scope: &'scope Scope<'scope, 'w>,
    mailbox: Arc<Mailbox<'w>>,
    /// `None` until the first split, then the helper if it started.
    helper: Option<Option<ScopedJoinHandle<'scope, ()>>>,
    /// Weight rows the helper has computed.
    helper_rows: usize,
}

impl<'w> Cores<'_, 'w> {
    /// [`Gemm::run`], bit for bit, its rows split with the helper when large
    /// enough to gain: in chunks of about an eighth, the caller's from the
    /// front, the helper's from the back, so a late helper holds up one.
    pub fn run(&mut self, g: Gemm<'w>, out: &mut [f32], xt: &[f32], rows: Range<usize>, b: usize) {
        let (cols, step) = g.shape();
        let (scope, mailbox) = (self.scope, &self.mailbox);
        let spawn = || {
            static CPUS: OnceLock<usize> = OnceLock::new();
            let cpus = CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from));
            let (mailbox, builder) = (Arc::clone(mailbox), thread::Builder::new());
            // `spawn_scoped` returns a failed spawn; `Scope::spawn` panics.
            let spawn = || builder.spawn_scoped(scope, move || mailbox.serve()).ok();
            (*cpus > 1 && !REFUSE_SPAWN.get()).then(spawn).flatten()
        };
        let small = rows.len() * cols * b < MIN_SPLIT || rows.len() < 2 * step;
        if small || self.helper.get_or_insert_with(spawn).is_none() {
            return g.run(out, xt, rows, b);
        }
        assert_eq!(out.len(), rows.len() * b, "output shape mismatch");
        {
            let mut buf = unpoison(mailbox.buffers.lock());
            buf.0.clear();
            buf.0.extend_from_slice(xt);
            // The helper writes every row it takes, so stale values may stay.
            buf.1.resize(out.len(), 0.0);
        }
        let mut st = mailbox.wait_for(|_| true);
        (st.job, st.left) = (Some((g, rows.start, b)), rows.clone());
        st.chunk = (rows.len() / 8).max(1).next_multiple_of(step);
        mailbox.publish(st);
        while let Some((.., r)) = mailbox.take(false) {
            let own = &mut out[(r.start - rows.start) * b..(r.end - rows.start) * b];
            g.run(own, xt, r, b);
        }
        let met = (mailbox.wait_for(|_| true).left.start - rows.start) * b;
        // The helper holds the buffers while it runs its last chunk.
        if let Ok(buf) = mailbox.buffers.lock() {
            out[met..].copy_from_slice(&buf.1[met..]);
            self.helper_rows += (out.len() - met) / b;
            return;
        }
        // The helper panicked in a chunk: resume its panic here.
        mailbox.buffers.clear_poison();
        match self.helper.take().flatten().map(ScopedJoinHandle::join) {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => unreachable!("a poisoned buffer lock means a panicked helper"),
        }
    }
}

impl Drop for Cores<'_, '_> {
    /// Ends the helper, chunks left or not, so the scope can join it.
    fn drop(&mut self) {
        let mut st = self.mailbox.wait_for(|_| true);
        (st.closed, st.left) = (true, 0..0);
        self.mailbox.publish(st);
    }
}

/// Runs `f`, `work` multiply-adds, with a helper thread for the GEMMs it runs
/// through [`Cores::run`], spawned on the first worth it and joined here. `buf`
/// keeps its buffers between calls; its rows add to `cpu.gemm_helper_rows`.
pub fn with_cores<'w, R>(
    buf: &mut Buffers,
    work: usize,
    f: impl for<'s> FnOnce(&mut Cores<'s, 'w>) -> R,
) -> R {
    let mailbox = Arc::<Mailbox>::default();
    *unpoison(mailbox.buffers.lock()) = std::mem::take(buf);
    let (r, rows) = thread::scope(|scope| {
        let mailbox = Arc::clone(&mailbox);
        let mut cores = Cores {
            scope,
            mailbox,
            helper: (work < MIN_WALK).then_some(None),
            helper_rows: 0,
        };
        (f(&mut cores), cores.helper_rows)
    });
    *buf = std::mem::take(&mut *unpoison(mailbox.buffers.lock()));
    if tel::enabled() && rows > 0 {
        tel::metrics::counter_add("cpu.gemm_helper_rows", rows as u64);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantKind;
    use crate::rng::Xoshiro256;

    // Split ≡ serial is compared with `==` on the bits: the helper and the
    // caller run the unchanged body, so there is no tolerance to allow.

    const COLS: usize = 33;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The five matrix forms of one random `rows × COLS` matrix: kernel
    /// order, split order (read exact and screened), int8 and int4.
    struct Forms {
        kernel: Vec<f32>,
        split: Vec<f32>,
        int8: QuantMatrix,
        int4: QuantMatrix,
    }

    impl Forms {
        fn new(rows: usize, seed: u64) -> Self {
            let mut w = vec![0.0f32; rows * COLS];
            Xoshiro256::seed_from_u64(seed).fill_normal(&mut w, 0.5);
            let (mut kernel, mut split) = (w.clone(), w.clone());
            ops::to_kernel_order(&mut kernel, rows, COLS);
            ops::to_split_order(&mut split, rows, COLS);
            Self {
                kernel,
                split,
                int8: QuantMatrix::quantize_with(&w, rows, COLS, QuantKind::Int8),
                int4: QuantMatrix::quantize_with(&w, rows, COLS, QuantKind::Int4),
            }
        }

        fn gemms(&self) -> [(&'static str, Gemm<'_>); 5] {
            [
                ("kernel order", Gemm::KernelOrder(&self.kernel, COLS)),
                ("split exact", Gemm::SplitExact(&self.split, COLS)),
                ("split screen", Gemm::SplitScreen(&self.split, COLS)),
                ("int8", Gemm::Quant(&self.int8)),
                ("int4", Gemm::Quant(&self.int4)),
            ]
        }
    }

    fn activations(batch: usize, seed: u64) -> Vec<f32> {
        let mut xt = vec![0.0f32; COLS * batch];
        Xoshiro256::seed_from_u64(seed).fill_normal(&mut xt, 1.0);
        xt
    }

    /// Cut points inside `0..rows`: mid-tile, mid-pair and mid-group.
    fn cuts(rows: usize) -> Vec<usize> {
        let mut cuts = vec![rows / 2 / 16 * 16 + 3, rows / 2 / 32 * 32 + 8];
        cuts.push(rows / 2 / 32 * 32 + 16);
        cuts.retain(|&m| 0 < m && m < rows);
        cuts
    }

    #[test]
    fn split_gemms_replay_the_serial_gemm_bit_for_bit() {
        let widths: Vec<usize> = (1..=17).chain([31, 64]).collect();
        for rows in [64, 65, 72, 288, 768, 1000, 32000] {
            let forms = Forms::new(rows, rows as u64);
            with_cores(&mut Buffers::default(), usize::MAX, |cores| {
                for &batch in &widths {
                    let xt = activations(batch, batch as u64);
                    for (name, gemm) in forms.gemms() {
                        let mut serial = vec![0.0f32; rows * batch];
                        gemm.run(&mut serial, &xt, 0..rows, batch);
                        // The body over two row ranges, cut anywhere...
                        for mid in cuts(rows) {
                            let mut split = vec![f32::NAN; rows * batch];
                            let (lower, upper) = split.split_at_mut(mid * batch);
                            gemm.run(lower, &xt, 0..mid, batch);
                            gemm.run(upper, &xt, mid..rows, batch);
                            let case = format!("{name} rows {rows} width {batch} cut {mid}");
                            assert_eq!(bits(&split), bits(&serial), "{case}");
                        }
                        // ...and its upper part on the helper thread.
                        let mut split = vec![f32::NAN; rows * batch];
                        cores.run(gemm, &mut split, &xt, 0..rows, batch);
                        let case = format!("{name} rows {rows} width {batch}");
                        assert_eq!(bits(&split), bits(&serial), "{case}");
                    }
                }
            });
        }
    }

    /// A GEMM large enough to split: its matrix, activations and serial
    /// result.
    struct Large(Forms, Vec<f32>, Vec<f32>);

    impl Large {
        const ROWS: usize = 4096;

        fn new() -> Self {
            let forms = Forms::new(Self::ROWS, 5);
            let xt = activations(1, 6);
            let mut serial = vec![0.0f32; Self::ROWS];
            Gemm::KernelOrder(&forms.kernel, COLS).run(&mut serial, &xt, 0..Self::ROWS, 1);
            Self(forms, xt, serial)
        }

        fn gemm(&self) -> Gemm<'_> {
            Gemm::KernelOrder(&self.0.kernel, COLS)
        }

        /// Runs the GEMM on `cores`, checking each result, `times` times
        /// or until the helper has run a job.
        fn run<'w>(&'w self, cores: &mut Cores<'_, 'w>, times: usize) {
            for _ in 0..times {
                let mut out = vec![f32::NAN; Self::ROWS];
                cores.run(self.gemm(), &mut out, &self.1, 0..Self::ROWS, 1);
                assert_eq!(bits(&out), bits(&self.2));
                if cores.helper_rows > 0 {
                    return;
                }
            }
        }
    }

    #[test]
    fn a_free_helper_streams_rows() {
        if thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        // The caller takes jobs back until the helper has started; a
        // thousand chances make a zero here a broken hand-off, not bad
        // luck.
        let large = Large::new();
        with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            large.run(cores, 1000);
            assert!(cores.helper_rows > 0, "the helper never ran a job");
        });
    }

    #[test]
    fn a_busy_helper_leaves_every_chunk_to_the_caller() {
        // A helper that never takes a chunk: the caller runs them all.
        let large = Large::new();
        thread::scope(|scope| {
            let mailbox = Arc::<Mailbox>::default();
            let idle = Arc::clone(&mailbox);
            let helper = scope.spawn(move || drop(idle.wait_for(|s| s.closed)));
            let mut cores = Cores {
                scope,
                mailbox,
                helper: Some(Some(helper)),
                helper_rows: 0,
            };
            large.run(&mut cores, 3);
            assert_eq!(cores.helper_rows, 0);
        });
    }

    #[test]
    fn a_refused_spawn_falls_back_to_the_serial_gemm() {
        let large = Large::new();
        with_spawn_refused(|| {
            with_cores(&mut Buffers::default(), usize::MAX, |cores| {
                large.run(cores, 2);
                assert!(matches!(cores.helper, Some(None)));
                assert_eq!(cores.helper_rows, 0);
            });
        });
    }

    #[test]
    fn small_gemms_start_no_helper() {
        let forms = Forms::new(64, 9);
        let xt = activations(8, 10);
        with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            let mut out = vec![0.0f32; 64 * 8];
            cores.run(Gemm::Quant(&forms.int8), &mut out, &xt, 0..64, 8);
            assert!(cores.helper.is_none());
        });
    }

    #[test]
    fn a_panic_in_a_job_resumes_on_the_caller() {
        if thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        // Rows past the matrix make the upper part panic. Once the helper
        // runs jobs it claims that part long before the caller is done
        // with the lower one, and its handle, taken to join it, shows the
        // panic came from there; the caller resumes it.
        let large = Large::new();
        let rows = 0..Large::ROWS + 32;
        let from_helper = with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            (0..100).any(|_| {
                large.run(cores, 1000);
                let mut out = vec![0.0f32; rows.len()];
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cores.run(large.gemm(), &mut out, &large.1, rows.clone(), 1);
                }));
                let panic = caught.expect_err("a GEMM past the matrix panics");
                let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(message, "rows past the matrix");
                cores.helper.is_none()
            })
        });
        assert!(from_helper, "the helper never ran the panicking part");
    }
}
