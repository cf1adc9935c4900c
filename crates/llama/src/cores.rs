//! The walk's serial phases on both host cores (DESIGN.md §13): a large
//! GEMM's rows, or a layer's attention items, split between the calling
//! thread and one helper thread per [`with_cores`] scope; [`each`] splits
//! a list of independent tasks, a serve tick's draws, the same way. Each
//! output is still computed by one thread with the unchanged body, so the
//! split is bit-identical to the serial run; the caller runs every part a
//! late or descheduled helper has not taken.

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

/// Work of an items job (attention: multiply-adds) below which it stays
/// serial. A stories15M int8 walk's `mha` span with the bound at 0
/// (2-vCPU Xeon, median µs over 380 alternating walks, serial → split):
/// 57 K 179–228 → 196–217, 75 K (two rows) 396 → 299, 85 K 468 → 326,
/// 113 K 444 → 376, 169 K 1141 → 717. One row's six heads gain least:
/// 74 K 483 → 454, 145 K 712 → 640.
const MIN_ITEMS: usize = 1 << 16;

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

/// Independent items of one job ([`Cores::items`]): item `i` reads the
/// shared input and writes only its own [`Items::width`] floats of the
/// output, so which thread runs it cannot change a value.
pub trait Items: Sync {
    /// Output floats per item.
    fn width(&self) -> usize;

    /// Runs `items` over `input`, item `i` into `out[(i - items.start) *
    /// width..]`; `scratch` is the running thread's own.
    fn run(&self, items: Range<usize>, input: &[f32], out: &mut [f32], scratch: &mut Vec<f32>);
}

/// What a split hands out: a GEMM's rows at a batch width, or items.
#[derive(Clone, Copy)]
enum Job<'w> {
    Gemm(Gemm<'w>, usize),
    Items(&'w dyn Items),
}

impl Job<'_> {
    /// Output floats per row or item.
    fn width(self) -> usize {
        match self {
            Self::Gemm(_, batch) => batch,
            Self::Items(job) => job.width(),
        }
    }

    /// Rows or items `r` into `out`.
    fn run(self, out: &mut [f32], input: &[f32], r: Range<usize>, scratch: &mut Vec<f32>) {
        match self {
            Self::Gemm(g, batch) => g.run(out, input, r, batch),
            Self::Items(job) => job.run(r, input, out, scratch),
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

/// The helper's input, output and scratch, kept so splits allocate none.
#[derive(Clone, Debug, Default)]
pub struct Buffers(Vec<f32>, Vec<f32>, Vec<f32>);

/// The posted job and its first row or item, the rows no thread has
/// taken, the chunk (a multiple of the body's step) they go in, and how
/// many threads are blocked on a change.
#[derive(Default)]
struct State<'w> {
    job: Option<(Job<'w>, usize)>,
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

    /// A chunk of the rows left, with its job: from the front for the
    /// caller, from the back for the helper; `None` once the two have met.
    fn take(&self, back: bool) -> Option<(Job<'w>, usize, Range<usize>)> {
        let mut st = self.wait_for(|_| true);
        let (left, chunk, (job, first)) = (st.left.clone(), st.chunk, st.job?);
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
        Some((job, first, r))
    }

    /// The helper thread: runs chunks from the back until the scope ends.
    fn serve(&self) {
        while !self.wait_for(|s| !s.left.is_empty() || s.closed).closed {
            let mut buf = unpoison(self.buffers.lock());
            let Buffers(input, out, scratch) = &mut *buf;
            while let Some((job, first, r)) = self.take(true) {
                let w = job.width();
                let theirs = &mut out[(r.start - first) * w..(r.end - first) * w];
                job.run(theirs, input, r, scratch);
            }
        }
    }
}

/// The calling thread and, once a job is worth splitting, one helper
/// thread of the enclosing [`with_cores`] scope.
pub struct Cores<'scope, 'w> {
    scope: &'scope Scope<'scope, 'w>,
    mailbox: Arc<Mailbox<'w>>,
    /// `None` until the first split, then the helper if it started.
    helper: Option<Option<ScopedJoinHandle<'scope, ()>>>,
    /// Weight rows the helper has computed.
    helper_rows: usize,
    /// Items the helper has run.
    helper_items: usize,
}

impl<'w> Cores<'_, 'w> {
    /// [`Gemm::run`], bit for bit, its rows split with the helper when large
    /// enough to gain: in chunks of about an eighth, the caller's from the
    /// front, the helper's from the back, so a late helper holds up one.
    pub fn run(&mut self, g: Gemm<'w>, out: &mut [f32], xt: &[f32], rows: Range<usize>, b: usize) {
        let (cols, step) = g.shape();
        let small = rows.len() * cols * b < MIN_SPLIT || rows.len() < 2 * step;
        self.split(Job::Gemm(g, b), out, xt, rows, step, small, &mut Vec::new());
    }

    /// [`Items::run`] over `items`, bit for bit, split with the helper as
    /// [`Cores::run`] splits rows once the job's `work` reaches
    /// [`MIN_ITEMS`]. `scratch` is the caller's.
    pub fn items(
        &mut self,
        job: &'w dyn Items,
        out: &mut [f32],
        input: &[f32],
        items: Range<usize>,
        work: usize,
        scratch: &mut Vec<f32>,
    ) {
        let small = work < MIN_ITEMS || items.len() < 2;
        self.split(Job::Items(job), out, input, items, 1, small, scratch);
    }

    /// Runs `job` over `range` into `out`, serially when `small`, else
    /// split in chunks of a multiple of `step`.
    #[allow(clippy::too_many_arguments)]
    fn split(
        &mut self,
        job: Job<'w>,
        out: &mut [f32],
        input: &[f32],
        range: Range<usize>,
        step: usize,
        small: bool,
        scratch: &mut Vec<f32>,
    ) {
        let (scope, mailbox) = (self.scope, &self.mailbox);
        let spawn = || {
            static CPUS: OnceLock<usize> = OnceLock::new();
            let cpus = CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from));
            let (mailbox, builder) = (Arc::clone(mailbox), thread::Builder::new());
            // `spawn_scoped` returns a failed spawn; `Scope::spawn` panics.
            let spawn = || builder.spawn_scoped(scope, move || mailbox.serve()).ok();
            (*cpus > 1 && !REFUSE_SPAWN.get()).then(spawn).flatten()
        };
        if small || self.helper.get_or_insert_with(spawn).is_none() {
            return job.run(out, input, range, scratch);
        }
        let w = job.width();
        assert_eq!(out.len(), range.len() * w, "output shape mismatch");
        {
            let mut buf = unpoison(mailbox.buffers.lock());
            buf.0.clear();
            buf.0.extend_from_slice(input);
            // The helper writes every row it takes, so stale values may stay.
            buf.1.resize(out.len(), 0.0);
        }
        let mut st = mailbox.wait_for(|_| true);
        (st.job, st.left) = (Some((job, range.start)), range.clone());
        st.chunk = (range.len() / 8).max(1).next_multiple_of(step);
        mailbox.publish(st);
        while let Some((.., r)) = mailbox.take(false) {
            let own = &mut out[(r.start - range.start) * w..(r.end - range.start) * w];
            job.run(own, input, r, scratch);
        }
        let met = mailbox.wait_for(|_| true).left.start - range.start;
        // The helper holds the buffers while it runs its last chunk.
        if let Ok(buf) = mailbox.buffers.lock() {
            out[met * w..].copy_from_slice(&buf.1[met * w..]);
            match job {
                Job::Gemm(..) => self.helper_rows += range.len() - met,
                Job::Items(_) => self.helper_items += range.len() - met,
            }
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

/// Runs `f`, `work` multiply-adds, with a helper thread for the jobs it
/// runs through [`Cores::run`] and [`Cores::items`], spawned on the first
/// worth it and joined here. `buf` keeps its buffers between calls; its
/// rows and items add to `cpu.gemm_helper_rows` and `cpu.helper_items`.
pub fn with_cores<'w, R>(
    buf: &mut Buffers,
    work: usize,
    f: impl for<'s> FnOnce(&mut Cores<'s, 'w>) -> R,
) -> R {
    let mailbox = Arc::<Mailbox>::default();
    *unpoison(mailbox.buffers.lock()) = std::mem::take(buf);
    let (r, rows, items) = thread::scope(|scope| {
        let mailbox = Arc::clone(&mailbox);
        let mut cores = Cores {
            scope,
            mailbox,
            helper: (work < MIN_WALK).then_some(None),
            helper_rows: 0,
            helper_items: 0,
        };
        (f(&mut cores), cores.helper_rows, cores.helper_items)
    });
    *buf = std::mem::take(&mut *unpoison(mailbox.buffers.lock()));
    if tel::enabled() && rows > 0 {
        tel::metrics::counter_add("cpu.gemm_helper_rows", rows as u64);
    }
    if tel::enabled() && items > 0 {
        tel::metrics::counter_add("cpu.helper_items", items as u64);
    }
    r
}

/// Runs `f` on every element of `items`, as a loop over them would: the
/// caller takes elements from the front and, for two or more, one helper
/// thread from the back. Meant for tasks each worth well over a thread's
/// start and join (35 µs), such as a serve tick's temperature draws.
pub fn each<T: Send>(items: &mut [T], f: impl Fn(&mut T) + Sync) {
    /// Each element behind its own lock, taken by the one thread that
    /// runs it.
    struct Each<'a, T, F>(Vec<Mutex<&'a mut T>>, F);

    impl<T: Send, F: Fn(&mut T) + Sync> Items for Each<'_, T, F> {
        fn width(&self) -> usize {
            0
        }

        fn run(&self, items: Range<usize>, _: &[f32], _: &mut [f32], _: &mut Vec<f32>) {
            for item in &self.0[items] {
                let mut item = unpoison(item.lock());
                (self.1)(&mut item);
            }
        }
    }

    let job = Each(items.iter_mut().map(Mutex::new).collect(), f);
    let n = job.0.len();
    with_cores(&mut Buffers::default(), usize::MAX, |cores| {
        cores.items(&job, &mut [], &[], 0..n, usize::MAX, &mut Vec::new());
    });
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
        // A helper that never takes a chunk: the caller runs them all,
        // rows and items alike.
        let (large, dots) = (Large::new(), Dots::new());
        thread::scope(|scope| {
            let mailbox = Arc::<Mailbox>::default();
            let idle = Arc::clone(&mailbox);
            let helper = scope.spawn(move || drop(idle.wait_for(|s| s.closed)));
            let mut cores = Cores {
                scope,
                mailbox,
                helper: Some(Some(helper)),
                helper_rows: 0,
                helper_items: 0,
            };
            large.run(&mut cores, 3);
            assert_eq!(cores.helper_rows, 0);
            dots.run(&mut cores, 3);
            assert_eq!(cores.helper_items, 0);
        });
    }

    #[test]
    fn a_refused_spawn_falls_back_to_the_serial_gemm() {
        let (large, dots) = (Large::new(), Dots::new());
        with_spawn_refused(|| {
            with_cores(&mut Buffers::default(), usize::MAX, |cores| {
                large.run(cores, 2);
                dots.run(cores, 2);
                assert!(matches!(cores.helper, Some(None)));
                assert_eq!((cores.helper_rows, cores.helper_items), (0, 0));
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

    /// An items job: item `i` writes the `WIDTH` dots of matrix rows
    /// `i * WIDTH..` with the input, staged through the thread's scratch.
    struct Dots {
        w: Vec<f32>,
        input: Vec<f32>,
        serial: Vec<f32>,
    }

    impl Dots {
        const ITEMS: usize = 512;
        const WIDTH: usize = 3;

        fn new() -> Self {
            let mut w = vec![0.0f32; Self::ITEMS * Self::WIDTH * COLS];
            Xoshiro256::seed_from_u64(11).fill_normal(&mut w, 0.5);
            let mut dots = Self {
                w,
                input: activations(1, 12),
                serial: vec![0.0; Self::ITEMS * Self::WIDTH],
            };
            let mut serial = std::mem::take(&mut dots.serial);
            let all = 0..Self::ITEMS;
            Items::run(&dots, all, &dots.input, &mut serial, &mut Vec::new());
            dots.serial = serial;
            dots
        }

        /// Runs every item on `cores`, checking the result, `times` times
        /// or until the helper has run an item.
        fn run<'w>(&'w self, cores: &mut Cores<'_, 'w>, times: usize) {
            for _ in 0..times {
                let mut out = vec![f32::NAN; self.serial.len()];
                let mut scratch = Vec::new();
                let all = 0..Self::ITEMS;
                cores.items(self, &mut out, &self.input, all, usize::MAX, &mut scratch);
                assert_eq!(bits(&out), bits(&self.serial));
                if cores.helper_items > 0 {
                    return;
                }
            }
        }
    }

    impl Items for Dots {
        fn width(&self) -> usize {
            Self::WIDTH
        }

        fn run(&self, items: Range<usize>, input: &[f32], out: &mut [f32], scratch: &mut Vec<f32>) {
            for (i, out) in items.zip(out.chunks_exact_mut(Self::WIDTH)) {
                assert!(i < Self::ITEMS, "an item past the job");
                scratch.clear();
                let rows = self.w[i * Self::WIDTH * COLS..].chunks_exact(COLS);
                scratch.extend(rows.take(Self::WIDTH).map(|row| ops::dot(row, input)));
                out.copy_from_slice(scratch);
            }
        }
    }

    #[test]
    fn split_items_replay_the_serial_items_bit_for_bit() {
        // Every item range, cut anywhere, on the helper or not.
        let dots = Dots::new();
        let w = Dots::WIDTH;
        with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            for range in [0..Dots::ITEMS, 0..2, 5..6, 7..300, 300..Dots::ITEMS] {
                let want = &dots.serial[range.start * w..range.end * w];
                let mut out = vec![f32::NAN; range.len() * w];
                let mut scratch = Vec::new();
                cores.items(
                    &dots,
                    &mut out,
                    &dots.input,
                    range.clone(),
                    usize::MAX,
                    &mut scratch,
                );
                assert_eq!(bits(&out), bits(want), "items {range:?}");
            }
        });
    }

    #[test]
    fn a_free_helper_runs_items() {
        if thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        let dots = Dots::new();
        with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            dots.run(cores, 1000);
            assert!(cores.helper_items > 0, "the helper never ran an item");
        });
    }

    #[test]
    fn small_item_jobs_start_no_helper() {
        let dots = Dots::new();
        with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            let mut out = vec![0.0f32; Dots::ITEMS * Dots::WIDTH];
            let all = 0..Dots::ITEMS;
            cores.items(
                &dots,
                &mut out,
                &dots.input,
                all,
                MIN_ITEMS - 1,
                &mut Vec::new(),
            );
            let mut one = vec![0.0f32; Dots::WIDTH];
            cores.items(
                &dots,
                &mut one,
                &dots.input,
                3..4,
                usize::MAX,
                &mut Vec::new(),
            );
            assert!(cores.helper.is_none());
        });
    }

    #[test]
    fn a_panic_in_an_item_resumes_on_the_caller() {
        if thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        // Items past the job panic; once the helper runs items it claims
        // the last ones long before the caller reaches them, and the
        // caller resumes its panic, as for a GEMM.
        let dots = Dots::new();
        let items = 0..Dots::ITEMS + 8;
        let from_helper = with_cores(&mut Buffers::default(), usize::MAX, |cores| {
            (0..100).any(|_| {
                dots.run(cores, 1000);
                let mut out = vec![0.0f32; items.len() * Dots::WIDTH];
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut scratch = Vec::new();
                    cores.items(
                        &dots,
                        &mut out,
                        &dots.input,
                        items.clone(),
                        usize::MAX,
                        &mut scratch,
                    );
                }));
                let panic = caught.expect_err("an item past the job panics");
                let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(message, "an item past the job");
                cores.helper.is_none()
            })
        });
        assert!(from_helper, "the helper never ran the panicking item");
    }

    #[test]
    fn each_runs_every_element_once_on_either_core() {
        let two_cores = thread::available_parallelism().map_or(1, usize::from) >= 2;
        // Slow enough elements that a started helper takes some.
        let work = |(n, by): &mut (u64, Option<thread::ThreadId>)| {
            let mut x = *n;
            for _ in 0..200_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
            *n = x;
            assert!(
                by.replace(thread::current().id()).is_none(),
                "an element ran twice"
            );
        };
        let want: Vec<u64> = (0..8u64)
            .map(|n| {
                let mut e = (n, None);
                work(&mut e);
                e.0
            })
            .collect();
        let mut helped = false;
        for _ in 0..20 {
            let mut elems: Vec<_> = (0..8u64).map(|n| (n, None)).collect();
            each(&mut elems, work);
            assert_eq!(elems.iter().map(|e| e.0).collect::<Vec<_>>(), want);
            let caller = thread::current().id();
            helped |= elems.iter().any(|e| e.1 != Some(caller));
            if helped || !two_cores {
                break;
            }
        }
        assert_eq!(
            helped, two_cores,
            "elements ran on the helper iff there are two cores"
        );
        // A refused spawn runs them all on the caller.
        let mut elems: Vec<_> = (0..8u64).map(|n| (n, None)).collect();
        with_spawn_refused(|| each(&mut elems, work));
        assert!(elems.iter().all(|e| e.1 == Some(thread::current().id())));
    }
}
