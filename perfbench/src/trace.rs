//! Tracing from outside the program: a counting global allocator, an
//! in-memory span recorder, and a timing adapter around any `BprModel`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pup_models::BprModel;
use pup_tensor::Var;
use rand::rngs::StdRng;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (all threads) while
/// [`count_allocs`] is on. Off, it costs one relaxed load per call.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

struct SpanRec {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory spans of one traced run, written out once at the end.
pub struct Spans {
    epoch: Instant,
    on: bool,
    inner: Mutex<(Vec<SpanRec>, Vec<u32>)>,
}

/// An open span; closes on drop.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: Option<u32>,
    start: Instant,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self { epoch: Instant::now(), on, inner: Mutex::new((Vec::new(), Vec::new())) }
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let start = Instant::now();
        if !self.on {
            return SpanGuard { spans: self, id: None, start };
        }
        let mut g = self.inner.lock().expect("span recorder poisoned");
        let (recs, stack) = &mut *g;
        let id = recs.len() as u32;
        recs.push(SpanRec {
            id,
            parent: stack.last().copied(),
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
        });
        stack.push(id);
        SpanGuard { spans: self, id: Some(id), start }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if !self.on {
            return Ok(());
        }
        let g = self.inner.lock().expect("span recorder poisoned");
        let mut out = String::new();
        for s in &g.0 {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}\n",
                s.id, s.name, s.start_ns, s.dur_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(out.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", g.0.len(), path.display());
        Ok(())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let dur = self.start.elapsed().as_nanos() as u64;
        if let Ok(mut g) = self.spans.inner.lock() {
            let (recs, stack) = &mut *g;
            if let Some(rec) = recs.get_mut(id as usize) {
                rec.dur_ns = dur;
            }
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.truncate(pos);
            }
        }
    }
}

/// Wraps a model so the trainer's own `run_epoch` calls can be split into
/// propagation (`begin_step`) and decoding (`score_batch`) time.
pub struct TimedModel<'a, M> {
    pub inner: &'a mut M,
    pub propagate: Duration,
    pub decode: Duration,
    pub steps: u64,
}

impl<'a, M> TimedModel<'a, M> {
    pub fn new(inner: &'a mut M) -> Self {
        Self { inner, propagate: Duration::ZERO, decode: Duration::ZERO, steps: 0 }
    }
}

impl<M: BprModel> BprModel for TimedModel<'_, M> {
    fn begin_step(&mut self, rng: &mut StdRng) {
        let t = Instant::now();
        self.inner.begin_step(rng);
        self.propagate += t.elapsed();
        self.steps += 1;
    }

    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
        let t = Instant::now();
        let v = self.inner.score_batch(users, items);
        self.decode += t.elapsed();
        v
    }

    fn params(&self) -> Vec<Var> {
        self.inner.params()
    }

    fn finalize(&mut self) {
        self.inner.finalize();
    }
}
