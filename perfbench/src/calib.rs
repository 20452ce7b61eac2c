//! The benchmark's own calibration kernel.
//!
//! Hosts differ in speed, and a shared host changes speed from second
//! to second: a neighbour on the same core or cache slows arithmetic,
//! memory, or the other virtual CPU, each by its own factor. The driver
//! runs this fixed piece of work after every op and divides host times
//! by how long it took, so a number says how fast the program is, not
//! how busy the host was. The kernel is the benchmark's, not the
//! program's: no change to the repository can move the yardstick.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

const N: usize = 96;
/// Words in the walked buffer (4 MiB, larger than L2).
const HEAP_WORDS: usize = 1 << 19;
/// Steps of the dependent walk per tick.
const WALK_STEPS: usize = 4096;

/// Milliseconds each part of the kernel took in one tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tick {
    /// A vectorizable `N³` f32 matmul on the calling thread.
    pub compute_ms: f64,
    /// The same matmul on the calling thread and on a second thread at
    /// once, until both are done: what a two-thread parallel region or a
    /// server thread sees when the other virtual CPU is contended.
    pub parallel_ms: f64,
    /// A dependent walk through a buffer larger than L2.
    pub memory_ms: f64,
}

/// How strongly a workload's time follows each part of the kernel: when
/// a part runs `k` times slower than on the reference host, the
/// workload is taken to run `k` to that part's power slower. Frozen per
/// workload (README, "Calibration"), from a least-squares fit of op
/// durations against the parts over quiet and busy spells of the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    pub compute: f64,
    pub parallel: f64,
    pub memory: f64,
}

/// What one tick takes on the reference host (the one the parameters
/// were frozen on, with quiet neighbours). A host time divided by the
/// slowdown against this reads as milliseconds on that host.
pub const REFERENCE: Tick = Tick {
    compute_ms: 0.083,
    parallel_ms: 0.21,
    memory_ms: 0.185,
};

/// Ticks on either side of an op that its slowdown is the median over.
const NEIGHBOURS: usize = 5;

impl Mix {
    /// How much slower than on the reference host the workload runs
    /// when the kernel ticks like `t`.
    pub fn slowdown(&self, t: &Tick) -> f64 {
        (t.compute_ms / REFERENCE.compute_ms).powf(self.compute)
            * (t.parallel_ms / REFERENCE.parallel_ms).powf(self.parallel)
            * (t.memory_ms / REFERENCE.memory_ms).powf(self.memory)
    }
}

/// Median of each part over `ticks` (all zero for none).
pub fn median_tick(ticks: &[Tick]) -> Tick {
    let part = |f: fn(&Tick) -> f64| crate::stats::median(&ticks.iter().map(f).collect::<Vec<_>>());
    Tick {
        compute_ms: part(|t| t.compute_ms),
        parallel_ms: part(|t| t.parallel_ms),
        memory_ms: part(|t| t.memory_ms),
    }
}

/// The host's slowdown around each op: `mix` applied to the median tick
/// of the op's neighbourhood, so one interrupted tick moves nothing.
pub fn slowdowns(ticks: &[Tick], mix: &Mix) -> Vec<f64> {
    (0..ticks.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(ticks.len());
            mix.slowdown(&median_tick(&ticks[lo..hi]))
        })
        .collect()
}

struct Matmul {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Matmul {
    fn new() -> Self {
        let fill = |seed: u32| -> Vec<f32> {
            (0..N * N)
                .map(|i| {
                    let bits = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 8;
                    bits as f32 / (1u32 << 24) as f32
                })
                .collect()
        };
        Matmul {
            a: fill(1),
            b: fill(2),
            c: vec![0.0; N * N],
        }
    }

    fn run(&mut self) {
        let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
        self.c.fill(0.0);
        for i in 0..N {
            let row = &mut self.c[i * N..(i + 1) * N];
            for k in 0..N {
                let aik = a[i * N + k];
                for (out, bkj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *out += aik * bkj;
                }
            }
        }
        std::hint::black_box(&self.c);
    }
}

/// The second thread of the parallel part: runs one matmul per request.
struct Helper {
    go: Sender<()>,
    done: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Self {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name("perfbench-calib".into())
            .spawn(move || {
                let mut work = Matmul::new();
                // Ends when the calibrator drops its sender.
                while go_rx.recv().is_ok() {
                    work.run();
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
            })
            .expect("calibration thread spawns");
        Helper {
            go,
            done,
            thread: Some(thread),
        }
    }
}

pub struct Calibrator {
    work: Matmul,
    heap: Vec<u64>,
    helper: Helper,
}

impl Calibrator {
    pub fn new() -> Self {
        // One cycle through the buffer: each word holds the index of the
        // next, a large odd stride away.
        let heap = (0..HEAP_WORDS)
            .map(|i| ((i + 300_007) % HEAP_WORDS) as u64)
            .collect();
        Calibrator {
            work: Matmul::new(),
            heap,
            helper: Helper::spawn(),
        }
    }

    /// Run the kernel once.
    pub fn tick(&mut self) -> Tick {
        let t0 = Instant::now();
        self.work.run();
        let compute_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        self.helper
            .go
            .send(())
            .expect("calibration thread is alive");
        self.work.run();
        self.helper
            .done
            .recv()
            .expect("calibration thread is alive");
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let mut at = 0usize;
        for _ in 0..WALK_STEPS {
            at = self.heap[at] as usize;
        }
        std::hint::black_box(at);
        let memory_ms = t2.elapsed().as_secs_f64() * 1e3;

        Tick {
            compute_ms,
            parallel_ms,
            memory_ms,
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Hang up so the helper's receive fails and it returns; then join.
        let (closed, _) = channel::<()>();
        drop(std::mem::replace(&mut self.helper.go, closed));
        if let Some(t) = self.helper.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaled(k: f64) -> Tick {
        Tick {
            compute_ms: REFERENCE.compute_ms * k,
            parallel_ms: REFERENCE.parallel_ms * k,
            memory_ms: REFERENCE.memory_ms * k,
        }
    }

    const MIX: Mix = Mix {
        compute: 0.5,
        parallel: 0.3,
        memory: 0.2,
    };

    #[test]
    fn reference_host_has_slowdown_one_and_parts_compound() {
        assert!((MIX.slowdown(&REFERENCE) - 1.0).abs() < 1e-12);
        // Powers summing to 1: a host uniformly 1.5x slower reads 1.5.
        assert!((MIX.slowdown(&scaled(1.5)) - 1.5).abs() < 1e-12);
        // Only memory 3x slower: 3^0.2.
        let mut t = REFERENCE;
        t.memory_ms *= 3.0;
        assert!((MIX.slowdown(&t) - 3f64.powf(0.2)).abs() < 1e-12);
    }

    #[test]
    fn one_interrupted_tick_moves_no_slowdown() {
        let mut ticks = vec![scaled(1.0); 21];
        ticks[10] = scaled(40.0);
        assert!(slowdowns(&ticks, &MIX)
            .iter()
            .all(|s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn a_slow_spell_is_followed() {
        let mut ticks = vec![scaled(1.0); 40];
        ticks.extend(vec![scaled(1.6); 40]);
        let s = slowdowns(&ticks, &MIX);
        assert!((s[10] - 1.0).abs() < 1e-12);
        assert!((s[70] - 1.6).abs() < 1e-12);
    }

    #[test]
    fn calibrator_ticks_and_shuts_its_thread_down() {
        let mut c = Calibrator::new();
        let t = c.tick();
        assert!(t.compute_ms > 0.0 && t.parallel_ms >= t.compute_ms * 0.5 && t.memory_ms > 0.0);
        drop(c);
    }
}
