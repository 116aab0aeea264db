//! The reference clock of `pipeline`: a fixed calibration kernel timed
//! between units, so unit times can be reported as if the machine ran at a
//! constant speed.
//!
//! On a shared VM the core under a single-threaded run changes speed by up
//! to 1.8× within seconds and by 1.6× within half an hour, with no CPU
//! steal to show for it (see `STEADINESS.md`): wall time then measures the
//! neighbours as much as the program. The kernel is benchmark code that no
//! change to the program can touch, so a stretch of wall time scaled by
//! `NOMINAL_S` over the kernel's time measured next to it is the time the
//! stretch would take on a machine where the kernel takes exactly
//! `NOMINAL_S`; a slower program still reads slower on that clock.

use std::time::Instant;

/// Kernel time, in seconds, of the reference machine: about what one
/// kernel run takes on a 2-vCPU x86-64 VM when its core runs at full speed.
pub const NOMINAL_S: f64 = 1.25e-3;
/// Kernel runs per measurement; their median is taken, so an interrupt
/// that lands in one run does not skew the reading.
const REPEATS: usize = 3;
/// Loop trips of one kernel run.
const TRIPS: u64 = 40_000;
/// The kernel's table: 256 KiB, larger than L1 and well inside L2.
const TABLE_WORDS: usize = 32 * 1024;

/// Times the calibration kernel.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE_WORDS],
        }
    }

    /// Median wall seconds of `REPEATS` kernel runs.
    pub fn measure(&mut self) -> f64 {
        let mut times = [0.0; REPEATS];
        for t in &mut times {
            let start = Instant::now();
            std::hint::black_box(kernel(&mut self.table));
            *t = start.elapsed().as_secs_f64();
        }
        crate::stats::median(&times)
    }
}

/// Factor from wall seconds to reference seconds for a stretch with
/// kernel readings `before` and `after` it.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

/// Fixed work in the pipeline's mix: data-dependent branches, integer
/// arithmetic, scattered reads and writes over an L2-sized table, and an
/// ordered map that allocates and chases pointers. Returns a checksum.
fn kernel(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let mut map = std::collections::BTreeMap::new();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0_u64);
    for i in 0..TRIPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = x as usize & mask;
        table[at] = table[at].wrapping_add(i);
        match x & 3 {
            0 => {
                map.insert(x & 1023, i);
            }
            1 => acc = acc.wrapping_add(map.get(&(x & 1023)).copied().unwrap_or(1)),
            _ => acc = acc.wrapping_mul(31).wrapping_add(table[(at * 7) & mask]),
        }
    }
    acc ^ map.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_its_work() {
        let mut table = vec![0; TABLE_WORDS];
        let first = kernel(&mut table);
        assert_eq!(kernel(&mut table), first);
    }

    #[test]
    fn scale_maps_nominal_speed_to_one() {
        assert!((scale(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        // A machine at half speed takes twice the kernel time: halve its times.
        assert!((scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
        assert!((scale(NOMINAL_S, 3.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }
}
