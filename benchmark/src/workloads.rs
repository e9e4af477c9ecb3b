//! The five benchmark workloads and the simulator configuration they run
//! under.

use coyote::{ProfMode, SimConfig};
use coyote_kernels::{MatmulScalar, SpmvScalar, SpmvVectorCsr, Workload};

/// Which kernel a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `MatmulScalar::new(n, seed)`.
    Matmul,
    /// `SpmvScalar::new(rows, rows, density, seed.wrapping_add(2))`.
    SpmvScalar,
    /// `SpmvVectorCsr::new(rows, rows, density, seed.wrapping_add(1))`.
    SpmvVector,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Kernel family.
    pub kernel: Kernel,
    /// Simulated cores.
    pub cores: usize,
    /// Whether every observability plane is on and every rep also runs
    /// the four exporters.
    pub observed: bool,
}

/// The workload set, in reporting order. `BENCHMARK.json` and
/// `README.md` record why each is here.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "matmul_1c",
        kernel: Kernel::Matmul,
        cores: 1,
        observed: false,
    },
    Spec {
        name: "matmul_128c",
        kernel: Kernel::Matmul,
        cores: 128,
        observed: false,
    },
    Spec {
        name: "spmv_128c",
        kernel: Kernel::SpmvScalar,
        cores: 128,
        observed: false,
    },
    Spec {
        name: "spmv_vec_64c",
        kernel: Kernel::SpmvVector,
        cores: 64,
        observed: false,
    },
    Spec {
        name: "matmul_128c_observed",
        kernel: Kernel::Matmul,
        cores: 128,
        observed: true,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Builds the kernel and its data. `seed` reaches only the data
    /// generators; the simulator sees the generated program and data.
    #[must_use]
    pub fn build(&self, seed: u64, quick: bool) -> Box<dyn Workload> {
        match self.kernel {
            Kernel::Matmul => Box::new(MatmulScalar::new(if quick { 24 } else { 96 }, seed)),
            Kernel::SpmvScalar => {
                let (n, density) = if quick { (128, 0.06) } else { (2048, 0.02) };
                Box::new(SpmvScalar::new(n, n, density, seed.wrapping_add(2)))
            }
            Kernel::SpmvVector => {
                let (n, density) = if quick { (128, 0.06) } else { (8192, 0.01) };
                Box::new(SpmvVectorCsr::new(n, n, density, seed.wrapping_add(1)))
            }
        }
    }

    /// The Figure 3 configuration (one host thread, no certificate,
    /// fusion on, interleave 1, 8 cores per tile, every other field at
    /// its default) with the observability planes set by `observed`.
    ///
    /// # Panics
    ///
    /// Panics if the fixed configuration is invalid (a harness bug).
    #[must_use]
    pub fn config(&self, observed: bool, profiling: ProfMode) -> SimConfig {
        SimConfig::builder()
            .cores(self.cores)
            .cores_per_tile(8)
            .jobs(1)
            .certify(false)
            .fusion(true)
            .interleave(1)
            .telemetry(observed)
            .trace(observed)
            .chrome_trace(observed)
            .profiling(profiling)
            .build()
            .expect("the benchmark configuration is valid")
    }
}
