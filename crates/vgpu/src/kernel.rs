//! Kernel registry: named compute kernels with a functional body and a
//! timing model.
//!
//! Mirrors the CUDA driver API's module/function machinery
//! (`cuModuleGetFunction` → launch): the middleware launches kernels *by
//! name* with an argument list, exactly like the paper's
//! `acKernelCreate(k_name, …)` / `acKernelSetArgs` / `acKernelRun` API.

use std::collections::HashMap;
use std::sync::Arc;

use dacc_sim::prelude::*;
use parking_lot::Mutex;

use crate::memory::{DeviceMem, DevicePtr, MemError};
use crate::params::GpuParams;

/// A kernel launch configuration (grid and block dimensions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LaunchConfig {
    /// Grid dimensions.
    pub grid: (u32, u32, u32),
    /// Block dimensions.
    pub block: (u32, u32, u32),
}

impl LaunchConfig {
    /// 1-D launch: `blocks × threads`.
    pub fn linear(blocks: u32, threads: u32) -> Self {
        LaunchConfig {
            grid: (blocks, 1, 1),
            block: (threads, 1, 1),
        }
    }

    /// Total thread count.
    pub fn threads(&self) -> u64 {
        let g = self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64;
        let b = self.block.0 as u64 * self.block.1 as u64 * self.block.2 as u64;
        g * b
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig::linear(1, 1)
    }
}

/// One kernel argument.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KernelArg {
    /// A device pointer.
    Ptr(DevicePtr),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A double.
    F64(f64),
}

impl KernelArg {
    /// Interpret as a device pointer.
    pub fn ptr(&self) -> Result<DevicePtr, KernelError> {
        match self {
            KernelArg::Ptr(p) => Ok(*p),
            other => Err(KernelError::BadArg(format!("expected Ptr, got {other:?}"))),
        }
    }

    /// Interpret as a `u64`.
    pub fn u64(&self) -> Result<u64, KernelError> {
        match self {
            KernelArg::U64(v) => Ok(*v),
            KernelArg::I64(v) if *v >= 0 => Ok(*v as u64),
            other => Err(KernelError::BadArg(format!("expected U64, got {other:?}"))),
        }
    }

    /// Interpret as a `usize`.
    pub fn usize(&self) -> Result<usize, KernelError> {
        Ok(self.u64()? as usize)
    }

    /// Interpret as an `f64`.
    pub fn f64(&self) -> Result<f64, KernelError> {
        match self {
            KernelArg::F64(v) => Ok(*v),
            other => Err(KernelError::BadArg(format!("expected F64, got {other:?}"))),
        }
    }
}

/// Errors from kernel registration or launch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KernelError {
    /// No kernel registered under this name.
    UnknownKernel(String),
    /// Argument list did not match the kernel's expectation.
    BadArg(String),
    /// A device memory access inside the kernel failed.
    Mem(MemError),
    /// The kernel body reported a failure.
    Failed(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownKernel(n) => write!(f, "unknown kernel '{n}'"),
            KernelError::BadArg(m) => write!(f, "bad kernel argument: {m}"),
            KernelError::Mem(e) => write!(f, "kernel memory error: {e}"),
            KernelError::Failed(m) => write!(f, "kernel failed: {m}"),
        }
    }
}
impl std::error::Error for KernelError {}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> Self {
        KernelError::Mem(e)
    }
}

/// Functional body: reads/writes device memory.
pub type KernelBody =
    Arc<dyn Fn(&mut DeviceMem, &LaunchConfig, &[KernelArg]) -> Result<(), KernelError>>;

/// Timing model: virtual execution time for a launch.
pub type KernelCost = Arc<dyn Fn(&LaunchConfig, &[KernelArg], &GpuParams) -> SimDuration>;

#[derive(Clone)]
pub(crate) struct KernelDef {
    /// How many arguments the cost model and the body read.
    pub arity: usize,
    pub body: KernelBody,
    pub cost: KernelCost,
}

impl KernelDef {
    /// Refuse an argument list shorter than the kernel reads, before its
    /// cost model or body indexes into it.
    pub fn check_arity(&self, name: &str, args: &[KernelArg]) -> Result<(), KernelError> {
        if args.len() < self.arity {
            let (want, got) = (self.arity, args.len());
            let why = format!("{name} takes {want} arguments, got {got}");
            return Err(KernelError::BadArg(why));
        }
        Ok(())
    }
}

/// A registry of named kernels, shared by all devices of a simulation
/// (like a CUDA module loaded on every device).
#[derive(Clone, Default)]
pub struct KernelRegistry {
    kernels: Arc<Mutex<HashMap<String, KernelDef>>>,
}

impl KernelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a kernel under `name`, replacing any previous definition.
    /// Its cost model and body may index the first `arity` arguments: a
    /// launch with fewer is refused before either runs.
    pub fn register<B, C>(&self, name: &str, arity: usize, cost: C, body: B)
    where
        B: Fn(&mut DeviceMem, &LaunchConfig, &[KernelArg]) -> Result<(), KernelError> + 'static,
        C: Fn(&LaunchConfig, &[KernelArg], &GpuParams) -> SimDuration + 'static,
    {
        self.kernels.lock().insert(
            name.to_owned(),
            KernelDef {
                arity,
                body: Arc::new(body),
                cost: Arc::new(cost),
            },
        );
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.kernels.lock().contains_key(name)
    }

    /// Registered kernel names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.kernels.lock().keys().cloned().collect();
        v.sort();
        v
    }

    pub(crate) fn get(&self, name: &str) -> Result<KernelDef, KernelError> {
        self.kernels
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| KernelError::UnknownKernel(name.to_owned()))
    }
}

/// Register the built-in demonstration kernels on `reg`:
///
/// * `fill_f64(ptr, n, value)` — set `n` doubles to `value`.
/// * `daxpy(x, y, n, alpha)` — `y ← αx + y`.
/// * `vec_add(a, b, c, n)` — `c ← a + b`.
/// * `reduce_sum(src, dst, n)` — `dst[0] ← Σ src[0..n]`.
///
/// Their cost models charge `n` flop-equivalents at a memory-bound fraction
/// of device peak — adequate for examples and tests.
pub fn register_builtin_kernels(reg: &KernelRegistry) {
    let streaming_cost = |elems: u64, p: &GpuParams| {
        // Streaming kernels run at ~1/8 of fp64 peak (bandwidth-bound).
        SimDuration::from_secs_f64(elems as f64 / (p.fp64_peak_flops / 8.0))
    };

    reg.register(
        "fill_f64",
        3,
        move |_cfg, args, p| streaming_cost(args[1].u64().unwrap_or(0), p),
        |mem, _cfg, args| {
            let (ptr, n, v) = (args[0].ptr()?, args[1].usize()?, args[2].f64()?);
            mem.fill_f64(ptr, n, v)?;
            Ok(())
        },
    );

    reg.register(
        "daxpy",
        4,
        move |_cfg, args, p| streaming_cost(args[2].u64().unwrap_or(0).saturating_mul(2), p),
        |mem, _cfg, args| {
            let (x, y, n, a) = (
                args[0].ptr()?,
                args[1].ptr()?,
                args[2].usize()?,
                args[3].f64()?,
            );
            let xs = mem.read_f64(x, n)?;
            let mut ys = mem.read_f64(y, n)?;
            for (yi, xi) in ys.iter_mut().zip(&xs) {
                *yi += a * xi;
            }
            mem.write_f64(y, &ys)?;
            Ok(())
        },
    );

    reg.register(
        "vec_add",
        4,
        move |_cfg, args, p| streaming_cost(args[3].u64().unwrap_or(0), p),
        |mem, _cfg, args| {
            let (a, b, c, n) = (
                args[0].ptr()?,
                args[1].ptr()?,
                args[2].ptr()?,
                args[3].usize()?,
            );
            let va = mem.read_f64(a, n)?;
            let vb = mem.read_f64(b, n)?;
            let vc: Vec<f64> = va.iter().zip(&vb).map(|(x, y)| x + y).collect();
            mem.write_f64(c, &vc)?;
            Ok(())
        },
    );

    reg.register(
        "reduce_sum",
        3,
        move |_cfg, args, p| streaming_cost(args[2].u64().unwrap_or(0), p),
        |mem, _cfg, args| {
            let (src, dst, n) = (args[0].ptr()?, args[1].ptr()?, args[2].usize()?);
            let v = mem.read_f64(src, n)?;
            mem.write_f64(dst, &[v.iter().sum()])?;
            Ok(())
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExecMode;

    #[test]
    fn registry_lookup_and_names() {
        let reg = KernelRegistry::new();
        register_builtin_kernels(&reg);
        assert!(reg.contains("daxpy"));
        assert!(!reg.contains("nope"));
        assert_eq!(
            reg.names(),
            vec!["daxpy", "fill_f64", "reduce_sum", "vec_add"]
        );
        assert!(matches!(
            reg.get("nope"),
            Err(KernelError::UnknownKernel(_))
        ));
    }

    #[test]
    fn builtin_bodies_compute() {
        let reg = KernelRegistry::new();
        register_builtin_kernels(&reg);
        let mut mem = DeviceMem::new(1 << 20, ExecMode::Functional);
        let x = mem.alloc(80).unwrap();
        let y = mem.alloc(80).unwrap();
        let cfg = LaunchConfig::linear(1, 10);

        let fill = reg.get("fill_f64").unwrap();
        (fill.body)(
            &mut mem,
            &cfg,
            &[KernelArg::Ptr(x), KernelArg::U64(10), KernelArg::F64(2.0)],
        )
        .unwrap();
        (fill.body)(
            &mut mem,
            &cfg,
            &[KernelArg::Ptr(y), KernelArg::U64(10), KernelArg::F64(1.0)],
        )
        .unwrap();

        let daxpy = reg.get("daxpy").unwrap();
        (daxpy.body)(
            &mut mem,
            &cfg,
            &[
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U64(10),
                KernelArg::F64(3.0),
            ],
        )
        .unwrap();
        assert_eq!(mem.read_f64(y, 10).unwrap(), vec![7.0; 10]);
    }

    #[test]
    fn reduce_sum_sums() {
        let reg = KernelRegistry::new();
        register_builtin_kernels(&reg);
        let mut mem = DeviceMem::new(1 << 20, ExecMode::Functional);
        let src = mem.alloc(8 * 100).unwrap();
        let dst = mem.alloc(8).unwrap();
        mem.write_f64(src, &(1..=100).map(f64::from).collect::<Vec<_>>())
            .unwrap();
        let k = reg.get("reduce_sum").unwrap();
        (k.body)(
            &mut mem,
            &LaunchConfig::default(),
            &[
                KernelArg::Ptr(src),
                KernelArg::Ptr(dst),
                KernelArg::U64(100),
            ],
        )
        .unwrap();
        assert_eq!(mem.read_f64(dst, 1).unwrap(), vec![5050.0]);
    }

    #[test]
    fn arg_type_mismatch_is_reported() {
        let a = KernelArg::U64(5);
        assert!(a.ptr().is_err());
        assert!(a.f64().is_err());
        assert_eq!(a.usize().unwrap(), 5);
        assert_eq!(KernelArg::I64(7).u64().unwrap(), 7);
        assert!(KernelArg::I64(-7).u64().is_err());
    }

    #[test]
    fn cost_scales_with_size() {
        let reg = KernelRegistry::new();
        register_builtin_kernels(&reg);
        let p = GpuParams::tesla_c1060();
        let k = reg.get("fill_f64").unwrap();
        let cfg = LaunchConfig::default();
        let c1 = (k.cost)(
            &cfg,
            &[
                KernelArg::Ptr(DevicePtr(0)),
                KernelArg::U64(1000),
                KernelArg::F64(0.0),
            ],
            &p,
        );
        let c2 = (k.cost)(
            &cfg,
            &[
                KernelArg::Ptr(DevicePtr(0)),
                KernelArg::U64(2000),
                KernelArg::F64(0.0),
            ],
            &p,
        );
        // Linear in n up to nanosecond rounding.
        let diff = c2.as_nanos() as i64 - 2 * c1.as_nanos() as i64;
        assert!(diff.abs() <= 1, "c1={c1}, c2={c2}");
    }

    #[test]
    fn launch_config_threads() {
        let cfg = LaunchConfig {
            grid: (4, 2, 1),
            block: (128, 1, 1),
        };
        assert_eq!(cfg.threads(), 1024);
        assert_eq!(LaunchConfig::linear(8, 256).threads(), 2048);
    }
}
