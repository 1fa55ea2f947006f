//! The five HeCBench programs of §7.7 (Table 2/3).
//!
//! Chosen by the paper "because they contain kernels that are used in
//! Computer Vision, Machine Learning, and Simulation". Each module
//! documents which issues OMPDataPerf reports, which (false-positive)
//! anomalies Arbalest-Vec reports, and what the §7.7 fix changes.

pub(crate) mod accuracy;
pub(crate) mod bspline;
pub(crate) mod lif;
pub(crate) mod mandelbrot;
pub(crate) mod resize;
