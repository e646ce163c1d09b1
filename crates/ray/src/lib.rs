//! # pdc-ray — a mini ray tracer, three ways
//!
//! The paper's CS40 section proposes, as the integration capstone, "a
//! large multi-week project in which students develop a hybrid MPI/CUDA
//! ray tracer to run on GPU clusters". This crate is that project:
//! a small but real ray tracer (spheres, plane, Lambertian + specular
//! shading, hard shadows, mirror reflections) rendered by
//!
//! * [`render::render_sequential`] — the baseline;
//! * [`render::render_threaded`] — shared-memory row parallelism with a
//!   choice of loop schedule (ray tracing is the classic *irregular*
//!   workload where dynamic scheduling beats static);
//! * [`render::render_distributed`] — row bands over `pdc-mpi` ranks,
//!   gathered at rank 0 (the "cluster" dimension of the hybrid project);
//! * [`render::render_pool`] — rows mapped over the work-stealing pool,
//!   chunks of rows claimed as threads free up (the irregular-work load
//!   balancer);
//! * [`render::render_gpu`] — one simulated GPU thread per pixel on
//!   [`pdc_gpu`] (the "CUDA" dimension, with its cost model).
//!
//! All of them produce bit-identical images (tested), because every ray
//! is a pure function of the scene and its pixel — which also makes the
//! tracer an ideal [`scenario`] for cross-backend digest checks.
//!
//! * [`math`] — `Vec3` and rays.
//! * [`scene`] — geometry, materials, camera, and the demo scene.
//! * [`render`] — the renderers plus PPM output.
//! * [`scenario`] — the seam adapter ([`pdc_core::scenario`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;
pub mod render;
pub mod scenario;
pub mod scene;

pub use math::Vec3;
pub use render::{render_sequential, render_threaded, Image};
pub use scenario::RayScenario;
pub use scene::{Camera, Material, Scene, Sphere};
