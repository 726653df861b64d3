//! N-dimensional grid substrate for the `szhi` workspace.
//!
//! This crate provides the small set of array primitives every other crate in
//! the workspace builds on:
//!
//! * [`Dims`] — the shape of a 1-, 2- or 3-dimensional scalar field, with
//!   linearisation helpers (`x` is always the fastest-varying axis, matching
//!   the row-major `z × y × x` layout the cuSZ family uses).
//! * [`Grid`] — an owned, contiguous scalar field over a [`Dims`].
//! * `blocks` — the thread-block-style tiling used by the interpolation
//!   predictors: overlapping cubic tiles whose faces lie on the anchor grid.
//! * `chunks` — the non-overlapping, anchor-aligned chunk partition used
//!   by the chunk-parallel compression engine (one independent sub-field
//!   per chunk).
//! * [`Region`] — a rectangular sub-region of a grid (origin + extent).
//!
//! The cuSZ-Hi paper partitions data into 17×17×17 tiles whose corners are
//! anchor points with stride 16 (cuSZ-I uses 33×9×9 tiles with stride 8); the
//! [`blocks::BlockGrid`] iterator reproduces exactly that decomposition, with
//! shared faces so that every anchor plane belongs to the blocks on both of
//! its sides.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod blocks;
mod chunks;
mod dims;
mod grid;
mod region;

pub use blocks::{Block, BlockGrid};
pub use chunks::ChunkPlan;
pub use dims::Dims;
pub use grid::Grid;
pub use region::Region;
