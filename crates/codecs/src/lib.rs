//! # fzgpu-codecs — lossless codec substrates
//!
//! Every entropy / dictionary coder the FZ-GPU paper's ecosystem depends
//! on, implemented from scratch:
//!
//! - [`bitio`] — LSB-first bit readers/writers.
//! - [`bitpack`] — fixed-width field packing (cuSZx's non-constant blocks).
//! - [`huffman`] — canonical Huffman with cuSZ-style coarse-grained chunked
//!   encoding (the component FZ-GPU's pipeline removes).
//! - [`rle`] — run-length encoding (cuSZ+RLE related-work variant).
//! - [`lz77`] — greedy hash-chain dictionary coder (LZ4-class substitute).
//! - [`deflate`] — LZ77 + Huffman composition (MGARD's lossless stage).
//! - [`wire`] — little-endian stream (de)serialization helpers.

pub mod bitio;
pub mod bitpack;
pub mod deflate;
pub mod huffman;
pub mod lz77;
pub mod rle;
pub mod wire;

pub use bitio::{BitReader, BitWriter};
pub use huffman::{Codebook, Decoder, HuffmanError};
