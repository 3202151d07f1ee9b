//! Criterion benchmarks of the lossless codec substrates (the components
//! cuSZ/MGARD depend on and FZ-GPU replaces), plus the CPU bitshuffle.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fzgpu_codecs::huffman::{self, Codebook};
use fzgpu_codecs::{deflate, lz77, rle};
use fzgpu_core::bitshuffle;
use std::hint::black_box;

fn quantlike_symbols(n: usize) -> Vec<u16> {
    // Skewed, SZ-quant-code-like distribution around a center symbol.
    (0..n)
        .map(|i| {
            let r = (i as u32).wrapping_mul(2654435761) >> 24;
            match r {
                0..=200 => 512,
                201..=230 => 511,
                231..=250 => 513,
                _ => (500 + (r % 24)) as u16,
            }
        })
        .collect()
}

fn bench_huffman(c: &mut Criterion) {
    let symbols = quantlike_symbols(1 << 16);
    let mut hist = vec![0u32; 1024];
    for &s in &symbols {
        hist[s as usize] += 1;
    }
    let book = Codebook::from_histogram(&hist).unwrap();
    let encoded = huffman::encode_chunked(&book, &symbols, 4096).unwrap();

    let mut g = c.benchmark_group("huffman");
    g.sample_size(20);
    g.throughput(Throughput::Bytes((symbols.len() * 2) as u64));
    g.bench_function("build_codebook_1024", |b| {
        b.iter(|| black_box(Codebook::from_histogram(&hist).unwrap()));
    });
    g.bench_function("encode_chunked", |b| {
        b.iter(|| black_box(huffman::encode_chunked(&book, &symbols, 4096).unwrap()));
    });
    g.bench_function("decode_chunked", |b| {
        b.iter(|| black_box(huffman::decode_chunked(&book, &encoded).unwrap()));
    });
    g.finish();
}

fn bench_deflate(c: &mut Criterion) {
    let data: Vec<u8> = (0..1 << 16)
        .map(|i: u32| if i % 11 < 7 { 0 } else { (i.wrapping_mul(2654435761) >> 27) as u8 })
        .collect();
    let compressed = deflate::compress(&data);
    let mut g = c.benchmark_group("deflate");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress", |b| b.iter(|| black_box(deflate::compress(&data))));
    g.bench_function("decompress", |b| {
        b.iter(|| black_box(deflate::decompress(&compressed, data.len()).unwrap()))
    });
    g.finish();
}

fn bench_lz77_rle(c: &mut Criterion) {
    let bytes: Vec<u8> =
        (0..1 << 16).map(|i: u32| if i % 13 < 9 { 0 } else { (i % 7) as u8 }).collect();
    let symbols = quantlike_symbols(1 << 16);
    let mut g = c.benchmark_group("dictionary");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("lz77_tokenize", |b| b.iter(|| black_box(lz77::tokenize(&bytes))));
    g.bench_function("rle_encode", |b| b.iter(|| black_box(rle::encode(&symbols))));
    g.finish();
}

fn bench_cpu_bitshuffle(c: &mut Criterion) {
    let words: Vec<u32> = (0..1 << 16).map(|i: u32| (i % 9) | ((i % 5) << 16)).collect();
    let shuffled = bitshuffle::shuffle(&words);
    let mut g = c.benchmark_group("cpu_bitshuffle");
    g.sample_size(20);
    g.throughput(Throughput::Bytes((words.len() * 4) as u64));
    g.bench_function("shuffle", |b| b.iter(|| black_box(bitshuffle::shuffle(&words))));
    g.bench_function("unshuffle", |b| b.iter(|| black_box(bitshuffle::unshuffle(&shuffled))));
    g.finish();
}

criterion_group!(benches, bench_huffman, bench_deflate, bench_lz77_rle, bench_cpu_bitshuffle);
criterion_main!(benches);
