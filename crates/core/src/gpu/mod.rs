//! GPU kernel implementations of the FZ-GPU pipeline, written against the
//! warp-synchronous simulator in [`fzgpu_sim`].

pub mod bitshuffle;
pub mod decode;
pub mod encode;
pub mod fused;
pub mod quant;

/// Pipeline stage a kernel (by launch name) belongs to, for grouped
/// profiling reports. Names follow the conventions of this module tree:
/// `pred_quant_*`, `bitshuffle_*`/`mark_*`, `scan.*`, `encode.*`,
/// `decode.*`, `fused.*`.
pub fn stage_of(kernel_name: &str) -> &'static str {
    if kernel_name.starts_with("pred_quant") || kernel_name.starts_with("fused.quant") {
        "quantize"
    } else if kernel_name.starts_with("bitshuffle") || kernel_name.starts_with("mark") {
        "shuffle"
    } else if kernel_name.starts_with("scan.") || kernel_name == "encode.widen_flags" {
        "scan"
    } else if kernel_name.starts_with("encode.") {
        "compact"
    } else if kernel_name == "decode.expand_flags" || kernel_name == "decode.scatter" {
        "scatter"
    } else if kernel_name == "decode.bit_unshuffle" {
        "unshuffle"
    } else if kernel_name.starts_with("decode.integrate_") {
        "integrate"
    } else if kernel_name.starts_with("decode.") {
        "dequantize"
    } else {
        "other"
    }
}

#[cfg(test)]
mod tests {
    use super::stage_of;

    #[test]
    fn every_pipeline_kernel_has_a_stage() {
        for (name, stage) in [
            ("pred_quant_v2", "quantize"),
            ("pred_quant_v1", "quantize"),
            ("fused.quant_shuffle_mark_1d", "quantize"),
            ("bitshuffle_mark_fused", "shuffle"),
            ("bitshuffle_mark_fused_unpadded", "shuffle"),
            ("bitshuffle_v1", "shuffle"),
            ("mark_v1", "shuffle"),
            ("scan.tiles", "scan"),
            ("scan.add_offsets", "scan"),
            ("encode.widen_flags", "scan"),
            ("encode.compact", "compact"),
            ("decode.expand_flags", "scatter"),
            ("decode.scatter", "scatter"),
            ("decode.bit_unshuffle", "unshuffle"),
            ("decode.codes_to_deltas", "dequantize"),
            ("decode.integrate_x", "integrate"),
            ("decode.integrate_x_carry", "integrate"),
            ("decode.integrate_y", "integrate"),
            ("decode.integrate_y_carry", "integrate"),
            ("decode.integrate_z", "integrate"),
            ("decode.integrate_z_carry", "integrate"),
            ("decode.dequantize", "dequantize"),
            ("cusz.huffman_encode", "other"),
        ] {
            assert_eq!(stage_of(name), stage, "{name}");
        }
    }
}
