#pragma once

#include <string>

namespace amdrel::workloads {

/// Real MiniC implementations of the paper's two applications (and a
/// small FIR used by the quickstart). These run through the whole
/// pipeline: front-end -> TAC -> interpreter (dynamic analysis) -> CDFG ->
/// partitioning. Bit-exact C++ golden references live in golden.h (OFDM,
/// JPEG) and tests/test_helpers.h (FIR, Sobel); tests assert the
/// interpreter reproduces them.

/// IEEE 802.11a OFDM transmitter front-end: QPSK mapping onto the 48 data
/// carriers (+4 pilots), 64-point radix-2 fixed-point IFFT (Q14 twiddles,
/// per-stage >>1 scaling) and 16-sample cyclic prefix.
///   inputs : bits[symbols*96] (0/1)
///   outputs: out_re/out_im[symbols*80], checksum returned from main
std::string ofdm_source(int symbols = 6);

/// JPEG encoder essentials: level shift, 8x8 separable integer DCT (Q13
/// cosine tables), quantization by Q16 reciprocal multiply (no divisions,
/// as the paper observes for its DFGs), zig-zag scan and a run-length /
/// size-category entropy cost model (Huffman-style bit budget).
///   inputs : image[width*height] (0..255)
///   outputs: coeffs[width*height], bit cost returned from main
std::string jpeg_source(int width = 64, int height = 64);

/// 16-tap FIR filter over a sample buffer; the quickstart workload.
///   inputs : samples[n + 16]
///   outputs: filtered[n], checksum returned from main
std::string fir_source(int n = 256);

/// Sobel edge detector (3x3 gradient, |gx|+|gy| magnitude, clamped to
/// 255) — a classic multimedia kernel from the paper's target domain.
///   inputs : image[width*height] (0..255)
///   outputs: edges[width*height], checksum returned from main
std::string sobel_source(int width = 64, int height = 64);

}  // namespace amdrel::workloads
