#pragma once

#include <cstdint>
#include <vector>

namespace amdrel::workloads {

/// Bit-exact C++ reference implementations of the OFDM and JPEG MiniC
/// workloads (minic_sources.h). Tests and examples run the MiniC programs
/// through the interpreter and assert outputs match these references
/// element by element, validating the whole front-end + interpreter
/// stack. The FIR and Sobel references serve only tests and live in
/// tests/test_helpers.h.

struct OfdmGolden {
  std::vector<std::int32_t> out_re;
  std::vector<std::int32_t> out_im;
  std::int32_t checksum = 0;
};

/// `bits` holds symbols*96 QPSK bits (0/1).
OfdmGolden golden_ofdm(const std::vector<std::int32_t>& bits, int symbols);

struct JpegGolden {
  std::vector<std::int32_t> coeffs;  ///< width*height quantized, zig-zagged
  std::int32_t bit_cost = 0;
};

/// `image` holds width*height pixels (0..255).
JpegGolden golden_jpeg(const std::vector<std::int32_t>& image, int width,
                       int height);

/// Deterministic pseudo-random test vectors (xorshift-based).
std::vector<std::int32_t> random_bits(std::size_t count, std::uint64_t seed);
std::vector<std::int32_t> random_pixels(std::size_t count,
                                        std::uint64_t seed);

}  // namespace amdrel::workloads
