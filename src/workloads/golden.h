#pragma once

#include <cstdint>
#include <vector>

namespace amdrel::workloads {

/// Bit-exact C++ reference implementations of the MiniC workloads
/// (minic_sources.h). Tests run the MiniC programs through the
/// interpreter and assert outputs match these references element by
/// element, validating the whole front-end + interpreter stack.

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

struct FirGolden {
  std::vector<std::int32_t> filtered;
  std::int32_t checksum = 0;
};

/// `samples` holds n+16 input samples.
FirGolden golden_fir(const std::vector<std::int32_t>& samples, int n);

struct SobelGolden {
  std::vector<std::int32_t> edges;
  std::int32_t checksum = 0;
};

/// `image` holds width*height pixels (0..255).
SobelGolden golden_sobel(const std::vector<std::int32_t>& image, int width,
                         int height);

/// Deterministic pseudo-random test vectors (xorshift-based).
std::vector<std::int32_t> random_bits(std::size_t count, std::uint64_t seed);
std::vector<std::int32_t> random_pixels(std::size_t count,
                                        std::uint64_t seed);

}  // namespace amdrel::workloads
