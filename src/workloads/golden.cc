#include "workloads/golden.h"

#include <array>

#include "support/error.h"

namespace amdrel::workloads {

namespace {

// Tables identical to the ones embedded in minic_sources.cc.
constexpr std::array<std::int32_t, 32> kTwRe = {
    16384, 16305, 16069, 15679, 15137, 14449, 13623, 12665,
    11585, 10394, 9102,  7723,  6270,  4756,  3196,  1606,
    0,     -1606, -3196, -4756, -6270, -7723, -9102, -10394,
    -11585, -12665, -13623, -14449, -15137, -15679, -16069, -16305};
constexpr std::array<std::int32_t, 32> kTwIm = {
    0,     1606,  3196,  4756,  6270,  7723,  9102,  10394,
    11585, 12665, 13623, 14449, 15137, 15679, 16069, 16305,
    16384, 16305, 16069, 15679, 15137, 14449, 13623, 12665,
    11585, 10394, 9102,  7723,  6270,  4756,  3196,  1606};
constexpr std::array<std::int32_t, 64> kBrev = {
    0, 32, 16, 48, 8,  40, 24, 56, 4, 36, 20, 52, 12, 44, 28, 60,
    2, 34, 18, 50, 10, 42, 26, 58, 6, 38, 22, 54, 14, 46, 30, 62,
    1, 33, 17, 49, 9,  41, 25, 57, 5, 37, 21, 53, 13, 45, 29, 61,
    3, 35, 19, 51, 11, 43, 27, 59, 7, 39, 23, 55, 15, 47, 31, 63};
constexpr std::array<std::int32_t, 48> kCarriers = {
    38, 39, 40, 41, 42, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54,
    55, 56, 58, 59, 60, 61, 62, 63, 1,  2,  3,  4,  5,  6,  8,  9,
    10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26};
constexpr std::array<std::int32_t, 4> kPilots = {43, 57, 7, 21};

constexpr std::array<std::int32_t, 64> kCt = {
    2896, 2896,  2896,  2896,  2896,  2896,  2896,  2896,
    4017, 3406,  2276,  799,   -799,  -2276, -3406, -4017,
    3784, 1567,  -1567, -3784, -3784, -1567, 1567,  3784,
    3406, -799,  -4017, -2276, 2276,  4017,  799,   -3406,
    2896, -2896, -2896, 2896,  2896,  -2896, -2896, 2896,
    2276, -4017, 799,   3406,  -3406, -799,  4017,  -2276,
    1567, -3784, 3784,  -1567, -1567, 3784,  -3784, 1567,
    799,  -2276, 3406,  -4017, 4017,  -3406, 2276,  -799};
constexpr std::array<std::int32_t, 64> kQRecip = {
    4096, 5958, 6554, 4096, 2731, 1638, 1285, 1074, 5461, 5461, 4681,
    3449, 2521, 1130, 1092, 1192, 4681, 5041, 4096, 2731, 1638, 1150,
    950,  1170, 4681, 3855, 2979, 2260, 1285, 753,  819,  1057, 3641,
    2979, 1771, 1170, 964,  601,  636,  851,  2731, 1872, 1192, 1024,
    809,  630,  580,  712,  1337, 1024, 840,  753,  636,  542,  546,
    649,  910,  712,  690,  669,  585,  655,  636,  662};
constexpr std::array<std::int32_t, 64> kZz = {
    0,  8,  1,  2,  9,  16, 24, 17, 10, 3,  4,  11, 18, 25, 32, 40,
    33, 26, 19, 12, 5,  6,  13, 20, 27, 34, 41, 48, 56, 49, 42, 35,
    28, 21, 14, 7,  15, 22, 29, 36, 43, 50, 57, 58, 51, 44, 37, 30,
    23, 31, 38, 45, 52, 59, 60, 53, 46, 39, 47, 54, 61, 62, 55, 63};

std::int32_t wrap(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}
std::int32_t mul(std::int32_t a, std::int32_t b) {
  return wrap(std::int64_t{a} * b);
}

}  // namespace

OfdmGolden golden_ofdm(const std::vector<std::int32_t>& bits, int symbols) {
  require(static_cast<int>(bits.size()) >= symbols * 96,
          "golden_ofdm: not enough input bits");
  OfdmGolden out;
  out.out_re.assign(static_cast<std::size_t>(symbols) * 80, 0);
  out.out_im.assign(static_cast<std::size_t>(symbols) * 80, 0);

  std::array<std::int32_t, 64> sym_re{}, sym_im{}, fft_re{}, fft_im{};
  for (int s = 0; s < symbols; ++s) {
    sym_re.fill(0);
    sym_im.fill(0);
    for (int c = 0; c < 48; ++c) {
      const std::int32_t b0 = bits[s * 96 + 2 * c];
      const std::int32_t b1 = bits[s * 96 + 2 * c + 1];
      sym_re[kCarriers[c]] = (2 * b0 - 1) * 11585;
      sym_im[kCarriers[c]] = (2 * b1 - 1) * 11585;
    }
    for (const std::int32_t p : kPilots) {
      sym_re[p] = 11585;
      sym_im[p] = 0;
    }

    for (int i = 0; i < 64; ++i) {
      fft_re[i] = sym_re[kBrev[i]];
      fft_im[i] = sym_im[kBrev[i]];
    }
    int half = 1, step = 32;
    while (half < 64) {
      for (int g = 0; g < 64; g += 2 * half) {
        for (int k = 0; k < half; ++k) {
          const std::int32_t tr = kTwRe[k * step];
          const std::int32_t ti = kTwIm[k * step];
          const int lo = g + k, hi = g + k + half;
          const std::int32_t xr =
              wrap(std::int64_t{mul(fft_re[hi], tr)} - mul(fft_im[hi], ti)) >>
              14;
          const std::int32_t xi =
              wrap(std::int64_t{mul(fft_re[hi], ti)} + mul(fft_im[hi], tr)) >>
              14;
          fft_re[hi] = (fft_re[lo] - xr) >> 1;
          fft_im[hi] = (fft_im[lo] - xi) >> 1;
          fft_re[lo] = (fft_re[lo] + xr) >> 1;
          fft_im[lo] = (fft_im[lo] + xi) >> 1;
        }
      }
      half *= 2;
      step >>= 1;
    }

    for (int i = 0; i < 16; ++i) {
      out.out_re[s * 80 + i] = fft_re[48 + i];
      out.out_im[s * 80 + i] = fft_im[48 + i];
    }
    for (int i = 0; i < 64; ++i) {
      out.out_re[s * 80 + 16 + i] = fft_re[i];
      out.out_im[s * 80 + 16 + i] = fft_im[i];
    }
  }
  for (std::size_t i = 0; i < out.out_re.size(); ++i) {
    out.checksum = wrap(std::int64_t{out.checksum} +
                        (out.out_re[i] ^ out.out_im[i]));
  }
  return out;
}

JpegGolden golden_jpeg(const std::vector<std::int32_t>& image, int width,
                       int height) {
  require(width % 8 == 0 && height % 8 == 0,
          "golden_jpeg: dimensions must be multiples of 8");
  require(static_cast<int>(image.size()) >= width * height,
          "golden_jpeg: image too small");
  JpegGolden out;
  out.coeffs.assign(static_cast<std::size_t>(width) * height, 0);

  std::array<std::int32_t, 64> blk{}, tmp{};
  std::int32_t prev_dc = 0;
  std::int32_t bitcost = 0;
  const int bw = width / 8;

  for (int by = 0; by < height / 8; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
          blk[r * 8 + c] = image[(by * 8 + r) * width + bx * 8 + c] - 128;
        }
      }
      for (int r = 0; r < 8; ++r) {
        for (int k = 0; k < 8; ++k) {
          std::int32_t acc = 0;
          for (int n = 0; n < 8; ++n) {
            acc = wrap(std::int64_t{acc} + mul(blk[r * 8 + n], kCt[k * 8 + n]));
          }
          tmp[r * 8 + k] = acc >> 10;
        }
      }
      for (int c = 0; c < 8; ++c) {
        for (int k = 0; k < 8; ++k) {
          std::int32_t acc = 0;
          for (int n = 0; n < 8; ++n) {
            acc = wrap(std::int64_t{acc} + mul(tmp[n * 8 + c], kCt[k * 8 + n]));
          }
          blk[k * 8 + c] = acc >> 16;
        }
      }
      for (int i = 0; i < 64; ++i) {
        std::int32_t v = blk[i];
        const bool neg = v < 0;
        if (neg) v = -v;
        std::int32_t q = mul(v, kQRecip[i]) >> 16;
        if (neg) q = -q;
        tmp[i] = q;
      }
      const int base = (by * bw + bx) * 64;
      for (int i = 0; i < 64; ++i) out.coeffs[base + i] = tmp[kZz[i]];

      std::int32_t d = out.coeffs[base] - prev_dc;
      prev_dc = out.coeffs[base];
      if (d < 0) d = -d;
      std::int32_t dsize = 0;
      while (d > 0) {
        dsize++;
        d >>= 1;
      }
      bitcost += 3 + 2 * dsize;
      std::int32_t run = 0;
      for (int i = 1; i < 64; ++i) {
        const std::int32_t v = out.coeffs[base + i];
        if (v == 0) {
          run++;
        } else {
          while (run >= 16) {
            bitcost += 11;
            run -= 16;
          }
          std::int32_t m = v < 0 ? -v : v;
          std::int32_t size = 0;
          while (m > 0) {
            size++;
            m >>= 1;
          }
          bitcost += 4 + run + 2 * size;
          run = 0;
        }
      }
      if (run > 0) bitcost += 4;
    }
  }
  out.bit_cost = bitcost;
  return out;
}

namespace {
std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace

std::vector<std::int32_t> random_bits(std::size_t count, std::uint64_t seed) {
  std::uint64_t state = seed | 1;
  std::vector<std::int32_t> bits(count);
  for (auto& bit : bits) bit = static_cast<std::int32_t>(xorshift(state) & 1);
  return bits;
}

std::vector<std::int32_t> random_pixels(std::size_t count,
                                        std::uint64_t seed) {
  std::uint64_t state = seed | 1;
  std::vector<std::int32_t> pixels(count);
  for (auto& px : pixels) px = static_cast<std::int32_t>(xorshift(state) & 255);
  return pixels;
}

}  // namespace amdrel::workloads
