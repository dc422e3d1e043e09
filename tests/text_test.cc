// The appender (support/text.h) against the conversions it replaced.
//
// The property test renders seeded doubles through every precision tag
// the writers use and through the printf conversion the tag names, and
// requires equal bytes: ROADMAP item 2's invariant that a format keeps
// snprintf wherever std::to_chars would print anything else. The inputs
// cover random bit patterns, the value ranges a sweep emits, signed
// zeros, subnormals, huge values and exact halfway ties (and their
// neighbours) for each precision.

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "support/strings.h"
#include "support/text.h"

namespace amdrel {
namespace {

struct Format {
  const char* printf_format;
  bool fixed;  ///< text::Fixed, else text::General
  int precision;
};

// Every double conversion of the sweep writers, the table and describe.
constexpr Format kFormats[] = {
    {"%.4f", true, 4},  {"%.2f", true, 2},    {"%.1f", true, 1},
    {"%.10g", false, 10}, {"%g", false, 6}, {"%.3g", false, 3},
};

constexpr int kValuesPerFormat = 1 << 20;

double from_bits(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t to_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// A value whose decimal expansion ends exactly on a 5 one digit past
// what `format` prints, so rounding must break a tie.
double halfway_tie(const Format& format, std::mt19937_64& rng) {
  if (format.fixed) {
    // An odd m / 2^(p+1) has exactly p+1 fraction digits, the last a 5.
    const std::uint64_t m = (rng() >> 24) | 1;
    return std::ldexp(static_cast<double>(m), -(format.precision + 1));
  }
  // An integer of precision+1 digits ending in 5, exactly representable
  // for every precision up to 15, sometimes halved once more.
  std::uint64_t low = 1;
  for (int i = 0; i < format.precision; ++i) low *= 10;
  const std::uint64_t n = low + rng() % (9 * low);
  const double tie = static_cast<double>(n - n % 10 + 5);
  return rng() % 4 == 0 ? tie / 2 : tie;
}

double sample(const Format& format, std::mt19937_64& rng, int i) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double sign = rng() % 2 ? -1.0 : 1.0;
  switch (i % 8) {
    case 0:  // any bit pattern: NaNs, infinities, subnormals included
      return from_bits(rng());
    case 1:  // areas and platform costs
      return rng() % 2 ? static_cast<double>(rng() % 100000)
                       : unit(rng) * 100000.0;
    case 2:  // energies in pJ and nJ
      return unit(rng) * std::pow(10.0, static_cast<int>(rng() % 13));
    case 3:  // percentages
      return -1000.0 + unit(rng) * 1100.0;
    case 4:
      return sign * halfway_tie(format, rng);
    case 5: {  // the doubles either side of a tie
      const double tie = halfway_tie(format, rng);
      return sign * std::nextafter(tie, rng() % 2 ? 0.0 : HUGE_VAL);
    }
    case 6: {
      constexpr double kSpecial[] = {
          0.0, -0.0, HUGE_VAL, -HUGE_VAL,
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(), DBL_MAX, -DBL_MAX,
          DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 0.5, 0.05, 0.005, 0.00005};
      constexpr int kCount = sizeof kSpecial / sizeof kSpecial[0];
      if (rng() % 2) return kSpecial[rng() % kCount];
      // A subnormal: exponent bits zero, random mantissa.
      return sign * from_bits(rng() & ((std::uint64_t{1} << 52) - 1));
    }
    default: {  // log-uniform over the whole exponent range
      const int exponent = static_cast<int>(rng() % 2098) - 1074;
      return sign * std::ldexp(1.0 + unit(rng), exponent);
    }
  }
}

TEST(TextToCharsProperty, EqualsSnprintfForEveryWriterFormat) {
  for (const Format& format : kFormats) {
    std::mt19937_64 rng(0x5eedu + static_cast<unsigned>(format.precision) +
                        (format.fixed ? 100u : 0u));
    int mismatches = 0;
    std::string appended;
    for (int i = 0; i < kValuesPerFormat; ++i) {
      const double value = sample(format, rng, i);
      char expected[512];
      std::snprintf(expected, sizeof expected, format.printf_format, value);
      appended.clear();
      if (format.fixed) {
        text::append(appended, text::Fixed{value, format.precision});
      } else {
        text::append(appended, text::General{value, format.precision});
      }
      if (appended != expected && ++mismatches <= 5) {
        ADD_FAILURE() << format.printf_format << " of " << value << " (bits "
                      << std::hex << to_bits(value) << std::dec
                      << "): snprintf \"" << expected << "\", appender \""
                      << appended << "\"";
      }
    }
    EXPECT_EQ(mismatches, 0) << format.printf_format;
  }
}

TEST(TextAppendTest, IntegersBooleansAndCharacters) {
  std::string out;
  text::append(out, std::int64_t{-42}, ' ', std::uint64_t{18446744073709551615u},
               ' ', std::numeric_limits<std::int64_t>::min(), ' ', true, ' ',
               false, ' ', 7u, ' ', std::size_t{0});
  EXPECT_EQ(out,
            "-42 18446744073709551615 -9223372036854775808 true false 7 0");
}

TEST(TextAppendTest, ThousandsGroupsTheUnsignedMagnitude) {
  EXPECT_EQ(text::render(text::Thousands{0}), "0");
  EXPECT_EQ(text::render(text::Thousands{-999}), "-999");
  EXPECT_EQ(text::render(text::Thousands{1000}), "1,000");
  EXPECT_EQ(text::render(text::Thousands{std::numeric_limits<std::int64_t>::max()}),
            "9,223,372,036,854,775,807");
  EXPECT_EQ(text::render(text::Thousands{std::numeric_limits<std::int64_t>::min()}),
            "-9,223,372,036,854,775,808");
}

TEST(TextAppendTest, EscapesEveryControlByte) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/\x7f\xc3\xa9";
  EXPECT_EQ(text::render(text::JsonEscaped{all}),
            "\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n"
            "\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013"
            "\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c"
            "\\u001d\\u001e\\u001f\\\"\\\\/\x7f\xc3\xa9");
  EXPECT_EQ(json_escape(all), text::render(text::JsonEscaped{all}));
}

TEST(TextAppendTest, CsvQuotesOnlyWhenNeeded) {
  EXPECT_EQ(text::render(text::CsvField{"plain;text"}), "plain;text");
  EXPECT_EQ(text::render(text::CsvField{"a,b"}), "\"a,b\"");
  EXPECT_EQ(text::render(text::CsvField{"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(text::render(text::CsvField{"two\nlines\r"}), "\"two\nlines\r\"");
  EXPECT_EQ(text::render(text::CsvField{""}), "");
}

}  // namespace
}  // namespace amdrel
