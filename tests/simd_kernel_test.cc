// Differential tests of the SIMD kernel layer (src/simd/): every dispatched
// kernel must be byte-identical to an independent scalar reference at every
// ISA level the host supports, on random and adversarial inputs covering
// all tail lengths around the 16/32/64-byte block sizes. On top of the
// kernel-level checks, the structural index is held to a reimplementation
// of the original byte-at-a-time algorithm, and end-to-end queries must
// return identical batches and counter totals under each forced level.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "core/maxson.h"
#include "gtest/gtest.h"
#include "json/dom_parser.h"
#include "json/json_writer.h"
#include "json/mison_parser.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using simd::BitmapWords;
using simd::Isa;
using simd::kWordBits;

/// Forces a dispatch level for one scope and restores the previous one.
class IsaGuard {
 public:
  explicit IsaGuard(Isa level) : previous_(simd::ActiveIsa()) {
    EXPECT_EQ(simd::ForceIsa(level), level)
        << "host cannot run " << simd::IsaName(level);
  }
  ~IsaGuard() { simd::ForceIsa(previous_); }

 private:
  Isa previous_;
};

/// Every level the host supports, scalar first.
std::vector<Isa> SupportedLevels() {
  std::vector<Isa> levels = {Isa::kScalar};
  if (simd::BestSupportedIsa() >= Isa::kSse2) levels.push_back(Isa::kSse2);
  if (simd::BestSupportedIsa() >= Isa::kAvx2) levels.push_back(Isa::kAvx2);
  return levels;
}

// ---- Independent scalar references (byte-at-a-time, no word tricks) ----

void RefClassify(const std::string& s, std::vector<uint64_t>* quotes,
                 std::vector<uint64_t>* backslashes,
                 std::vector<uint64_t>* structurals) {
  const size_t words = BitmapWords(s.size());
  quotes->assign(words, 0);
  backslashes->assign(words, 0);
  structurals->assign(words, 0);
  for (size_t i = 0; i < s.size(); ++i) {
    const uint64_t bit = uint64_t{1} << (i % kWordBits);
    if (s[i] == '"') (*quotes)[i / kWordBits] |= bit;
    if (s[i] == '\\') (*backslashes)[i / kWordBits] |= bit;
    if (s[i] == ':' || s[i] == '{' || s[i] == '}') {
      (*structurals)[i / kWordBits] |= bit;
    }
  }
}

void RefClassifyFull(const std::string& s, std::vector<uint64_t>* quotes,
                     std::vector<uint64_t>* backslashes,
                     std::vector<uint64_t>* structurals) {
  const size_t words = BitmapWords(s.size());
  quotes->assign(words, 0);
  backslashes->assign(words, 0);
  structurals->assign(words, 0);
  for (size_t i = 0; i < s.size(); ++i) {
    const uint64_t bit = uint64_t{1} << (i % kWordBits);
    if (s[i] == '"') (*quotes)[i / kWordBits] |= bit;
    if (s[i] == '\\') (*backslashes)[i / kWordBits] |= bit;
    if (s[i] == ':' || s[i] == ',' || s[i] == '{' || s[i] == '}' ||
        s[i] == '[' || s[i] == ']') {
      (*structurals)[i / kWordBits] |= bit;
    }
  }
}

size_t RefSkipWhitespace(const std::string& s, size_t pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                            s[pos] == '\n' || s[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

size_t RefFindStringSpecial(const std::string& s, size_t pos) {
  while (pos < s.size() && s[pos] != '"' && s[pos] != '\\') ++pos;
  return pos;
}

size_t RefFindSubstring(const std::string& hay, const std::string& needle) {
  const size_t found = hay.find(needle);
  return found == std::string::npos ? simd::kNpos : found;
}

/// Escaped positions by the textbook rule — a backslash that is not itself
/// escaped escapes the next character — which is equivalent to "preceded by
/// an odd-length backslash run" and is the definition the word-parallel
/// helper must reproduce across word boundaries.
std::vector<bool> RefEscaped(const std::string& s) {
  std::vector<bool> escaped(s.size() + 1, false);
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && !escaped[i]) escaped[i + 1] = true;
  }
  escaped.resize(s.size());
  return escaped;
}

// ---- Kernel differential tests ----

class SimdKernelTest : public ::testing::Test {
 protected:
  /// Random bytes drawn from an alphabet dense in the interesting
  /// characters so quotes, backslashes, and structurals collide often.
  std::string RandomJsonish(size_t len) {
    static const char kAlphabet[] = "\"\\{}:,abc \t\n\r[]0.-";
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng_.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    return s;
  }

  Rng rng_{190};
};

TEST_F(SimdKernelTest, ClassifyJsonMatchesReferenceAtEveryLevel) {
  std::vector<std::string> inputs;
  for (size_t len = 0; len <= 130; ++len) inputs.push_back(RandomJsonish(len));
  inputs.push_back(std::string(64, '"'));
  inputs.push_back(std::string(64, '\\'));
  inputs.push_back(std::string(200, '{'));
  inputs.push_back(RandomJsonish(4096));

  std::vector<uint64_t> want_q, want_b, want_s;
  for (const std::string& s : inputs) {
    RefClassify(s, &want_q, &want_b, &want_s);
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      const size_t words = BitmapWords(s.size());
      std::vector<uint64_t> q(words, ~uint64_t{0});
      std::vector<uint64_t> b(words, ~uint64_t{0});
      std::vector<uint64_t> st(words, ~uint64_t{0});
      simd::ClassifyJson(s.data(), s.size(), q.data(), b.data(), st.data());
      EXPECT_EQ(q, want_q) << "quotes, isa=" << simd::IsaName(level)
                           << " len=" << s.size();
      EXPECT_EQ(b, want_b) << "backslashes, isa=" << simd::IsaName(level)
                           << " len=" << s.size();
      EXPECT_EQ(st, want_s) << "structurals, isa=" << simd::IsaName(level)
                            << " len=" << s.size();
    }
  }
}

TEST_F(SimdKernelTest, ClassifyJsonFullMatchesReferenceAtEveryLevel) {
  std::vector<std::string> inputs;
  for (size_t len = 0; len <= 130; ++len) inputs.push_back(RandomJsonish(len));
  inputs.push_back(std::string(64, '['));
  inputs.push_back(std::string(64, ','));
  inputs.push_back(std::string(200, ']'));
  inputs.push_back(RandomJsonish(4096));

  std::vector<uint64_t> want_q, want_b, want_s;
  for (const std::string& s : inputs) {
    RefClassifyFull(s, &want_q, &want_b, &want_s);
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      const size_t words = BitmapWords(s.size());
      std::vector<uint64_t> q(words, ~uint64_t{0});
      std::vector<uint64_t> b(words, ~uint64_t{0});
      std::vector<uint64_t> st(words, ~uint64_t{0});
      simd::ClassifyJsonFull(s.data(), s.size(), q.data(), b.data(),
                             st.data());
      EXPECT_EQ(q, want_q) << "quotes, isa=" << simd::IsaName(level)
                           << " len=" << s.size();
      EXPECT_EQ(b, want_b) << "backslashes, isa=" << simd::IsaName(level)
                           << " len=" << s.size();
      EXPECT_EQ(st, want_s) << "structurals, isa=" << simd::IsaName(level)
                            << " len=" << s.size();
    }
  }
}

TEST_F(SimdKernelTest, EscapedPositionsMatchesRunCountingAcrossWords) {
  std::vector<std::string> inputs;
  for (int trial = 0; trial < 200; ++trial) {
    inputs.push_back(RandomJsonish(1 + rng_.NextBounded(200)));
  }
  // Backslash runs of every length straddling the 64-byte word boundary.
  for (size_t run = 1; run <= 6; ++run) {
    for (size_t start = 60; start <= 66; ++start) {
      std::string s(140, 'a');
      for (size_t i = 0; i < run; ++i) s[start + i] = '\\';
      s[start + run] = '"';
      inputs.push_back(s);
    }
  }
  for (const std::string& s : inputs) {
    const std::vector<bool> want = RefEscaped(s);
    const size_t words = BitmapWords(s.size());
    std::vector<uint64_t> q(words, 0), b(words, 0), st(words, 0);
    simd::ClassifyJson(s.data(), s.size(), q.data(), b.data(), st.data());
    uint64_t carry = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t escaped = simd::EscapedPositions(b[w], &carry);
      for (size_t j = 0; j < kWordBits && w * kWordBits + j < s.size(); ++j) {
        EXPECT_EQ((escaped >> j) & 1, want[w * kWordBits + j] ? 1u : 0u)
            << "position " << w * kWordBits + j << " in " << s;
      }
    }
  }
}

TEST_F(SimdKernelTest, ScanKernelsMatchReferenceAtEveryLevel) {
  std::vector<std::string> inputs;
  for (size_t len = 0; len <= 130; ++len) inputs.push_back(RandomJsonish(len));
  inputs.push_back(std::string(500, ' '));
  inputs.push_back(std::string(500, 'x'));
  for (const std::string& s : inputs) {
    const std::vector<size_t> starts = {0, 1, 15, 16, 17, 31, 32, 63, 64,
                                        s.size(), s.size() + 1};
    for (size_t pos : starts) {
      if (pos > s.size()) continue;
      const size_t want_ws = RefSkipWhitespace(s, pos);
      const size_t want_sp = RefFindStringSpecial(s, pos);
      for (Isa level : SupportedLevels()) {
        IsaGuard guard(level);
        EXPECT_EQ(simd::SkipWhitespace(s.data(), s.size(), pos), want_ws)
            << "isa=" << simd::IsaName(level) << " len=" << s.size()
            << " pos=" << pos;
        EXPECT_EQ(simd::FindStringSpecial(s.data(), s.size(), pos), want_sp)
            << "isa=" << simd::IsaName(level) << " len=" << s.size()
            << " pos=" << pos;
      }
    }
  }
}

TEST_F(SimdKernelTest, FindSubstringMatchesReferenceAtEveryLevel) {
  struct Case {
    std::string hay;
    std::string needle;
  };
  std::vector<Case> cases = {
      {"", "a"},                      // needle longer than haystack
      {"a", "a"},                     // single byte, exact
      {"b", "a"},                     // single byte, absent
      {"ab", "abc"},                  // needle > haystack
      {std::string(100, 'a'), "aa"},  // repeated characters
      {std::string(100, 'a') + "b", "ab"},  // match at the very end
      {"abxabyabz", "aby"},                 // first/last byte false positives
  };
  for (int trial = 0; trial < 400; ++trial) {
    Case c;
    const size_t nl = 1 + rng_.NextBounded(8);
    for (size_t i = 0; i < nl; ++i) {
      c.needle.push_back(static_cast<char>('a' + rng_.NextBounded(3)));
    }
    const size_t hl = rng_.NextBounded(150);
    for (size_t i = 0; i < hl; ++i) {
      c.hay.push_back(static_cast<char>('a' + rng_.NextBounded(3)));
    }
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    const size_t want = RefFindSubstring(c.hay, c.needle);
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      EXPECT_EQ(simd::FindSubstring(c.hay.data(), c.hay.size(),
                                    c.needle.data(), c.needle.size()),
                want)
          << "isa=" << simd::IsaName(level) << " hay='" << c.hay
          << "' needle='" << c.needle << "'";
    }
  }
}

TEST_F(SimdKernelTest, NullBitmapKernelsMatchReferenceAtEveryLevel) {
  for (size_t len = 0; len <= 130; ++len) {
    std::vector<uint8_t> bytes(len);
    for (size_t i = 0; i < len; ++i) {
      // Mix plain 0/1 with arbitrary nonzero values (a corrupt file may
      // hold anything; nonzero means null).
      bytes[i] = static_cast<uint8_t>(
          rng_.NextBool(0.3) ? (1 + rng_.NextBounded(255)) : 0);
    }
    uint64_t want_count = 0;
    const size_t words = BitmapWords(len);
    std::vector<uint64_t> want_bitmap(words, 0);
    for (size_t i = 0; i < len; ++i) {
      if (bytes[i] != 0) {
        ++want_count;
        want_bitmap[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
      }
    }
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      std::vector<uint64_t> bitmap(words, ~uint64_t{0});
      EXPECT_EQ(simd::NullBytesToBitmap(bytes.data(), len, bitmap.data()),
                want_count)
          << "isa=" << simd::IsaName(level) << " len=" << len;
      EXPECT_EQ(bitmap, want_bitmap)
          << "isa=" << simd::IsaName(level) << " len=" << len;
      EXPECT_EQ(simd::CountNonZeroBytes(bytes.data(), len), want_count)
          << "isa=" << simd::IsaName(level) << " len=" << len;
    }
  }
}

TEST_F(SimdKernelTest, MinMaxKernelsMatchReferenceAtEveryLevel) {
  for (size_t len = 1; len <= 130; ++len) {
    std::vector<int64_t> ints(len);
    std::vector<double> doubles(len);
    for (size_t i = 0; i < len; ++i) {
      ints[i] = rng_.NextInt(std::numeric_limits<int64_t>::min() / 2,
                             std::numeric_limits<int64_t>::max() / 2);
      doubles[i] = rng_.NextGaussian(0.0, 1e6);
    }
    // Plant extremes and signed zeros at random slots.
    ints[rng_.NextBounded(len)] = std::numeric_limits<int64_t>::min();
    ints[rng_.NextBounded(len)] = std::numeric_limits<int64_t>::max();
    doubles[rng_.NextBounded(len)] = -0.0;
    doubles[rng_.NextBounded(len)] = +0.0;

    int64_t want_imin = ints[0], want_imax = ints[0];
    double want_dmin = doubles[0], want_dmax = doubles[0];
    for (size_t i = 1; i < len; ++i) {
      if (ints[i] < want_imin) want_imin = ints[i];
      if (ints[i] > want_imax) want_imax = ints[i];
      if (doubles[i] < want_dmin) want_dmin = doubles[i];
      if (doubles[i] > want_dmax) want_dmax = doubles[i];
    }
    // Kernel contract: a zero result canonicalizes to +0.0.
    if (want_dmin == 0.0) want_dmin = 0.0;
    if (want_dmax == 0.0) want_dmax = 0.0;

    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      int64_t imin = 0, imax = 0;
      simd::MinMaxInt64(ints.data(), len, &imin, &imax);
      EXPECT_EQ(imin, want_imin) << "isa=" << simd::IsaName(level)
                                 << " len=" << len;
      EXPECT_EQ(imax, want_imax) << "isa=" << simd::IsaName(level)
                                 << " len=" << len;
      double dmin = 0, dmax = 0;
      simd::MinMaxDouble(doubles.data(), len, &dmin, &dmax);
      // Compare bit patterns so -0.0 vs +0.0 divergence is caught.
      uint64_t got_bits, want_bits;
      std::memcpy(&got_bits, &dmin, 8);
      std::memcpy(&want_bits, &want_dmin, 8);
      EXPECT_EQ(got_bits, want_bits)
          << "min isa=" << simd::IsaName(level) << " len=" << len;
      std::memcpy(&got_bits, &dmax, 8);
      std::memcpy(&want_bits, &want_dmax, 8);
      EXPECT_EQ(got_bits, want_bits)
          << "max isa=" << simd::IsaName(level) << " len=" << len;
    }
  }
}

// ---- Structural index vs the original byte-at-a-time algorithm ----

struct RefIndex {
  std::vector<std::pair<uint32_t, uint32_t>> colons;  // (pos, level)
  bool malformed = false;
};

/// The pre-SIMD StructuralIndex algorithm, kept verbatim as the behavioral
/// contract: escaped-quote removal by run counting, prefix-XOR string mask,
/// then the brace walk (which returns early, keeping partial colons, on an
/// unbalanced '}').
RefIndex RefStructuralIndex(const std::string& text) {
  RefIndex out;
  const size_t n = text.size();
  const size_t words = BitmapWords(n);
  if (words == 0) {
    out.malformed = true;
    return out;
  }
  std::vector<uint64_t> quote(words, 0);
  std::vector<uint64_t> structural(words, 0);
  size_t backslash_run = 0;
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\\') {
      ++backslash_run;
      continue;
    }
    if (c == '"' && backslash_run % 2 == 0) {
      quote[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
    } else if (c == ':' || c == '{' || c == '}') {
      structural[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
    }
    backslash_run = 0;
  }
  std::vector<uint64_t> in_string(words, 0);
  uint64_t carry = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t q = quote[w];
    q ^= q << 1;
    q ^= q << 2;
    q ^= q << 4;
    q ^= q << 8;
    q ^= q << 16;
    q ^= q << 32;
    in_string[w] = q ^ carry;
    carry = (in_string[w] >> (kWordBits - 1)) ? ~uint64_t{0} : 0;
  }
  if (carry != 0) {
    out.malformed = true;
    return out;
  }
  uint32_t level = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = structural[w] & ~in_string[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      const size_t i = w * kWordBits + static_cast<size_t>(bit);
      if (text[i] == '{') {
        ++level;
      } else if (text[i] == '}') {
        if (level == 0) {
          out.malformed = true;
          return out;
        }
        --level;
      } else {
        out.colons.emplace_back(static_cast<uint32_t>(i), level);
      }
    }
  }
  if (level != 0) out.malformed = true;
  return out;
}

TEST_F(SimdKernelTest, Crc32cMatchesKnownVectorAtEveryLevel) {
  // RFC 3720 (iSCSI) check value: crc32c("123456789") == 0xE3069283.
  const std::string check = "123456789";
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    EXPECT_EQ(simd::Crc32c(reinterpret_cast<const uint8_t*>(check.data()),
                           check.size()),
              0xE3069283u)
        << simd::IsaName(level);
    EXPECT_EQ(simd::Crc32c(nullptr, 0), 0u) << simd::IsaName(level);
  }
}

TEST_F(SimdKernelTest, Crc32cExtendComposesAndMatchesScalarAtEveryLevel) {
  // Extend semantics: checksumming a buffer in arbitrary pieces equals
  // checksumming it whole, and every dispatch level agrees with scalar.
  for (size_t len : {0u, 1u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    const std::string data = RandomJsonish(len);
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data.data());
    uint32_t expected = 0;
    {
      IsaGuard guard(Isa::kScalar);
      expected = simd::Crc32c(bytes, data.size());
    }
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      EXPECT_EQ(simd::Crc32c(bytes, data.size()), expected)
          << simd::IsaName(level) << " len=" << len;
      for (size_t split : {size_t{0}, data.size() / 3, data.size()}) {
        const uint32_t piecewise = simd::Crc32cExtend(
            simd::Crc32c(bytes, split), bytes + split, data.size() - split);
        EXPECT_EQ(piecewise, expected)
            << simd::IsaName(level) << " len=" << len << " split=" << split;
      }
    }
  }
}

TEST_F(SimdKernelTest, RleSplatMatchesScalarAtEveryLevel) {
  // Broadcast semantics: out must equal the pattern repeated `count` times,
  // byte-identical at every dispatch level, across the vectorized widths
  // (1/2/4/8), the scalar-fallback widths (3/5/16), and tail counts around
  // the 16/32-byte block sizes.
  Rng rng(1213);
  for (size_t width : {1u, 2u, 3u, 4u, 5u, 8u, 16u}) {
    std::vector<uint8_t> pattern(width);
    for (uint8_t& b : pattern) b = static_cast<uint8_t>(rng.NextInt(0, 255));
    for (size_t count : {0u, 1u, 2u, 3u, 15u, 16u, 17u, 31u, 33u, 257u}) {
      std::vector<uint8_t> expected(width * count);
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(expected.data() + i * width, pattern.data(), width);
      }
      for (Isa level : SupportedLevels()) {
        IsaGuard guard(level);
        // Canary padding proves the kernel writes exactly width*count bytes.
        std::vector<uint8_t> out(width * count + 4, 0xAB);
        simd::RleSplat(pattern.data(), width, count, out.data());
        // std::equal, not memcmp: `expected` is empty (null data) at
        // count 0, which memcmp may not be passed.
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
            << simd::IsaName(level) << " width=" << width
            << " count=" << count;
        for (size_t i = expected.size(); i < out.size(); ++i) {
          EXPECT_EQ(out[i], 0xAB) << simd::IsaName(level) << " overwrite at "
                                  << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, MaxU32MatchesScalarAtEveryLevel) {
  Rng rng(3137);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u, 1000u}) {
    std::vector<uint32_t> values(n);
    for (uint32_t& v : values) {
      // Mix small values with ones above INT32_MAX: unsigned max via signed
      // compares needs the sign-bias trick, which this distribution trips.
      v = rng.NextBool(0.3)
              ? 0x80000000u + static_cast<uint32_t>(rng.NextBounded(1 << 30))
              : static_cast<uint32_t>(rng.NextBounded(1000));
    }
    uint32_t expected = 0;
    for (uint32_t v : values) expected = std::max(expected, v);
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      EXPECT_EQ(simd::MaxU32(values.data(), n), expected)
          << simd::IsaName(level) << " n=" << n;
    }
  }
  // Edge values survive the bias round-trip.
  const uint32_t edge[] = {0u, UINT32_MAX, 0x7FFFFFFFu, 0x80000000u};
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    EXPECT_EQ(simd::MaxU32(edge, 4), UINT32_MAX) << simd::IsaName(level);
  }
}

TEST_F(SimdKernelTest, StructuralIndexMatchesOriginalAlgorithm) {
  std::vector<std::string> inputs = {
      "",
      "{}",
      R"({"a":1})",
      R"({"a":{"b":2},"c":"x:y{z}"})",
      R"({"k\"ey":1})",                     // escaped quote in a key
      R"({"a":"\\"})",                      // escaped backslash before quote
      R"({"a":"\\\""})",                    // three backslashes: quote escaped
      R"({"a":1)",                          // unbalanced '{'
      R"({"a":1}})",                        // unbalanced '}' (early return)
      R"({"a":"unterminated)",              // unterminated string
      std::string(70, '{') + std::string(70, '}'),  // deep, crosses words
  };
  // Random mixes heavy in the structural alphabet.
  for (int trial = 0; trial < 300; ++trial) {
    inputs.push_back(RandomJsonish(1 + rng_.NextBounded(300)));
  }
  // Generated well-formed records like the warehouse produces.
  for (int trial = 0; trial < 50; ++trial) {
    std::string rec = "{";
    const size_t fields = 1 + rng_.NextBounded(6);
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) rec += ",";
      rec += "\"f" + std::to_string(f) + "\":";
      if (rng_.NextBool(0.3)) {
        rec += "{\"in\\\"ner\":" + std::to_string(rng_.NextBounded(100)) + "}";
      } else {
        rec += "\"va\\\\lue" + std::to_string(rng_.NextBounded(100)) + "\"";
      }
    }
    rec += "}";
    inputs.push_back(rec);
  }

  for (const std::string& s : inputs) {
    const RefIndex want = RefStructuralIndex(s);
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      json::StructuralIndex index(s);
      EXPECT_EQ(index.malformed(), want.malformed)
          << "isa=" << simd::IsaName(level) << " input=" << s;
      ASSERT_EQ(index.colons().size(), want.colons.size())
          << "isa=" << simd::IsaName(level) << " input=" << s;
      for (size_t i = 0; i < want.colons.size(); ++i) {
        EXPECT_EQ(index.colons()[i].pos, want.colons[i].first) << "input=" << s;
        EXPECT_EQ(index.colons()[i].level, want.colons[i].second)
            << "input=" << s;
      }
    }
  }
}

TEST_F(SimdKernelTest, DomParserIsIdenticalAcrossLevels) {
  std::vector<std::string> inputs = {
      R"({"a": 1, "b": [true, null, 2.5], "s": "x\\y\"zé"})",
      R"("plain")",
      R"("esc\n\tA😀 tail")",
      R"({"long": ")" + std::string(200, 'x') + R"("})",
      R"({"bad)",            // unterminated string
      R"("trail\)",          // unterminated escape
      R"("bad\q")",          // invalid escape
      "   [1, 2,\t3]\n ",
  };
  for (const std::string& s : inputs) {
    std::string want;
    {
      IsaGuard guard(Isa::kScalar);
      auto parsed = json::ParseJson(s);
      want = parsed.ok() ? json::WriteJson(*parsed)
                         : parsed.status().ToString();
    }
    for (Isa level : SupportedLevels()) {
      IsaGuard guard(level);
      auto parsed = json::ParseJson(s);
      const std::string got = parsed.ok() ? json::WriteJson(*parsed)
                                          : parsed.status().ToString();
      EXPECT_EQ(got, want) << "isa=" << simd::IsaName(level)
                           << " input=" << s;
    }
  }
}

// ---- End-to-end: queries under each forced level ----

std::string BatchFingerprint(const storage::RecordBatch& batch) {
  std::string out;
  char buffer[64];
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const storage::ColumnVector& col = batch.column(c);
      if (col.IsNull(r)) {
        out += "NULL";
      } else {
        switch (col.type()) {
          case storage::TypeKind::kBool:
            out += col.GetBool(r) ? "true" : "false";
            break;
          case storage::TypeKind::kInt64:
            std::snprintf(buffer, sizeof(buffer), "%" PRId64, col.GetInt64(r));
            out += buffer;
            break;
          case storage::TypeKind::kDouble:
            std::snprintf(buffer, sizeof(buffer), "%.17g", col.GetDouble(r));
            out += buffer;
            break;
          case storage::TypeKind::kString:
            out += col.GetString(r);
            break;
        }
      }
      out += "|";
    }
    out += "\n";
  }
  return out;
}

std::string CounterFingerprint(const engine::QueryMetrics& m) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "read_bytes=%llu rows=%llu groups=%llu skipped=%llu "
                "parsed=%llu parse_bytes=%llu prefiltered=%llu",
                static_cast<unsigned long long>(m.read.bytes_read),
                static_cast<unsigned long long>(m.read.rows_read),
                static_cast<unsigned long long>(m.read.row_groups_read),
                static_cast<unsigned long long>(m.read.row_groups_skipped),
                static_cast<unsigned long long>(m.parse.records_parsed),
                static_cast<unsigned long long>(m.parse.bytes_parsed),
                static_cast<unsigned long long>(m.raw_filtered_rows));
  return buffer;
}

class SimdEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_simd_e2e_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 10;
    spec.avg_json_bytes = 300;
    spec.schema_variability = 0.3;
    spec.rows = 1400;
    spec.rows_per_file = 700;
    spec.rows_per_group = 100;
    spec.seed = 77;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 3, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();
  }
  void TearDown() override {
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    simd::ResetIsa();
  }

  std::string root_;
  catalog::Catalog catalog_;
};

TEST_F(SimdEndToEndTest, QueriesAreByteIdenticalAcrossLevels) {
  const std::vector<std::string> queries = {
      "SELECT id, get_json_object(payload, '$.f1') FROM db.t",
      "SELECT get_json_object(payload, '$.f0') AS k, COUNT(*), "
      "AVG(length(payload)) FROM db.t GROUP BY k",
      "SELECT id FROM db.t WHERE get_json_object(payload, '$.f2') IS NOT "
      "NULL ORDER BY id LIMIT 40",
  };
  std::vector<std::string> baseline_batches;
  std::vector<std::string> baseline_counters;
  for (Isa level : SupportedLevels()) {
    core::MaxsonConfig config;
    config.cache_root = root_ + "/cache_" + simd::IsaName(level);
    config.engine.default_database = "db";
    config.engine.num_threads = 1;
    config.engine.enable_raw_filter = true;
    config.engine.force_isa = simd::IsaName(level);
    core::MaxsonSession session(&catalog_, config);
    ASSERT_EQ(session.stats().simd_isa, simd::IsaName(level));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = session.Execute(queries[q]);
      ASSERT_TRUE(result.ok()) << "isa=" << simd::IsaName(level) << " q=" << q
                               << ": " << result.status();
      const std::string batch = BatchFingerprint(result->batch);
      const std::string counters = CounterFingerprint(result->metrics);
      if (level == Isa::kScalar) {
        baseline_batches.push_back(batch);
        baseline_counters.push_back(counters);
      } else {
        EXPECT_EQ(batch, baseline_batches[q])
            << "batch diverged at isa=" << simd::IsaName(level) << " q=" << q;
        EXPECT_EQ(counters, baseline_counters[q])
            << "counters diverged at isa=" << simd::IsaName(level)
            << " q=" << q;
      }
    }
  }
}

TEST_F(SimdEndToEndTest, UpdateConfigValidatesAndAppliesIsa) {
  core::MaxsonConfig config;
  config.cache_root = root_ + "/cache_cfg";
  config.engine.default_database = "db";
  config.engine.num_threads = 1;
  core::MaxsonSession session(&catalog_, config);

  core::SessionUpdate bad;
  bad.isa = "avx512";
  const Status rejected = session.UpdateConfig(bad);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.ToString().find("avx512"), std::string::npos);

  core::SessionUpdate scalar;
  scalar.isa = "scalar";
  ASSERT_TRUE(session.UpdateConfig(scalar).ok());
  EXPECT_EQ(session.stats().simd_isa, "scalar");
  const std::string metrics = session.metrics().RenderPrometheus();
  EXPECT_NE(metrics.find("maxson_simd_isa_level"), std::string::npos);
  EXPECT_NE(metrics.find("maxson_simd_isa_info"), std::string::npos);

  // "auto" restores the startup policy: the MAXSON_FORCE_ISA cap when the
  // env var is set (as in CI's forced-scalar pass), best supported otherwise.
  simd::ResetIsa();
  const std::string startup_isa = simd::IsaName(simd::ActiveIsa());
  ASSERT_TRUE(session.UpdateConfig(scalar).ok());
  core::SessionUpdate back;
  back.isa = "auto";
  ASSERT_TRUE(session.UpdateConfig(back).ok());
  EXPECT_EQ(session.stats().simd_isa, startup_isa);
}

}  // namespace
}  // namespace maxson
