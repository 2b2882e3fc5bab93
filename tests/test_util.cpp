// Unit tests for the util module: RNG, Ratio, Histogram, Table, CSV,
// JSON codec, check macros.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "escaped_bytes.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/ratio.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/types.h"

namespace asyncmac {
namespace {

// ------------------------------------------------------------------ types

TEST(Types, TicksPerUnitDivisibleBySmallIntegers) {
  for (Tick d = 1; d <= 16; ++d)
    EXPECT_EQ(kTicksPerUnit % d, 0) << "not divisible by " << d;
}

TEST(Types, UnitsHelper) {
  EXPECT_EQ(units(3), 3 * kTicksPerUnit);
  EXPECT_DOUBLE_EQ(to_units(kTicksPerUnit / 2), 0.5);
}

TEST(Types, ActionPredicates) {
  EXPECT_FALSE(is_transmit(SlotAction::kListen));
  EXPECT_TRUE(is_transmit(SlotAction::kTransmitPacket));
  EXPECT_TRUE(is_transmit(SlotAction::kTransmitControl));
}

TEST(Types, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(SlotAction::kListen), "listen");
  EXPECT_STREQ(to_string(SlotAction::kTransmitPacket), "tx-packet");
  EXPECT_STREQ(to_string(SlotAction::kTransmitControl), "tx-control");
  EXPECT_STREQ(to_string(Feedback::kSilence), "silence");
  EXPECT_STREQ(to_string(Feedback::kBusy), "busy");
  EXPECT_STREQ(to_string(Feedback::kAck), "ack");
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  util::Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  util::Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusiveBounds) {
  util::Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, Uniform01HalfOpen) {
  util::Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  util::Rng a(5);
  util::Rng child = a.split();
  util::Rng a2(5);
  util::Rng child2 = a2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());
  EXPECT_NE(child.next(), a.next());
}

TEST(Rng, BelowIsApproximatelyUniform) {
  // Chi-square-style check on 16 buckets: with 160k draws the expected
  // count per bucket is 10k; flag deviations beyond ~5 sigma.
  util::Rng r(12345);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int b = 0; b < kBuckets; ++b)
    EXPECT_NEAR(counts[b], expected, 5 * std::sqrt(expected))
        << "bucket " << b;
}

TEST(Rng, Uniform01MeanAndVariance) {
  util::Rng r(777);
  double sum = 0, sum_sq = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = r.uniform01();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, NoShortCycles) {
  // xoshiro256** has period 2^256 - 1; sanity-check that a window of
  // consecutive outputs never repeats within a modest horizon.
  util::Rng r(31337);
  const std::uint64_t first = r.next(), second = r.next();
  for (int i = 0; i < 100000; ++i) {
    if (r.next() == first) {
      util::Rng probe = r;  // check the follower too
      EXPECT_NE(probe.next(), second) << "short cycle at offset " << i;
    }
  }
}

TEST(Rng, ChanceExtremes) {
  util::Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// ------------------------------------------------------------------ ratio

TEST(Ratio, ReducesToLowestTerms) {
  util::Ratio r(6, 8);
  EXPECT_EQ(r.num, 3);
  EXPECT_EQ(r.den, 4);
}

TEST(Ratio, RejectsBadDenominator) {
  EXPECT_THROW(util::Ratio(1, 0), std::invalid_argument);
  EXPECT_THROW(util::Ratio(1, -2), std::invalid_argument);
  EXPECT_THROW(util::Ratio(-1, 2), std::invalid_argument);
}

TEST(Ratio, MulFloorExact) {
  util::Ratio r(2, 3);
  EXPECT_EQ(r.mul_floor(9), 6);
  EXPECT_EQ(r.mul_floor(10), 6);
  EXPECT_EQ(r.mul_floor(11), 7);
}

TEST(Ratio, MulFloorLargeNoOverflow) {
  util::Ratio r(999999, 1000000);
  const std::int64_t t = 4'000'000'000'000'000LL;
  EXPECT_EQ(r.mul_floor(t), t / 1000000 * 999999);
}

TEST(Ratio, DivCeil) {
  util::Ratio r(1, 2);
  EXPECT_EQ(r.div_ceil(5), 10);  // smallest x with x/2 >= 5
  util::Ratio q(3, 4);
  EXPECT_EQ(q.div_ceil(3), 4);
}

TEST(Ratio, Comparisons) {
  EXPECT_TRUE(util::Ratio(1, 2) < util::Ratio(2, 3));
  EXPECT_TRUE(util::Ratio(2, 4) == util::Ratio(1, 2));
  EXPECT_TRUE(util::Ratio(9, 10) < util::Ratio::one());
  EXPECT_TRUE(util::Ratio::zero() <= util::Ratio::zero());
}

TEST(Ratio, FromDoubleRoundTrip) {
  const auto r = util::Ratio::from_double(0.9);
  EXPECT_NEAR(r.to_double(), 0.9, 1e-6);
}

// -------------------------------------------------------------- histogram

TEST(Histogram, EmptyState) {
  util::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.summary(), "n=0");
}

TEST(Histogram, ExactMinMeanMax) {
  util::Histogram h;
  for (int v : {5, 10, 15}) h.add(v);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 15);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, QuantileMonotoneAndBounded) {
  util::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i);
  std::int64_t prev = h.quantile(0.0);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto v = h.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
}

TEST(Histogram, MedianApproximationWithin25Percent) {
  util::Histogram h;
  for (int i = 1; i <= 10000; ++i) h.add(i);
  const auto med = h.quantile(0.5);
  EXPECT_GT(med, 3500);
  EXPECT_LT(med, 6700);
}

TEST(Histogram, MergeMatchesCombined) {
  util::Histogram a, b, all;
  for (int i = 0; i < 100; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 100; i < 300; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_EQ(a.quantile(0.5), all.quantile(0.5));
}

TEST(Histogram, MergeIntoEmpty) {
  util::Histogram a, b;
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7);
}

TEST(Histogram, NegativeClampedIntoFirstBucketButExactMin) {
  util::Histogram h;
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.quantile(0.0), -5);
}

TEST(Histogram, ClearResets) {
  util::Histogram h;
  h.add(1);
  h.clear();
  EXPECT_TRUE(h.empty());
}

TEST(Histogram, SumStaysExactBeyondDoublePrecision) {
  // A double accumulator absorbs +1 without effect once the running sum
  // reaches 2^53; the exact accumulator must not. (This test fails
  // against the old `double sum_` implementation.)
  util::Histogram h;
  h.add(std::int64_t{1} << 53);
  h.add(1);
  const util::Int128Sum want{0, (std::uint64_t{1} << 53) + 1};
  EXPECT_EQ(h.sum_exact(), want);
  EXPECT_DOUBLE_EQ(h.mean(), (std::ldexp(1.0, 53) + 1.0) / 2.0);
}

TEST(Histogram, SumExactAcrossManyLargeSamples) {
  // 1024 samples of (2^53 + 1): the exact sum keeps all 1024 trailing
  // +1s (2^63 + 1024); a double accumulator would have dropped each one.
  util::Histogram h;
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  for (int i = 0; i < 1024; ++i) h.add(big);
  const util::Int128Sum want{0, (std::uint64_t{1} << 63) + 1024};
  EXPECT_EQ(h.sum_exact(), want);
}

TEST(Histogram, SumExactSurvivesMergeAndNegatives) {
  util::Histogram a, b;
  a.add(std::int64_t{1} << 53);
  b.add(1);
  b.add(-2);
  a.merge(b);
  const util::Int128Sum want{0, (std::uint64_t{1} << 53) - 1};
  EXPECT_EQ(a.sum_exact(), want);
}

TEST(Histogram, Int128SumCarriesPastUint64) {
  util::Int128Sum s;
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  s.add(max);
  s.add(max);
  s.add(2);  // total = 2^64 exactly
  EXPECT_EQ(s.hi, 1);
  EXPECT_EQ(s.lo, 0u);
  EXPECT_DOUBLE_EQ(s.to_double(), std::ldexp(1.0, 64));
  s.add(-1);
  EXPECT_EQ(s.hi, 0);
  EXPECT_EQ(s.lo, std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, ClearThenMergeEqualsOther) {
  // clear() keeps the resized bucket vector of a previous life; a merge
  // into the cleared (empty) histogram must still reproduce `other`
  // exactly, not be skewed by the stale capacity.
  util::Histogram h;
  h.add(std::int64_t{1} << 40);  // forces a large buckets_ resize
  h.clear();

  util::Histogram other;
  for (int i = 1; i <= 10; ++i) other.add(i);
  h.merge(other);
  EXPECT_EQ(h.count(), other.count());
  EXPECT_EQ(h.min(), other.min());
  EXPECT_EQ(h.max(), other.max());
  EXPECT_EQ(h.sum_exact(), other.sum_exact());
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_EQ(h.quantile(q), other.quantile(q)) << "q=" << q;
}

TEST(Histogram, MergeAfterClearBothDirections) {
  // The reverse orientation: a live histogram merges one that was
  // cleared (merge must be a no-op), then one that was cleared and
  // refilled.
  util::Histogram cleared;
  cleared.add(12345);
  cleared.clear();

  util::Histogram live;
  live.add(7);
  live.merge(cleared);
  EXPECT_EQ(live.count(), 1u);
  EXPECT_EQ(live.min(), 7);
  EXPECT_EQ(live.max(), 7);

  cleared.add(3);
  live.merge(cleared);
  EXPECT_EQ(live.count(), 2u);
  EXPECT_EQ(live.min(), 3);
  EXPECT_EQ(live.quantile(0.0), 3);
  EXPECT_EQ(live.quantile(1.0), 7);
}

TEST(Histogram, QuantileExactAtExtremes) {
  // q=0 and q=1 are documented exact even though interior quantiles are
  // bucketed: min/max must come back bit-exact, including after merges
  // and for single-sample histograms.
  util::Histogram h;
  h.add(1000001);
  EXPECT_EQ(h.quantile(0.0), 1000001);
  EXPECT_EQ(h.quantile(1.0), 1000001);

  util::Histogram wide;
  wide.add(-17);
  wide.add(3);
  wide.add((std::int64_t{1} << 50) + 9);
  EXPECT_EQ(wide.quantile(0.0), -17);
  EXPECT_EQ(wide.quantile(1.0), (std::int64_t{1} << 50) + 9);
  h.merge(wide);
  EXPECT_EQ(h.quantile(0.0), -17);
  EXPECT_EQ(h.quantile(1.0), (std::int64_t{1} << 50) + 9);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns) {
  util::Table t({"name", "value"});
  t.row("alpha", 1);
  t.row("b", 22.5);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.500"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsWidthMismatch) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatsBooleansAndIntegralWidths) {
  util::Table t({"flag", "big"});
  t.row(true, std::uint64_t{1234567890123ULL});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("yes"), std::string::npos);
  EXPECT_NE(s.find("1234567890123"), std::string::npos);
}

TEST(Table, ScientificForExtremeDoubles) {
  util::Table t({"tiny", "huge", "intlike"});
  t.row(1.23e-5, 4.5e9 + 0.5, 1.5e12);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("e-"), std::string::npos);  // tiny -> scientific
  EXPECT_NE(s.find("e+"), std::string::npos);  // huge fractional -> sci
  // Integral-valued doubles render as plain integers.
  EXPECT_NE(s.find("1500000000000"), std::string::npos);
}

// -------------------------------------------------------------------- csv

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "asyncmac_csv_test.csv";
  {
    util::CsvWriter w(path, {"x", "label"});
    w.row(1, "plain");
    w.row(2, "with,comma");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,label");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"with,comma\"");
  std::remove(path.c_str());
}

TEST(Csv, AddRowEscapesAdversarialCells) {
  // add_row is the raw-cell entry point (the header goes through it, and
  // callers with pre-stringified cells use it directly); it must quote
  // cells containing separators, quotes, or newlines. (This test fails
  // against the old implementation, which wrote cells verbatim.)
  const std::string path = ::testing::TempDir() + "asyncmac_csv_adv.csv";
  {
    util::CsvWriter w(path, {"protocol(name,params)", "note"});
    w.add_row({"ca-arrow(n=2,R=4)", "line\nbreak"});
    w.add_row({"plain", "quote\"inside"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "\"protocol(name,params)\",note");
  std::getline(in, line);
  EXPECT_EQ(line, "\"ca-arrow(n=2,R=4)\",\"line");
  std::getline(in, line);  // continuation of the quoted newline cell
  EXPECT_EQ(line, "break\"");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"quote\"\"inside\"");
  std::remove(path.c_str());
}

TEST(Csv, RowPathDoesNotDoubleEscape) {
  // The typed row() convenience funnels into add_row; a cell must be
  // quoted exactly once on that path.
  const std::string path = ::testing::TempDir() + "asyncmac_csv_once.csv";
  {
    util::CsvWriter w(path, {"s"});
    w.row(std::string("a,b"));
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\"");
  std::remove(path.c_str());
}

TEST(Csv, EscapesQuotes) {
  const std::string path = ::testing::TempDir() + "asyncmac_csv_q.csv";
  {
    util::CsvWriter w(path, {"s"});
    w.row("he said \"hi\"");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"he said \"\"hi\"\"\"");
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- json

TEST(Json, ParsesScalarsAndNesting) {
  const auto v = util::parse_json(
      R"({"a": 1, "b": -2.5, "c": "x\"y", "d": [true, false, null], "e": {"k": 9}})");
  ASSERT_EQ(v.kind, util::JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("a")->as_i64(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->number, -2.5);
  EXPECT_EQ(v.find("c")->string, "x\"y");
  ASSERT_EQ(v.find("d")->array.size(), 3u);
  EXPECT_TRUE(v.find("d")->array[0].boolean);
  EXPECT_EQ(v.find("d")->array[2].kind, util::JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("e")->find("k")->as_i64(), 9);
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(Json, DecodesUnicodeEscapes) {
  for (const char* text : {R"({"s": "aé✓"})", R"({"s": "a\u00e9\u2713"})"}) {
    const auto v = util::parse_json(text);
    EXPECT_EQ(v.find("s")->string, "a\xc3\xa9\xe2\x9c\x93") << text;
  }
}

TEST(Json, RejectsMalformedInput) {
  for (const std::string text : {
           "", "{", "{} extra", R"({"a": 01})", R"({"a": "\x"})", "[1, 2,]",
           // Numbers a double cannot hold are typed errors too.
           "1e999", "-1e999", "1.5e-999", R"({"t_ms": 1e999})",
           // The rest of the grammar's edges.
           "-", "1.", "1e", "[-]", R"("\u12")", R"("\u12G4")",
           "\"a\x01" "b\"", R"({"a": 1, "a": 2})", "tru", "nul"}) {
    EXPECT_THROW(util::parse_json(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  // Arrays and objects count alike; the error names the byte offset of
  // the first bracket past the cap.
  auto nested = [](int depth) {
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
      open += i % 2 ? "{\"k\":" : "[";
      close.insert(0, i % 2 ? "}" : "]");
    }
    return open + "0" + close;
  };
  util::JsonValue v = util::parse_json(nested(util::kMaxJsonDepth));
  for (int i = 1; i < util::kMaxJsonDepth; ++i)
    v = i % 2 ? util::JsonValue(v.array.at(0)) : util::JsonValue(*v.find("k"));
  EXPECT_EQ(v.kind, util::JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("k")->as_i64(), 0);

  const std::string deeper = nested(util::kMaxJsonDepth + 1);
  try {
    util::parse_json(deeper);
    FAIL() << "accepted " << util::kMaxJsonDepth + 1 << " levels";
  } catch (const std::invalid_argument& e) {
    const std::size_t offset = deeper.find('0') - 1;  // the innermost '['
    EXPECT_NE(std::string(e.what()).find("at byte " + std::to_string(offset)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(util::parse_json(std::string(100000, '[')),
               std::invalid_argument);
}

TEST(Json, HugeIntegersFallBackToDouble) {
  const auto v = util::parse_json(R"({"big": 99999999999999999999999})");
  const util::JsonValue* big = v.find("big");
  EXPECT_EQ(big->kind, util::JsonValue::Kind::kNumber);
  EXPECT_FALSE(big->integral);
  EXPECT_THROW(big->as_u64(), std::invalid_argument);
  EXPECT_GT(big->number, 1e22);
}

TEST(Json, IntegersKeepTheirExactValue) {
  const auto v = util::parse_json(
      R"([18446744073709551615, -9223372036854775808, 9223372036854775808,
          -9223372036854775809, -1, -0, 1.5, 1e2, "7"])");
  const auto& a = v.array;
  EXPECT_EQ(a[0].as_u64(), UINT64_MAX);
  EXPECT_THROW(a[0].as_i64(), std::invalid_argument);
  EXPECT_EQ(a[1].as_i64(), INT64_MIN);
  EXPECT_THROW(a[1].as_u64(), std::invalid_argument);
  EXPECT_EQ(a[2].as_u64(), 9223372036854775808ULL);
  EXPECT_THROW(a[2].as_i64(), std::invalid_argument);
  EXPECT_FALSE(a[3].integral);  // below INT64_MIN: the double alone
  EXPECT_EQ(a[4].as_i64(), -1);
  EXPECT_THROW(a[4].as_u64(), std::invalid_argument);
  EXPECT_EQ(a[5].as_i64(), 0);
  for (std::size_t i = 6; i < a.size(); ++i) {
    EXPECT_THROW(a[i].as_u64(), std::invalid_argument) << i;
    EXPECT_THROW(a[i].as_i64(), std::invalid_argument) << i;
  }
  EXPECT_DOUBLE_EQ(a[7].number, 100.0);
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
  EXPECT_EQ(kEveryByteValueEscaped.size(), 406u);
  EXPECT_EQ(util::json_escape(every_byte_value()), kEveryByteValueEscaped);
  // The parser reads every escaped byte back.
  EXPECT_EQ(util::parse_json('"' + kEveryByteValueEscaped + '"').string,
            every_byte_value());
}

// ------------------------------------------------------------------ check

TEST(Check, CheckThrowsLogicError) {
  EXPECT_THROW(AM_CHECK(false), std::logic_error);
  EXPECT_NO_THROW(AM_CHECK(true));
}

TEST(Check, CheckMsgIncludesPayload) {
  try {
    AM_CHECK_MSG(false, "x=" << 42);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("x=42"), std::string::npos);
  }
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(AM_REQUIRE(false, "bad input"), std::invalid_argument);
  EXPECT_NO_THROW(AM_REQUIRE(true, "ok"));
}

}  // namespace
}  // namespace asyncmac
