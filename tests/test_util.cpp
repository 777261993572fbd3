// Unit tests for util: time/frequency types, RNGs, statistics, histograms,
// tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/blob.hpp"
#include "util/crc32.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace aetr {
namespace {

using namespace time_literals;

TEST(Time, LiteralsAndConversions) {
  EXPECT_EQ((1_ns).count_ps(), 1000);
  EXPECT_EQ((1_us).count_ps(), 1'000'000);
  EXPECT_EQ((1_ms).count_ps(), 1'000'000'000);
  EXPECT_EQ((1_sec).count_ps(), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ((2500_ps).to_ns(), 2.5);
  EXPECT_DOUBLE_EQ((1500_us).to_ms(), 1.5);
}

TEST(Time, RoundsFractionalInputToNearestPicosecond) {
  EXPECT_EQ(Time::ns(0.0004).count_ps(), 0);
  EXPECT_EQ(Time::ns(0.0006).count_ps(), 1);
  EXPECT_EQ(Time::ns(66.6667).count_ps(), 66667);
}

TEST(Time, Arithmetic) {
  EXPECT_EQ(1_us + 500_ns, Time::ns(1500));
  EXPECT_EQ(1_us - 400_ns, 600_ns);
  EXPECT_EQ((100_ns) * 3, 300_ns);
  EXPECT_EQ((1_us) / (250_ns), 4);
  EXPECT_EQ((1100_ns) % (250_ns), 100_ns);
  EXPECT_LT(99_ns, 100_ns);
  EXPECT_GT(1_ms, 999_us);
}

TEST(Time, RatioAndToString) {
  EXPECT_DOUBLE_EQ((500_ns).ratio(1_us), 0.5);
  EXPECT_EQ((1500_ns).to_string(), "1.5us");
  EXPECT_EQ((250_ps).to_string(), "250ps");
}

TEST(Frequency, PeriodRoundTrip) {
  const auto f = Frequency::mhz(15.0);
  EXPECT_NEAR(f.period().to_ns(), 66.667, 0.001);
  // The period is rounded to the picosecond grid, so the round trip is
  // accurate only to ~1e-5 relative.
  EXPECT_NEAR(Frequency::from_period(f.period()).to_mhz(), 15.0, 1e-3);
}

TEST(Frequency, UnitHelpers) {
  EXPECT_DOUBLE_EQ(Frequency::khz(550.0).to_hz(), 550e3);
  EXPECT_DOUBLE_EQ(Frequency::mhz(120.0).to_hz(), 120e6);
}

TEST(Blob, CountRefusesMoreElementsThanTheBytesLeft) {
  BlobWriter w;
  w.u64(3);
  for (const std::uint64_t v : {1u, 2u, 3u}) w.u64(v);
  BlobReader fits{w.bytes()};
  EXPECT_EQ(fits.count(8), 3u);
  BlobReader too_wide{w.bytes()};
  EXPECT_THROW((void)too_wide.count(9), std::runtime_error);
  BlobWriter huge;
  huge.u64(~std::uint64_t{0});
  BlobReader r{huge.bytes()};
  EXPECT_THROW((void)r.count(1), std::runtime_error);
}

/// The encoding BlobWriter promises, one byte at a time: the `n` low bytes
/// of `v`, least significant first.
void reference_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(Blob, FixedWidthFieldsMatchThePerByteEncoding) {
  Xoshiro256StarStar rng{2024};
  // Each value alone, then random sequences of them on one writer, so
  // fields land at every offset and across every regrowth.
  for (int round = 0; round < 400; ++round) {
    BlobWriter w;
    std::vector<std::uint8_t> want;
    const int fields =
        round < 100 ? 1 : 1 + static_cast<int>(rng.uniform_int(64));
    for (int f = 0; f < fields; ++f) {
      const std::uint64_t v = rng.next();
      switch (rng.uniform_int(5)) {
        case 0:
          w.u16(static_cast<std::uint16_t>(v));
          reference_le(want, v & 0xFFFFu, 2);
          break;
        case 1:
          w.u32(static_cast<std::uint32_t>(v));
          reference_le(want, v & 0xFFFFFFFFu, 4);
          break;
        case 2:
          w.u64(v);
          reference_le(want, v, 8);
          break;
        case 3: {
          double d = 0.0;
          std::memcpy(&d, &v, sizeof d);
          w.f64(d);
          reference_le(want, v, 8);
          break;
        }
        default:
          w.time(Time::ps(static_cast<Time::Rep>(v)));
          reference_le(want, v, 8);
          break;
      }
    }
    ASSERT_EQ(w.bytes(), want) << "round " << round;
  }
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256StarStar a{123}, b{123}, c{124};
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256StarStar rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformIntBounded) {
  Xoshiro256StarStar rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(Xoshiro, ExponentialMeanMatches) {
  Xoshiro256StarStar rng{99};
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.02);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256StarStar rng{5};
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(3.0, 0.5));
  EXPECT_NEAR(s.mean(), 3.0, 0.01);
  EXPECT_NEAR(s.stddev(), 0.5, 0.01);
}

TEST(Xoshiro, ExponentialTime) {
  Xoshiro256StarStar rng{11};
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(rng.exponential_time(10_us).to_sec());
  }
  EXPECT_NEAR(s.mean(), 10e-6, 0.2e-6);
}

TEST(Lfsr, MaximalLength16Bit) {
  Lfsr lfsr{16, 0x100Bu, 0xACE1u};
  const auto start = lfsr.state();
  std::uint64_t period = 0;
  do {
    lfsr.step();
    ++period;
  } while (lfsr.state() != start && period <= 70000);
  EXPECT_EQ(period, 65535u);  // maximal length: 2^16 - 1
}

TEST(Lfsr, NeverReachesZeroState) {
  Lfsr lfsr{8, 0x1Du, 0x01u};  // maximal 8-bit polynomial x^8+x^6+x^5+x^4+1
  for (int i = 0; i < 300; ++i) {
    lfsr.step();
    EXPECT_NE(lfsr.state(), 0u);
  }
}

TEST(Lfsr, ZeroSeedIsCoercedToNonZero) {
  Lfsr lfsr{16, 0xD008u, 0};
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, StepWordBitWidth) {
  Lfsr lfsr{12, 0x107u, 0x5A5u};
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(lfsr.step_word(), 1u << 12);
  }
}

// Bit-serial reference Fibonacci LFSR: one clock per call, the tap parity
// folded bit by bit, words assembled MSB first from successive clocks.
class SerialLfsr {
 public:
  SerialLfsr(std::uint32_t width, std::uint32_t taps, std::uint32_t seed)
      : width_{width},
        taps_{taps},
        mask_{width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u)},
        state_{seed & mask_} {
    if (state_ == 0) state_ = 1;
  }

  std::uint32_t step() {
    const std::uint32_t out = state_ & 1u;
    std::uint32_t feedback = 0;
    std::uint32_t tapped = state_ & taps_;
    while (tapped != 0) {
      feedback ^= tapped & 1u;
      tapped >>= 1;
    }
    state_ = ((state_ >> 1) | (feedback << (width_ - 1))) & mask_;
    return out;
  }

  std::uint32_t step_word() {
    std::uint32_t word = 0;
    for (std::uint32_t i = 0; i < width_; ++i) word = (word << 1) | step();
    return word;
  }

  [[nodiscard]] std::uint32_t state() const { return state_; }

 private:
  std::uint32_t width_;
  std::uint32_t taps_;
  std::uint32_t mask_;
  std::uint32_t state_;
};

// Runs `words` step_word() calls on both registers, with a single step()
// between words every `interleave` words (0: never). Stops at the first
// mismatch so a broken table reports once, not per word.
void expect_matches_serial(std::uint32_t width, std::uint32_t taps,
                           std::uint32_t seed, std::uint64_t words,
                           std::uint64_t interleave = 0) {
  Lfsr fast{width, taps, seed};
  SerialLfsr ref{width, taps, seed};
  ASSERT_EQ(fast.state(), ref.state());
  for (std::uint64_t i = 0; i < words; ++i) {
    const std::uint32_t want = ref.step_word();
    const std::uint32_t got = fast.step_word();
    if (got != want || fast.state() != ref.state()) {
      FAIL() << "width " << width << " taps 0x" << std::hex << taps
             << " seed 0x" << seed << std::dec << ": word " << i << " got 0x"
             << std::hex << got << " want 0x" << want << ", state 0x"
             << fast.state() << " want 0x" << ref.state();
    }
    if (interleave != 0 && i % interleave == 0) {
      if (fast.step() != ref.step() || fast.state() != ref.state()) {
        FAIL() << "width " << width << ": step() after word " << i;
      }
    }
  }
}

TEST(Lfsr, StepWordMatchesBitSerial) {
  // The Fig. 8 interval register over its full period, then two more seeds.
  expect_matches_serial(24, 0x87u, 0xACE1u, std::uint64_t{1} << 24);
  expect_matches_serial(24, 0x87u, 0x000001u, 200000);
  expect_matches_serial(24, 0x87u, 0x9E3779u, 200000);
  // The address register over two full periods, for several seeds.
  for (const std::uint32_t seed : {0xACE1u, 0x0001u, 0x8000u, 0xFFFFu}) {
    expect_matches_serial(16, 0x100Bu, seed, 2 * 65535 + 7);
  }
  expect_matches_serial(2, 0x3u, 0x1u, 100);
  expect_matches_serial(8, 0x1Du, 0x5Au, 1000);
  expect_matches_serial(12, 0x107u, 0x5A5u, 10000);
  expect_matches_serial(32, 0x80200003u, 0xDEADBEEFu, 100000);
  // step() between words must leave step_word() on the serial sequence.
  expect_matches_serial(24, 0x87u, 0x123456u, 50000, 3);
  expect_matches_serial(16, 0x100Bu, 0xBEEFu, 50000, 1);
  expect_matches_serial(32, 0x80200003u, 0x1u, 50000, 5);
}

TEST(Lfsr, RejectsWidthOutsideTwoToThirtyTwo) {
  EXPECT_THROW(Lfsr(0, 0x1u, 1u), std::invalid_argument);
  EXPECT_THROW(Lfsr(1, 0x1u, 1u), std::invalid_argument);
  EXPECT_THROW(Lfsr(33, 0x1u, 1u), std::invalid_argument);
  EXPECT_THROW(Lfsr(64, 0x1u, 1u), std::invalid_argument);
  EXPECT_NO_THROW(Lfsr(2, 0x3u, 1u));
  EXPECT_NO_THROW(Lfsr(32, 0x80200003u, 1u));
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsBulk) {
  RunningStats a, b, all;
  Xoshiro256StarStar rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0.0, 1.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty) {
  RunningStats a, b;
  b.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e{0.1};
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);  // primes on first sample
  for (int i = 0; i < 200; ++i) e.add(4.0);
  EXPECT_NEAR(e.value(), 4.0, 1e-6);
}

TEST(Histogram, BinningAndProbability) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);
  h.add(42.0);
  EXPECT_DOUBLE_EQ(h.total(), 12.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(h.count(i), 1.0);
    EXPECT_NEAR(h.probability(i), 1.0 / 12.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, Quantile) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.01);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.01);
}

TEST(Histogram, AsciiRenders) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const auto art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(LogHistogram, GeometricBins) {
  LogHistogram h{1.0, 1000.0, 1};
  h.add(5.0);
  h.add(50.0);
  h.add(500.0);
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_NEAR(h.bin_center(0), std::sqrt(10.0), 1e-9);
}

TEST(Table, AlignedPrintAndCsv) {
  Table t{{"rate", "power"}};
  t.add_row({"100", "4.5"});
  t.add_row({"100000", "0.05"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("rate"), std::string::npos);
  EXPECT_NE(text.find("100000"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(Table::num(0.05), "0.05");
  EXPECT_EQ(Table::num(4500.0, 2), "4.5e+03");
}

TEST(Table, CsvQuotesCellsThatHoldSeparators) {
  Table t{{"configuration", "drop%"}};
  t.add_row({"static theta=16, N=6", "0"});
  t.add_row({"say \"hi\"", "1"});
  t.add_row({"two\nlines", "2"});
  const std::string path = ::testing::TempDir() + "aetr_table_quoting.csv";
  t.write_csv(path);
  std::ifstream f{path};
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(),
            "configuration,drop%\n"
            "\"static theta=16, N=6\",0\n"
            "\"say \"\"hi\"\"\",1\n"
            "\"two\nlines\",2\n");
  std::remove(path.c_str());
}

// --- CRC-32 ----------------------------------------------------------------

/// The bit-at-a-time CRC walk both kernels must equal.
std::uint32_t reference_crc32_update(std::uint32_t state,
                                     const std::uint8_t* data,
                                     std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) != 0u ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng{seed};
  std::uniform_int_distribution<int> byte{0, 255};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(byte(rng));
  return out;
}

TEST(Crc32, KnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32_bytes(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xCBF43926u);
  const std::vector<std::uint8_t> one_word{1, 0, 0, 0};
  EXPECT_EQ(util::crc32_bytes(one_word), 0x99F8B879u);
  EXPECT_EQ(util::crc32_bytes(nullptr, 0), 0u);
}

/// The table kernel, the dispatched crc32_update and, where this CPU has
/// PCLMUL, the folding kernel all fold `p[0..len)` from `state` to `want`.
::testing::AssertionResult kernels_give(std::uint32_t want,
                                        std::uint32_t state,
                                        const std::uint8_t* p,
                                        std::size_t len) {
  const std::uint32_t table = util::crc32_update_table(state, p, len);
  const std::uint32_t dispatched = util::crc32_update(state, p, len);
  const std::uint32_t clmul = util::crc32_clmul_supported()
                                  ? util::crc32_update_clmul(state, p, len)
                                  : want;
  if (table == want && clmul == want && dispatched == want) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "length " << len << ": want " << want << ", table " << table
         << ", clmul " << clmul << ", dispatched " << dispatched;
}

TEST(Crc32, KernelsEqualByteWiseAtEveryLengthAndOffset) {
  // Every length 0..4096 from each of sixteen start offsets: every split
  // between the 64-byte folds, the 16-byte folds and the table tail, every
  // split of the table kernel's 8-byte, 4-byte and byte steps, and every
  // alignment of both kernels' loads.
  const auto data = random_bytes(4096 + 16, 20261018);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* p = data.data() + offset;
    std::uint32_t want = 0xFFFFFFFFu;  // the walk over p[0..len)
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_TRUE(kernels_give(want, 0xFFFFFFFFu, p, len))
          << "offset " << offset;
      want = reference_crc32_update(want, p + len, 1);
    }
  }
}

TEST(Crc32, KernelsEqualByteWiseOnLongBuffers) {
  // Lengths k*64 - 1, k*64 and k*64 + 1 up to 64 KiB, from any register
  // value, and one buffer past the largest wire payload.
  const auto data = random_bytes((std::size_t{1} << 20) + 16, 28);
  const std::uint32_t seed = 0x9E3779B9u;
  std::uint32_t want = seed;  // the walk over data[0..len)
  std::size_t walked = 0;
  for (std::size_t k = 1; k <= 1024; ++k) {
    for (const std::size_t len : {k * 64 - 1, k * 64, k * 64 + 1}) {
      if (len > 65536) continue;
      want = reference_crc32_update(want, data.data() + walked, len - walked);
      walked = len;
      ASSERT_TRUE(kernels_give(want, seed, data.data(), len));
    }
  }
  want = reference_crc32_update(want, data.data() + walked,
                                data.size() - walked);
  EXPECT_TRUE(kernels_give(want, seed, data.data(), data.size()))
      << "kMaxPayload + 16";
}

TEST(Crc32, IncrementalUpdatesAtRandomSplitsEqualOneShot) {
  // Pieces of 0..40 bytes stay on the table kernel; pieces of 0..300 bytes
  // cross the 64-byte threshold, so the folding kernel resumes from
  // registers the table kernel left and the other way round.
  std::mt19937 rng{7};
  for (int iter = 0; iter < 1000; ++iter) {
    const auto data = random_bytes(
        std::uniform_int_distribution<std::size_t>{0, 6442}(rng),
        static_cast<std::uint32_t>(iter));
    const std::uint32_t one_shot = util::crc32_bytes(data);
    ASSERT_EQ(one_shot, ~reference_crc32_update(0xFFFFFFFFu, data.data(),
                                                 data.size()));
    const std::size_t max_piece = iter % 2 == 0 ? 40 : 300;
    std::uint32_t state = 0xFFFFFFFFu;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t piece = std::min(
          data.size() - pos,
          std::uniform_int_distribution<std::size_t>{0, max_piece}(rng));
      state = util::crc32_update(state, data.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(~state, one_shot) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace aetr
