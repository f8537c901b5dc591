// Unit tests for swala_common: status, strings, config, hash, rng, stats,
// queue, clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/hash.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace swala {
namespace {

// ---- Status / Result ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kNotFound, "missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "not_found: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(StatusCode::kTimeout, "too slow");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 1000u);
}

// ---- strings ----

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \r\n"), "a b");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, SplitTrimmed) {
  EXPECT_EQ(split_trimmed(" a , b ,, c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_TRUE(starts_with("/cgi-bin/x", "/cgi-bin/"));
  EXPECT_FALSE(starts_with("/cgi", "/cgi-bin/"));
  EXPECT_TRUE(ends_with("file.html", ".html"));
}

TEST(StringsTest, GlobBasics) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("/cgi-bin/*", "/cgi-bin/query?x=1"));
  EXPECT_FALSE(glob_match("/cgi-bin/*", "/static/a.html"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*.gif", "tile7.gif"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXbYY"));
}

TEST(StringsTest, GlobStarCrossesSlashes) {
  // Cacheability patterns treat '*' as "any run", including '/'.
  EXPECT_TRUE(glob_match("/cgi-bin/*", "/cgi-bin/sub/dir/prog"));
}

TEST(StringsTest, ParseNumbers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("123", &u));
  EXPECT_EQ(u, 123u);
  EXPECT_FALSE(parse_u64("12x", &u));
  EXPECT_FALSE(parse_u64("", &u));
  EXPECT_FALSE(parse_u64("-5", &u));

  double d = 0;
  EXPECT_TRUE(parse_double("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_TRUE(parse_double(" 2 ", &d));
  EXPECT_FALSE(parse_double("abc", &d));
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.0 MiB");
}

// ---- config ----

TEST(ConfigTest, ParsesSectionsAndValues) {
  auto cfg = Config::parse(
      "top = 1\n"
      "[server]\n"
      "port = 8080\n"
      "host=127.0.0.1\n"
      "# comment\n"
      "; also comment\n"
      "[cache]\n"
      "enabled = true\n"
      "ratio = 0.5\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().get_int("", "top"), 1);
  EXPECT_EQ(cfg.value().get_int("server", "port"), 8080);
  EXPECT_EQ(cfg.value().get_string("server", "host"), "127.0.0.1");
  EXPECT_TRUE(cfg.value().get_bool("cache", "enabled"));
  EXPECT_DOUBLE_EQ(cfg.value().get_double("cache", "ratio"), 0.5);
}

TEST(ConfigTest, FallbacksAndMissing) {
  auto cfg = Config::parse("[a]\nx = 1\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().get_int("a", "missing", 7), 7);
  EXPECT_EQ(cfg.value().get_string("nosection", "x", "dflt"), "dflt");
  EXPECT_FALSE(cfg.value().has("a", "missing"));
  EXPECT_TRUE(cfg.value().has("a", "x"));
}

TEST(ConfigTest, RepeatedKeys) {
  auto cfg = Config::parse("[r]\nrule = one\nrule = two\nrule = three\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().get_all("r", "rule"),
            (std::vector<std::string>{"one", "two", "three"}));
  // Scalar getter resolves to the last occurrence.
  EXPECT_EQ(cfg.value().get_string("r", "rule"), "three");
}

TEST(ConfigTest, InlineComments) {
  auto cfg = Config::parse(
      "[server]\n"
      "port = 8080  ; ephemeral would be 0\n"
      "policy = gds # greedy-dual-size\n"
      "rule = /cgi-bin/*#* cache\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().get_int("server", "port"), 8080);
  EXPECT_EQ(cfg.value().get_string("server", "policy"), "gds");
  // A marker glued to the value is part of it, not a comment.
  EXPECT_EQ(cfg.value().get_string("server", "rule"), "/cgi-bin/*#* cache");
}

TEST(ConfigTest, MalformedLines) {
  EXPECT_FALSE(Config::parse("[broken\n").is_ok());
  EXPECT_FALSE(Config::parse("no equals sign\n").is_ok());
  EXPECT_FALSE(Config::parse("= value\n").is_ok());
}

TEST(ConfigTest, BoolSpellings) {
  auto cfg = Config::parse("a=yes\nb=off\nc=1\nd=FALSE\ne=maybe\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_TRUE(cfg.value().get_bool("", "a"));
  EXPECT_FALSE(cfg.value().get_bool("", "b", true));
  EXPECT_TRUE(cfg.value().get_bool("", "c"));
  EXPECT_FALSE(cfg.value().get_bool("", "d", true));
  EXPECT_TRUE(cfg.value().get_bool("", "e", true));  // unparsable -> fallback
}

TEST(ConfigTest, NegativeIntegers) {
  auto cfg = Config::parse("x = -42\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().get_int("", "x"), -42);
}

// ---- hash ----

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, ContinuationMatchesConcatenation) {
  const auto direct = fnv1a64("hello world");
  const auto split_hash = fnv1a64_continue(fnv1a64("hello "), "world");
  EXPECT_EQ(direct, split_hash);
}

TEST(HashTest, Mix64Avalanche) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), 0u);
}

// ---- rng / distributions ----

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, LognormalMean) {
  Rng rng(6);
  OnlineStats stats;
  // mean = exp(mu + sigma^2/2) = exp(0 + 0.125) ~ 1.133
  for (int i = 0; i < 50000; ++i) stats.add(rng.lognormal(0.0, 0.5));
  EXPECT_NEAR(stats.mean(), std::exp(0.125), 0.05);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(v, 10.0 * 0.999);
    EXPECT_LE(v, 1000.0 * 1.001);
  }
}

TEST(ZipfTest, RankOneMostPopular) {
  Rng rng(8);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(9);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(11, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];
  for (int r = 1; r <= 10; ++r) {
    EXPECT_NEAR(counts[r], draws / 10.0, draws * 0.01);
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(1000, 0.8);
  double sum = 0.0;
  for (std::size_t r = 1; r <= 1000; ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RejectsEmptyPopulation) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
}

// ---- stats ----

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(OnlineStatsTest, MergeMatchesCombined) {
  Rng rng(11);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(LatencyHistogramTest, PercentilesApproximate) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 0.001);  // 1ms..1s uniform
  EXPECT_NEAR(h.percentile(50), 0.5, 0.05);
  EXPECT_NEAR(h.percentile(99), 0.99, 0.1);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 0.5005, 1e-6);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.add(0.1);
  b.add(0.2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 0.15, 1e-9);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(CounterTest, CopyReadsCurrentValue) {
  Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 4;
  const Counter copy = c;
  ++c;
  EXPECT_EQ(copy, 5u);
  EXPECT_EQ(c, 6u);
  Counter assigned;
  assigned = c;
  EXPECT_EQ(assigned, 6u);
}

TEST(CounterTest, GaugeOperators) {
  Counter g;
  g += 10;
  --g;
  g -= 4;
  EXPECT_EQ(g, 5u);
  const std::uint64_t read = g;
  EXPECT_EQ(read + g, 10u);
}

// A struct of Counters is the live storage and its own snapshot type:
// copies taken while writers run never tear a field, and a copy after the
// writers join sums exactly.
TEST(CounterTest, StructCopySumsExactlyAfterConcurrentIncrements) {
  struct Stats {
    Counter events;
    Counter bytes;
  };
  Stats live;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const Stats snap = live;
      EXPECT_GE(snap.events, last);
      EXPECT_LE(snap.events, kThreads * kIters);
      last = snap.events;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        ++live.events;
        live.bytes += 3;
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  const Stats final_copy = live;
  EXPECT_EQ(final_copy.events, kThreads * kIters);
  EXPECT_EQ(final_copy.bytes, 3 * kThreads * kIters);
}

// ---- queue ----

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(10);
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, ProducerConsumerStress) {
  BoundedQueue<int> q(16);
  constexpr int kItems = 2000;
  std::atomic<long> sum{0};
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) q.push(i);
    q.close();
  });
  std::thread consumer([&] {
    while (auto v = q.pop()) sum += *v;
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems + 1) / 2);
}

// ---- clock ----

TEST(ClockTest, RealClockMonotone) {
  RealClock* clock = RealClock::instance();
  const TimeNs a = clock->now();
  const TimeNs b = clock->now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(10);
  EXPECT_EQ(clock.now(), 10);
}

TEST(ClockTest, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000'000), 2.5);
  EXPECT_EQ(from_millis(2.0), 2'000'000);
}

}  // namespace
}  // namespace swala
