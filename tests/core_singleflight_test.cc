// The cache-side half of overload protection: Deadline arithmetic, the CGI
// concurrency gate, single-flight miss coalescing, and the negative cache.
// (The server-side half — admission control, slow-loris cuts, drain — lives
// in server_overload_test.cc.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cgi/gate.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "core/manager.h"

namespace swala::core {
namespace {

http::Uri uri_of(const std::string& target) {
  http::Uri uri;
  EXPECT_TRUE(http::parse_uri(target, &uri));
  return uri;
}

cgi::CgiOutput ok_output(const std::string& body) {
  cgi::CgiOutput out;
  out.success = true;
  out.http_status = 200;
  out.body = body;
  return out;
}

/// What a server worker does: look up, and on kPending wait for the leader.
LookupResult lookup_and_await(CacheManager& manager, const http::Uri& uri,
                              const Deadline& deadline) {
  return manager.await(manager.lookup(http::Method::kGet, uri, deadline),
                       deadline);
}

ManagerOptions flight_options(double negative_ttl = 0.0,
                              double min_exec = 0.0) {
  ManagerOptions mo;
  mo.limits = {100, 0};
  mo.negative_ttl_seconds = negative_ttl;
  RuleDecision d;
  d.cacheable = true;
  d.min_exec_seconds = min_exec;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

// ---- Deadline ----

TEST(DeadlineTest, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.budget_ms(250), 250);
}

TEST(DeadlineTest, ExpiresWhenClockPasses) {
  ManualClock clock(from_seconds(10.0));
  const auto d = Deadline::after_ms(&clock, 100);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_LE(d.remaining_ms(), 100);
  clock.advance(from_millis(150));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
  // Even expired, the socket-timeout helper never returns 0: to setsockopt,
  // 0 means "no timeout", which would invert the semantics.
  EXPECT_EQ(d.budget_ms(500), 1);
}

TEST(DeadlineTest, NonPositiveBudgetMeansDisabled) {
  ManualClock clock;
  EXPECT_TRUE(Deadline::after_ms(&clock, 0).unlimited());
  EXPECT_TRUE(Deadline::after_ms(&clock, -5).unlimited());
  EXPECT_TRUE(Deadline::after_ms(nullptr, 100).unlimited());
}

TEST(DeadlineTest, BudgetCapsAtRemaining) {
  ManualClock clock;
  const auto d = Deadline::after_ms(&clock, 1000);
  EXPECT_EQ(d.budget_ms(200), 200);    // cap smaller than the budget
  EXPECT_EQ(d.budget_ms(5000), 1000);  // budget smaller than the cap
  EXPECT_EQ(d.budget_ms(0), 1000);     // 0 = "whatever remains"
}

// ---- ExecGate ----

TEST(ExecGateTest, ZeroCapacityIsUnlimited) {
  cgi::ExecGate gate(0);
  EXPECT_TRUE(gate.acquire(Deadline()).is_ok());
  gate.release();
  EXPECT_EQ(gate.stats().queue_waits, 0u);
}

TEST(ExecGateTest, QueuedAcquireProceedsOnRelease) {
  cgi::ExecGate gate(1);
  ASSERT_TRUE(gate.acquire(Deadline()).is_ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(gate.acquire(Deadline()).is_ok());
    got.store(true);
    gate.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(got.load());
  gate.release();
  waiter.join();
  EXPECT_TRUE(got.load());
  const auto s = gate.stats();
  EXPECT_EQ(s.queue_waits, 1u);
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(s.waiting, 0u);
}

TEST(ExecGateTest, QueueWaitTimesOutAtDeadline) {
  ManualClock clock;
  cgi::ExecGate gate(1);
  ASSERT_TRUE(gate.acquire(Deadline()).is_ok());
  const auto d = Deadline::after_ms(&clock, 100);
  std::thread waiter([&gate, d] {
    EXPECT_EQ(gate.acquire(d).code(), StatusCode::kTimeout);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  clock.advance(from_millis(200));  // virtual time only; the slice poll sees it
  waiter.join();
  EXPECT_EQ(gate.stats().queue_timeouts, 1u);
  gate.release();
  EXPECT_EQ(gate.stats().active, 0u);
}

TEST(ExecGateTest, ExecSlotReleasesOnDestruction) {
  cgi::ExecGate gate(1);
  {
    cgi::ExecSlot slot(&gate, Deadline());
    EXPECT_TRUE(slot.acquired());
    EXPECT_EQ(gate.stats().active, 1u);
  }
  EXPECT_EQ(gate.stats().active, 0u);
  const cgi::ExecSlot null_slot(nullptr, Deadline());
  EXPECT_TRUE(null_slot.acquired());  // no gate configured = unlimited
}

// ---- single-flight miss coalescing ----

class SingleFlightTest : public ::testing::Test {
 protected:
  ManualClock clock_{from_seconds(100.0)};
};

TEST_F(SingleFlightTest, WaitersShareOneExecutionEvenBelowThreshold) {
  // min_exec 0.5 but the leader reports 0.1s: the result is NOT cached, yet
  // every waiter must still receive the leader's output (publish happens
  // before the below-threshold early return).
  CacheManager manager(0, 1, flight_options(0.0, /*min_exec=*/0.5), &clock_);
  const auto uri = uri_of("/cgi-bin/slow?x=1");

  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);

  constexpr int kWaiters = 6;
  std::atomic<int> arrived{0};
  std::atomic<int> coalesced{0};
  std::atomic<int> stragglers{0};
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      const auto r = lookup_and_await(manager, uri, Deadline());
      if (r.outcome == LookupOutcome::kHit && r.coalesced) {
        EXPECT_EQ(r.result.data, "payload");
        EXPECT_EQ(r.result.meta.http_status, 200);
        EXPECT_EQ(r.result.meta.owner, 0u);
        coalesced.fetch_add(1);
      } else if (r.outcome == LookupOutcome::kMissMustExecute) {
        // Scheduled in after the leader published (nothing was cached below
        // threshold), so it became a fresh leader; discharge the obligation.
        stragglers.fetch_add(1);
        manager.fail(http::Method::kGet, uri, r.rule, 503, "straggler",
                     /*remember=*/false);
      } else {
        // A straggler that coalesced onto another straggler's 503 above.
        stragglers.fetch_add(1);
        EXPECT_EQ(r.outcome, LookupOutcome::kFailedFast);
      }
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("payload"),
                   /*exec_seconds=*/0.1);
  for (auto& t : threads) t.join();

  const auto stats = manager.stats();
  EXPECT_GE(coalesced.load(), 1);
  EXPECT_EQ(coalesced.load() + stragglers.load(), kWaiters);
  EXPECT_GE(stats.coalesced_misses, static_cast<std::uint64_t>(coalesced.load()));
  EXPECT_GE(stats.below_threshold, 1u);
  EXPECT_EQ(stats.inserts, 0u);  // below threshold: nothing was cached
}

TEST_F(SingleFlightTest, CompletedLeaderResultIsCachedForLaterLookups) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/report?q=7");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("cached"),
                   1.0);
  const auto hit = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(hit.outcome, LookupOutcome::kHit);
  EXPECT_FALSE(hit.coalesced);
  EXPECT_EQ(hit.result.data, "cached");
  EXPECT_EQ(manager.stats().inserts, 1u);
}

TEST_F(SingleFlightTest, LeaderFailurePropagatesToWaiters) {
  // Long negative TTL: even a waiter scheduled in after the failure was
  // published fails fast via the negative cache, with the same status.
  CacheManager manager(0, 1, flight_options(/*negative_ttl=*/30.0), &clock_);
  const auto uri = uri_of("/cgi-bin/broken");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);

  constexpr int kWaiters = 4;
  std::atomic<int> arrived{0};
  std::atomic<int> failed_fast{0};
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      const auto r = lookup_and_await(manager, uri, Deadline());
      EXPECT_EQ(r.outcome, LookupOutcome::kFailedFast);
      EXPECT_EQ(r.fail_status, 500);
      if (r.outcome == LookupOutcome::kFailedFast) failed_fast.fetch_add(1);
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  manager.fail(http::Method::kGet, uri, leader.rule, 500, "exec blew up",
               /*remember=*/true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failed_fast.load(), kWaiters);
  // The failure is remembered: an immediate retry never reaches the CGI.
  const auto retry = manager.lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(retry.outcome, LookupOutcome::kFailedFast);
  EXPECT_EQ(retry.fail_status, 500);
  const auto stats = manager.stats();
  EXPECT_GE(stats.failed_fast, 1u);
  EXPECT_GE(stats.failed_exec, 1u);
}

TEST_F(SingleFlightTest, NegativeCacheExpiresAfterTtl) {
  CacheManager manager(0, 1, flight_options(/*negative_ttl=*/1.0), &clock_);
  const auto uri = uri_of("/cgi-bin/flaky");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  manager.fail(http::Method::kGet, uri, leader.rule, 502, "boom",
               /*remember=*/true);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kFailedFast);

  clock_.advance(from_seconds(2.0));
  const auto retry = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(retry.outcome, LookupOutcome::kMissMustExecute);
  manager.complete(http::Method::kGet, uri, retry.rule,
                   ok_output("recovered"), 1.0);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kHit);
}

TEST_F(SingleFlightTest, OverloadBailoutIsNotRemembered) {
  CacheManager manager(0, 1, flight_options(/*negative_ttl=*/30.0), &clock_);
  const auto uri = uri_of("/cgi-bin/q");
  auto r = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(r.outcome, LookupOutcome::kMissMustExecute);
  // remember=false is the overload idiom (gate timeout, deadline bail-out):
  // the CGI itself is fine, so the key must not be poisoned.
  manager.fail(http::Method::kGet, uri, r.rule, 503, "gate timeout",
               /*remember=*/false);
  r = manager.lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(r.outcome, LookupOutcome::kMissMustExecute);
  manager.fail(http::Method::kGet, uri, r.rule, 503, "cleanup",
               /*remember=*/false);
  EXPECT_EQ(manager.stats().failed_fast, 0u);
}

TEST_F(SingleFlightTest, LookupOnInFlightKeyReturnsPendingWithoutWaiting) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/pending");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  // Same thread, no helper thread, no clock advance: a blocking lookup
  // would hang here.
  const auto second = manager.lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(second.outcome, LookupOutcome::kPending);
  EXPECT_NE(second.flight, nullptr);
  EXPECT_EQ(manager.stats().coalesced_misses, 0u) << "nothing awaited yet";
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("done"),
                   1.0);
}

TEST_F(SingleFlightTest, AwaitAfterCompleteReturnsCoalescedAtOnce) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/published");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  auto pending = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(pending.outcome, LookupOutcome::kPending);
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("shared"),
                   1.0);
  const auto r = manager.await(std::move(pending), Deadline());
  ASSERT_EQ(r.outcome, LookupOutcome::kHit);
  EXPECT_TRUE(r.coalesced);
  EXPECT_EQ(r.result.data, "shared");
  EXPECT_EQ(r.result.meta.key, "GET /cgi-bin/published");
  EXPECT_EQ(manager.stats().coalesced_misses, 1u);
  EXPECT_EQ(manager.stats().inserts, 1u);
}

TEST_F(SingleFlightTest, AwaitWithExpiringDeadlineFailsFast) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/stuck");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  const auto deadline = Deadline::after_ms(&clock_, 100);
  auto pending = manager.lookup(http::Method::kGet, uri, deadline);
  ASSERT_EQ(pending.outcome, LookupOutcome::kPending);
  clock_.advance(from_millis(200));
  const auto r = manager.await(std::move(pending), deadline);
  EXPECT_EQ(r.outcome, LookupOutcome::kFailedFast);
  EXPECT_EQ(r.fail_status, 503);
  EXPECT_EQ(manager.stats().coalesce_timeouts, 1u);
  EXPECT_EQ(manager.stats().coalesced_misses, 0u);
  manager.fail(http::Method::kGet, uri, leader.rule, 503, "cleanup",
               /*remember=*/false);
}

TEST_F(SingleFlightTest, WaiterDeadlineExpiresWhileLeaderRuns) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/slow");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);

  // Deadline created before the thread starts, so the advance below expires
  // it no matter how the thread is scheduled.
  const auto waiter_deadline = Deadline::after_ms(&clock_, 100);
  std::thread waiter([&manager, &uri, waiter_deadline] {
    const auto r = lookup_and_await(manager, uri, waiter_deadline);
    EXPECT_EQ(r.outcome, LookupOutcome::kFailedFast);
    EXPECT_EQ(r.fail_status, 503);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  clock_.advance(from_millis(200));
  waiter.join();
  EXPECT_EQ(manager.stats().coalesce_timeouts, 1u);

  // The leader is unaffected and still publishes a usable result.
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("late"),
                   1.0);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kHit);
}

TEST_F(SingleFlightTest, DistinctKeysDoNotBlockEachOther) {
  CacheManager manager(0, 1, flight_options(), &clock_);
  const auto a = uri_of("/cgi-bin/a");
  const auto b = uri_of("/cgi-bin/b");
  const auto la = manager.lookup(http::Method::kGet, a, Deadline());
  ASSERT_EQ(la.outcome, LookupOutcome::kMissMustExecute);
  // With key a in flight, key b must classify immediately on this same
  // thread (it would deadlock the test otherwise).
  const auto lb = manager.lookup(http::Method::kGet, b, Deadline());
  ASSERT_EQ(lb.outcome, LookupOutcome::kMissMustExecute);
  manager.complete(http::Method::kGet, a, la.rule, ok_output("A"), 1.0);
  manager.complete(http::Method::kGet, b, lb.rule, ok_output("B"), 1.0);
  EXPECT_EQ(manager.lookup(http::Method::kGet, a, Deadline()).result.data,
            "A");
  EXPECT_EQ(manager.lookup(http::Method::kGet, b, Deadline()).result.data,
            "B");
}

TEST_F(SingleFlightTest, InsertedResultComposesWithHotBlobCache) {
  ManagerOptions mo = flight_options();
  mo.limits = {100, 0, /*hot_bytes=*/1 << 20};
  CacheManager manager(0, 1, mo, &clock_);
  const auto uri = uri_of("/cgi-bin/hot");
  const auto leader = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(leader.outcome, LookupOutcome::kMissMustExecute);
  manager.complete(http::Method::kGet, uri, leader.rule, ok_output("blob"),
                   1.0);
  // Two hits: whichever of insert/first-fetch primes the hot cache, the
  // second fetch must be served from it.
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kHit);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kHit);
  EXPECT_GE(manager.store().stats().hot_hits, 1u);
}

}  // namespace
}  // namespace swala::core
