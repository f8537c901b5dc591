// Tests for the anti-entropy consistency-repair layer's building blocks:
// the epoch-stamped InvalidationLog, the versioned kHello and epoch-stamped
// kInvalidate frames, the kDigest/kInvSync/kInvSyncResp wire messages (and
// the frames decoding must reject), and the CacheManager repair API (replay
// idempotency, gap pull/apply, truncation fallback, directory digests).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/message.h"
#include "common/clock.h"
#include "core/inv_log.h"
#include "core/manager.h"
#include "recording_bus.h"

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
  out.body = body;
  return out;
}

ManagerOptions open_options() {
  ManagerOptions mo;
  mo.limits = {1000, 0};
  RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

void cache_target(CacheManager& manager, const std::string& target) {
  const auto uri = uri_of(target);
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(lookup.outcome, LookupOutcome::kMissMustExecute) << target;
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("data"),
                   1.0);
}

std::uint64_t vec_get(const EpochVector& v, NodeId origin) {
  for (const auto& [node, epoch] : v) {
    if (node == origin) return epoch;
  }
  return 0;
}

// ---- InvalidationLog ----

TEST(InvalidationLogTest, OriginateStampsMonotonically) {
  InvalidationLog log;
  EXPECT_EQ(log.originate(3, "GET /a*").epoch, 1u);
  EXPECT_EQ(log.originate(3, "GET /b*").epoch, 2u);
  EXPECT_EQ(log.originate(3, "GET /c*").epoch, 3u);
  EXPECT_EQ(vec_get(log.high_vector(), 3), 3u);
  EXPECT_EQ(vec_get(log.floor_vector(), 3), 3u);
  EXPECT_EQ(log.size(), 3u);
}

TEST(InvalidationLogTest, AdmitFiltersExactDuplicates) {
  InvalidationLog log;
  EXPECT_TRUE(log.admit({2, 1, "GET /x*"}));
  EXPECT_FALSE(log.admit({2, 1, "GET /x*"}));  // replayed frame
  EXPECT_TRUE(log.admit({4, 1, "GET /x*"}));   // same epoch, other origin
  EXPECT_EQ(log.size(), 2u);
}

TEST(InvalidationLogTest, OutOfOrderAdmitClosesTheHole) {
  InvalidationLog log;
  EXPECT_TRUE(log.admit({2, 2, "GET /b*"}));  // hole: epoch 1 missing
  EXPECT_EQ(vec_get(log.floor_vector(), 2), 0u);
  EXPECT_EQ(vec_get(log.high_vector(), 2), 2u);
  EXPECT_TRUE(log.admit({2, 1, "GET /a*"}));  // hole closed
  EXPECT_EQ(vec_get(log.floor_vector(), 2), 2u);
  EXPECT_FALSE(log.admit({2, 1, "GET /a*"}));  // below floor = duplicate
}

TEST(InvalidationLogTest, EpochZeroIsNeverAdmitted) {
  // No origin stamps epoch 0, so it sits below every floor: a no-op.
  InvalidationLog log;
  EXPECT_FALSE(log.admit({2, 0, "GET /x*"}));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(vec_get(log.high_vector(), 2), 0u);
}

TEST(InvalidationLogTest, BehindDetectsGapsAgainstPeerHigh) {
  InvalidationLog log;
  log.admit({1, 1, "GET /a*"});
  EXPECT_FALSE(log.behind({{1, 1}}));           // caught up
  EXPECT_TRUE(log.behind({{1, 3}}));            // peer ahead on origin 1
  EXPECT_TRUE(log.behind({{7, 1}}));            // unknown origin
  EXPECT_FALSE(log.behind({}));                 // empty vector: no evidence
  log.admit({1, 3, "GET /c*"});                 // hole at epoch 2
  EXPECT_TRUE(log.behind({{1, 3}}));            // floor 1 < peer high 3
}

TEST(InvalidationLogTest, EntriesAfterAndTruncation) {
  InvalidationLog log(/*max_entries=*/2);
  log.originate(0, "GET /a*");  // epoch 1, evicted by the bound below
  log.originate(0, "GET /b*");  // epoch 2
  log.originate(0, "GET /c*");  // epoch 3 → epoch 1 falls out of the log
  EXPECT_EQ(log.size(), 2u);

  bool truncated = false;
  auto all = log.entries_after({}, &truncated);
  EXPECT_TRUE(truncated) << "requester at floor 0 needs the evicted epoch 1";
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].epoch, 2u);
  EXPECT_EQ(all[1].epoch, 3u);

  truncated = false;
  auto tail = log.entries_after({{0, 2}}, &truncated);
  EXPECT_FALSE(truncated) << "floor 2 only needs epoch 3, still logged";
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].epoch, 3u);
  EXPECT_EQ(tail[0].pattern, "GET /c*");

  truncated = false;
  EXPECT_TRUE(log.entries_after({{0, 3}}, &truncated).empty());
  EXPECT_FALSE(truncated);
}

}  // namespace
}  // namespace swala::core

namespace swala::cluster {
namespace {

Message roundtrip(const Message& msg) {
  const std::string frame = encode_message(msg);
  auto decoded = decode_message(std::string_view(frame).substr(4));
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  return decoded.value();
}

std::string payload_of(const Message& msg) {
  return encode_message(msg).substr(4);
}

// ---- wire protocol: versioned HELLO, epoch-stamped INVALIDATE, repair ----

TEST(InvRepairMessageTest, InvalidateEpochRoundtrip) {
  const Message out = roundtrip(Message::invalidate(4, "GET /cgi-bin/r*", 7));
  EXPECT_EQ(out.type, MsgType::kInvalidate);
  EXPECT_EQ(out.sender, 4u);
  EXPECT_EQ(out.key, "GET /cgi-bin/r*");
  EXPECT_EQ(out.epoch, 7u);
}

TEST(InvRepairMessageTest, HelloCarriesVersionEpochsAndMembership) {
  const core::EpochVector epochs = {{0, 5}, {2, 19}};
  const std::string payload = payload_of(Message::hello(3, epochs, 4));
  // type + sender, then the version byte leads the fixed fields.
  ASSERT_GT(payload.size(), 5u);
  EXPECT_EQ(static_cast<std::uint8_t>(payload[5]), kProtocolVersion);
  EXPECT_EQ(payload.size(), 5u + 1u + 4u + 2u * 12u + 8u);

  const Message out = roundtrip(Message::hello(3, epochs, 4));
  EXPECT_EQ(out.type, MsgType::kHello);
  EXPECT_EQ(out.sender, 3u);
  EXPECT_EQ(out.epochs, epochs);
  EXPECT_EQ(out.membership_epoch, 4u);

  // Before attach() a node greets with no epochs: same fixed layout.
  const Message bare = roundtrip(Message::hello(3, {}, 0));
  EXPECT_TRUE(bare.epochs.empty());
  EXPECT_EQ(bare.membership_epoch, 0u);
}

TEST(InvRepairMessageTest, DecodeRejectsUnversionedAndUnstampedFrames) {
  // A HELLO from another protocol version, named in the error.
  std::string wrong = payload_of(Message::hello(3, {{0, 5}}, 1));
  wrong[5] = static_cast<char>(kProtocolVersion + 1);
  const auto bad_version = decode_message(wrong);
  ASSERT_FALSE(bad_version.is_ok());
  EXPECT_NE(bad_version.status().message().find(
                "version " + std::to_string(kProtocolVersion + 1)),
            std::string::npos)
      << bad_version.status().to_string();

  // The bare 9-byte HELLO frame: type + sender and nothing else.
  const std::string bare_hello("\x01\x03\0\0\0", 5);
  EXPECT_FALSE(decode_message(bare_hello).is_ok());

  // A HELLO with the epoch vector but neither version nor membership epoch.
  std::string unversioned = bare_hello;
  unversioned.append("\x01\0\0\0"                 // one pair
                     "\0\0\0\0"                   // origin 0
                     "\x05\0\0\0\0\0\0\0",    // epoch 5
                     16);
  EXPECT_FALSE(decode_message(unversioned).is_ok());

  // kInvalidate without its epoch, and with epoch 0.
  const std::string stamped = payload_of(Message::invalidate(4, "GET /r*", 7));
  EXPECT_FALSE(decode_message(stamped.substr(0, stamped.size() - 8)).is_ok());
  EXPECT_FALSE(
      decode_message(payload_of(Message::invalidate(4, "GET /r*", 0))).is_ok());

  // A kInvSyncResp carrying an epoch-0 record.
  EXPECT_FALSE(decode_message(payload_of(Message::inv_sync_resp(
                                  0, {{1, 0, "GET /x*"}}, false)))
                   .is_ok());
  EXPECT_FALSE(decode_message(payload_of(Message::make_batch(
                                  2, {Message::invalidate(2, "GET /r*", 0)})))
                   .is_ok());
}

TEST(InvRepairMessageTest, DigestRoundtrip) {
  const core::EpochVector epochs = {{1, 2}};
  const Message with = roundtrip(Message::make_digest(1, epochs, true,
                                                      0xDEADBEEFCAFEF00DULL));
  EXPECT_EQ(with.type, MsgType::kDigest);
  EXPECT_EQ(with.epochs, epochs);
  EXPECT_TRUE(with.has_digest);
  EXPECT_EQ(with.digest, 0xDEADBEEFCAFEF00DULL);

  const Message without = roundtrip(Message::make_digest(1, epochs, false, 0));
  EXPECT_FALSE(without.has_digest);
}

TEST(InvRepairMessageTest, InvSyncRoundtrip) {
  const core::EpochVector floors = {{0, 1}, {1, 0}, {2, 44}};
  const Message out = roundtrip(Message::inv_sync(2, floors));
  EXPECT_EQ(out.type, MsgType::kInvSync);
  EXPECT_EQ(out.epochs, floors);
}

TEST(InvRepairMessageTest, InvSyncRespRoundtrip) {
  std::vector<core::InvalidationRecord> entries = {
      {0, 1, "GET /cgi-bin/a*"}, {2, 9, "GET /cgi-bin/b?x=*"}};
  const Message out = roundtrip(Message::inv_sync_resp(0, entries, true));
  EXPECT_EQ(out.type, MsgType::kInvSyncResp);
  EXPECT_TRUE(out.truncated);
  ASSERT_EQ(out.inv_entries.size(), 2u);
  EXPECT_EQ(out.inv_entries[0].origin, 0u);
  EXPECT_EQ(out.inv_entries[0].epoch, 1u);
  EXPECT_EQ(out.inv_entries[0].pattern, "GET /cgi-bin/a*");
  EXPECT_EQ(out.inv_entries[1].origin, 2u);
  EXPECT_EQ(out.inv_entries[1].epoch, 9u);

  const Message empty = roundtrip(Message::inv_sync_resp(0, {}, false));
  EXPECT_FALSE(empty.truncated);
  EXPECT_TRUE(empty.inv_entries.empty());
}

TEST(InvRepairMessageTest, TruncatedRepairFramesRejected) {
  for (const Message& msg :
       {Message::make_digest(1, {{0, 3}}, true, 42),
        Message::inv_sync(2, {{0, 1}}),
        Message::inv_sync_resp(0, {{1, 2, "GET /x*"}}, false)}) {
    const std::string payload = std::string(encode_message(msg)).substr(4);
    for (std::size_t cut = 1; cut < payload.size(); ++cut) {
      EXPECT_FALSE(decode_message(payload.substr(0, cut)).is_ok())
          << "cut at " << cut << " accepted";
    }
  }
}

}  // namespace
}  // namespace swala::cluster

namespace swala::core {
namespace {

// ---- CacheManager repair API ----

TEST(ManagerEpochTest, LocalInvalidateStampsMonotonicEpochs) {
  ManualClock clock(0);
  RecordingBus bus;
  CacheManager manager(0, 3, open_options(), &clock, &bus);
  cache_target(manager, "/cgi-bin/a");
  cache_target(manager, "/cgi-bin/b");

  EXPECT_EQ(manager.invalidate("GET /cgi-bin/a*"), 1u);
  EXPECT_EQ(manager.invalidate("GET /cgi-bin/b*"), 1u);
  ASSERT_EQ(bus.invalidations.size(), 2u);
  EXPECT_EQ(bus.invalidations[0].second, 1u);
  EXPECT_EQ(bus.invalidations[1].second, 2u);
  EXPECT_EQ(vec_get(manager.inv_log().high_vector(), 0), 2u);
}

TEST(ManagerEpochTest, ReplayedPeerInvalidateIsIdempotent) {
  ManualClock clock(0);
  CacheManager manager(1, 3, open_options(), &clock);
  cache_target(manager, "/cgi-bin/r?q=1");

  EXPECT_EQ(manager.on_peer_invalidate("GET /cgi-bin/r*", 0, 1), 1u);
  // The entry comes back (a fresh execution) ...
  cache_target(manager, "/cgi-bin/r?q=1");
  // ... and a replay of the SAME (origin, epoch) frame must not kill it.
  EXPECT_EQ(manager.on_peer_invalidate("GET /cgi-bin/r*", 0, 1), 0u);
  EXPECT_TRUE(manager.store().contains("GET /cgi-bin/r?q=1"));
  // Epoch 0 is stamped by no origin: a no-op, like a replay.
  EXPECT_EQ(manager.on_peer_invalidate("GET /cgi-bin/r*", 0, 0), 0u);
  EXPECT_TRUE(manager.store().contains("GET /cgi-bin/r?q=1"));
}

TEST(ManagerEpochTest, GapPullAppliesMissedInvalidationsOnce) {
  ManualClock clock(0);
  CacheManager origin(0, 3, open_options(), &clock);
  CacheManager lagger(1, 3, open_options(), &clock);

  cache_target(origin, "/cgi-bin/a");
  cache_target(lagger, "/cgi-bin/a");  // lagger's own copy of the key
  origin.invalidate("GET /cgi-bin/a*");  // broadcast lost: lagger never hears

  ASSERT_TRUE(lagger.inv_log().behind(origin.inv_log().high_vector()));
  bool truncated = false;
  const auto entries =
      origin.inv_log().entries_after(lagger.inv_log().floor_vector(),
                                     &truncated);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(truncated);

  EXPECT_EQ(lagger.apply_inv_sync(entries, truncated), 1u);
  EXPECT_FALSE(lagger.store().contains("GET /cgi-bin/a"));
  EXPECT_FALSE(lagger.inv_log().behind(origin.inv_log().high_vector()));
  const auto stats = lagger.stats();
  EXPECT_EQ(stats.inv_epoch_gaps_repaired, 1u);
  EXPECT_EQ(stats.stale_serves_prevented, 1u);

  // Idempotency: applying the same response again is a complete no-op.
  cache_target(lagger, "/cgi-bin/a");
  EXPECT_EQ(lagger.apply_inv_sync(entries, false), 0u);
  EXPECT_TRUE(lagger.store().contains("GET /cgi-bin/a"));
  EXPECT_EQ(lagger.stats().inv_epoch_gaps_repaired, 1u);
}

TEST(ManagerEpochTest, TruncatedSyncFallsBackToFullPurge) {
  ManualClock clock(0);
  CacheManager manager(1, 3, open_options(), &clock);
  cache_target(manager, "/cgi-bin/a");
  cache_target(manager, "/cgi-bin/b");

  EXPECT_EQ(manager.apply_inv_sync({}, /*truncated=*/true), 0u);
  EXPECT_EQ(manager.store().entry_count(), 0u)
      << "overflow must purge conservatively, not stay stale";
  EXPECT_EQ(manager.stats().inv_overflow_purges, 1u);
  EXPECT_TRUE(manager.debug_check_consistency().consistent());
}

TEST(ManagerEpochTest, RepairedInvalidationAnnouncesErases) {
  // The satellite-2 fix: when a rejoiner's pull drops its own stale entry,
  // the erase must be re-broadcast so survivors' re-polluted tables (from
  // the additions-only resync push) drop the record in the same round.
  ManualClock clock(0);
  RecordingBus bus;
  CacheManager manager(1, 3, open_options(), &clock, &bus);
  cache_target(manager, "/cgi-bin/stale?x=1");

  const std::size_t applied =
      manager.apply_inv_sync({{0, 1, "GET /cgi-bin/stale*"}}, false);
  EXPECT_EQ(applied, 1u);
  ASSERT_EQ(bus.erases.size(), 1u);
  EXPECT_EQ(bus.erases[0].key, "GET /cgi-bin/stale?x=1");
}

// ---- directory digests ----

TEST(ManagerDigestTest, DigestsAgreeAfterCleanPropagation) {
  ManualClock clock(0);
  RecordingBus bus_a;
  CacheManager a(0, 2, open_options(), &clock, &bus_a);
  CacheManager b(1, 2, open_options(), &clock);
  bus_a.peer = &b;

  cache_target(a, "/cgi-bin/a?x=1");
  cache_target(a, "/cgi-bin/a?x=2");

  std::size_t n_sender = 0, n_receiver = 0;
  EXPECT_EQ(a.digest_for_peer(1, &n_sender),
            b.digest_of_peer_table(0, &n_receiver));
  EXPECT_EQ(n_sender, 2u);
  EXPECT_EQ(n_receiver, 2u);
  EXPECT_NE(a.digest_for_peer(1, nullptr), 0u);
}

TEST(ManagerDigestTest, DigestExposesLostInsertAndErase) {
  ManualClock clock(0);
  RecordingBus bus_a;
  CacheManager a(0, 2, open_options(), &clock, &bus_a);
  CacheManager b(1, 2, open_options(), &clock);
  bus_a.peer = &b;

  cache_target(a, "/cgi-bin/a?x=1");
  bus_a.drop_link = true;  // the next update frame is lost
  cache_target(a, "/cgi-bin/a?x=2");
  EXPECT_NE(a.digest_for_peer(1, nullptr), b.digest_of_peer_table(0, nullptr))
      << "lost kInsert must show up as a digest mismatch";

  bus_a.drop_link = false;
  cache_target(b, "/cgi-bin/b-doesnt-matter");  // unrelated self entry
  // Repair the drift the way the group does: drop + re-announce.
  b.on_peer_recovered(0);
  for (const auto& meta : a.store().resident_metas()) b.on_peer_insert(meta);
  EXPECT_EQ(a.digest_for_peer(1, nullptr), b.digest_of_peer_table(0, nullptr));
}

}  // namespace
}  // namespace swala::core
