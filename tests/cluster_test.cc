// Tests for the cluster layer: wire-protocol roundtrips (including a
// randomized property sweep), framing over real sockets, and LocalCluster
// integration: broadcast visibility, remote fetch, false-hit handling.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "cluster/framing.h"
#include "cluster/local_cluster.h"
#include "cluster/message.h"
#include "common/random.h"

namespace swala::cluster {
namespace {

core::EntryMeta sample_meta() {
  core::EntryMeta m;
  m.key = "GET /cgi-bin/q?x=1";
  m.owner = 3;
  m.size_bytes = 12345;
  m.cost_seconds = 2.75;
  m.insert_time = 111;
  m.expire_time = 222;
  m.last_access = 333;
  m.access_count = 7;
  m.content_type = "text/plain";
  m.http_status = 200;
  m.version = 9;
  return m;
}

void expect_meta_eq(const core::EntryMeta& a, const core::EntryMeta& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_EQ(a.insert_time, b.insert_time);
  EXPECT_EQ(a.expire_time, b.expire_time);
  EXPECT_EQ(a.last_access, b.last_access);
  EXPECT_EQ(a.access_count, b.access_count);
  EXPECT_EQ(a.content_type, b.content_type);
  EXPECT_EQ(a.http_status, b.http_status);
  EXPECT_EQ(a.version, b.version);
}

Message roundtrip(const Message& msg) {
  const std::string frame = encode_message(msg);
  // Strip the 4-byte length prefix; decode_message takes the payload.
  auto decoded = decode_message(std::string_view(frame).substr(4));
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  return decoded.value();
}

TEST(MessageTest, HelloRoundtrip) {
  const Message out = roundtrip(Message::hello(5, {}, 0));
  EXPECT_EQ(out.type, MsgType::kHello);
  EXPECT_EQ(out.sender, 5u);
}

TEST(MessageTest, InsertRoundtrip) {
  const Message out = roundtrip(Message::insert(2, sample_meta()));
  EXPECT_EQ(out.type, MsgType::kInsert);
  EXPECT_EQ(out.sender, 2u);
  expect_meta_eq(out.meta, sample_meta());
}

TEST(MessageTest, EraseRoundtrip) {
  const Message out = roundtrip(Message::erase(1, "GET /k", 42));
  EXPECT_EQ(out.type, MsgType::kErase);
  EXPECT_EQ(out.key, "GET /k");
  EXPECT_EQ(out.version, 42u);
}

TEST(MessageTest, FetchReqRoundtrip) {
  const Message out = roundtrip(Message::fetch_req(0, "GET /f"));
  EXPECT_EQ(out.type, MsgType::kFetchReq);
  EXPECT_EQ(out.key, "GET /f");
}

TEST(MessageTest, FetchRespRoundtrips) {
  const Message found =
      roundtrip(Message::fetch_resp_found(4, sample_meta(), "the data"));
  EXPECT_TRUE(found.found);
  EXPECT_EQ(found.data, "the data");
  expect_meta_eq(found.meta, sample_meta());

  const Message miss = roundtrip(Message::fetch_resp_miss(4));
  EXPECT_FALSE(miss.found);
}

TEST(MessageTest, RejectsTruncatedPayload) {
  const std::string frame = encode_message(Message::insert(2, sample_meta()));
  const std::string_view payload = std::string_view(frame).substr(4);
  for (std::size_t cut = 1; cut < payload.size(); cut += 7) {
    EXPECT_FALSE(decode_message(payload.substr(0, cut)).is_ok())
        << "cut at " << cut << " should not decode";
  }
}

TEST(MessageTest, RejectsTrailingGarbage) {
  std::string frame = encode_message(Message::erase(1, "GET /k", 1));
  std::string payload(std::string_view(frame).substr(4));
  payload += "extra";
  EXPECT_FALSE(decode_message(payload).is_ok());
}

TEST(MessageTest, RejectsUnknownType) {
  std::string payload;
  payload.push_back(static_cast<char>(99));
  payload.append(4, '\0');
  EXPECT_FALSE(decode_message(payload).is_ok());
}

TEST(MessageTest, RandomizedMetaRoundtrip) {
  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    core::EntryMeta m;
    m.key = "GET /cgi-bin/" + std::to_string(rng.next_u64());
    m.owner = static_cast<core::NodeId>(rng.uniform_int(0, 63));
    m.size_bytes = rng.next_u64() >> 20;
    m.cost_seconds = rng.uniform(0.0, 1000.0);
    m.insert_time = static_cast<TimeNs>(rng.next_u64() >> 1);
    m.expire_time = static_cast<TimeNs>(rng.next_u64() >> 1);
    m.last_access = static_cast<TimeNs>(rng.next_u64() >> 1);
    m.access_count = rng.next_u64() >> 32;
    m.content_type = std::string(rng.uniform_int(0, 30), 'c');
    m.http_status = static_cast<int>(rng.uniform_int(100, 599));
    m.version = rng.next_u64();
    const Message out = roundtrip(Message::insert(m.owner, m));
    expect_meta_eq(out.meta, m);
  }
}

// ---- framing over real sockets ----

TEST(FramingTest, MessagesOverTcp) {
  auto listener = net::TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const net::InetAddress addr{"127.0.0.1", listener.value().local_port()};

  std::thread sender([&] {
    auto stream = net::TcpStream::connect(addr, 2000);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_TRUE(
        write_message(stream.value(), Message::hello(7, {}, 0)).is_ok());
    ASSERT_TRUE(
        write_message(stream.value(), Message::insert(7, sample_meta())).is_ok());
    ASSERT_TRUE(
        write_message(stream.value(), Message::erase(7, "GET /k", 3)).is_ok());
  });

  auto conn = listener.value().accept(2000);
  ASSERT_TRUE(conn.is_ok());
  auto m1 = read_message(conn.value());
  ASSERT_TRUE(m1.is_ok());
  EXPECT_EQ(m1.value().type, MsgType::kHello);
  auto m2 = read_message(conn.value());
  ASSERT_TRUE(m2.is_ok());
  expect_meta_eq(m2.value().meta, sample_meta());
  auto m3 = read_message(conn.value());
  ASSERT_TRUE(m3.is_ok());
  EXPECT_EQ(m3.value().key, "GET /k");
  sender.join();
  // Clean EOF after the last message.
  auto m4 = read_message(conn.value());
  ASSERT_FALSE(m4.is_ok());
  EXPECT_EQ(m4.status().code(), StatusCode::kClosed);
}

// ---- LocalCluster integration ----

core::ManagerOptions cluster_options(core::NodeId) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

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

/// Polls until `pred` holds or ~2 s elapse (broadcasts are asynchronous).
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 200; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(LocalClusterTest, InsertBroadcastReachesPeers) {
  LocalCluster cluster(3, cluster_options);
  const auto uri = uri_of("/cgi-bin/shared?x=1");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(lookup.outcome, core::LookupOutcome::kMissMustExecute);
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("payload"), 1.0);

  EXPECT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/shared?x=1") &&
           cluster.manager(2).directory().lookup("GET /cgi-bin/shared?x=1");
  }));
}

TEST(LocalClusterTest, RemoteFetchServesData) {
  LocalCluster cluster(2, cluster_options);
  const auto uri = uri_of("/cgi-bin/data");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("cooperative!"), 1.0);
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/data").has_value();
  }));

  auto hit = cluster.manager(1).lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(hit.outcome, core::LookupOutcome::kHit);
  EXPECT_TRUE(hit.remote);
  EXPECT_EQ(hit.result.data, "cooperative!");
  EXPECT_EQ(cluster.manager(1).stats().remote_hits, 1u);
  EXPECT_GE(cluster.group(0).stats().fetches_served, 1u);
}

TEST(LocalClusterTest, EraseBroadcastReachesPeers) {
  LocalCluster cluster(2, cluster_options);
  const auto uri = uri_of("/cgi-bin/temp");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("x"), 1.0);
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/temp").has_value();
  }));

  // Owner drops the entry and broadcasts the deletion.
  cluster.manager(0).store().peek("GET /cgi-bin/temp");
  // Force an eviction path via a second insert cycle with a tiny cache is
  // complex here; use purge with TTL via direct erase broadcast instead:
  cluster.group(0).broadcast_erase(0, "GET /cgi-bin/temp", 1);
  EXPECT_TRUE(eventually([&] {
    return !cluster.manager(1)
                .directory()
                .lookup("GET /cgi-bin/temp")
                .has_value();
  }));
}

TEST(LocalClusterTest, FalseHitFallsBackCleanly) {
  LocalCluster cluster(2, cluster_options);
  const auto uri = uri_of("/cgi-bin/vanish");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("x"), 1.0);
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/vanish").has_value();
  }));

  // Delete from node 0's store WITHOUT broadcasting (simulates the race
  // window before the erase broadcast arrives).
  const_cast<core::CacheStore&>(cluster.manager(0).store())
      .erase("GET /cgi-bin/vanish");

  auto result = cluster.manager(1).lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_EQ(cluster.manager(1).stats().false_hits, 1u);
}

TEST(LocalClusterTest, PooledFetchesReuseConnections) {
  LocalCluster cluster(2, cluster_options);
  const auto uri = uri_of("/cgi-bin/pooled");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("pooled-data"), 1.0);

  // Many back-to-back fetches over the pooled data channel.
  for (int i = 0; i < 50; ++i) {
    auto fetched = cluster.group(1).fetch_remote(0, "GET /cgi-bin/pooled");
    ASSERT_TRUE(fetched.is_ok()) << i << ": " << fetched.status().to_string();
    EXPECT_EQ(fetched.value().data, "pooled-data");
  }
  EXPECT_EQ(cluster.group(0).stats().fetches_served, 50u);
}

TEST(LocalClusterTest, PoolingDisabledStillWorks) {
  GroupOptions go;
  go.fetch_pool_size = 0;  // the original per-fetch-connection behaviour
  LocalCluster cluster(2, cluster_options, RealClock::instance(), go);
  const auto uri = uri_of("/cgi-bin/unpooled");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("d"), 1.0);
  for (int i = 0; i < 10; ++i) {
    auto fetched = cluster.group(1).fetch_remote(0, "GET /cgi-bin/unpooled");
    ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  }
}

TEST(LocalClusterTest, TtlEntriesPurgedAndBroadcastAcrossCluster) {
  GroupOptions go;
  go.purge_interval_seconds = 0.1;  // fast purge daemon for the test
  auto options_with_ttl = [](core::NodeId) {
    core::ManagerOptions mo;
    mo.limits = {100, 0};
    core::RuleDecision d;
    d.cacheable = true;
    d.ttl_seconds = 0.3;
    mo.rules.add_rule("/cgi-bin/*", d);
    return mo;
  };
  LocalCluster cluster(2, options_with_ttl, RealClock::instance(), go);

  const auto uri = uri_of("/cgi-bin/ephemeral");
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule,
                              ok_output("x"), 1.0);
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1)
        .directory()
        .lookup("GET /cgi-bin/ephemeral")
        .has_value();
  }));

  // The purge daemon must expire it on node 0 and broadcast the erase so
  // node 1's directory physically drops the entry (table_size counts raw
  // entries, unlike lookup which already hides expired ones).
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(0).store().entry_count() == 0 &&
           cluster.manager(1).directory().table_size(0) == 0;
  }));
}

TEST(LocalClusterTest, ConcurrentInsertsConverge) {
  LocalCluster cluster(4, cluster_options);
  constexpr int kPerNode = 25;
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    threads.emplace_back([&cluster, n] {
      for (int i = 0; i < kPerNode; ++i) {
        const auto uri_str =
            "/cgi-bin/n" + std::to_string(n) + "/i" + std::to_string(i);
        http::Uri uri;
        ASSERT_TRUE(http::parse_uri(uri_str, &uri));
        auto lookup = cluster.manager(n).lookup(http::Method::kGet, uri,
                                                Deadline());
        cluster.manager(n).complete(http::Method::kGet, uri, lookup.rule,
                                    ok_output("d"), 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(eventually([&] {
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (cluster.manager(n).directory().size() !=
          cluster.size() * kPerNode) {
        return false;
      }
    }
    return true;
  })) << "directories did not converge to " << cluster.size() * kPerNode;
}

// Same convergence invariant with update batching on (the deployment
// default): bursts coalesce into kBatch frames but every peer still ends up
// with the full directory, and the batch counter proves frames actually
// coalesced rather than the option being silently ignored.
TEST(LocalClusterTest, ConcurrentInsertsConvergeWithBatching) {
  GroupOptions batched;
  batched.batch_max_messages = 64;
  LocalCluster cluster(3, cluster_options, RealClock::instance(), batched);
  constexpr int kPerNode = 30;
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    threads.emplace_back([&cluster, n] {
      for (int i = 0; i < kPerNode; ++i) {
        const auto uri_str =
            "/cgi-bin/b" + std::to_string(n) + "/i" + std::to_string(i);
        http::Uri uri;
        ASSERT_TRUE(http::parse_uri(uri_str, &uri));
        auto lookup = cluster.manager(n).lookup(http::Method::kGet, uri,
                                                Deadline());
        cluster.manager(n).complete(http::Method::kGet, uri, lookup.rule,
                                    ok_output("d"), 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(eventually([&] {
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (cluster.manager(n).directory().size() !=
          cluster.size() * kPerNode) {
        return false;
      }
    }
    return true;
  })) << "batched directories did not converge to "
      << cluster.size() * kPerNode;

  std::uint64_t batched_total = 0;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    batched_total += cluster.group(n).stats().batched_broadcasts;
  }
  EXPECT_GT(batched_total, 0u)
      << "no broadcast was ever coalesced despite batching enabled";
}

}  // namespace
}  // namespace swala::cluster
