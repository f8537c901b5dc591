// Robustness property tests for the wire-facing parsers: the HTTP request
// parser and the cluster frame codec. Random bytes, mutated valid inputs,
// truncations, and adversarial chunkings must never crash, never loop, and
// always land in a defined state (kNeedMore / kDone / kError with a
// sensible status code; Result error for frames).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "cluster/framing.h"
#include "cluster/local_cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "http/parser.h"

namespace swala::http {
namespace {

bool plausible_error_status(int status) {
  switch (status) {
    case 400:
    case 413:
    case 414:
    case 431:
    case 501:
      return true;
    default:
      return false;
  }
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF0CCAC1A);
  for (int round = 0; round < 500; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 512));
    std::string junk(len, '\0');
    for (auto& c : junk) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    RequestParser parser(ParserLimits{.max_request_line = 256,
                                      .max_header_bytes = 1024,
                                      .max_body_bytes = 4096});
    const ParseState state = parser.feed(junk);
    if (state == ParseState::kError) {
      EXPECT_TRUE(plausible_error_status(parser.error_status()))
          << parser.error_status();
    }
  }
}

TEST(ParserFuzzTest, MutatedValidRequestsNeverCrash) {
  const std::string valid =
      "POST /cgi-bin/query?x=1&y=2 HTTP/1.1\r\n"
      "Host: swala.test\r\n"
      "Content-Type: text/plain\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  Rng rng(42);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        case 2:  // duplicate a byte
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    RequestParser parser;
    const ParseState state = parser.feed(mutated);
    if (state == ParseState::kError) {
      EXPECT_TRUE(plausible_error_status(parser.error_status()))
          << parser.error_status() << " for mutation round " << round;
    }
    // kDone and kNeedMore are also fine — many mutations stay valid.
  }
}

TEST(ParserFuzzTest, RandomChunkingNeverChangesOutcome) {
  const std::string wire =
      "GET /a/b%20c?q=1 HTTP/1.1\r\nHost: h\r\nX: y\r\n\r\n";
  RequestParser reference;
  ASSERT_EQ(reference.feed(wire), ParseState::kDone);
  const std::string ref_path = reference.request().uri.path;

  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    RequestParser parser;
    ParseState state = ParseState::kNeedMore;
    std::size_t pos = 0;
    while (pos < wire.size() && state == ParseState::kNeedMore) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size() - pos)));
      state = parser.feed(std::string_view(wire).substr(pos, chunk));
      pos += chunk;
    }
    ASSERT_EQ(state, ParseState::kDone);
    EXPECT_EQ(parser.request().uri.path, ref_path);
  }
}

TEST(ParserFuzzTest, LimitsBoundBuffering) {
  // A stream that never terminates its request line must be rejected once
  // it exceeds the limit, not buffered forever.
  RequestParser parser(ParserLimits{.max_request_line = 128});
  ParseState state = ParseState::kNeedMore;
  for (int i = 0; i < 64 && state == ParseState::kNeedMore; ++i) {
    state = parser.feed(std::string(16, 'a'));
  }
  ASSERT_EQ(state, ParseState::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(ParserFuzzTest, ManyTinyHeadersHitHeaderLimit) {
  RequestParser parser(ParserLimits{.max_header_bytes = 512});
  ParseState state = parser.feed("GET / HTTP/1.1\r\n");
  for (int i = 0; i < 200 && state == ParseState::kNeedMore; ++i) {
    state = parser.feed("H" + std::to_string(i) + ": v\r\n");
  }
  ASSERT_EQ(state, ParseState::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(UriFuzzTest, RandomTargetsNeverCrash) {
  Rng rng(99);
  const char alphabet[] = "/abc%20?=&.+~!#[]\\^{}\"'\x01\x7f";
  for (int round = 0; round < 2000; ++round) {
    std::string target = "/";
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    for (std::size_t i = 0; i < len; ++i) {
      target.push_back(
          alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)]);
    }
    Uri uri;
    if (parse_uri(target, &uri)) {
      // Parsed paths are always rooted and free of dot segments.
      ASSERT_FALSE(uri.path.empty());
      EXPECT_EQ(uri.path.front(), '/');
      EXPECT_EQ(uri.path.find("/../"), std::string::npos);
      (void)uri.query_params();  // must not crash either
    }
  }
}

}  // namespace
}  // namespace swala::http

// ---- cluster wire-protocol frames (framing.cc / message.cc) ----

namespace swala::cluster {
namespace {

/// One valid frame of every message type — the seed corpus.
std::vector<std::string> frame_corpus() {
  core::EntryMeta meta;
  meta.key = "GET /cgi-bin/query?x=1";
  meta.owner = 2;
  meta.size_bytes = 512;
  meta.cost_seconds = 1.25;
  meta.insert_time = 1000;
  meta.expire_time = 2000;
  meta.version = 7;

  std::vector<std::string> corpus;
  corpus.push_back(encode_message(Message::hello(1, {{0, 3}, {2, 9}}, 2)));
  corpus.push_back(encode_message(Message::insert(2, meta)));
  corpus.push_back(encode_message(Message::erase(3, meta.key, 7)));
  corpus.push_back(encode_message(Message::fetch_req(1, meta.key)));
  corpus.push_back(
      encode_message(Message::fetch_resp_found(2, meta, "payload bytes")));
  corpus.push_back(encode_message(Message::fetch_resp_miss(2)));
  corpus.push_back(encode_message(Message::invalidate(0, "/cgi-bin/*", 5)));
  corpus.push_back(encode_message(Message::sync_req(4)));
  corpus.push_back(encode_message(Message::owner_insert(5, meta)));
  corpus.push_back(encode_message(Message::owner_erase(5, 2, meta.key, 7)));
  corpus.push_back(encode_message(Message::query(6, meta.key)));
  corpus.push_back(encode_message(Message::query_hit(7, meta)));
  corpus.push_back(encode_message(Message::query_miss(7)));
  return corpus;
}

/// Loopback pair for exercising read_message against hostile writers.
struct StreamPair {
  net::TcpStream writer;
  net::TcpStream reader;
};

StreamPair make_pair_or_die() {
  auto listener = net::TcpListener::listen({"127.0.0.1", 0});
  EXPECT_TRUE(listener.is_ok());
  auto writer = net::TcpStream::connect(
      {"127.0.0.1", listener.value().local_port()}, 2000);
  EXPECT_TRUE(writer.is_ok());
  auto reader = listener.value().accept(2000);
  EXPECT_TRUE(reader.is_ok());
  EXPECT_TRUE(reader.value().set_recv_timeout(2000).is_ok());
  return {std::move(writer.value()), std::move(reader.value())};
}

TEST(ClusterFrameFuzzTest, DecodeRandomPayloadsNeverCrash) {
  Rng rng(0xC1A57E12);
  for (int round = 0; round < 2000; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    std::string junk(len, '\0');
    for (auto& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
    // Must return a Status, never crash, hang, or over-read.
    (void)decode_message(junk);
  }
}

TEST(ClusterFrameFuzzTest, DecodeMutatedValidPayloadsNeverCrash) {
  const auto corpus = frame_corpus();
  // Every seed must be a frame the decoder accepts, or mutating it only
  // re-tests the rejection path.
  for (const auto& frame : corpus) {
    ASSERT_TRUE(decode_message(std::string_view(frame).substr(4)).is_ok());
  }
  Rng rng(0xBADF00D);
  for (int round = 0; round < 2000; ++round) {
    // Payload = frame minus the 4-byte length prefix.
    std::string payload =
        corpus[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(corpus.size()) - 1))]
            .substr(4);
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !payload.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(payload.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          payload[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          payload.erase(pos, 1);
          break;
        case 2:
          payload.insert(pos, 1, payload[pos]);
          break;
      }
    }
    auto decoded = decode_message(payload);
    if (decoded.is_ok()) {
      // Round-trip sanity: a frame that decodes must re-encode.
      (void)encode_message(decoded.value());
    }
  }
}

TEST(ClusterFrameFuzzTest, TruncatedFramesOverWireAreErrors) {
  const auto corpus = frame_corpus();
  Rng rng(0x7126CA7E);
  for (const auto& frame : corpus) {
    // Every frame truncated at a few seeded points, including mid-prefix.
    for (int cut = 0; cut < 4; ++cut) {
      const auto keep = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(frame.size()) - 1));
      auto pair = make_pair_or_die();
      ASSERT_TRUE(pair.writer.write_all(frame.substr(0, keep)).is_ok());
      pair.writer.close();  // mid-frame EOF
      auto msg = read_message(pair.reader);
      EXPECT_FALSE(msg.is_ok()) << "truncation at " << keep << " of "
                                << frame.size() << " decoded as a message";
    }
  }
}

TEST(ClusterFrameFuzzTest, FragmentedFramesReassemble) {
  const auto corpus = frame_corpus();
  Rng rng(0xF4A63E17);
  for (const auto& frame : corpus) {
    for (int round = 0; round < 3; ++round) {
      auto pair = make_pair_or_die();
      // Write the frame in random fragments from a second thread while the
      // reader blocks in read_message — exercises partial-read paths.
      std::thread writer([&] {
        std::size_t pos = 0;
        while (pos < frame.size()) {
          const auto chunk = static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(frame.size() - pos)));
          ASSERT_TRUE(
              pair.writer.write_all(frame.substr(pos, chunk)).is_ok());
          pos += chunk;
        }
      });
      auto msg = read_message(pair.reader);
      writer.join();
      ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
      EXPECT_EQ(encode_message(msg.value()), frame);
    }
  }
}

// ---- kBatch frames ----

std::string le32(std::uint32_t v) {
  std::string s(4, '\0');
  s[0] = static_cast<char>(v);
  s[1] = static_cast<char>(v >> 8);
  s[2] = static_cast<char>(v >> 16);
  s[3] = static_cast<char>(v >> 24);
  return s;
}

core::EntryMeta batch_meta() {
  core::EntryMeta meta;
  meta.key = "GET /cgi-bin/batched?x=1";
  meta.owner = 0;
  meta.size_bytes = 256;
  meta.version = 3;
  return meta;
}

TEST(ClusterFrameFuzzTest, EmptyAndSingleBatchesRoundTrip) {
  const auto empty = encode_message(Message::make_batch(1, {}));
  auto decoded = decode_message(std::string_view(empty).substr(4));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().type, MsgType::kBatch);
  EXPECT_EQ(decoded.value().sender, 1u);
  EXPECT_TRUE(decoded.value().batch.empty());

  std::vector<Message> one;
  one.push_back(Message::insert(1, batch_meta()));
  const auto single = encode_message(Message::make_batch(1, std::move(one)));
  decoded = decode_message(std::string_view(single).substr(4));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().batch.size(), 1u);
  EXPECT_EQ(decoded.value().batch[0].type, MsgType::kInsert);
  EXPECT_EQ(decoded.value().batch[0].meta.key, batch_meta().key);
}

TEST(ClusterFrameFuzzTest, MixedBatchPreservesOrderAndContents) {
  std::vector<Message> inner;
  inner.push_back(Message::insert(2, batch_meta()));
  inner.push_back(Message::erase(2, batch_meta().key, 4));
  inner.push_back(Message::invalidate(2, "/cgi-bin/*", 1));
  const auto frame = encode_message(Message::make_batch(2, std::move(inner)));
  auto decoded = decode_message(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto& batch = decoded.value().batch;
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].type, MsgType::kInsert);
  EXPECT_EQ(batch[0].meta.version, 3u);
  EXPECT_EQ(batch[1].type, MsgType::kErase);
  EXPECT_EQ(batch[1].version, 4u);
  EXPECT_EQ(batch[2].type, MsgType::kInvalidate);
  EXPECT_EQ(batch[2].key, "/cgi-bin/*");
  EXPECT_EQ(batch[2].epoch, 1u);
  // A batch that decodes must re-encode identically (same invariant the
  // mutation fuzzer relies on).
  EXPECT_EQ(encode_message(decoded.value()), frame);
}

TEST(ClusterFrameFuzzTest, BatchTruncatedMidInnerIsError) {
  std::vector<Message> inner;
  inner.push_back(Message::insert(2, batch_meta()));
  inner.push_back(Message::erase(2, batch_meta().key, 4));
  const auto frame = encode_message(Message::make_batch(2, std::move(inner)));
  const std::string_view payload = std::string_view(frame).substr(4);
  // Cut inside the second inner message (and at every earlier boundary-ish
  // point): the decode must fail, never return a partial batch.
  for (std::size_t keep = 10; keep < payload.size(); keep += 7) {
    auto decoded = decode_message(payload.substr(0, keep));
    EXPECT_FALSE(decoded.is_ok())
        << "batch truncated to " << keep << " bytes decoded";
  }
}

TEST(ClusterFrameFuzzTest, NestedBatchRejected) {
  std::vector<Message> leaf;
  leaf.push_back(Message::erase(3, "GET /cgi-bin/x", 1));
  std::vector<Message> outer;
  outer.push_back(Message::make_batch(3, std::move(leaf)));
  const auto frame = encode_message(Message::make_batch(3, std::move(outer)));
  auto decoded = decode_message(std::string_view(frame).substr(4));
  EXPECT_FALSE(decoded.is_ok()) << "nested batch decoded";
}

TEST(ClusterFrameFuzzTest, LyingBatchCountRejectedBeforeLooping) {
  // Header (type + sender) + a count far beyond what the payload could
  // physically hold, with no inner messages behind it.
  std::string payload;
  payload += static_cast<char>(MsgType::kBatch);
  payload += le32(9);            // sender
  payload += le32(0x00FFFFFF);   // claimed count
  auto decoded = decode_message(payload);
  EXPECT_FALSE(decoded.is_ok()) << "lying batch count decoded";
}

// ---- kOwnerUpdate / kQuery / kQueryHit frames ----

TEST(ClusterFrameFuzzTest, OwnerUpdateUnknownOpByteRejected) {
  // A valid owner-erase frame with its op byte rewritten to garbage: the
  // decoder must reject the frame, not guess an op.
  auto frame = encode_message(Message::owner_erase(1, 2, "GET /cgi-bin/x", 3));
  frame[4 + 1 + 4] = 9;  // prefix + type + sender → op byte
  auto decoded = decode_message(std::string_view(frame).substr(4));
  EXPECT_FALSE(decoded.is_ok()) << "unknown owner-update op decoded";
}

TEST(ClusterFrameFuzzTest, QueryHitTruncatedMetaRejected) {
  core::EntryMeta meta;
  meta.key = "GET /cgi-bin/q";
  meta.owner = 1;
  const auto frame = encode_message(Message::query_hit(2, meta));
  const std::string_view payload = std::string_view(frame).substr(4);
  // found=1 promises a meta; every cut inside it must fail to decode.
  for (std::size_t keep = 7; keep < payload.size(); ++keep) {
    auto decoded = decode_message(payload.substr(0, keep));
    EXPECT_FALSE(decoded.is_ok())
        << "kQueryHit truncated to " << keep << " bytes decoded";
  }
}

TEST(ClusterFrameFuzzTest, QueryLyingKeyLengthRejected) {
  // kQuery whose key claims 16 MiB but carries 4 bytes.
  std::string payload;
  payload += static_cast<char>(MsgType::kQuery);
  payload += le32(3);           // sender
  payload += le32(0x01000000);  // lying key length
  payload += "key!";
  auto decoded = decode_message(payload);
  EXPECT_FALSE(decoded.is_ok()) << "lying kQuery key length decoded";
}

core::ManagerOptions fuzz_partitioned_options(core::NodeId) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  mo.directory_mode = core::DirectoryMode::kPartitioned;
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

bool fuzz_eventually(const std::function<bool()>& pred, int max_ms = 5000) {
  for (int waited = 0; waited < max_ms; waited += 10) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Semantically hostile kOwnerUpdate frames over a real socket: mis-routed
// inserts (a partition this node does not own), out-of-range cache-node
// ids, and stale-version erases. The node must apply the true information,
// bounds-reject the impossible, ignore the stale — and never crash.
TEST(ClusterFrameFuzzTest, HostileOwnerUpdateFramesOverSocketAreHarmless) {
  LocalCluster cluster(2, fuzz_partitioned_options);

  // A key node 0 does NOT own: an owner_insert for it is mis-routed.
  std::string misrouted;
  for (int i = 0;; ++i) {
    misrouted = "GET /cgi-bin/mis" + std::to_string(i);
    if (cluster.manager(0).ring_owner_of(misrouted) != 0) break;
  }
  core::EntryMeta meta;
  meta.key = misrouted;
  meta.owner = 1;
  meta.size_bytes = 16;
  meta.version = 5;

  core::EntryMeta out_of_range = meta;
  out_of_range.key = "GET /cgi-bin/oor";
  out_of_range.owner = 77;  // no such node

  auto conn = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).info_port()}, 1000);
  ASSERT_TRUE(conn.is_ok());
  std::string frames;
  frames += encode_message(Message::owner_insert(1, meta));  // mis-routed
  frames += encode_message(Message::owner_insert(1, out_of_range));
  frames += encode_message(Message::owner_erase(1, 99, misrouted, 0));
  // Stale: version 2 against the resident version 5 — must be ignored.
  frames += encode_message(Message::owner_erase(1, 1, misrouted, 2));
  ASSERT_TRUE(conn.value().write_all(frames).is_ok());
  conn.value().close();

  // Frames on one connection apply in order: once the mis-routed insert is
  // visible, the stale erase behind it has been processed too.
  ASSERT_TRUE(fuzz_eventually(
      [&] { return cluster.manager(0).directory().lookup(misrouted).has_value(); }));
  auto resident = cluster.manager(0).directory().lookup(misrouted);
  ASSERT_TRUE(resident.has_value()) << "stale-version erase removed entry";
  EXPECT_EQ(resident->version, 5u);
  EXPECT_FALSE(
      cluster.manager(0).directory().lookup("GET /cgi-bin/oor").has_value());

  // A force-erase (version 0) with the right cache node still works…
  auto conn2 = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).info_port()}, 1000);
  ASSERT_TRUE(conn2.is_ok());
  ASSERT_TRUE(conn2.value()
                  .write_all(encode_message(
                      Message::owner_erase(1, 1, misrouted, 0)))
                  .is_ok());
  conn2.value().close();
  ASSERT_TRUE(fuzz_eventually([&] {
    return !cluster.manager(0).directory().lookup(misrouted).has_value();
  }));

  // …and the group is still alive end to end.
  http::Uri uri;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/alive", &uri));
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cgi::CgiOutput out;
  out.success = true;
  out.body = "x";
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule, out, 1.0);
  EXPECT_EQ(cluster.manager(0)
                .lookup(http::Method::kGet, uri, Deadline())
                .outcome,
            core::LookupOutcome::kHit);
}

// Raw kQuery exchanges over the data port, including an unexpected
// kQueryHit sent as a request: correct answers for hot and cold keys, and
// junk requests only cost the sender its connection.
TEST(ClusterFrameFuzzTest, RawQueryExchangeOverDataPort) {
  LocalCluster cluster(2, fuzz_partitioned_options);

  http::Uri uri;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/hot", &uri));
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cgi::CgiOutput out;
  out.success = true;
  out.body = "x";
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule, out, 1.0);

  const auto ask = [&](const Message& request) -> Result<Message> {
    auto conn = net::TcpStream::connect(
        {"127.0.0.1", cluster.group(0).data_port()}, 1000);
    EXPECT_TRUE(conn.is_ok());
    EXPECT_TRUE(conn.value().set_recv_timeout(2000).is_ok());
    EXPECT_TRUE(conn.value().write_all(encode_message(request)).is_ok());
    return read_message(conn.value());
  };

  auto hot = ask(Message::query(1, "GET /cgi-bin/hot"));
  ASSERT_TRUE(hot.is_ok()) << hot.status().to_string();
  EXPECT_EQ(hot.value().type, MsgType::kQueryHit);
  EXPECT_TRUE(hot.value().found);
  EXPECT_EQ(hot.value().meta.key, "GET /cgi-bin/hot");

  auto cold = ask(Message::query(1, "GET /cgi-bin/cold"));
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  EXPECT_EQ(cold.value().type, MsgType::kQueryHit);
  EXPECT_FALSE(cold.value().found);

  // A response type sent as a request: the server drops the connection
  // (error or EOF for us), then keeps serving real queries.
  core::EntryMeta meta;
  meta.key = "GET /cgi-bin/hot";
  auto junk = ask(Message::query_hit(1, meta));
  EXPECT_FALSE(junk.is_ok()) << "kQueryHit-as-request got an answer";

  auto again = ask(Message::query(1, "GET /cgi-bin/hot"));
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_TRUE(again.value().found);
}

TEST(ClusterFrameFuzzTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  auto pair = make_pair_or_die();
  // 1 GiB length prefix (little-endian), then nothing.
  const char huge[4] = {0, 0, 0, 0x40};
  ASSERT_TRUE(pair.writer.write_all({huge, 4}).is_ok());
  auto msg = read_message(pair.reader);
  ASSERT_FALSE(msg.is_ok());
  // Rejected by the kMaxFrameBytes guard, not by trying (and failing) to
  // read a gigabyte.
}

}  // namespace
}  // namespace swala::cluster
