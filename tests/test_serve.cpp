// Serving plane: frame decoding on hostile byte streams (truncated /
// oversized / garbage — reject, never crash or over-read), payload
// codec round trips, and end-to-end UDS serving through a real
// Server: multi-tenant bit-identity against in-process runs, session
// lifecycle statuses, and admission control under a flooding tenant.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/experiment.h"
#include "common/scenario.h"
#include "net/codec.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using flips::net::Frame;
using flips::net::FrameDecodeResult;
using flips::net::FrameDecoder;
using flips::net::FrameStatus;
using flips::net::FrameType;

// ---------------------------------------------------------------------
// Framing layer.

std::vector<std::uint8_t> wire_image(const Frame& frame) {
  std::vector<std::uint8_t> out;
  flips::net::encode_frame(frame, out);
  return out;
}

TEST(FrameDecoder, RoundTripsFramesFedByteByByte) {
  Frame a;
  a.type = FrameType::kOpenSession;
  a.payload = {1, 2, 3, 4, 5};
  Frame b;
  b.type = FrameType::kStep;
  b.status = FrameStatus::kRejected;  // statuses survive the wire
  auto stream = wire_image(a);
  const auto second = wire_image(b);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> decoded;
  Frame frame;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);  // worst-case fragmentation
    while (decoder.next(frame) == FrameDecodeResult::kFrame) {
      decoded.push_back(frame);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, FrameType::kOpenSession);
  EXPECT_EQ(decoded[0].payload, a.payload);
  EXPECT_EQ(decoded[1].type, FrameType::kStep);
  EXPECT_EQ(decoded[1].status, FrameStatus::kRejected);
  EXPECT_TRUE(decoded[1].payload.empty());
}

TEST(FrameDecoder, TruncatedStreamsNeedMoreAndNeverProduceAFrame) {
  Frame full;
  full.type = FrameType::kResult;
  full.payload.assign(100, 0xAB);
  const auto stream = wire_image(full);
  // Every proper prefix — header cut short AND payload cut short —
  // parks the decoder at kNeedMore.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kNeedMore);
  }
}

TEST(FrameDecoder, GarbageMagicIsRejectedAndStays) {
  std::vector<std::uint8_t> garbage(64, 0x5A);
  FrameDecoder decoder;
  decoder.feed(garbage.data(), garbage.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
  // The verdict is sticky: framing has no resync point, so even a
  // subsequent well-formed frame must not be produced.
  const auto good = wire_image(Frame{});
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
}

TEST(FrameDecoder, BadVersionAndBadTypeAreRejected) {
  auto stream = wire_image(Frame{});
  stream[4] = 9;  // version byte
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);

  stream = wire_image(Frame{});
  stream[5] = 0;  // type byte below the valid 1..5 range
  FrameDecoder type_decoder;
  type_decoder.feed(stream.data(), stream.size());
  EXPECT_EQ(type_decoder.next(frame), FrameDecodeResult::kError);
}

TEST(FrameDecoder, OversizedLengthIsRejectedFromTheHeaderAlone) {
  // A hostile length field must be refused BEFORE any payload arrives
  // — the decoder may never buffer toward a 2^32-scale promise.
  auto stream = wire_image(Frame{});
  const std::uint32_t huge =
      static_cast<std::uint32_t>(flips::net::kMaxFramePayload) + 1;
  std::memcpy(stream.data() + 8, &huge, sizeof huge);
  FrameDecoder decoder;
  decoder.feed(stream.data(), flips::net::kFrameHeaderBytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
  EXPECT_NE(decoder.error().find("payload"), std::string::npos);
}

TEST(FrameEncode, OversizedPayloadThrows) {
  Frame frame;
  frame.payload.resize(flips::net::kMaxFramePayload + 1);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(flips::net::encode_frame(frame, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Payload codecs.

TEST(ServePayloads, KvRoundTripAndMalformedLines) {
  const flips::serve::KvPairs kv = {
      {"dataset", "ecg"}, {"rounds", "12"}, {"note", ""}};
  flips::serve::KvPairs decoded;
  std::string error;
  ASSERT_TRUE(
      flips::serve::decode_kv(flips::serve::encode_kv(kv), decoded, error));
  EXPECT_EQ(decoded, kv);

  const std::string bad = "no_equals_sign\n";
  EXPECT_FALSE(flips::serve::decode_kv(
      flips::serve::Bytes(bad.begin(), bad.end()), decoded, error));
  EXPECT_NE(error.find("no_equals_sign"), std::string::npos);
}

TEST(ServePayloads, StepReplyFullAndIdOnlyForms) {
  flips::serve::StepReply reply{42, 7, true};
  flips::serve::StepReply decoded;
  ASSERT_TRUE(flips::serve::decode_step_reply(
      flips::serve::encode_step_reply(reply), decoded));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_TRUE(decoded.finished);

  // Rejections echo just the id (written out-of-band by the reader
  // thread) — the short form must decode, not error.
  ASSERT_TRUE(flips::serve::decode_step_reply(
      flips::serve::encode_step_request(42), decoded));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_FALSE(decoded.finished);

  // Truncated and trailing-garbage payloads are rejected.
  flips::serve::Bytes truncated = {1, 2, 3};
  EXPECT_FALSE(flips::serve::decode_step_reply(truncated, decoded));
  auto padded = flips::serve::encode_step_reply(reply);
  padded.push_back(0);
  EXPECT_FALSE(flips::serve::decode_step_reply(padded, decoded));
}

TEST(ServePayloads, ResultReplyRejectsLyingDimension) {
  const std::vector<double> params = {1.0, -2.5, 3.25};
  auto payload = flips::serve::encode_result_reply(params);
  std::vector<double> decoded;
  ASSERT_TRUE(flips::serve::decode_result_reply(payload, decoded));
  EXPECT_EQ(decoded, params);

  // Inflate the dim header without the bytes to back it: the decoder
  // must refuse rather than allocate or read past the payload.
  payload[0] = 0xFF;
  payload[1] = 0xFF;
  EXPECT_FALSE(flips::serve::decode_result_reply(payload, decoded));
  EXPECT_FALSE(flips::serve::decode_result_reply({1, 2}, decoded));
}

// ---------------------------------------------------------------------
// End-to-end serving over a unix-domain socket.

flips::ScenarioSpec small_spec(std::size_t rounds, std::uint64_t seed) {
  auto spec = flips::scenario_preset("ecg-fedavg");
  spec.parties = 20;
  spec.samples_per_party = 30;
  spec.rounds = rounds;
  spec.threads = 2;
  spec.seed = seed;
  return spec;
}

std::vector<double> solo_parameters(const flips::ScenarioSpec& spec) {
  auto session = flips::bench::make_session(
      flips::to_experiment_config(spec), flips::selector_kind(spec),
      spec.seed);
  while (!session->done()) session->advance();
  return session->result().final_parameters;
}

std::unique_ptr<flips::fl::FederationSession> test_factory(
    const flips::serve::KvPairs& kv, flips::common::ThreadPool* workers,
    std::string* banner) {
  const auto spec = flips::ScenarioSpec::from_key_values(kv);
  *banner = "scenario " + spec.name;
  return flips::bench::make_session(flips::to_experiment_config(spec),
                                    flips::selector_kind(spec), spec.seed,
                                    workers);
}

std::string test_socket_path(const char* tag) {
  return "/tmp/flips_test_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Sends one step and blocks for ITS reply (skipping none — the serial
/// window-1 discipline means replies arrive in order).
FrameStatus step_once(flips::serve::Client& client, std::uint64_t id,
                      flips::serve::StepReply& reply) {
  Frame request;
  request.type = FrameType::kStep;
  request.payload = flips::serve::encode_step_request(id);
  const Frame response = client.call(request);
  EXPECT_EQ(response.type, FrameType::kStep);
  EXPECT_TRUE(flips::serve::decode_step_reply(response.payload, reply));
  EXPECT_EQ(reply.request_id, id);
  return response.status;
}

std::vector<double> fetch_result(flips::serve::Client& client) {
  Frame request;
  request.type = FrameType::kResult;
  const Frame response = client.call(request);
  EXPECT_EQ(response.status, FrameStatus::kOk);
  std::vector<double> parameters;
  EXPECT_TRUE(
      flips::serve::decode_result_reply(response.payload, parameters));
  return parameters;
}

/// The value of one series in a metrics exposition, 0 while the series
/// is absent. The registry is process-wide, so a counter keeps what
/// earlier cases (and --gtest_repeat passes) added to it.
std::uint64_t series_value(const std::string& exposition,
                           const std::string& series) {
  const std::string line = "\n" + series + " ";
  const std::size_t at = ("\n" + exposition).find(line);
  if (at == std::string::npos) return 0;
  return std::stoull(exposition.substr(at + line.size() - 1));
}

TEST(ServeEndToEnd, UnequalTenantsAreBitIdenticalAndLifecycleIsClean) {
  const std::string socket = test_socket_path("e2e");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto brief_spec = small_spec(3, 77);
  const auto long_spec = small_spec(8, 2077);

  flips::serve::Client brief;
  brief.connect_uds(socket);
  EXPECT_NE(brief.hello("brief").find("brief"), std::string::npos);
  brief.open_session(brief_spec.to_key_values());

  flips::serve::Client survivor;
  survivor.connect_uds(socket);
  survivor.hello("survivor");
  survivor.open_session(long_spec.to_key_values());

  // A result fetch before the last round is refused.
  Frame early;
  early.type = FrameType::kResult;
  EXPECT_EQ(survivor.call(early).status, FrameStatus::kNotFinished);

  // Interleave the two tenants; "brief" finishes at round 3 and every
  // further step is kSessionDone — which must not perturb "survivor".
  flips::serve::StepReply reply;
  std::size_t brief_refusals = 0;
  for (std::uint64_t round = 1; round <= 8; ++round) {
    const FrameStatus brief_status = step_once(brief, round, reply);
    if (brief_status == FrameStatus::kSessionDone) {
      ++brief_refusals;
    } else {
      EXPECT_EQ(brief_status, FrameStatus::kOk);
      EXPECT_EQ(reply.round, round);
      EXPECT_EQ(reply.finished, round == 3);
    }
    EXPECT_EQ(step_once(survivor, round, reply), FrameStatus::kOk);
    EXPECT_EQ(reply.finished, round == 8);
  }
  EXPECT_EQ(brief_refusals, 5u);

  // Served results match in-process runs of the same specs bitwise.
  const auto brief_served = fetch_result(brief);
  const auto survivor_served = fetch_result(survivor);
  EXPECT_EQ(brief_served, solo_parameters(brief_spec));
  EXPECT_EQ(survivor_served, solo_parameters(long_spec));

  // A second connection may not reuse a registered tenant name.
  flips::serve::Client dup;
  dup.connect_uds(socket);
  EXPECT_THROW(dup.hello("survivor"), std::runtime_error);

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.steps, 3u + 8u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(ServeEndToEnd, StepWithoutHelloOrSessionIsRefused) {
  const std::string socket = test_socket_path("refuse");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(1);
  EXPECT_EQ(client.call(step).status, FrameStatus::kNoSession);

  client.hello("t");
  flips::serve::StepReply reply;
  EXPECT_EQ(step_once(client, 2, reply), FrameStatus::kNoSession);

  // A scenario that fails validation is kBadScenario, not a session.
  Frame open;
  open.type = FrameType::kOpenSession;
  open.payload = flips::serve::encode_kv({{"selector", "best"}});
  EXPECT_EQ(client.call(open).status, FrameStatus::kBadScenario);

  // Raw garbage bytes (bad magic) elicit a kBadFrame reply followed by
  // a close — and the server keeps serving other connections.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
        0);
    const std::vector<std::uint8_t> garbage(32, 0x77);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    // Read until EOF: expect exactly one well-formed kBadFrame frame.
    FrameDecoder decoder;
    std::uint8_t chunk[512];
    std::vector<Frame> replies;
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      decoder.feed(chunk, static_cast<std::size_t>(got));
      Frame frame;
      while (decoder.next(frame) == FrameDecodeResult::kFrame) {
        replies.push_back(frame);
      }
    }
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].status, FrameStatus::kBadFrame);
  }

  // The original, well-formed connection still works after the vandal.
  EXPECT_EQ(step_once(client, 3, reply), FrameStatus::kNoSession);

  server.drain();
  EXPECT_EQ(server.stats().bad_frames, 1u);
  EXPECT_GE(server.stats().frames, 4u);
}

TEST(ServeEndToEnd, FloodingTenantIsRejectedWhileVictimStaysBounded) {
  const std::string socket = test_socket_path("flood");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  config.max_inflight_per_tenant = 2;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto flood_spec = small_spec(6, 11);
  const auto victim_spec = small_spec(6, 9011);

  std::size_t flood_rejections = 0;
  std::size_t flood_steps = 0;
  std::thread flooder([&] {
    flips::serve::Client client;
    client.connect_uds(socket);
    client.hello("flooder");
    client.open_session(flood_spec.to_key_values());
    // Fire a burst far past the admission bound, then keep the
    // pressure on until the session completes.
    std::uint64_t next_id = 1;
    std::size_t outstanding = 0;
    bool finished = false;
    auto pump = [&](const Frame& response) {
      flips::serve::StepReply reply;
      ASSERT_TRUE(
          flips::serve::decode_step_reply(response.payload, reply));
      --outstanding;
      if (response.status == FrameStatus::kRejected) {
        ++flood_rejections;
      } else if (response.status == FrameStatus::kOk) {
        ++flood_steps;
        if (reply.finished) finished = true;
      } else {
        EXPECT_EQ(response.status, FrameStatus::kSessionDone);
        finished = true;
      }
    };
    while (!finished) {
      if (outstanding < 64) {
        Frame request;
        request.type = FrameType::kStep;
        request.payload = flips::serve::encode_step_request(next_id++);
        client.send(request);
        ++outstanding;
        continue;
      }
      pump(client.recv());
    }
    while (outstanding > 0) pump(client.recv());
    EXPECT_EQ(fetch_result(client), solo_parameters(flood_spec));
  });

  // The victim steps serially (window 1) while the flood runs. Its
  // per-step latency stays bounded — generous ceiling, but a starved
  // tenant would block on the flooder's whole 6-round backlog and
  // blow far past it even on a sanitizer build.
  flips::serve::Client victim;
  victim.connect_uds(socket);
  victim.hello("victim");
  victim.open_session(victim_spec.to_key_values());
  double max_latency_s = 0.0;
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(step_once(victim, round, reply), FrameStatus::kOk);
    max_latency_s = std::max(
        max_latency_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  EXPECT_TRUE(reply.finished);
  flooder.join();

  EXPECT_GT(flood_rejections, 0u);
  EXPECT_EQ(flood_steps, 6u);
  EXPECT_LT(max_latency_s, 10.0);
  EXPECT_EQ(fetch_result(victim), solo_parameters(victim_spec));

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, flood_rejections);
  EXPECT_EQ(stats.steps, 12u);
}

// ---------------------------------------------------------------------
// Self-healing lifecycle: mid-frame resets, reconnect-and-replay,
// idle-tenant eviction, and shutdown with a step in flight.

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServeEndToEnd, MidFrameResetsLeakNoFdsAndServiceContinues) {
  const std::string socket = test_socket_path("reset");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("steady");
  client.open_session(small_spec(2, 404).to_key_values());

  const std::size_t baseline = open_fd_count();
  // Eight vandals each deliver half a frame, then reset the connection
  // mid-payload. The server must tear each one down completely.
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(99);
  const auto image = wire_image(step);
  for (int vandal = 0; vandal < 8; ++vandal) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
        0);
    ASSERT_GT(::send(fd, image.data(), image.size() / 2, 0), 0);
    ::close(fd);
  }
  // The single acceptor takes connections in backlog order, so once a
  // later connection has been answered every vandal has been accepted:
  // without this the fd check could pass before the server held any of
  // them. The probe itself then becomes a ninth dead connection.
  {
    flips::serve::Client probe;
    probe.connect_uds(socket);
    EXPECT_FALSE(probe.metrics().empty());
  }

  // Reader threads notice EOF and release their fds; allow a grace
  // window, then require the count back at (or below) the baseline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (open_fd_count() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(open_fd_count(), baseline);

  // The well-behaved tenant never noticed.
  flips::serve::StepReply reply;
  EXPECT_EQ(step_once(client, 1, reply), FrameStatus::kOk);
  server.drain();
  EXPECT_EQ(server.stats().steps, 1u);
}

TEST(ServeEndToEnd, ExitedReadersAreJoinedBeforeDrain) {
  const std::string socket = test_socket_path("reap");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  // Each probe is answered, then closed. The acceptor joins every
  // reader that has exited by the next accept, so only the newest
  // probe's connection may still be held — not one per dead peer.
  const auto probe_once = [&] {
    flips::serve::Client probe;
    probe.connect_uds(socket);
    EXPECT_FALSE(probe.metrics().empty());
  };
  for (int i = 0; i < 8; ++i) probe_once();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    probe_once();
    if (server.stats().connections <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_LE(server.stats().connections, 1u);

  server.drain();
  EXPECT_EQ(server.stats().connections, 0u);
}

TEST(ServeEndToEnd, ReconnectAndReplayIsBitIdenticalUnderFaults) {
  const std::string socket = test_socket_path("phoenix");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  flips::serve::Server server(config, test_factory);
  server.start();

  // A nonzero fault plan rides the wire with the rest of the scenario:
  // the served run below must still match the in-process run bitwise
  // even though the client's connection dies repeatedly.
  auto spec = small_spec(6, 313);
  spec.churn = 1.0;
  spec.fault_rate = 0.10;
  spec.min_quorum = 0.25;

  flips::serve::Client client;
  client.set_retry_policy(
      {.max_attempts = 40, .backoff_base_s = 0.01, .backoff_mult = 1.5});
  client.connect_uds(socket);
  client.hello("phoenix");
  client.open_session(spec.to_key_values());

  // Drive to completion, killing the connection every other success —
  // alternating a clean between-steps close with an in-flight kill
  // (request sent, reply never read: the replayed id may step again
  // server-side, which the fixed round count makes idempotent).
  std::uint64_t next_id = 1;
  std::size_t successes = 0;
  std::size_t kills = 0;
  bool finished = false;
  while (!finished) {
    Frame request;
    request.type = FrameType::kStep;
    request.payload = flips::serve::encode_step_request(next_id++);
    if (successes > 0 && successes % 2 == 0) {
      ++kills;
      if (kills % 2 == 0) {
        try {
          client.send(request);  // in-flight kill: reply is lost
        } catch (const std::runtime_error&) {
        }
      }
      client.close();
    }
    const Frame response = client.call_with_retry(request);
    if (response.status == FrameStatus::kOk) {
      ++successes;
      flips::serve::StepReply reply;
      ASSERT_TRUE(
          flips::serve::decode_step_reply(response.payload, reply));
      finished = reply.finished;
    } else {
      ASSERT_EQ(response.status, FrameStatus::kSessionDone);
      finished = true;
    }
  }
  EXPECT_GE(kills, 2u);

  Frame result;
  result.type = FrameType::kResult;
  const Frame response = client.call_with_retry(result);
  ASSERT_EQ(response.status, FrameStatus::kOk);
  std::vector<double> parameters;
  ASSERT_TRUE(
      flips::serve::decode_result_reply(response.payload, parameters));
  EXPECT_EQ(parameters, solo_parameters(spec));
  server.drain();
}

TEST(ServeEndToEnd, IdleTenantIsEvictedAndTheNameIsReusable) {
  const std::string socket = test_socket_path("evict");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  config.tenant_idle_timeout_s = 0.2;
  flips::serve::Server server(config, test_factory);
  server.start();

  // Earlier repeats of this case left their ghost evictions in the
  // process-wide registry: this one must add exactly one.
  flips::serve::Client watcher;
  watcher.connect_uds(socket);
  const std::string series = "flips_serve_evictions_total{tenant=\"ghost\"}";
  const std::uint64_t baseline = series_value(watcher.metrics(), series);

  const auto spec = small_spec(3, 505);
  {
    flips::serve::Client ghost;
    ghost.connect_uds(socket);
    ghost.hello("ghost");
    ghost.open_session(spec.to_key_values());
    flips::serve::StepReply reply;
    EXPECT_EQ(step_once(ghost, 1, reply), FrameStatus::kOk);
  }  // connection dies with the session mid-run

  // The sweep fires once the tenant sits idle past the timeout.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t evictions = baseline;
  while ((evictions = series_value(watcher.metrics(), series)) == baseline) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "tenant was never evicted";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(evictions, baseline + 1);

  // The evicted slot is gone: the name re-registers as a fresh tenant
  // whose brand-new session runs to a result.
  flips::serve::Client reborn;
  reborn.connect_uds(socket);
  EXPECT_NE(reborn.hello("ghost").find("ghost"), std::string::npos);
  reborn.open_session(spec.to_key_values());
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    ASSERT_EQ(step_once(reborn, round, reply), FrameStatus::kOk);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(reborn), solo_parameters(spec));
  server.drain();
  EXPECT_EQ(server.stats().sessions_opened, 2u);
}

TEST(ServeEndToEnd, IdleTenantIsEvictedWhileAnotherKeepsTheSchedulerBusy) {
  const std::string socket = test_socket_path("busy_evict");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  config.max_inflight_per_tenant = 16;
  config.tenant_idle_timeout_s = 0.2;
  flips::serve::Server server(config, test_factory);
  server.start();

  // The busy tenant keeps 8 steps outstanding and each step trains for
  // a while, so the tenant refills the queue long before the scheduler
  // drains it: the scheduler always finds work queued and never waits.
  // The session has rounds to spare: it is still running when the test
  // stops it.
  auto busy_spec = small_spec(1'000'000, 77);
  busy_spec.samples_per_party = 400;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> busy_steps{0};
  std::thread busy([&] {
    flips::serve::Client client;
    client.connect_uds(socket);
    client.hello("busy");
    client.open_session(busy_spec.to_key_values());
    std::uint64_t next_id = 1;
    std::size_t outstanding = 0;
    while (!stop.load() || outstanding > 0) {
      if (!stop.load() && outstanding < 8) {
        Frame request;
        request.type = FrameType::kStep;
        request.payload = flips::serve::encode_step_request(next_id++);
        client.send(request);
        ++outstanding;
        continue;
      }
      const Frame response = client.recv();
      --outstanding;
      EXPECT_EQ(response.status, FrameStatus::kOk);
      busy_steps.fetch_add(1);
    }
  });
  while (busy_steps.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The metrics registry is process-wide: a name no other case (or
  // repeat) uses keeps an earlier eviction from counting here.
  static int repeat = 0;
  const std::string name = "idle-under-load-" + std::to_string(repeat++);
  {
    flips::serve::Client ghost;
    ghost.connect_uds(socket);
    ghost.hello(name);
    ghost.open_session(small_spec(3, 505).to_key_values());
  }  // connection dies with the session unstarted

  flips::serve::Client watcher;
  watcher.connect_uds(socket);
  const std::string want =
      "flips_serve_evictions_total{tenant=\"" + name + "\"} 1";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool evicted = false;
  while (!evicted && std::chrono::steady_clock::now() < deadline) {
    evicted = watcher.metrics().find(want) != std::string::npos;
    if (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::uint64_t steps_when_evicted = busy_steps.load();
  stop.store(true);
  busy.join();
  EXPECT_TRUE(evicted) << "tenant was not evicted while the scheduler "
                          "had work queued";
  EXPECT_GT(busy_steps.load(), steps_when_evicted);
  server.drain();
}

TEST(ServeEndToEnd, ShutdownWithStepInFlightDrainsCleanly) {
  const std::string socket = test_socket_path("drain");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("t");
  client.open_session(small_spec(3, 606).to_key_values());

  // Queue a step, then request shutdown before reading its reply. The
  // shutdown ack is written on the reader thread, so it may overtake
  // the step reply — classify the two frames by type.
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(1);
  client.send(step);
  Frame down;
  down.type = FrameType::kShutdown;
  client.send(down);

  bool saw_step = false;
  bool saw_ack = false;
  for (int i = 0; i < 2; ++i) {
    const Frame frame = client.recv();
    if (frame.type == FrameType::kStep) {
      EXPECT_EQ(frame.status, FrameStatus::kOk);
      flips::serve::StepReply reply;
      ASSERT_TRUE(flips::serve::decode_step_reply(frame.payload, reply));
      EXPECT_EQ(reply.round, 1u);
      saw_step = true;
    } else {
      EXPECT_EQ(frame.type, FrameType::kShutdown);
      EXPECT_EQ(frame.status, FrameStatus::kOk);
      saw_ack = true;
    }
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(server.shutdown_requested());
  server.drain();  // the queued step finished; nothing is stranded
  EXPECT_EQ(server.stats().steps, 1u);
}

}  // namespace
