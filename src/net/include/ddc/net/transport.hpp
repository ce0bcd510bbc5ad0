// The message transport abstraction the shard engine drives.
//
// The paper's algorithm needs only an unreliable, unordered datagram
// service between neighbors — no routing, no connections, no delivery
// guarantees (Section 3.1 assumes reliable channels; the evaluation and
// our ablations deliberately relax that). This interface captures that
// minimal service. Two implementations ship:
//
//   * LoopbackTransport (loopback.hpp) — in-process, deterministic,
//     seeded delivery order with injectable loss and delay; carries
//     ShardCluster's in-process shard exchange.
//   * UdpTransport (udp.hpp) — non-blocking UDP sockets; one ddcnode
//     shard process per endpoint, localhost or LAN.
//
// Frames are opaque byte vectors; src/wire defines their contents
// (envelope in framing.hpp, payloads in serialize.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddc::net {

/// Index of an endpoint in the cluster's peer table. Dense and small —
/// the table is part of the static cluster configuration, exactly like
/// the simulator's NodeId space.
using PeerId = std::uint32_t;

/// One received datagram, attributed to the peer that sent it.
struct Packet {
  PeerId from;
  std::vector<std::byte> bytes;
};

/// Per-peer traffic counters. `send_failures` counts frames the
/// transport could not hand to the network (socket errors, unknown
/// peer); lost-in-flight frames are invisible here by nature.
struct LinkStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_failures = 0;
};

/// A datagram endpoint bound to one peer id. Non-blocking throughout:
/// `send` queues or emits and returns, `receive` drains whatever has
/// arrived and returns immediately.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// This endpoint's id in the peer table.
  [[nodiscard]] virtual PeerId self() const = 0;

  /// Size of the peer table (including self).
  [[nodiscard]] virtual std::size_t num_peers() const = 0;

  /// Sends one frame to `to`. Best-effort: the frame may be lost in
  /// flight; a frame the transport could not even emit is counted in
  /// stats(to).send_failures.
  virtual void send(PeerId to, const std::vector<std::byte>& frame) = 0;

  /// Drains every frame that has arrived since the last call.
  [[nodiscard]] virtual std::vector<Packet> receive() = 0;

  /// Traffic counters for the link to/from `peer`.
  [[nodiscard]] virtual const LinkStats& stats(PeerId peer) const = 0;

 protected:
  Transport() = default;
};

}  // namespace ddc::net
