// UDP datagram transport — the first deployable backend.
//
// One process per shard; the cluster is a static peer table of
// host:port pairs (sensor deployments are configured, not discovered).
// The socket is non-blocking: send() emits or counts a failure,
// receive() drains the kernel buffer until it is empty. Incoming
// datagrams are attributed to peers by source address; datagrams from
// addresses outside the table are counted and dropped.
//
// Liveness: the transport keeps a probe-based failure detector. Call
// maintain() periodically; a peer silent for longer than
// `probe_timeout` is probed, and after `probe_retries` unanswered
// probes it is reported unreachable (peer_reachable() == false). Any
// later frame from the peer revives it — the detector is a hint
// (ddcnode --stats-json reports it), never a permanent eviction,
// matching the paper's crash-recovery-free but silence-tolerant model.
// The probe traffic also lets a shard hear from peers that have
// nothing else to send yet (ddcnode's start barrier).
//
// Probe and probe-ack frames (wire::FrameKind) are handled inside the
// transport; receive() surfaces only gossip, batch and batch_ack
// frames, still wrapped in their full envelope.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <ddc/net/transport.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::net {

/// One row of the static peer table. `host` must be an IPv4 dotted quad
/// or the literal "localhost".
struct UdpPeer {
  std::string host;
  std::uint16_t port = 0;
};

struct UdpOptions {
  /// Silence span after which a peer gets probed.
  std::chrono::milliseconds probe_timeout{250};
  /// Unanswered probes before the peer is reported unreachable.
  int probe_retries = 3;
  /// Test hook: probability of dropping each incoming datagram before
  /// it is even parsed, simulating channel loss on a lossless loopback
  /// interface. Applies to every frame kind, probes included.
  double inject_receive_loss = 0.0;
  /// Seed of the injected-loss stream.
  std::uint64_t loss_seed = 1;
};

/// Non-blocking UDP endpoint. Throws ddc::ConfigError when the socket
/// cannot be created or bound.
class UdpTransport final : public Transport {
 public:
  /// Binds peers[self]'s address. A port of 0 in the own entry binds an
  /// ephemeral port (see local_port()); peer entries with port 0 must be
  /// fixed up via set_peer_address before sending.
  UdpTransport(PeerId self, std::vector<UdpPeer> peers,
               UdpOptions options = {});
  ~UdpTransport() override;

  [[nodiscard]] PeerId self() const override { return self_; }
  [[nodiscard]] std::size_t num_peers() const override {
    return peers_.size();
  }
  void send(PeerId to, const std::vector<std::byte>& frame) override;
  [[nodiscard]] std::vector<Packet> receive() override;
  [[nodiscard]] const LinkStats& stats(PeerId peer) const override;

  /// The failure detector's liveness estimate for `to`. Advisory only —
  /// a "reachable" peer can still drop frames.
  [[nodiscard]] bool peer_reachable(PeerId to) const;

  /// The port the socket actually bound (== configured port unless 0).
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  /// Rebinds the table entry for `peer` (two-phase setup with ephemeral
  /// ports). Resets that peer's liveness state.
  void set_peer_address(PeerId peer, const std::string& host,
                        std::uint16_t port);

  /// Failure-detector upkeep: probes silent peers, expires the ones that
  /// exhausted their retries. Call once per driver tick.
  void maintain();

  /// Datagrams from addresses outside the peer table (dropped).
  [[nodiscard]] std::uint64_t unknown_source_frames() const noexcept {
    return unknown_source_frames_;
  }
  /// Datagrams that failed envelope parsing (dropped).
  [[nodiscard]] std::uint64_t malformed_frames() const noexcept {
    return malformed_frames_;
  }
  /// Datagrams dropped by the inject_receive_loss hook.
  [[nodiscard]] std::uint64_t injected_losses() const noexcept {
    return injected_losses_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct PeerState {
    std::uint64_t addr_key = 0;  // packed ip:port for the reverse map
    Clock::time_point last_heard;
    Clock::time_point last_probe;
    int probes_outstanding = 0;
    bool reachable = true;
  };

  void bind_socket(const UdpPeer& own);
  void update_peer_key(PeerId peer);
  void note_heard(PeerId peer);
  void send_raw(PeerId to, const std::vector<std::byte>& frame);

  PeerId self_;
  std::vector<UdpPeer> peers_;
  UdpOptions options_;
  stats::Rng loss_rng_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<PeerState> state_;
  std::vector<LinkStats> stats_;
  std::unordered_map<std::uint64_t, PeerId> by_address_;
  std::uint64_t probe_seq_ = 0;
  std::uint64_t unknown_source_frames_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t injected_losses_ = 0;
};

}  // namespace ddc::net
