// Bindings between protocol node Message types and the wire payload
// codecs — the glue ShardEngine needs to put a node's messages into
// batch records. A codec type provides:
//
//   static std::vector<std::byte> encode(const Message&);
//   static Message decode(std::span<const std::byte>);
//
// decode throws wire::DecodeError on malformed payloads; ShardEngine
// counts those records as decode errors and drops them instead of
// letting them kill the shard.
#pragma once

#include <span>
#include <vector>

#include <ddc/core/collection.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::net {

/// Codec for classifier nodes (Message = core::Classification<Summary>).
/// Auxiliary vectors never travel — they are diagnostic-only and O(n).
template <typename Summary>
struct ClassificationCodec {
  using Message = core::Classification<Summary>;

  [[nodiscard]] static std::vector<std::byte> encode(const Message& message) {
    return wire::encode_classification(message);
  }
  [[nodiscard]] static Message decode(std::span<const std::byte> payload) {
    return wire::decode_classification<Summary>(payload);
  }
};

}  // namespace ddc::net
