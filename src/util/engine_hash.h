// Engine-to-shard placement hash.
//
// Engines are hashed by name, not range-partitioned: representative
// files arrive in arbitrary order and engines come and go, so a stable
// content hash keeps each engine on the same shard across reloads and
// topology-preserving restarts without any coordination. FNV-1a is
// deliberate — trivially portable, byte-order free, and stable forever,
// because a placement hash is a wire format: changing it strands every
// deployed shard's slice.
//
// Lives in util (not cluster) so a standalone service::Service can
// filter ADD payloads by shard ownership without linking the cluster
// front-end.
#pragma once

#include <cstdint>
#include <string_view>

namespace useful::util {

/// 64-bit FNV-1a of the engine name.
std::uint64_t EngineHash(std::string_view engine_name);

/// The shard (0..num_shards-1) that owns `engine_name`. num_shards must
/// be nonzero.
std::size_t ShardForEngine(std::string_view engine_name,
                           std::size_t num_shards);

}  // namespace useful::util
