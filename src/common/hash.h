// Hashing helpers shared across modules (distinct counting, sampling,
// composite-key fingerprints).
#pragma once

#include <cstdint>
#include <string_view>

namespace coradd {

/// 64-bit finalizer from MurmurHash3. Good avalanche behaviour; used to hash
/// integer keys (open-addressing probes, hash combining).
inline uint64_t HashU64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combines two hashes (boost::hash_combine recipe, 64-bit variant).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (HashU64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// FNV-1a over a byte string; used for hashing string values.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace coradd
