// Canonical cache keys for the online serving layer.
//
// ResultCacheKey identifies an *answer*: the query's exact item sequence
// plus (kind, algorithm, theta or j). Any difference in the ranking's
// order changes the Footrule distances and therefore the answer, so the
// canonical form is the full position-order sequence.
//
// The key carries a precomputed 64-bit fingerprint for bucketing, but
// exactness never rests on it: the cache compares the full key (operator==
// includes the item vector) before serving, so a fingerprint collision
// degrades to a miss, never to a wrong answer.

#ifndef TOPK_SERVE_FINGERPRINT_H_
#define TOPK_SERVE_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "core/ranking.h"
#include "core/types.h"

namespace topk {

/// What a serving request asks for; part of every result-cache key.
enum class ServeKind : uint8_t {
  kRange = 0,  // all rankings within theta_raw
  kKnn = 1,    // the j nearest rankings
};

struct ResultCacheKey {
  uint8_t kind;        // ServeKind
  uint32_t algorithm;  // Algorithm enum value (serving keeps per-algorithm
                       // entries separate even though all engines agree)
  uint64_t param;      // theta_raw for range requests, j for k-NN
  std::vector<ItemId> items;  // query items in position order (canonical)
  uint64_t hash;              // precomputed over every field above

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.hash == b.hash && a.kind == b.kind &&
           a.algorithm == b.algorithm && a.param == b.param &&
           a.items == b.items;
  }
};

ResultCacheKey MakeResultCacheKey(ServeKind kind, uint32_t algorithm,
                                  uint64_t param, const PreparedQuery& query);

}  // namespace topk

#endif  // TOPK_SERVE_FINGERPRINT_H_
