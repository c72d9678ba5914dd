#include "serve/fingerprint.h"

namespace topk {

ResultCacheKey MakeResultCacheKey(ServeKind kind, uint32_t algorithm,
                                  uint64_t param, const PreparedQuery& query) {
  ResultCacheKey key;
  key.kind = static_cast<uint8_t>(kind);
  key.algorithm = algorithm;
  key.param = param;
  const auto items = query.view().items();
  key.items.assign(items.begin(), items.end());
  const uint64_t tag =
      (static_cast<uint64_t>(key.kind) << 32) | key.algorithm;
  key.hash = MixId64(SequenceFingerprint(items) ^ MixId64(param) ^
                     MixId64(tag));
  return key;
}

}  // namespace topk
