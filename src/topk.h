// Umbrella header for the top-k-list similarity search library.
//
// Reproduction of Milchevski, Anand, Michel: "The Sweet Spot between
// Inverted Indices and Metric-Space Indexing for Top-K-List Similarity
// Search" (EDBT 2015). See README.md for a tour and DESIGN.md for the
// system inventory.

#ifndef TOPK_TOPK_H_
#define TOPK_TOPK_H_

#include "adapt/adapt_search.h"
#include "adapt/delta_inverted_index.h"
#include "cluster/bk_partitioner.h"
#include "cluster/cn_partitioner.h"
#include "cluster/partitioner.h"
#include "coarse/batch_query.h"
#include "coarse/coarse_index.h"
#include "core/bounds.h"
#include "core/footrule.h"
#include "core/kendall.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "costmodel/calibration.h"
#include "costmodel/cost_model.h"
#include "costmodel/empirical_cdf.h"
#include "costmodel/medoid_model.h"
#include "costmodel/zipf.h"
#include "data/dataset_stats.h"
#include "data/generator.h"
#include "data/workload.h"
#include "harness/query_algorithms.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/thread_pool.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/blocked_inverted_index.h"
#include "invidx/filter_validate.h"
#include "invidx/list_at_a_time.h"
#include "invidx/list_merge.h"
#include "invidx/oracle_index.h"
#include "invidx/plain_inverted_index.h"
#include "metric/bk_tree.h"
#include "metric/generic_bk_tree.h"
#include "metric/knn.h"
#include "metric/linear_scan.h"
#include "metric/m_tree.h"
#include "serve/admission.h"
#include "serve/fingerprint.h"
#include "serve/frontend.h"
#include "serve/lru_cache.h"
#include "serve/result_cache.h"
#include "storage/snapshot_manager.h"

#endif  // TOPK_TOPK_H_
