// Gradient/parameter bucket registry for overlapped aggregation.
//
// The overlapped round pipeline (core/round_pipeline.hpp) needs model state
// partitioned into fixed-byte buckets so the collective for bucket i can be
// in flight while the compute that produces bucket i+1 is still running.
// This header owns the partition:
//
//  - BucketPlan slices a Sequential's state list (parameters + persistent
//    buffers, Sequential::collect_state order) into buckets of roughly
//    `bucket_bytes` fp32 wire bytes, at whole-tensor granularity, and maps
//    every bucket to the units whose state it holds.
//  - BucketReadyTracker turns unit-by-unit backward completion (the final
//    batch of a round walks units in reverse) into bucket-ready callbacks:
//    a bucket fires the moment the last unit owning any of its tensors has
//    taken its optimizer update, which is when output-side buckets become
//    final while input-side backward compute is still running.
//
// Determinism note: bucketing changes how the flat state vector is split
// across collectives, not what is summed. Halving/doubling reduces every
// element through the same balanced binary tree over agent indices
// regardless of segmentation, so a bucketed halving/doubling round is
// bit-identical to the one-bucket round for any bucket_bytes. Ring's
// per-element accumulation order rotates with its chunk boundaries, so ring
// results are only guaranteed identical across *schedules with the same
// bucket plan* (e.g. overlapped vs sequential execution of the same
// buckets).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/layers.hpp"

namespace comdml::nn {

/// One fixed-byte slice of the model's flattened state vector.
struct Bucket {
  size_t first_tensor = 0;  ///< index into the model's state list
  size_t tensor_count = 0;
  int64_t elems = 0;         ///< fp32 wire elements in this bucket
  int64_t offset_elems = 0;  ///< offset into the full flat state vector
  size_t first_unit = 0;     ///< lowest Sequential unit with state here
  size_t last_unit = 0;      ///< highest (inclusive)
};

/// Immutable partition of one model architecture's state into buckets.
/// Structurally identical replicas (every fleet agent) share one plan.
class BucketPlan {
 public:
  /// Partition `model`'s state into buckets of at most ~`bucket_bytes`
  /// fp32 wire bytes (4 bytes/element). Whole-tensor granularity: a tensor
  /// never splits across buckets, so a tensor larger than `bucket_bytes`
  /// gets a bucket of its own. `bucket_bytes == 0` yields one bucket
  /// holding the entire state (a flat round).
  [[nodiscard]] static BucketPlan build(Sequential& model,
                                        int64_t bucket_bytes);

  [[nodiscard]] int64_t buckets() const noexcept {
    return static_cast<int64_t>(buckets_.size());
  }
  [[nodiscard]] const Bucket& bucket(int64_t b) const {
    COMDML_CHECK(b >= 0 && b < buckets());
    return buckets_[static_cast<size_t>(b)];
  }
  [[nodiscard]] int64_t total_elems() const noexcept { return total_elems_; }
  [[nodiscard]] size_t units() const noexcept { return unit_buckets_.size(); }

  /// Buckets holding state of unit `u` (ascending bucket index).
  [[nodiscard]] const std::vector<int64_t>& unit_buckets(size_t u) const {
    COMDML_CHECK(u < unit_buckets_.size());
    return unit_buckets_[u];
  }

  /// Learnable-parameter count per unit (collect_parameters order), for
  /// per-unit optimizer stepping during the final overlapped backward.
  [[nodiscard]] const std::vector<size_t>& unit_param_counts() const
      noexcept {
    return unit_param_counts_;
  }

  /// Copy bucket `b` of a structurally matching state list (in-place model
  /// state, Module::collect_state) into `out` (fp64 accumulator layout,
  /// `bucket(b).elems` values) and back.
  void flatten_bucket(const std::vector<tensor::Tensor*>& state, int64_t b,
                      double* out) const;
  void unflatten_bucket(const double* in, int64_t b,
                        const std::vector<tensor::Tensor*>& state) const;

 private:
  std::vector<Bucket> buckets_;
  std::vector<int64_t> tensor_elems_;  ///< per state tensor, plan order
  std::vector<std::vector<int64_t>> unit_buckets_;  ///< per unit
  std::vector<size_t> unit_param_counts_;
  int64_t total_elems_ = 0;
};

/// Per-agent, per-round readiness tracker. Call unit_done(u) as the final
/// batch's backward finalizes unit u (reverse unit order); every bucket
/// whose owning units have all completed fires `on_ready` exactly once.
class BucketReadyTracker {
 public:
  using ReadyFn = std::function<void(int64_t bucket)>;

  explicit BucketReadyTracker(const BucketPlan& plan);

  /// Unit `u`'s state is final (backward + optimizer update done).
  void unit_done(size_t u, const ReadyFn& on_ready);

  /// Fire every bucket that has not fired yet (state finalized by some
  /// path other than the unit-by-unit walk).
  void finish(const ReadyFn& on_ready);

  [[nodiscard]] int64_t fired() const noexcept { return fired_count_; }

 private:
  const BucketPlan* plan_;
  std::vector<int> pending_units_;  ///< per bucket: owning units not done
  std::vector<char> fired_;
  int64_t fired_count_ = 0;
};

/// Learnable-parameter count of each of `model`'s units, in unit order
/// (collect_parameters order): the per-unit ranges of an optimizer built
/// over model.parameters().
[[nodiscard]] std::vector<size_t> unit_param_counts(Sequential& model);

}  // namespace comdml::nn
