// Mini-batch iteration with per-epoch reshuffling.
#pragma once

#include "data/dataset.hpp"
#include "tensor/random.hpp"

namespace comdml::data {

struct Batch {
  Tensor x;
  std::vector<int64_t> y;
};

/// Cycles through a dataset in shuffled mini-batches; reshuffles at each
/// epoch boundary. The final partial batch of an epoch is emitted as-is.
class Batcher {
 public:
  /// `dataset` must outlive the batcher.
  Batcher(const Dataset& dataset, int64_t batch_size, tensor::Rng rng);

  /// Next mini-batch (wraps to a fresh epoch automatically).
  [[nodiscard]] Batch next();

  /// Number of batches per epoch.
  [[nodiscard]] int64_t batches_per_epoch() const noexcept {
    return (dataset_->size() + batch_size_ - 1) / batch_size_;
  }

  [[nodiscard]] int64_t epoch() const noexcept { return epoch_; }

  /// The shuffling rng. Per-batch draws of the batcher's owner (a privacy
  /// transform) take it too, so they ride the same saved state.
  [[nodiscard]] tensor::Rng& rng() noexcept { return rng_; }

  /// Durable iteration state: shuffle order, position, epoch, and the
  /// shuffling rng. Restoring it resumes the exact batch sequence.
  struct State {
    std::vector<int64_t> order;
    int64_t cursor = 0;
    int64_t epoch = 0;
    std::string rng;
  };
  [[nodiscard]] State save() const;
  /// Restores a save()d state; `order` must index this batcher's dataset.
  void load(const State& state);

 private:
  const Dataset* dataset_;
  int64_t batch_size_;
  tensor::Rng rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
  int64_t epoch_ = 0;

  void reshuffle();
};

}  // namespace comdml::data
