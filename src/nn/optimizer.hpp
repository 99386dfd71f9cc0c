// SGD with momentum, weight decay and a plateau learning-rate schedule,
// matching the paper's training recipe (momentum 0.9, eta0 = 1e-3, LR decay
// on accuracy plateau).
#pragma once

#include "nn/module.hpp"

namespace comdml::nn {

class SGD {
 public:
  struct Options {
    float lr = 1e-3f;
    float momentum = 0.9f;
    float weight_decay = 0.0f;
  };

  SGD(std::vector<Parameter*> params, Options options);

  /// Apply one update: v <- momentum*v - lr*(g + wd*w); w <- w + v.
  void step();

  /// FedProx's proximal term: from now on every update first adds
  /// mu * (w - w_anchor) to each gradient, where w_anchor is the
  /// parameter's value at this call (the round-start model).
  void anchor_proximal(float mu);

  /// Update only params [first, first + count) of the construction list.
  /// Per-parameter math is independent, so stepping a partition of the
  /// list in any order is bit-identical to one step() — the overlapped
  /// round pipeline uses this to finalize a unit's parameters as soon as
  /// its backward completes.
  void step_range(size_t first, size_t count);

  [[nodiscard]] size_t size() const noexcept { return params_.size(); }

  void zero_grad();

  [[nodiscard]] float lr() const noexcept { return options_.lr; }
  void set_lr(float lr);

  /// Momentum buffers, construction-list order — durable optimizer state
  /// for checkpoint/restore and for carrying momentum across rounds when
  /// the optimizer object itself is rebuilt.
  [[nodiscard]] const std::vector<Tensor>& velocity() const noexcept {
    return velocity_;
  }
  /// Restores velocity(); shapes must match the parameter list.
  void load_velocity(const std::vector<Tensor>& velocity);

 private:
  std::vector<Parameter*> params_;
  std::vector<Tensor> velocity_;
  Options options_;
  /// Round-start values of the proximal anchor (empty = no proximal term).
  std::vector<Tensor> anchor_;
  float prox_mu_ = 0.0f;
};

/// Reduce-on-plateau controller: multiply LR by `factor` when the tracked
/// metric has not improved by `min_delta` for `patience` observations.
class PlateauScheduler {
 public:
  PlateauScheduler(float factor, int patience, float min_delta = 1e-4f);

  /// Report a new metric value (higher is better); returns the LR multiplier
  /// to apply this step (1.0 = unchanged, `factor` = decay triggered).
  [[nodiscard]] float observe(float metric);

  /// Durable controller state (best metric seen, staleness counter).
  struct State {
    float best = -1e30f;
    int stale = 0;
  };
  [[nodiscard]] State save() const noexcept { return {best_, stale_}; }
  void load(const State& state) noexcept {
    best_ = state.best;
    stale_ = state.stale;
  }

 private:
  float factor_;
  int patience_;
  float min_delta_;
  float best_ = -1e30f;
  int stale_ = 0;
};

}  // namespace comdml::nn
