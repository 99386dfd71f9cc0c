// Local-loss-based split training (paper §III-B).
//
// The global model w = (w_s^m, w_f^m) is cut at unit boundary `cut`:
// the slow agent trains units [0, cut) plus an auxiliary head that supplies
// the local loss; the fast agent trains units [cut, end) on the slow side's
// intermediate activations. No gradient crosses the cut, so both sides
// update in parallel (paper Eqs. 2-3).
#pragma once

#include <functional>
#include <span>

#include "nn/bucket.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"

namespace comdml::nn {

/// Auxiliary network for a slow-side output of shape `feat_shape`
/// (per-sample): global-average-pool + fully-connected for conv feature
/// maps, plain fully-connected for flat features (paper §III-B / [4], [15]).
[[nodiscard]] ModulePtr make_aux_head(const Shape& feat_shape,
                                      int64_t classes, Rng& rng);

/// Trains one (slow, fast) split of a shared Sequential with local losses.
/// The same object serves both the real execution mode of the ComDML trainer
/// and the convergence tests.
class LocalLossSplitTrainer {
 public:
  /// `model` must outlive the trainer. `cut` in [1, model.size()-1]:
  /// at least one unit on each side.
  LocalLossSplitTrainer(Sequential& model, size_t cut, const Shape& in_shape,
                        int64_t classes, Rng& rng, SGD::Options options);

  struct StepStats {
    float slow_loss = 0.0f;   ///< auxiliary-head local loss (Eq. 2)
    float fast_loss = 0.0f;   ///< fast-side loss on intermediate input (Eq. 3)
    float fast_accuracy = 0.0f;
    int64_t intermediate_bytes = 0;  ///< activation payload crossing the cut
  };

  /// One parallel update on a batch: slow side w/ aux head, fast side on the
  /// detached intermediate activations (train_batch_notify with no
  /// callback).
  StepStats train_batch(const Tensor& x, std::span<const int64_t> labels);

  /// train_batch with per-unit finalization across both sides (the split
  /// counterpart of nn::train_batch_full_notify): every model unit takes
  /// its optimizer update the moment its backward completes, then
  /// `on_unit_final(u)` fires — unit u's state will not change again this
  /// batch. Slow prefix units finalize during the slow-side backward
  /// (reverse from cut-1 to 0, before the fast side even starts), fast
  /// suffix units during the fast-side backward (reverse from size-1 to
  /// cut) — so a fleet can publish the slow replica's buckets
  /// layer-by-layer while the split tail still computes, instead of at
  /// task end. `unit_param_counts` must list every model unit's
  /// learnable-parameter count (nn::BucketPlan::unit_param_counts()).
  /// Stepping each unit right after its own backward is the same
  /// arithmetic as one step after the whole backward: per-parameter SGD
  /// math is order-independent, no earlier unit's backward reads a later
  /// unit's weights, and the aux head's update never feeds the remaining
  /// backward. An empty `on_unit_final` only steps.
  StepStats train_batch_notify(const Tensor& x,
                               std::span<const int64_t> labels,
                               std::span<const size_t> unit_param_counts,
                               const std::function<void(size_t)>& on_unit_final);

  /// Full-model inference (slow prefix + fast suffix), evaluation mode.
  [[nodiscard]] Tensor infer(const Tensor& x);

  [[nodiscard]] size_t cut() const noexcept { return cut_; }
  [[nodiscard]] Module& aux_head() { return *aux_; }
  [[nodiscard]] SGD& slow_optimizer() { return slow_opt_; }
  [[nodiscard]] SGD& fast_optimizer() { return fast_opt_; }

 private:
  Sequential& model_;
  size_t cut_;
  ModulePtr aux_;
  SGD slow_opt_;
  SGD fast_opt_;
};

/// One conventional (non-split) SGD step on a full model:
/// train_batch_full_notify with no callback. Returns (loss, accuracy).
[[nodiscard]] LossResult train_batch_full(Sequential& model, SGD& opt,
                                          const Tensor& x,
                                          std::span<const int64_t> labels);

/// Called as unit `u`'s state becomes final during a notifying step.
using UnitFinalFn = std::function<void(size_t unit)>;

/// train_batch_full with per-unit finalization: backward walks units in
/// reverse, and each unit's parameters take their optimizer update the
/// moment its backward completes, after which `on_unit_final(u)` fires —
/// unit u's state (params + buffers) will not change again this batch.
/// `opt` must have been constructed over exactly model.parameters() and
/// `unit_param_counts` must list each unit's learnable-parameter count
/// (nn::BucketPlan::unit_param_counts()). An empty `on_unit_final` only
/// steps: per-parameter SGD math is order-independent, so this is one SGD
/// step on the batch.
[[nodiscard]] LossResult train_batch_full_notify(
    Sequential& model, SGD& opt, const Tensor& x,
    std::span<const int64_t> labels,
    std::span<const size_t> unit_param_counts,
    const UnitFinalFn& on_unit_final);

/// Mean argmax accuracy of `model` on (x, labels), evaluation mode.
[[nodiscard]] float evaluate_accuracy(Sequential& model, const Tensor& x,
                                      std::span<const int64_t> labels);

}  // namespace comdml::nn
