#include "nn/split.hpp"

namespace comdml::nn {

ModulePtr make_aux_head(const Shape& feat_shape, int64_t classes, Rng& rng) {
  COMDML_CHECK(classes > 1);
  auto head = std::make_unique<Sequential>();
  if (feat_shape.size() == 3) {  // [C,H,W] conv feature map
    head->push(std::make_unique<GlobalAvgPool2d>());
    head->push(std::make_unique<Linear>(feat_shape[0], classes, rng));
  } else if (feat_shape.size() == 1) {  // flat features
    head->push(std::make_unique<Linear>(feat_shape[0], classes, rng));
  } else {
    COMDML_REQUIRE(false, "aux head: unsupported feature shape "
                              << tensor::shape_str(feat_shape));
  }
  return head;
}

namespace {

std::vector<Parameter*> range_parameters(Sequential& model, size_t begin,
                                         size_t end) {
  std::vector<Parameter*> out;
  for (size_t i = begin; i < end; ++i) model.unit(i).collect_parameters(out);
  return out;
}

std::vector<Parameter*> with_aux(std::vector<Parameter*> params, Module& aux) {
  aux.collect_parameters(params);
  return params;
}

Shape feature_shape_at(const Sequential& model, const Shape& in_shape,
                       size_t cut) {
  const auto costs = model.unit_costs(in_shape);
  COMDML_CHECK(cut >= 1 && cut <= costs.size());
  return costs[cut - 1].out_shape;
}

}  // namespace

LocalLossSplitTrainer::LocalLossSplitTrainer(Sequential& model, size_t cut,
                                             const Shape& in_shape,
                                             int64_t classes, Rng& rng,
                                             SGD::Options options)
    : model_(model),
      cut_(cut),
      aux_(make_aux_head(feature_shape_at(model, in_shape, cut), classes,
                         rng)),
      slow_opt_(with_aux(range_parameters(model, 0, cut), *aux_), options),
      fast_opt_(range_parameters(model, cut, model.size()), options) {
  COMDML_REQUIRE(cut >= 1 && cut < model.size(),
                 "split cut " << cut << " must leave at least one unit on "
                                 "each side of a model with "
                              << model.size() << " units");
}

LocalLossSplitTrainer::StepStats LocalLossSplitTrainer::train_batch(
    const Tensor& x, std::span<const int64_t> labels) {
  return train_batch_notify(x, labels, unit_param_counts(model_), {});
}

LocalLossSplitTrainer::StepStats LocalLossSplitTrainer::train_batch_notify(
    const Tensor& x, std::span<const int64_t> labels,
    std::span<const size_t> unit_param_counts,
    const std::function<void(size_t)>& on_unit_final) {
  COMDML_CHECK(unit_param_counts.size() == model_.size());
  StepStats stats;

  // Slow side. The aux head steps right after its own backward (its grads
  // are final and nothing downstream reads its weights this batch), then
  // the prefix backward walks units in reverse, stepping + finalizing each
  // one: unit u's parameter range of slow_opt_ ends at the running prefix
  // sum of unit_param_counts[0..u].
  slow_opt_.zero_grad();
  const Tensor h = model_.forward_range(x, 0, cut_, /*train=*/true);
  stats.intermediate_bytes = h.nbytes();
  const Tensor aux_logits = aux_->forward(h, /*train=*/true);
  const LossResult slow = softmax_cross_entropy(aux_logits, labels);
  stats.slow_loss = slow.loss;
  Tensor grad = aux_->backward(slow.grad_logits);
  size_t prefix_params = 0;
  for (size_t u = 0; u < cut_; ++u) prefix_params += unit_param_counts[u];
  COMDML_CHECK(prefix_params <= slow_opt_.size());
  slow_opt_.step_range(prefix_params, slow_opt_.size() - prefix_params);
  size_t param_end = prefix_params;
  for (size_t u = cut_; u-- > 0;) {
    grad = model_.unit(u).backward(grad);
    const size_t count = unit_param_counts[u];
    COMDML_CHECK(param_end >= count);
    param_end -= count;
    if (count > 0) slow_opt_.step_range(param_end, count);
    if (on_unit_final) on_unit_final(u);
  }
  COMDML_CHECK(param_end == 0);

  // Fast side: consumes h as a detached input (no gradient crosses the
  // cut); suffix units finalize in reverse as their backward completes.
  fast_opt_.zero_grad();
  const Tensor logits =
      model_.forward_range(h, cut_, model_.size(), /*train=*/true);
  const LossResult fast = softmax_cross_entropy(logits, labels);
  stats.fast_loss = fast.loss;
  stats.fast_accuracy = fast.accuracy;
  grad = fast.grad_logits;
  param_end = fast_opt_.size();
  for (size_t u = model_.size(); u-- > cut_;) {
    grad = model_.unit(u).backward(grad);
    const size_t count = unit_param_counts[u];
    COMDML_CHECK(param_end >= count);
    param_end -= count;
    if (count > 0) fast_opt_.step_range(param_end, count);
    if (on_unit_final) on_unit_final(u);
  }
  COMDML_CHECK(param_end == 0);

  return stats;
}

Tensor LocalLossSplitTrainer::infer(const Tensor& x) {
  return model_.forward_range(x, 0, model_.size(), /*train=*/false);
}

LossResult train_batch_full(Sequential& model, SGD& opt, const Tensor& x,
                            std::span<const int64_t> labels) {
  return train_batch_full_notify(model, opt, x, labels,
                                 unit_param_counts(model), {});
}

LossResult train_batch_full_notify(Sequential& model, SGD& opt,
                                   const Tensor& x,
                                   std::span<const int64_t> labels,
                                   std::span<const size_t> unit_param_counts,
                                   const UnitFinalFn& on_unit_final) {
  COMDML_CHECK(unit_param_counts.size() == model.size());
  opt.zero_grad();
  const Tensor logits = model.forward(x, /*train=*/true);
  LossResult res = softmax_cross_entropy(logits, labels);
  // Backward in reverse unit order, stepping each unit's parameter range
  // as its backward completes. Suffix sums give each unit's offset into
  // the optimizer's parameter list.
  size_t param_end = opt.size();
  Tensor grad = res.grad_logits;
  for (size_t u = model.size(); u-- > 0;) {
    grad = model.unit(u).backward(grad);
    const size_t count = unit_param_counts[u];
    COMDML_CHECK(param_end >= count);
    param_end -= count;
    if (count > 0) opt.step_range(param_end, count);
    if (on_unit_final) on_unit_final(u);
  }
  COMDML_CHECK(param_end == 0);
  return res;
}

float evaluate_accuracy(Sequential& model, const Tensor& x,
                        std::span<const int64_t> labels) {
  const Tensor logits = model.forward(x, /*train=*/false);
  const auto preds = tensor::argmax_rows(logits);
  COMDML_CHECK(preds.size() == labels.size());
  int64_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return static_cast<float>(correct) / static_cast<float>(preds.size());
}

}  // namespace comdml::nn
