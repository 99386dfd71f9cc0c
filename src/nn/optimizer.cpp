#include "nn/optimizer.hpp"

namespace comdml::nn {

SGD::SGD(std::vector<Parameter*> params, Options options)
    : params_(std::move(params)), options_(options) {
  COMDML_CHECK(options_.lr > 0.0f);
  COMDML_CHECK(options_.momentum >= 0.0f && options_.momentum < 1.0f);
  COMDML_CHECK(options_.weight_decay >= 0.0f);
  velocity_.reserve(params_.size());
  for (auto* p : params_) {
    COMDML_CHECK(p != nullptr);
    velocity_.emplace_back(p->value.shape());
  }
}

void SGD::step() { step_range(0, params_.size()); }

void SGD::anchor_proximal(float mu) {
  COMDML_CHECK(mu >= 0.0f);
  prox_mu_ = mu;
  anchor_.clear();
  anchor_.reserve(params_.size());
  for (const Parameter* p : params_) anchor_.push_back(p->value);
}

void SGD::step_range(size_t first, size_t count) {
  COMDML_CHECK(first + count <= params_.size());
  for (size_t i = first; i < first + count; ++i) {
    Parameter& p = *params_[i];
    if (!anchor_.empty()) {
      const auto g = p.grad.flat();
      const auto w = p.value.flat();
      const auto a = anchor_[i].flat();
      for (size_t k = 0; k < g.size(); ++k) g[k] += prox_mu_ * (w[k] - a[k]);
    }
    tensor::sgd_momentum_update(p.value, velocity_[i], p.grad, options_.lr,
                                options_.momentum, options_.weight_decay);
  }
}

void SGD::load_velocity(const std::vector<Tensor>& velocity) {
  COMDML_REQUIRE(velocity.size() == velocity_.size(),
                 "velocity list size mismatch: got "
                     << velocity.size() << ", optimizer holds "
                     << velocity_.size());
  for (size_t i = 0; i < velocity.size(); ++i) {
    COMDML_REQUIRE(velocity[i].shape() == velocity_[i].shape(),
                   "velocity shape mismatch at parameter " << i);
    velocity_[i] = velocity[i];
  }
}

void SGD::zero_grad() {
  for (auto* p : params_) p->grad.fill(0.0f);
}

void SGD::set_lr(float lr) {
  COMDML_CHECK(lr > 0.0f);
  options_.lr = lr;
}

PlateauScheduler::PlateauScheduler(float factor, int patience, float min_delta)
    : factor_(factor), patience_(patience), min_delta_(min_delta) {
  COMDML_CHECK(factor > 0.0f && factor < 1.0f);
  COMDML_CHECK(patience > 0);
}

float PlateauScheduler::observe(float metric) {
  if (metric > best_ + min_delta_) {
    best_ = metric;
    stale_ = 0;
    return 1.0f;
  }
  if (++stale_ >= patience_) {
    stale_ = 0;
    return factor_;
  }
  return 1.0f;
}

}  // namespace comdml::nn
