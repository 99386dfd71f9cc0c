#include "nn/bucket.hpp"

#include <algorithm>

#include "tensor/simd.hpp"

namespace comdml::nn {

BucketPlan BucketPlan::build(Sequential& model, int64_t bucket_bytes) {
  COMDML_CHECK(bucket_bytes >= 0);
  BucketPlan plan;

  // Per-unit state tensor ranges (Sequential::collect_state concatenates
  // unit state in unit order) and learnable-parameter counts.
  std::vector<size_t> tensor_unit;  // owning unit per state tensor
  plan.unit_buckets_.resize(model.size());
  plan.unit_param_counts_ = nn::unit_param_counts(model);
  for (size_t u = 0; u < model.size(); ++u) {
    std::vector<tensor::Tensor*> state;
    model.unit(u).collect_state(state);
    for (const tensor::Tensor* t : state) {
      plan.tensor_elems_.push_back(t->size());
      tensor_unit.push_back(u);
    }
  }

  const int64_t cap_elems =
      bucket_bytes == 0
          ? 0
          : std::max<int64_t>(1, bucket_bytes / static_cast<int64_t>(
                                                    sizeof(float)));

  Bucket cur;
  bool open = false;
  const auto close = [&] {
    if (!open) return;
    plan.buckets_.push_back(cur);
    open = false;
  };
  int64_t offset = 0;
  for (size_t t = 0; t < plan.tensor_elems_.size(); ++t) {
    const int64_t elems = plan.tensor_elems_[t];
    if (open && cap_elems > 0 && cur.elems + elems > cap_elems) close();
    if (!open) {
      cur = Bucket{};
      cur.first_tensor = t;
      cur.offset_elems = offset;
      cur.first_unit = tensor_unit[t];
      open = true;
    }
    ++cur.tensor_count;
    cur.elems += elems;
    cur.last_unit = tensor_unit[t];
    offset += elems;
  }
  close();
  plan.total_elems_ = offset;

  for (size_t b = 0; b < plan.buckets_.size(); ++b) {
    const Bucket& bk = plan.buckets_[b];
    for (size_t t = bk.first_tensor; t < bk.first_tensor + bk.tensor_count;
         ++t) {
      auto& owned = plan.unit_buckets_[tensor_unit[t]];
      if (owned.empty() || owned.back() != static_cast<int64_t>(b))
        owned.push_back(static_cast<int64_t>(b));
    }
  }
  return plan;
}

namespace {

template <typename StateT, typename GetFlat>
void for_bucket_tensors(const std::vector<int64_t>& tensor_elems,
                        const Bucket& bk, StateT& state, const GetFlat& fn) {
  COMDML_CHECK(bk.first_tensor + bk.tensor_count <= state.size());
  for (size_t t = bk.first_tensor; t < bk.first_tensor + bk.tensor_count;
       ++t)
    fn(t, tensor_elems[t]);
}

// fp32 <-> fp64 slab copies, scalar (the reference) and AVX2. Widening is
// exact, and cvtpd_ps narrows under the same rounding mode as the scalar
// cast, so both bodies are bit-identical.

void widen_scalar(const float* in, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = in[i];
}

void narrow_scalar(const double* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = static_cast<float>(in[i]);
}

#if COMDML_SIMD_X86
__attribute__((target("avx2"))) void widen_avx2(const float* in, double* out,
                                                int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_cvtps_pd(_mm_loadu_ps(in + i)));
  widen_scalar(in + i, out + i, n - i);
}

__attribute__((target("avx2"))) void narrow_avx2(const double* in,
                                                 float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(in + i)));
  narrow_scalar(in + i, out + i, n - i);
}
#endif  // COMDML_SIMD_X86

void widen(const float* in, double* out, int64_t n) {
#if COMDML_SIMD_X86
  if (simd::kAvx2) return widen_avx2(in, out, n);
#endif
  widen_scalar(in, out, n);
}

void narrow(const double* in, float* out, int64_t n) {
#if COMDML_SIMD_X86
  if (simd::kAvx2) return narrow_avx2(in, out, n);
#endif
  narrow_scalar(in, out, n);
}

}  // namespace

void BucketPlan::flatten_bucket(const std::vector<tensor::Tensor*>& state,
                                int64_t b, double* out) const {
  const Bucket& bk = bucket(b);
  for_bucket_tensors(tensor_elems_, bk, state, [&](size_t t, int64_t elems) {
    const auto flat = state[t]->flat();
    COMDML_CHECK(static_cast<int64_t>(flat.size()) == elems);
    widen(flat.data(), out, elems);
    out += elems;
  });
}

void BucketPlan::unflatten_bucket(
    const double* in, int64_t b,
    const std::vector<tensor::Tensor*>& state) const {
  const Bucket& bk = bucket(b);
  for_bucket_tensors(tensor_elems_, bk, state, [&](size_t t, int64_t elems) {
    auto flat = state[t]->flat();
    COMDML_CHECK(static_cast<int64_t>(flat.size()) == elems);
    narrow(in, flat.data(), elems);
    in += elems;
  });
}

// ---- BucketReadyTracker -----------------------------------------------------

BucketReadyTracker::BucketReadyTracker(const BucketPlan& plan)
    : plan_(&plan),
      pending_units_(static_cast<size_t>(plan.buckets()), 0),
      fired_(static_cast<size_t>(plan.buckets()), 0) {
  for (size_t u = 0; u < plan.units(); ++u)
    for (const int64_t b : plan.unit_buckets(u))
      ++pending_units_[static_cast<size_t>(b)];
}

void BucketReadyTracker::unit_done(size_t u, const ReadyFn& on_ready) {
  COMDML_CHECK(u < plan_->units());
  for (const int64_t b : plan_->unit_buckets(u)) {
    const auto bi = static_cast<size_t>(b);
    COMDML_CHECK(pending_units_[bi] > 0);
    if (--pending_units_[bi] == 0 && !fired_[bi]) {
      fired_[bi] = 1;
      ++fired_count_;
      if (on_ready) on_ready(b);
    }
  }
}

void BucketReadyTracker::finish(const ReadyFn& on_ready) {
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    const auto bi = static_cast<size_t>(b);
    if (fired_[bi]) continue;
    fired_[bi] = 1;
    ++fired_count_;
    if (on_ready) on_ready(b);
  }
}

std::vector<size_t> unit_param_counts(Sequential& model) {
  std::vector<size_t> counts(model.size(), 0);
  std::vector<Parameter*> params;
  for (size_t u = 0; u < model.size(); ++u) {
    params.clear();
    model.unit(u).collect_parameters(params);
    counts[u] = params.size();
  }
  return counts;
}

}  // namespace comdml::nn
