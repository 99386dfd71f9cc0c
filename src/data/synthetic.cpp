#include "data/synthetic.hpp"

#include <cmath>

namespace comdml::data {

Dataset make_blobs(int64_t samples, int64_t classes, int64_t features,
                   float spread, Rng& rng) {
  COMDML_CHECK(samples > 0 && classes > 1 && features > 0 && spread >= 0.0f);
  Tensor centers = rng.normal_tensor({classes, features}, 0.0f, 1.0f);
  Dataset ds;
  ds.images = Tensor({samples, features});
  ds.labels.resize(static_cast<size_t>(samples));
  ds.classes = classes;
  auto ci = centers.flat();
  auto xo = ds.images.flat();
  rng.fill_normal(xo, 0.0f, spread);  // each sample's noise, then its center
  for (int64_t i = 0; i < samples; ++i) {
    const int64_t y = i % classes;  // balanced classes
    ds.labels[static_cast<size_t>(i)] = y;
    for (int64_t f = 0; f < features; ++f)
      xo[i * features + f] = ci[y * features + f] + xo[i * features + f];
  }
  return ds;
}

Dataset make_spirals(int64_t samples_per_class, int64_t classes, float noise,
                     Rng& rng) {
  COMDML_CHECK(samples_per_class > 0 && classes > 1 && noise >= 0.0f);
  const int64_t n = samples_per_class * classes;
  Dataset ds;
  ds.images = Tensor({n, 2});
  ds.labels.resize(static_cast<size_t>(n));
  ds.classes = classes;
  auto xo = ds.images.flat();
  int64_t row = 0;
  for (int64_t c = 0; c < classes; ++c) {
    for (int64_t i = 0; i < samples_per_class; ++i) {
      const float t =
          static_cast<float>(i) / static_cast<float>(samples_per_class);
      const float r = 0.2f + 0.8f * t;
      const float theta = 3.0f * t * 3.14159265f +
                          2.0f * 3.14159265f * static_cast<float>(c) /
                              static_cast<float>(classes);
      xo[row * 2 + 0] = r * std::cos(theta) + rng.normal(0.0f, noise);
      xo[row * 2 + 1] = r * std::sin(theta) + rng.normal(0.0f, noise);
      ds.labels[static_cast<size_t>(row)] = c;
      ++row;
    }
  }
  return ds;
}

Dataset make_synthetic_images(int64_t samples, int64_t classes,
                              const Shape& sample_shape, float noise,
                              Rng& rng) {
  COMDML_CHECK(samples > 0 && classes > 1 && noise >= 0.0f);
  COMDML_REQUIRE(sample_shape.size() == 3,
                 "sample_shape must be [C,H,W], got "
                     << tensor::shape_str(sample_shape));
  const int64_t row = tensor::shape_size(sample_shape);
  Tensor prototypes = rng.normal_tensor({classes, row}, 0.0f, 1.0f);
  Dataset ds;
  Shape full;
  full.push_back(samples);
  full.insert(full.end(), sample_shape.begin(), sample_shape.end());
  ds.images = Tensor(full);
  ds.labels.resize(static_cast<size_t>(samples));
  ds.classes = classes;
  auto pi = prototypes.flat();
  auto xo = ds.images.flat();
  rng.fill_normal(xo, 0.0f, noise);  // each sample's noise, then its prototype
  for (int64_t i = 0; i < samples; ++i) {
    const int64_t y = i % classes;
    ds.labels[static_cast<size_t>(i)] = y;
    for (int64_t f = 0; f < row; ++f)
      xo[i * row + f] = pi[y * row + f] + xo[i * row + f];
  }
  return ds;
}

Dataset make_for_spec(const DatasetSpec& spec, double fraction, float noise,
                      Rng& rng) {
  COMDML_CHECK(fraction > 0.0 && fraction <= 1.0);
  const auto samples = std::max<int64_t>(
      spec.classes, static_cast<int64_t>(spec.train_size * fraction));
  return make_synthetic_images(samples, spec.classes, spec.sample_shape,
                               noise, rng);
}

}  // namespace comdml::data
