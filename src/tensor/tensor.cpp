#include "tensor/tensor.hpp"

#include <bit>
#include <cstring>
#include <numeric>
#include <sstream>

namespace comdml::tensor {

int64_t shape_size(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    COMDML_REQUIRE(d >= 0, "negative extent in shape " << shape_str(shape));
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_size(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_size(shape_)), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  COMDML_REQUIRE(static_cast<int64_t>(data_.size()) == shape_size(shape_),
                 "data size " << data_.size() << " does not match shape "
                              << shape_str(shape_));
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({static_cast<int64_t>(values.size())},
                std::vector<float>(values));
}

Tensor Tensor::scalar(float value) { return Tensor({1}, {value}); }

int64_t Tensor::dim(size_t axis) const {
  COMDML_REQUIRE(axis < shape_.size(),
                 "axis " << axis << " out of range for " << shape_str(shape_));
  return shape_[axis];
}

int64_t Tensor::offset(std::initializer_list<int64_t> idx) const {
  COMDML_REQUIRE(idx.size() == shape_.size(),
                 "index rank " << idx.size() << " vs tensor rank "
                               << shape_.size());
  int64_t off = 0;
  size_t axis = 0;
  for (int64_t i : idx) {
    COMDML_REQUIRE(i >= 0 && i < shape_[axis],
                   "index " << i << " out of bounds on axis " << axis
                            << " of " << shape_str(shape_));
    off = off * shape_[axis] + i;
    ++axis;
  }
  return off;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data_[static_cast<size_t>(offset(idx))];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data_[static_cast<size_t>(offset(idx))];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  COMDML_REQUIRE(shape_size(new_shape) == size(),
                 "reshape " << shape_str(shape_) << " -> "
                            << shape_str(new_shape) << " changes size");
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

void Tensor::resize(Shape new_shape) {
  const int64_t n = shape_size(new_shape);
  shape_ = std::move(new_shape);
  data_.resize(static_cast<size_t>(n));
}

void Tensor::fill(float value) {
  // +0 is all-zero bits: memset stores whole vectors, where GCC's -O2 loop
  // for std::fill stores one float per iteration. (-0 keeps its sign bit.)
  if (std::bit_cast<uint32_t>(value) == 0) {
    std::memset(data_.data(), 0, data_.size() * sizeof(float));
    return;
  }
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace comdml::tensor
