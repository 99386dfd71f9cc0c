#include "tensor/serialize.hpp"

#include <cstring>
#include <sstream>

namespace comdml::tensor {

namespace {

template <typename... Parts>
[[noreturn]] void refuse(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  throw DecodeError(os.str());
}

template <typename T>
void append_raw(std::vector<uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T read_raw(const std::vector<uint8_t>& bytes, size_t& offset) {
  if (offset + sizeof(T) > bytes.size())
    refuse("truncated tensor wire data at offset ", offset);
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

/// A length prefix read from untrusted input, checked against the bytes
/// left before anything is sized from it: `count` elements of at least
/// `min_elem_bytes` each must fit in what remains past `offset`.
size_t checked_count(const std::vector<uint8_t>& bytes, size_t offset,
                     uint32_t count, size_t min_elem_bytes) {
  const size_t left = bytes.size() - offset;
  if (count > left / min_elem_bytes)
    refuse("length prefix claims ", count, " elements of >= ",
           min_elem_bytes, " bytes, but only ", left, " bytes remain");
  return count;
}

/// u32 count + that many raw fixed-width values, copied in one memcpy.
template <typename T>
std::vector<T> read_array(const std::vector<uint8_t>& bytes, size_t& offset) {
  const auto count = read_raw<uint32_t>(bytes, offset);
  const size_t n = checked_count(bytes, offset, count, sizeof(T));
  std::vector<T> out(n);
  if (n > 0) std::memcpy(out.data(), bytes.data() + offset, n * sizeof(T));
  offset += n * sizeof(T);
  return out;
}

}  // namespace

uint64_t fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::vector<uint8_t> to_bytes(const Tensor& t) {
  std::vector<uint8_t> out;
  out.reserve(sizeof(uint32_t) + t.rank() * sizeof(int64_t) +
              static_cast<size_t>(t.nbytes()));
  append_raw(out, static_cast<uint32_t>(t.rank()));
  for (size_t i = 0; i < t.rank(); ++i) append_raw(out, t.dim(i));
  const auto flat = t.flat();
  const auto* p = reinterpret_cast<const uint8_t*>(flat.data());
  out.insert(out.end(), p, p + flat.size() * sizeof(float));
  return out;
}

Tensor from_bytes(const std::vector<uint8_t>& bytes, size_t& offset) {
  const auto rank = read_raw<uint32_t>(bytes, offset);
  if (rank > 8) refuse("implausible tensor rank ", rank);
  Shape shape(rank);
  // The extents come from untrusted bytes: multiply them overflow-checked
  // and bound the product by the bytes left before sizing anything.
  uint64_t n = 1;
  for (auto& d : shape) {
    d = read_raw<int64_t>(bytes, offset);
    const bool bad =
        d < 0 || __builtin_mul_overflow(n, static_cast<uint64_t>(d), &n);
    if (bad) refuse("implausible tensor extent ", d);
  }
  if (n > (bytes.size() - offset) / sizeof(float))
    refuse("truncated tensor payload");
  std::vector<float> data(static_cast<size_t>(n));
  std::memcpy(data.data(), bytes.data() + offset,
              static_cast<size_t>(n) * sizeof(float));
  offset += static_cast<size_t>(n) * sizeof(float);
  return Tensor(std::move(shape), std::move(data));
}

std::vector<uint8_t> pack_tensors(const std::vector<Tensor>& ts) {
  std::vector<uint8_t> out;
  append_raw(out, static_cast<uint32_t>(ts.size()));
  for (const auto& t : ts) {
    const auto one = to_bytes(t);
    out.insert(out.end(), one.begin(), one.end());
  }
  return out;
}

std::vector<Tensor> unpack_tensors(const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  const auto count = read_raw<uint32_t>(bytes, offset);
  std::vector<Tensor> out;
  // Each tensor takes at least its 4-byte rank field.
  out.reserve(checked_count(bytes, offset, count, sizeof(uint32_t)));
  for (uint32_t i = 0; i < count; ++i) out.push_back(from_bytes(bytes, offset));
  if (offset != bytes.size())
    refuse("trailing bytes after tensor pack: ", bytes.size() - offset);
  return out;
}

void ByteWriter::u8(uint8_t v) { append_raw(buf_, v); }
void ByteWriter::u32(uint32_t v) { append_raw(buf_, v); }
void ByteWriter::u64(uint64_t v) { append_raw(buf_, v); }
void ByteWriter::i64(int64_t v) { append_raw(buf_, v); }
void ByteWriter::f32(float v) { append_raw(buf_, v); }
void ByteWriter::f64(double v) { append_raw(buf_, v); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::i64s(const std::vector<int64_t>& v) {
  u32(static_cast<uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(int64_t));
}

void ByteWriter::f32s(const std::vector<float>& v) {
  u32(static_cast<uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(float));
}

void ByteWriter::f64s(const std::vector<double>& v) {
  u32(static_cast<uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
}

void ByteWriter::tensors(const std::vector<Tensor>& ts) {
  const auto packed = pack_tensors(ts);
  buf_.insert(buf_.end(), packed.begin(), packed.end());
}

void ByteWriter::raw(const std::vector<uint8_t>& blob) {
  buf_.insert(buf_.end(), blob.begin(), blob.end());
}

uint8_t ByteReader::u8() { return read_raw<uint8_t>(*bytes_, offset_); }
uint32_t ByteReader::u32() { return read_raw<uint32_t>(*bytes_, offset_); }
uint64_t ByteReader::u64() { return read_raw<uint64_t>(*bytes_, offset_); }
int64_t ByteReader::i64() { return read_raw<int64_t>(*bytes_, offset_); }
float ByteReader::f32() { return read_raw<float>(*bytes_, offset_); }
double ByteReader::f64() { return read_raw<double>(*bytes_, offset_); }

std::string ByteReader::str() {
  const auto n = u32();
  if (n > bytes_->size() - offset_) refuse("truncated string payload");
  std::string out(reinterpret_cast<const char*>(bytes_->data() + offset_), n);
  offset_ += n;
  return out;
}

std::vector<int64_t> ByteReader::i64s() {
  return read_array<int64_t>(*bytes_, offset_);
}

std::vector<float> ByteReader::f32s() {
  return read_array<float>(*bytes_, offset_);
}

std::vector<double> ByteReader::f64s() {
  return read_array<double>(*bytes_, offset_);
}

std::vector<Tensor> ByteReader::tensors() {
  const auto n = u32();
  std::vector<Tensor> out;
  out.reserve(checked_count(*bytes_, offset_, n, sizeof(uint32_t)));
  for (uint32_t i = 0; i < n; ++i) out.push_back(from_bytes(*bytes_, offset_));
  return out;
}

void ByteReader::expect_done() const {
  if (!done())
    refuse("trailing bytes in stream: ", bytes_->size() - offset_,
           " unread");
}

int64_t wire_bytes(const std::vector<Tensor>& ts) {
  int64_t total = static_cast<int64_t>(sizeof(uint32_t));
  for (const auto& t : ts) {
    total += static_cast<int64_t>(sizeof(uint32_t)) +
             static_cast<int64_t>(t.rank() * sizeof(int64_t)) + t.nbytes();
  }
  return total;
}

}  // namespace comdml::tensor
