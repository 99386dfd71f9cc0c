// Byte-level (de)serialization of tensors and parameter sets.
//
// Used by the communication substrate so that "sending a model" moves real
// bytes whose count matches what the timing model charges for.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace comdml::tensor {

/// Malformed bytes refused by a decoder: truncation, an implausible length
/// or extent, trailing bytes. The message is the reason alone, fit to show
/// a user. Derives from std::invalid_argument, which callers catch.
class DecodeError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Serialized wire format: [rank u32][dims i64...][payload f32...].
[[nodiscard]] std::vector<uint8_t> to_bytes(const Tensor& t);

/// Parse one tensor from `bytes` starting at `offset`; advances `offset`.
/// Throws DecodeError on truncated or malformed input.
[[nodiscard]] Tensor from_bytes(const std::vector<uint8_t>& bytes,
                                size_t& offset);

/// Serialize a whole parameter list (e.g. a model snapshot).
[[nodiscard]] std::vector<uint8_t> pack_tensors(const std::vector<Tensor>& ts);

/// Inverse of pack_tensors. Throws DecodeError on malformed input.
[[nodiscard]] std::vector<Tensor> unpack_tensors(
    const std::vector<uint8_t>& bytes);

/// Total payload bytes a tensor list occupies on the wire.
[[nodiscard]] int64_t wire_bytes(const std::vector<Tensor>& ts);

/// FNV-1a over a byte range: the checkpoint frame integrity check
/// ("CMDS" frames) — seedless and stable across platforms for
/// same-width input. Transport messages use their own word-wise hash
/// (comm::Message::checksum), which is cheaper per payload byte.
[[nodiscard]] uint64_t fnv1a(const void* data, size_t n);

// ---- durable-state byte streams ---------------------------------------------

/// Append-only byte stream for durable state (fleet checkpoints). Scalars
/// are fixed-width native-endian — the checkpoint format targets
/// same-machine restore, like the tensor wire format above. Sequences are
/// length-prefixed so the reader needs no out-of-band sizes.
class ByteWriter {
 public:
  void u8(uint8_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v);
  void f32(float v);
  void f64(double v);
  /// u32 byte count + raw bytes.
  void str(const std::string& s);
  /// u32 count + payload.
  void i64s(const std::vector<int64_t>& v);
  void f32s(const std::vector<float>& v);
  void f64s(const std::vector<double>& v);
  /// pack_tensors framing (u32 count + per-tensor wire format).
  void tensors(const std::vector<Tensor>& ts);
  /// Append a pre-serialized byte blob verbatim (no length prefix) —
  /// checkpoint envelopes splice a checksummed payload stream this way.
  void raw(const std::vector<uint8_t>& blob);

  [[nodiscard]] const std::vector<uint8_t>& bytes() const noexcept {
    return buf_;
  }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over a ByteWriter stream. Every accessor throws
/// DecodeError on truncated input; expect_done() rejects trailing garbage.
class ByteReader {
 public:
  /// Borrows `bytes`; the buffer must outlive the reader.
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(&bytes) {}

  [[nodiscard]] uint8_t u8();
  [[nodiscard]] uint32_t u32();
  [[nodiscard]] uint64_t u64();
  [[nodiscard]] int64_t i64();
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<int64_t> i64s();
  [[nodiscard]] std::vector<float> f32s();
  [[nodiscard]] std::vector<double> f64s();
  [[nodiscard]] std::vector<Tensor> tensors();

  [[nodiscard]] bool done() const noexcept {
    return offset_ == bytes_->size();
  }
  /// Current read position (checksum validation hashes the bytes past the
  /// envelope header).
  [[nodiscard]] size_t offset() const noexcept { return offset_; }
  /// Throws unless the stream was consumed exactly.
  void expect_done() const;

 private:
  const std::vector<uint8_t>* bytes_;
  size_t offset_ = 0;
};

}  // namespace comdml::tensor
