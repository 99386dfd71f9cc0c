// Thread-local workspace arena: bump-pointer scratch checkout/return with
// high-water-mark reuse, so steady-state hot paths (padded conv planes,
// GEMM pack panels, gradient scratch, per-round merge buffers) stop
// touching the heap after the first warmup iteration.
//
// Design rules every caller relies on:
//  - Workspace::tls() returns the calling thread's arena; buffers handed
//    out are plain memory and may be written by any thread, but checkout /
//    release must happen on the owning thread.
//  - Checkouts are strictly LIFO (scoped usage). The RAII `Scratch<T>`
//    wrapper is the intended interface; raw checkout/release is for the
//    rare non-scoped case.
//  - Returned pointers are 64-byte aligned (cache line / AVX-512 friendly)
//    and the memory is uninitialized — callers must fully write what they
//    read.
//  - When a checkout overflows the backing block, a fresh block is chained
//    (one heap allocation). Once everything is released, the arena
//    consolidates to a single block sized to the high-water mark, so a
//    fixed-size workload allocates only during its first iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/check.hpp"

namespace comdml::core {

class Workspace {
 public:
  struct Stats {
    int64_t heap_allocs = 0;      ///< backing-store allocations (growth)
    int64_t checkouts = 0;        ///< total checkout() calls
    int64_t live_bytes = 0;       ///< currently checked out
    int64_t capacity_bytes = 0;   ///< current backing capacity
    int64_t high_water_bytes = 0; ///< max concurrent live bytes ever
  };

  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use, lives as long as
  /// the thread — pool workers keep their warmed-up arena between jobs).
  [[nodiscard]] static Workspace& tls();

  /// 64-byte-aligned uninitialized scratch. Release in LIFO order.
  [[nodiscard]] void* checkout_bytes(int64_t bytes);
  void release_bytes(void* p);

  template <typename T>
  [[nodiscard]] T* checkout(int64_t count) {
    return static_cast<T*>(
        checkout_bytes(count * static_cast<int64_t>(sizeof(T))));
  }
  template <typename T>
  void release(T* p) {
    release_bytes(p);
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Drops the backing store (nothing may be checked out). Mainly for
  /// tests; steady-state code never needs it.
  void trim();

  /// Stats summed over every live thread arena (main + pool workers).
  [[nodiscard]] static Stats aggregate_stats();

 private:
  struct Block;
  struct Frame;

  Block* grow(int64_t bytes);
  void consolidate();

  Block* head_ = nullptr;   // singly-linked chain, most recent first
  Frame* frames_ = nullptr; // LIFO checkout records (intrusive stack)
  int64_t live_need_ = 0;   // bytes consumed by live frames incl. headers
  int64_t high_water_need_ = 0;
  Stats stats_;
};

/// RAII checkout of `count` Ts from the calling thread's arena.
template <typename T>
class Scratch {
 public:
  explicit Scratch(int64_t count)
      : ws_(&Workspace::tls()), n_(count), p_(ws_->checkout<T>(count)) {}
  ~Scratch() { ws_->release(p_); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] T* data() noexcept { return p_; }
  [[nodiscard]] const T* data() const noexcept { return p_; }
  [[nodiscard]] int64_t size() const noexcept { return n_; }
  [[nodiscard]] std::span<T> span() noexcept {
    return {p_, static_cast<size_t>(n_)};
  }
  [[nodiscard]] T& operator[](int64_t i) noexcept {
    COMDML_DCHECK(i >= 0 && i < n_);
    return p_[i];
  }

 private:
  Workspace* ws_;
  int64_t n_;
  T* p_;
};

}  // namespace comdml::core
