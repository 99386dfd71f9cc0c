// Benchmark-side tracing: in-memory spans recorded around calls into the
// library's public API, written as Chrome trace-event JSON at exit.
//
// Nothing here reaches inside the library. Per-layer `nn` time comes from
// TracedUnit, an nn::Module that wraps one model unit and forwards every
// virtual; the fleet trains wrapped replicas exactly as it trains plain
// ones (same parameters, same cost descriptors, same arithmetic), so a
// traced round is bit-identical to an untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace perfbench {

/// One closed interval on one thread. `name` and `kind` are not owned:
/// they point at string literals or the workload's name, which outlive the
/// fleets whose spans carry them.
struct Span {
  const char* name = "";  ///< "fwd", "bwd", "round", "setup", ...
  const char* kind = "";  ///< unit label for fwd/bwd, workload otherwise
  int64_t start_ns = 0;   ///< steady clock, relative to the trace epoch
  int64_t end_ns = 0;
  int32_t thread = 0;     ///< dense per-process thread index
  int32_t agent = -1;     ///< replica owner (-1 = not agent work)
  int64_t round = -1;     ///< fleet round (-1 = outside a round)
  double flops = 0.0;     ///< LayerCost FLOPs of the call (fwd/bwd only)
};

/// Process-wide span recorder. Each thread appends to its own buffer, so
/// recording takes no lock; take() gathers the buffers and must run while
/// no thread records (between fleet rounds).
class Tracer {
 public:
  static Tracer& get();

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] int64_t round() const noexcept { return round_; }
  void set_round(int64_t r) noexcept { round_ = r; }

  [[nodiscard]] int64_t now_ns() const;
  void record(const Span& span);
  /// All spans recorded since the last take(), in no particular order.
  [[nodiscard]] std::vector<Span> take();

  /// Dense index of the calling thread (0 = first thread that asked).
  [[nodiscard]] static int32_t thread_index();

 private:
  Tracer();
  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  int64_t round_ = -1;
};

/// Times `fn` as one span on the calling thread when tracing is enabled.
template <typename Fn>
auto traced(const char* name, const char* kind, Fn&& fn) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return fn();
  Span s;
  s.name = name;
  s.kind = kind;
  s.round = t.round();
  s.thread = Tracer::thread_index();
  s.start_ns = t.now_ns();
  struct Close {
    Span& s;
    Tracer& t;
    ~Close() {
      s.end_ns = t.now_ns();
      t.record(s);
    }
  } close{s, t};
  return fn();
}

/// Wraps one model unit and times its forward/backward calls with thread,
/// agent and round. Every other virtual forwards to the wrapped unit.
class TracedUnit final : public comdml::nn::Module {
 public:
  /// `label` must be a string literal (spans keep the pointer).
  TracedUnit(comdml::nn::ModulePtr inner, const char* label, int32_t agent);

  comdml::tensor::Tensor forward(const comdml::tensor::Tensor& x,
                                 bool train) override;
  comdml::tensor::Tensor backward(
      const comdml::tensor::Tensor& grad_out) override;
  void collect_parameters(
      std::vector<comdml::nn::Parameter*>& out) override {
    inner_->collect_parameters(out);
  }
  void collect_state(std::vector<comdml::tensor::Tensor*>& out) override {
    inner_->collect_state(out);
  }
  [[nodiscard]] comdml::nn::LayerCost cost(
      const comdml::tensor::Shape& in_shape) const override {
    return inner_->cost(in_shape);
  }
  [[nodiscard]] std::string kind() const override { return inner_->kind(); }

 private:
  comdml::nn::ModulePtr inner_;
  const char* label_;
  int32_t agent_;
  // Per-sample FLOPs at the input shape seen first (fixed per workload).
  bool costed_ = false;
  double flops_fwd_ = 0.0;
  double flops_bwd_ = 0.0;
  int64_t last_batch_ = 0;
};

/// Chrome trace-event JSON ("X" complete events, microseconds), loadable
/// in Perfetto or chrome://tracing. Returns false if the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
