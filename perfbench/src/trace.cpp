#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct Buffers {
  std::mutex mu;  // guards `all` (registration and take())
  std::vector<std::unique_ptr<std::vector<Span>>> all;
};

// Leaked on purpose: pool threads may still hold their buffer pointer while
// static destructors run at exit.
Buffers& buffers() {
  static auto* b = new Buffers;
  return *b;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* mine = [] {
    Buffers& b = buffers();
    std::lock_guard<std::mutex> lk(b.mu);
    b.all.push_back(std::make_unique<std::vector<Span>>());
    b.all.back()->reserve(1 << 14);
    return b.all.back().get();
  }();
  return *mine;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(const Span& span) { thread_buffer().push_back(span); }

std::vector<Span> Tracer::take() {
  Buffers& b = buffers();
  std::lock_guard<std::mutex> lk(b.mu);
  std::vector<Span> out;
  for (auto& buf : b.all) {
    out.insert(out.end(), buf->begin(), buf->end());
    buf->clear();
  }
  return out;
}

int32_t Tracer::thread_index() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t mine = next.fetch_add(1);
  return mine;
}

TracedUnit::TracedUnit(comdml::nn::ModulePtr inner, const char* label,
                       int32_t agent)
    : inner_(std::move(inner)), label_(label), agent_(agent) {}

comdml::tensor::Tensor TracedUnit::forward(const comdml::tensor::Tensor& x,
                                           bool train) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return inner_->forward(x, train);
  if (!costed_) {
    const comdml::tensor::Shape& s = x.shape();
    const comdml::nn::LayerCost c =
        inner_->cost(comdml::tensor::Shape(s.begin() + 1, s.end()));
    flops_fwd_ = c.flops_forward;
    flops_bwd_ = c.flops_backward;
    costed_ = true;
  }
  last_batch_ = x.dim(0);
  Span s;
  s.name = "fwd";
  s.kind = label_;
  s.agent = agent_;
  s.round = t.round();
  s.thread = Tracer::thread_index();
  s.flops = flops_fwd_ * static_cast<double>(last_batch_);
  s.start_ns = t.now_ns();
  comdml::tensor::Tensor y = inner_->forward(x, train);
  s.end_ns = t.now_ns();
  t.record(s);
  return y;
}

comdml::tensor::Tensor TracedUnit::backward(
    const comdml::tensor::Tensor& grad_out) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return inner_->backward(grad_out);
  Span s;
  s.name = "bwd";
  s.kind = label_;
  s.agent = agent_;
  s.round = t.round();
  s.thread = Tracer::thread_index();
  s.flops = flops_bwd_ * static_cast<double>(last_batch_);
  s.start_ns = t.now_ns();
  comdml::tensor::Tensor dx = inner_->backward(grad_out);
  s.end_ns = t.now_ns();
  t.record(s);
  return dx;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"agent\":%d,\"round\":%lld}}",
                 first ? "" : ",\n", s.kind, s.name, s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<int>(s.thread), static_cast<int>(s.agent),
                 static_cast<long long>(s.round));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
