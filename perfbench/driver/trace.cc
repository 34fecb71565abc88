#include "trace.h"

#include <time.h>

#include <cstdio>
#include <cstdlib>

#include "core/experiment.h"

namespace perfbench {

namespace {

// Log-linear histogram: values below 16 ns get one bucket each; above, 16
// sub-buckets per power of two (about 6 % wide). analysis.py inverts the
// bucket index with the same rule.
constexpr int kSubBits = 4;
constexpr std::size_t kBuckets = (64 - 3) * 16;

std::size_t BucketOf(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(ns > 0 ? ns : 0);
  if (v < 16) return static_cast<std::size_t>(v);
  const int e = 63 - __builtin_clzll(v);
  const std::uint64_t mantissa = (v >> (e - kSubBits)) & 15u;
  return static_cast<std::size_t>(e - 3) * 16 + static_cast<std::size_t>(mantissa);
}

thread_local void* tls_buffer = nullptr;
thread_local const void* tls_owner = nullptr;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::int64_t MonoNs() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

Trace::ThreadBuffer& Trace::Local() {
  if (tls_owner != this) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->histogram.assign(kBuckets, 0);
    buffer->spans.reserve(1024);
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->ordinal = static_cast<std::uint32_t>(buffers_.size());
    tls_buffer = buffer.get();
    tls_owner = this;
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(tls_buffer);
}

std::uint32_t Trace::NameIndex(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t Trace::Begin(const char* name, std::uint64_t parent, std::uint64_t run) {
  ThreadBuffer& buffer = Local();
  Span span;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = next_id_++;
    span.name = NameIndex(name);
  }
  span.parent = parent;
  span.thread = buffer.ordinal;
  span.run = run;
  span.start_ns = MonoNs();
  buffer.open.push_back(span);
  return span.id;
}

void Trace::End(std::uint64_t id) {
  const std::int64_t now = MonoNs();
  ThreadBuffer& buffer = Local();
  if (buffer.open.empty() || buffer.open.back().id != id) {
    std::fprintf(stderr, "perfbench trace: span %llu closed out of order\n",
                 static_cast<unsigned long long>(id));
    std::abort();
  }
  Span span = buffer.open.back();
  buffer.open.pop_back();
  span.end_ns = now;
  span.covered_ns = now - span.start_ns;
  buffer.spans.push_back(span);
}

void Trace::RecordRun(std::uint64_t sweep_span, std::uint64_t run, std::int64_t start_ns,
                      std::int64_t end_ns, const std::string& key) {
  ThreadBuffer& buffer = Local();
  const std::int64_t duration = end_ns - start_ns;
  if (buffer.block.count != 0 && buffer.block.parent != sweep_span) {
    std::lock_guard<std::mutex> lock(mutex_);
    SealBlock(buffer);
  }
  if (buffer.block.count == 0) {
    buffer.block = Span{0, sweep_span, 0, buffer.ordinal, run, start_ns, end_ns, 0, 0};
  }
  buffer.block.end_ns = end_ns;
  ++buffer.block.count;
  buffer.block.covered_ns += duration;
  ++buffer.histogram[BucketOf(duration)];
  if (!key.empty()) {
    KeyStats& stats = buffer.keys[key];
    ++stats.calls;
    stats.sum_ns += duration;
    if (duration > stats.max_ns) stats.max_ns = duration;
  }
}

void Trace::SealBlock(ThreadBuffer& buffer) {
  if (buffer.block.count == 0) return;
  buffer.block.id = next_id_++;
  buffer.block.name = NameIndex("runner");
  buffer.spans.push_back(buffer.block);
  buffer.block.count = 0;
}

void Trace::FlushBlocks() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) SealBlock(*buffer);
}

std::string Trace::Json() {
  FlushBlocks();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"format\": \"perfbench-trace-v1\",\n\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(names_[i]);
  }
  out += "],\n\"span_fields\": [\"id\", \"parent\", \"name\", \"thread\", \"run\", "
         "\"start_ns\", \"end_ns\", \"count\", \"covered_ns\"],\n\"spans\": [";
  bool first = true;
  std::vector<std::uint64_t> histogram(kBuckets, 0);
  std::map<std::string, KeyStats> keys;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "[" + std::to_string(s.id) + "," + std::to_string(s.parent) + "," +
             std::to_string(s.name) + "," + std::to_string(s.thread) + "," +
             std::to_string(s.run) + "," + std::to_string(s.start_ns) + "," +
             std::to_string(s.end_ns) + "," + std::to_string(s.count) + "," +
             std::to_string(s.covered_ns) + "]";
    }
    for (std::size_t b = 0; b < kBuckets; ++b) histogram[b] += buffer->histogram[b];
    for (const auto& [key, stats] : buffer->keys) {
      KeyStats& merged = keys[key];
      merged.calls += stats.calls;
      merged.sum_ns += stats.sum_ns;
      if (stats.max_ns > merged.max_ns) merged.max_ns = stats.max_ns;
    }
  }
  out += "],\n\"run_histogram\": [";
  first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (histogram[b] == 0) continue;
    out += (first ? "" : ", ") + std::string("[") + std::to_string(b) + "," +
           std::to_string(histogram[b]) + "]";
    first = false;
  }
  out += "],\n\"keys\": [";
  first = true;
  for (const auto& [key, stats] : keys) {
    out += (first ? "\n" : ",\n") + std::string("{\"key\": ") + JsonString(key) +
           ", \"calls\": " + std::to_string(stats.calls) +
           ", \"max_ns\": " + std::to_string(stats.max_ns) +
           ", \"sum_ns\": " + std::to_string(stats.sum_ns) + "}";
    first = false;
  }
  out += "]}\n";
  return out;
}

quicer::core::SweepRunner EffectiveRunner(const quicer::core::SweepSpec& spec) {
  if (spec.runner) return spec.runner;
  // RunSweep's default runner without qlog capture (the benchmark never
  // sets qlog_dir): the digest and counter checks prove the equivalence.
  std::vector<quicer::core::MetricSpec> metrics = spec.metrics;
  if (metrics.empty()) metrics.emplace_back();
  return [metrics](const quicer::core::SweepRunContext& ctx) {
    quicer::core::ExperimentConfig config = ctx.point.config;
    config.seed = ctx.seed;
    const quicer::core::ExperimentResult experiment = quicer::core::RunExperiment(config);
    std::vector<double> values;
    values.reserve(metrics.size());
    for (const quicer::core::MetricSpec& metric : metrics) {
      values.push_back(metric.extract ? metric.extract(experiment) : experiment.TtfbMs());
    }
    return values;
  };
}

quicer::core::SweepRunner TracedRunner(
    quicer::core::SweepRunner inner, Trace& trace, std::uint64_t sweep_span,
    std::uint64_t run,
    std::function<std::string(const quicer::core::SweepRunContext&)> key_of) {
  return [inner = std::move(inner), &trace, sweep_span, run,
          key_of = std::move(key_of)](const quicer::core::SweepRunContext& ctx) {
    const std::int64_t start = MonoNs();
    std::vector<double> values = inner(ctx);
    const std::int64_t end = MonoNs();
    trace.RecordRun(sweep_span, run, start, end, key_of ? key_of(ctx) : std::string());
    return values;
  };
}

}  // namespace perfbench
