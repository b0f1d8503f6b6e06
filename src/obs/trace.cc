#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace coradd {
namespace obs {

namespace trace_internal {
std::atomic<bool> g_enabled{false};
}  // namespace trace_internal

namespace {

/// Epoch every timestamp is relative to, latched at first use so ts values
/// stay small (microsecond columns readable in Perfetto).
std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Appends `ns` as a microsecond decimal ("123.456") without touching the
/// locale (std::printf's %f decimal point is locale-dependent).
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  *out += buf;
}

/// Minimal JSON string escaping; span names are our own literals but the
/// writer stays RFC 8259-correct regardless.
void AppendQuoted(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

/// One thread's ring. `head` counts every push ever made; the newest
/// min(head, capacity) slots are live, anything older was dropped-oldest.
///
/// Slots are seqlock-protected so a flusher on another thread (the
/// CORADD_TRACE atexit hook, a --trace write while caller-owned pools are
/// still running) never reads a torn event: every field is an atomic, and
/// `seq` brackets each write with the slot's push number — odd while the
/// owning thread is storing, 2*push+2 once complete. A reader that doesn't
/// see the exact even value it expects discards the slot, which is just
/// drop-oldest semantics surfacing at flush time.
struct Tracer::ThreadBuffer {
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint32_t> num_args{0};
    std::atomic<const char*> arg_keys[TraceEvent::kMaxArgs] = {};
    std::atomic<int64_t> arg_vals[TraceEvent::kMaxArgs] = {};
  };

  explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {}
  const uint32_t tid;
  std::string name;  ///< set before the thread records (SetCurrentThreadName)
  std::atomic<uint64_t> head{0};
  Slot events[Tracer::kThreadBufferCapacity];
};

namespace {

/// Seqlock read of the slot holding push number `push`. Returns false (and
/// leaves *out unspecified) when the slot was overwritten or mid-write.
bool ReadSlot(const Tracer::ThreadBuffer::Slot& s, uint64_t push,
              TraceEvent* out) {
  // Acquire field loads pair with the writer's release field stores: a
  // field read from a newer write makes that write's odd seq store visible
  // to the final check, and no field load moves below it.
  const uint64_t want = 2 * push + 2;
  if (s.seq.load(std::memory_order_acquire) != want) return false;
  out->name = s.name.load(std::memory_order_acquire);
  out->ts_ns = s.ts_ns.load(std::memory_order_acquire);
  out->dur_ns = s.dur_ns.load(std::memory_order_acquire);
  out->num_args = std::min(s.num_args.load(std::memory_order_acquire),
                           TraceEvent::kMaxArgs);
  for (uint32_t a = 0; a < out->num_args; ++a) {
    out->arg_keys[a] = s.arg_keys[a].load(std::memory_order_acquire);
    out->arg_vals[a] = s.arg_vals[a].load(std::memory_order_acquire);
  }
  return s.seq.load(std::memory_order_relaxed) == want;
}

}  // namespace

struct Tracer::Impl {
  std::mutex registry_mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::string env_path;  ///< CORADD_TRACE target, empty when unset

  ThreadBuffer* RegisterCurrentThread() {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto buffer =
        std::make_unique<ThreadBuffer>(static_cast<uint32_t>(buffers.size()));
    buffers.push_back(std::move(buffer));
    return buffers.back().get();
  }
};

namespace {
/// The calling thread's buffer, registered on first use and cached —
/// Record() after that is an index + store, no locks.
thread_local Tracer::ThreadBuffer* t_buffer = nullptr;
}  // namespace

Tracer::Tracer() : impl_(new Impl) {
  Epoch();
  if (const char* env = std::getenv("CORADD_TRACE")) {
    if (env[0] != '\0') {
      impl_->env_path = env;
      Start();
      std::atexit([] {
        Tracer& t = Tracer::Global();
        t.Stop();
        t.WriteChromeTrace(t.impl_->env_path);
      });
    }
  }
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives worker threads
  return *tracer;
}

namespace {
/// Constructs the singleton before main(): TRACE_SPAN's fast path only
/// reads g_enabled and never touches Global(), so without this a process
/// that sets CORADD_TRACE but never names a pool worker or opens a
/// TraceSession would silently trace nothing (and early main-thread spans
/// would be lost even when it does).
const bool g_tracer_bootstrap = (Tracer::Global(), true);
}  // namespace

void Tracer::Start() {
  trace_internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() {
  trace_internal::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(impl_->registry_mu);
  for (auto& b : impl_->buffers) b->head.store(0, std::memory_order_relaxed);
}

bool Tracer::StopAndWrite(const std::string& path) {
  Stop();
  const bool ok = WriteChromeTrace(path);
  Clear();
  return ok;
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch())
          .count());
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  Tracer& t = Global();
  if (t_buffer == nullptr) t_buffer = t.impl_->RegisterCurrentThread();
  std::lock_guard<std::mutex> lock(t.impl_->registry_mu);
  t_buffer->name = name;
}

void Tracer::Record(const TraceEvent& event) {
  if (t_buffer == nullptr) t_buffer = impl_->RegisterCurrentThread();
  ThreadBuffer& b = *t_buffer;
  // Single-writer ring: only the owning thread pushes. The seqlock write
  // protocol (odd seq -> fields -> even seq) keeps concurrent flushers
  // well-defined: they validate seq around their reads and discard any
  // slot this store sequence is racing with.
  const uint64_t h = b.head.load(std::memory_order_relaxed);
  ThreadBuffer::Slot& s = b.events[h % kThreadBufferCapacity];
  // Release field stores keep the odd seq store ahead of every field a
  // reader can observe (no standalone fences: TSan cannot model them).
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  s.name.store(event.name, std::memory_order_release);
  s.ts_ns.store(event.ts_ns, std::memory_order_release);
  s.dur_ns.store(event.dur_ns, std::memory_order_release);
  s.num_args.store(event.num_args, std::memory_order_release);
  for (uint32_t a = 0; a < event.num_args; ++a) {
    s.arg_keys[a].store(event.arg_keys[a], std::memory_order_release);
    s.arg_vals[a].store(event.arg_vals[a], std::memory_order_release);
  }
  s.seq.store(2 * h + 2, std::memory_order_release);
  b.head.store(h + 1, std::memory_order_release);
}

uint64_t Tracer::recorded_events() const {
  std::lock_guard<std::mutex> lock(impl_->registry_mu);
  uint64_t total = 0;
  for (const auto& b : impl_->buffers) {
    total += std::min<uint64_t>(b->head.load(std::memory_order_acquire),
                                kThreadBufferCapacity);
  }
  return total;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(impl_->registry_mu);
  uint64_t dropped = 0;
  for (const auto& b : impl_->buffers) {
    const uint64_t h = b->head.load(std::memory_order_acquire);
    if (h > kThreadBufferCapacity) dropped += h - kThreadBufferCapacity;
  }
  return dropped;
}

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(impl_->registry_mu);
  const long long pid = static_cast<long long>(::getpid());
  char buf[160];
  std::string out = "{\"traceEvents\":[\n";
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,"
                "\"pid\":%lld,\"tid\":0,\"args\":{\"name\":\"coradd\"}}",
                pid);
  out += buf;
  for (const auto& b : impl_->buffers) {
    if (b->name.empty()) continue;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
                  "\"pid\":%lld,\"tid\":%u,\"args\":{\"name\":",
                  pid, b->tid);
    out += buf;
    AppendQuoted(&out, b->name.c_str());
    out += "}}";
  }
  for (const auto& b : impl_->buffers) {
    const uint64_t head = b->head.load(std::memory_order_acquire);
    const uint64_t kept = std::min<uint64_t>(head, kThreadBufferCapacity);
    for (uint64_t j = head - kept; j < head; ++j) {
      TraceEvent e;
      // Seqlock-validated copy: a slot the owning thread is concurrently
      // overwriting fails validation and is skipped (it was about to be
      // dropped-oldest anyway).
      if (!ReadSlot(b->events[j % kThreadBufferCapacity], j, &e)) continue;
      if (e.name == nullptr) continue;
      out += ",\n{\"name\":";
      AppendQuoted(&out, e.name);
      // Category = the dotted subsystem prefix of the span name.
      const char* dot = e.name;
      while (*dot != '\0' && *dot != '.') ++dot;
      out += ",\"cat\":\"";
      out.append(e.name, static_cast<size_t>(dot - e.name));
      out += "\",\"ph\":\"X\",\"ts\":";
      AppendMicros(&out, e.ts_ns);
      out += ",\"dur\":";
      AppendMicros(&out, e.dur_ns);
      std::snprintf(buf, sizeof(buf), ",\"pid\":%lld,\"tid\":%u", pid,
                    b->tid);
      out += buf;
      if (e.num_args > 0) {
        out += ",\"args\":{";
        for (uint32_t a = 0; a < e.num_args; ++a) {
          if (a > 0) out += ",";
          AppendQuoted(&out, e.arg_keys[a]);
          std::snprintf(buf, sizeof(buf), ":%lld",
                        static_cast<long long>(e.arg_vals[a]));
          out += buf;
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

TraceSession::TraceSession(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  Tracer::SetCurrentThreadName("main");
  Tracer::Global().Clear();
  Tracer::Global().Start();
}

TraceSession::TraceSession(TraceSession&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

TraceSession::~TraceSession() {
  if (path_.empty()) return;
  Tracer::Global().StopAndWrite(path_);
  std::fprintf(stderr, "trace written to %s\n", path_.c_str());
}

TraceSession TraceSession::FromArgs(int argc, char** argv) {
  const std::string prefix = "--trace=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      return TraceSession(arg.substr(prefix.size()));
    }
  }
  return TraceSession(std::string());
}

}  // namespace obs
}  // namespace coradd
