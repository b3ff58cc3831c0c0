// Spans recorded from the benchmark's side of every layer boundary: the
// operation the loop issues, a timing ServerEndpoint decorator around each
// client->server message, and a timing ServerHandler decorator around each
// server-side handler call. Nothing under src/ is instrumented; the
// decorators forward every call (pipelining included) to the real object.
//
// Parents: a handler that runs on the calling thread (loopback transport)
// hangs from the message span open on that thread; a handler on a server
// thread (TCP), and every message span, hangs from the current operation.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/endpoint.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Depth of a span below its operation.
enum class Level : int { kOp = 0, kEndpoint = 1, kHandler = 2 };

struct Span {
  const char* name = "";  ///< static string
  Level level = Level::kOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;   ///< 0 while open
  int64_t parent = -1;  ///< index of the parent span, -1 for an operation
  int64_t op = -1;      ///< operation id the span belongs to
  int server = -1;      ///< server index (endpoint/handler spans)
  uint64_t work = 0;    ///< eval handler: (node, point) evaluations
};

/// In-memory span store. Thread-safe; spans are written out at the end.
class Tracer {
 public:
  /// Opens an operation span and makes it the parent of every span opened
  /// until EndOp. Operations do not nest (the loop is closed).
  int64_t BeginOp(const char* name, int64_t op_id);
  void EndOp(int64_t span);

  /// Opens a child span of the thread's current span, or of the current
  /// operation when the thread has none.
  int64_t Open(const char* name, Level level, int server, uint64_t work = 0);
  void Close(int64_t span);

  std::vector<Span> Snapshot() const;
  /// One CSV line per span: id,name,level,start_ns,end_ns,parent,op,
  /// server,work.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int64_t> op_span_{-1};
  std::atomic<int64_t> op_id_{-1};
};

/// Sets the calling thread's current span for its lifetime, so spans
/// opened by callees on this thread hang from it.
class ScopedParent {
 public:
  explicit ScopedParent(int64_t span);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  int64_t prev_;
};

/// Pipelining statistics of one endpoint.
struct InflightStats {
  std::atomic<int64_t> now{0};
  std::atomic<int64_t> max{0};
  std::atomic<int64_t> await_ns{0};  ///< client time blocked in Await
};

/// Times every message to one server. Transparent: pipelining support,
/// Begin*/Await and the wire counters all pass through, so a traced run
/// sends exactly the messages and bytes of an untraced one.
class TimingEndpoint final : public polysse::ServerEndpoint {
 public:
  TimingEndpoint(polysse::ServerEndpoint* inner, Tracer* tracer, int server)
      : inner_(inner), tracer_(tracer), server_(server) {}

  polysse::Result<polysse::EvalResponse> Eval(
      const polysse::EvalRequest& req) override;
  polysse::Result<polysse::FetchResponse> Fetch(
      const polysse::FetchRequest& req) override;
  polysse::Result<polysse::AdminAck> AddDoc(
      const polysse::AddDocRequest& req) override;
  polysse::Result<polysse::AdminAck> RemoveDoc(
      const polysse::RemoveDocRequest& req) override;
  polysse::Result<polysse::ExportDocResponse> ExportDoc(
      const polysse::ExportDocRequest& req) override;
  polysse::Result<polysse::AdminAck> RebaseDoc(
      const polysse::RebaseDocRequest& req) override;
  polysse::Result<polysse::PingResponse> Ping(
      const polysse::PingRequest& req) override;
  polysse::Deferred<polysse::EvalResponse> BeginEval(
      const polysse::EvalRequest& req) override;
  polysse::Deferred<polysse::FetchResponse> BeginFetch(
      const polysse::FetchRequest& req) override;
  bool SupportsPipelining() const override {
    return inner_->SupportsPipelining();
  }
  polysse::TransportCounters counters() const override {
    return inner_->counters();
  }

  const InflightStats& inflight() const { return inflight_; }

 private:
  template <typename T, typename Call>
  polysse::Result<T> Timed(const char* name, Call&& call);
  template <typename T, typename Begin>
  polysse::Deferred<T> TimedBegin(const char* name, Begin&& begin);

  polysse::ServerEndpoint* inner_;
  Tracer* tracer_;
  int server_;
  InflightStats inflight_;
};

/// Times every handler call of one server and counts its evaluations.
class TimingHandler final : public polysse::ServerHandler {
 public:
  TimingHandler(polysse::ServerHandler* inner, Tracer* tracer, int server)
      : inner_(inner), tracer_(tracer), server_(server) {}

  polysse::Result<polysse::EvalResponse> HandleEval(
      const polysse::EvalRequest& req) override;
  polysse::Result<polysse::FetchResponse> HandleFetch(
      const polysse::FetchRequest& req) override;
  polysse::Result<polysse::AdminAck> HandleAddDoc(
      const polysse::AddDocRequest& req) override;
  polysse::Result<polysse::AdminAck> HandleRemoveDoc(
      const polysse::RemoveDocRequest& req) override;
  polysse::Result<polysse::ExportDocResponse> HandleExportDoc(
      const polysse::ExportDocRequest& req) override;
  polysse::Result<polysse::AdminAck> HandleRebaseDoc(
      const polysse::RebaseDocRequest& req) override;
  polysse::Result<polysse::PingResponse> HandlePing(
      const polysse::PingRequest& req) override;

 private:
  polysse::ServerHandler* inner_;
  Tracer* tracer_;
  int server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
