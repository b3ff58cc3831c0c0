#include "tracing.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

namespace perfbench {

namespace {
thread_local int64_t tls_parent = -1;
}  // namespace

using polysse::Deferred;
using polysse::Result;

int64_t Tracer::BeginOp(const char* name, int64_t op_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.level = Level::kOp;
  s.op = op_id;
  s.start_ns = NowNs();
  spans_.push_back(s);
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  op_span_.store(id, std::memory_order_relaxed);
  op_id_.store(op_id, std::memory_order_relaxed);
  return id;
}

void Tracer::EndOp(int64_t span) {
  Close(span);
  op_span_.store(-1, std::memory_order_relaxed);
  op_id_.store(-1, std::memory_order_relaxed);
}

int64_t Tracer::Open(const char* name, Level level, int server,
                     uint64_t work) {
  Span s;
  s.name = name;
  s.level = level;
  s.server = server;
  s.work = work;
  s.parent = tls_parent >= 0 ? tls_parent
                             : op_span_.load(std::memory_order_relaxed);
  s.op = op_id_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,level,start_ns,end_ns,parent,op,server,work\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%zu,%s,%d,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                 ",%d,%" PRIu64 "\n",
                 i, s.name, static_cast<int>(s.level), s.start_ns, s.end_ns,
                 s.parent, s.op, s.server, s.work);
  }
  return std::fclose(f) == 0;
}

ScopedParent::ScopedParent(int64_t span) : prev_(tls_parent) {
  tls_parent = span;
}

ScopedParent::~ScopedParent() { tls_parent = prev_; }

namespace {

void Enter(InflightStats& s) {
  const int64_t now = s.now.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t max = s.max.load(std::memory_order_relaxed);
  while (now > max &&
         !s.max.compare_exchange_weak(max, now, std::memory_order_relaxed)) {
  }
}

void Leave(InflightStats& s) { s.now.fetch_sub(1, std::memory_order_relaxed); }

}  // namespace

template <typename T, typename Call>
Result<T> TimingEndpoint::Timed(const char* name, Call&& call) {
  const int64_t span = tracer_->Open(name, Level::kEndpoint, server_);
  Enter(inflight_);
  Result<T> r = [&] {
    ScopedParent parent(span);
    return call();
  }();
  tracer_->Close(span);
  Leave(inflight_);
  return r;
}

// The message span runs from submission to the Await that returns its
// response; a transport that resolves at Begin time answers inside it.
template <typename T, typename Begin>
Deferred<T> TimingEndpoint::TimedBegin(const char* name, Begin&& begin) {
  const int64_t span = tracer_->Open(name, Level::kEndpoint, server_);
  Enter(inflight_);
  auto inner = std::make_shared<Deferred<T>>([&] {
    ScopedParent parent(span);
    return begin();
  }());
  return Deferred<T>(std::function<Result<T>()>([this, span, inner]() {
    const int64_t t0 = NowNs();
    Result<T> r = inner->Await();
    inflight_.await_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    tracer_->Close(span);
    Leave(inflight_);
    return r;
  }));
}

Result<polysse::EvalResponse> TimingEndpoint::Eval(
    const polysse::EvalRequest& req) {
  return Timed<polysse::EvalResponse>("ep.Eval",
                                      [&] { return inner_->Eval(req); });
}

Result<polysse::FetchResponse> TimingEndpoint::Fetch(
    const polysse::FetchRequest& req) {
  return Timed<polysse::FetchResponse>("ep.Fetch",
                                       [&] { return inner_->Fetch(req); });
}

Result<polysse::AdminAck> TimingEndpoint::AddDoc(
    const polysse::AddDocRequest& req) {
  return Timed<polysse::AdminAck>("ep.AddDoc",
                                  [&] { return inner_->AddDoc(req); });
}

Result<polysse::AdminAck> TimingEndpoint::RemoveDoc(
    const polysse::RemoveDocRequest& req) {
  return Timed<polysse::AdminAck>("ep.RemoveDoc",
                                  [&] { return inner_->RemoveDoc(req); });
}

Result<polysse::ExportDocResponse> TimingEndpoint::ExportDoc(
    const polysse::ExportDocRequest& req) {
  return Timed<polysse::ExportDocResponse>(
      "ep.ExportDoc", [&] { return inner_->ExportDoc(req); });
}

Result<polysse::AdminAck> TimingEndpoint::RebaseDoc(
    const polysse::RebaseDocRequest& req) {
  return Timed<polysse::AdminAck>("ep.RebaseDoc",
                                  [&] { return inner_->RebaseDoc(req); });
}

Result<polysse::PingResponse> TimingEndpoint::Ping(
    const polysse::PingRequest& req) {
  return Timed<polysse::PingResponse>("ep.Ping",
                                      [&] { return inner_->Ping(req); });
}

Deferred<polysse::EvalResponse> TimingEndpoint::BeginEval(
    const polysse::EvalRequest& req) {
  return TimedBegin<polysse::EvalResponse>(
      "ep.Eval", [&] { return inner_->BeginEval(req); });
}

Deferred<polysse::FetchResponse> TimingEndpoint::BeginFetch(
    const polysse::FetchRequest& req) {
  return TimedBegin<polysse::FetchResponse>(
      "ep.Fetch", [&] { return inner_->BeginFetch(req); });
}

namespace {

template <typename T, typename Call>
Result<T> TimedHandler(Tracer* tracer, const char* name, int server,
                       uint64_t work, Call&& call) {
  const int64_t span = tracer->Open(name, Level::kHandler, server, work);
  Result<T> r = call();
  tracer->Close(span);
  return r;
}

}  // namespace

Result<polysse::EvalResponse> TimingHandler::HandleEval(
    const polysse::EvalRequest& req) {
  return TimedHandler<polysse::EvalResponse>(
      tracer_, "h.Eval", server_, req.node_ids.size() * req.points.size(),
      [&] { return inner_->HandleEval(req); });
}

Result<polysse::FetchResponse> TimingHandler::HandleFetch(
    const polysse::FetchRequest& req) {
  return TimedHandler<polysse::FetchResponse>(
      tracer_, "h.Fetch", server_, 0,
      [&] { return inner_->HandleFetch(req); });
}

Result<polysse::AdminAck> TimingHandler::HandleAddDoc(
    const polysse::AddDocRequest& req) {
  return TimedHandler<polysse::AdminAck>(
      tracer_, "h.AddDoc", server_, 0,
      [&] { return inner_->HandleAddDoc(req); });
}

Result<polysse::AdminAck> TimingHandler::HandleRemoveDoc(
    const polysse::RemoveDocRequest& req) {
  return TimedHandler<polysse::AdminAck>(
      tracer_, "h.RemoveDoc", server_, 0,
      [&] { return inner_->HandleRemoveDoc(req); });
}

Result<polysse::ExportDocResponse> TimingHandler::HandleExportDoc(
    const polysse::ExportDocRequest& req) {
  return TimedHandler<polysse::ExportDocResponse>(
      tracer_, "h.ExportDoc", server_, 0,
      [&] { return inner_->HandleExportDoc(req); });
}

Result<polysse::AdminAck> TimingHandler::HandleRebaseDoc(
    const polysse::RebaseDocRequest& req) {
  return TimedHandler<polysse::AdminAck>(
      tracer_, "h.RebaseDoc", server_, 0,
      [&] { return inner_->HandleRebaseDoc(req); });
}

Result<polysse::PingResponse> TimingHandler::HandlePing(
    const polysse::PingRequest& req) {
  return TimedHandler<polysse::PingResponse>(
      tracer_, "h.Ping", server_, 0,
      [&] { return inner_->HandlePing(req); });
}

}  // namespace perfbench
