// polysse benchmark program: builds one seeded workload from the public API,
// runs it as a closed loop (one client, each call waits for its answer),
// checks every answer against the plaintext oracle and prints the metrics.
//
//   polysse_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <spans.csv>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 first replays the
// opening rounds untraced, then runs the same rounds with timing decorators
// on every endpoint and handler, checks that both sent exactly the same
// messages and bytes, and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sharing.h"
#include "field/simd_eval.h"
#include "metrics.h"
#include "tracing.h"
#include "world.h"

namespace perfbench {
namespace {

using polysse::QueryStats;
using polysse::Result;
using polysse::Status;
using polysse::TransportCounters;
using polysse::VerifyMode;

constexpr WorkloadSpec kWorkloads[] = {
    {"batch16-collection", Shape::kCollection, 128, 40, 16, 1,
     VerifyMode::kVerified},
    {"shamir-tcp", Shape::kShamirTcp, 64, 150, 1, 1, VerifyMode::kVerified},
    {"sharded-ingest", Shape::kSharded, 64, 150, 1, 8,
     VerifyMode::kTrustedConstOnly},
};

/// Search calls every measured run makes at least, so that the p90 has
/// kMinSamplesBeyond samples beyond it.
constexpr size_t kMinSearchCalls = 100;
/// Untraced setups per run; setup_s is their median.
constexpr int64_t kSetups = 15;
/// Time slices of the loop whose median throughput and latency are reported.
constexpr size_t kSlices = 6;
/// Hard stop for one measured loop, far inside the 180 s run limit.
constexpr int64_t kLoopCapNs = int64_t{120} * 1000 * 1000 * 1000;

enum class OpKind { kSearch, kAdd, kRemove };

/// One operation the loop issued, with everything measured around it.
struct OpRecord {
  OpKind kind = OpKind::kSearch;
  bool setup = false;
  size_t round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  size_t queries = 0;  ///< tag queries answered (search calls)
  size_t points = 0;   ///< distinct tags = evaluation points per request
  size_t matches = 0;  ///< confirmed matches over all queries
  QueryStats stats;
  std::vector<polysse::ShardQueryStats> per_shard;
  TransportCounters wire;  ///< traffic of this operation alone

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  size_t round_trips() const { return stats.rounds + stats.fetch_rounds; }
  size_t bytes() const { return wire.bytes_up + wire.bytes_down; }
};

TransportCounters Minus(const TransportCounters& a,
                        const TransportCounters& b) {
  return {a.bytes_up - b.bytes_up, a.bytes_down - b.bytes_down,
          a.messages_up - b.messages_up, a.messages_down - b.messages_down};
}

/// The tags of round `round`'s search calls, one vector per call.
std::vector<std::vector<std::string>> RoundTags(const WorkloadSpec& spec,
                                                uint64_t seed, size_t round) {
  size_t position = round * spec.searches_per_round * spec.queries_per_call;
  std::vector<std::vector<std::string>> calls(spec.searches_per_round);
  for (auto& tags : calls)
    for (size_t q = 0; q < spec.queries_per_call; ++q)
      tags.push_back(TagName(QueryTag(seed, position++)));
  return calls;
}

/// One deployment plus the record of every operation issued against it.
class Phase {
 public:
  Phase(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer)
      : spec_(spec), seed_(seed), tracer_(tracer) {}

  /// Starts the servers, connects, and outsources the initial documents.
  /// setup_ns() excludes generating the plaintext and the oracle's answers.
  Status Setup() {
    const int64_t t0 = NowNs();
    auto world = World::Create(spec_, seed_, tracer_);
    setup_ns_ = NowNs() - t0;
    if (!world.ok()) return world.status();
    world_ = std::move(*world);
    for (size_t i = 0; i < spec_.initial_docs; ++i) {
      polysse::XmlNode doc = MakeDocument(seed_, i, spec_.doc_nodes);
      OpRecord& rec = Exec(OpKind::kAdd, "Add", 0, true,
                           [&] { return world_->Add(i, doc); });
      setup_ns_ += rec.end_ns - rec.start_ns;
      if (!rec.ok) return Status::Internal("initial Add failed");
      world_->KeepPlain(i, std::move(doc));
    }
    return Status::Ok();
  }

  /// Runs one round. Non-OK only when an answer disagrees with the oracle
  /// (a failed operation is counted, not fatal).
  Status RunRound(size_t round) {
    if (spec_.shape == Shape::kSharded) {
      const polysse::DocId id = spec_.initial_docs + round;
      polysse::XmlNode doc = MakeDocument(seed_, id, spec_.doc_nodes);
      if (Exec(OpKind::kAdd, "Add", round, false,
               [&] { return world_->Add(id, doc); }).ok)
        world_->KeepPlain(id, std::move(doc));
      const polysse::DocId oldest = world_->plain().begin()->first;
      if (Exec(OpKind::kRemove, "Remove", round, false,
               [&] { return world_->Remove(oldest); }).ok)
        world_->DropPlain(oldest);
    }
    for (const auto& tags : RoundTags(spec_, seed_, round)) {
      std::optional<Result<Answers>> got;
      OpRecord& rec = Exec(OpKind::kSearch,
                           spec_.queries_per_call > 1 ? "SearchMany" : "Search",
                           round, false, [&] {
                             got = world_->Search(tags);
                             return got->status();
                           });
      rec.queries = tags.size();
      rec.points = std::set<std::string>(tags.begin(), tags.end()).size();
      if (!got->ok()) continue;
      const Answers& answers = **got;
      rec.stats = answers.stats;
      rec.per_shard = answers.per_shard;
      for (const auto& per_doc : answers.per_query)
        for (const auto& [id, paths] : per_doc) rec.matches += paths.size();
      const std::string mismatch = world_->Check(tags, answers);
      if (!mismatch.empty())
        return Status::Internal("oracle mismatch in round " +
                                std::to_string(round) + ": " + mismatch);
    }
    return Status::Ok();
  }

  /// Loop rounds until `deadline_ns` has passed and at least `min_rounds`
  /// ran. Returns the number of rounds run.
  Result<size_t> Loop(size_t min_rounds, int64_t deadline_ns,
                      const std::function<void(size_t)>& after_round) {
    const int64_t cap = NowNs() + kLoopCapNs;
    size_t r = 0;
    for (;; ++r) {
      const int64_t now = NowNs();
      if (r >= min_rounds && now >= deadline_ns) break;
      if (now >= cap) {
        if (r < min_rounds)
          return Status::Unavailable(
              "only " + std::to_string(r) + " of " +
              std::to_string(min_rounds) + " rounds fit in the loop cap");
        break;
      }
      RETURN_IF_ERROR(RunRound(r));
      if (after_round) after_round(r);
    }
    return r;
  }

  World& world() { return *world_; }
  void Drop() { world_.reset(); }
  const std::vector<OpRecord>& ops() const { return ops_; }
  int64_t setup_ns() const { return setup_ns_; }

 private:
  template <typename F>
  OpRecord& Exec(OpKind kind, const char* name, size_t round, bool setup,
                 F&& f) {
    OpRecord rec;
    rec.kind = kind;
    rec.round = round;
    rec.setup = setup;
    const TransportCounters before = world_->WireTotals();
    const int64_t span =
        tracer_ ? tracer_->BeginOp(name, static_cast<int64_t>(ops_.size()))
                : -1;
    rec.start_ns = NowNs();
    const Status st = f();
    rec.end_ns = NowNs();
    if (tracer_) tracer_->EndOp(span);
    rec.ok = st.ok();
    rec.wire = Minus(world_->WireTotals(), before);
    ops_.push_back(std::move(rec));
    return ops_.back();
  }

  WorkloadSpec spec_;
  uint64_t seed_;
  Tracer* tracer_;
  std::unique_ptr<World> world_;
  std::vector<OpRecord> ops_;
  int64_t setup_ns_ = 0;
};

/// The opening rounds over which a run's exact counts are taken: at least
/// `calls` search calls, and whole blocks of the query stream so every
/// seed asks the same tag mix.
size_t WindowRounds(const WorkloadSpec& spec, size_t calls) {
  const size_t per_round = spec.searches_per_round * spec.queries_per_call;
  size_t queries = std::max(calls * spec.queries_per_call, kDeckSize);
  queries = (queries + kDeckSize - 1) / kDeckSize * kDeckSize;
  return (queries + per_round - 1) / per_round;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::string error;
};

void Put(Outcome* out, std::string name, double value, std::string unit) {
  out->metrics.push_back({std::move(name), value, std::move(unit)});
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The operations of `ops` that satisfy `pred`.
template <typename Pred>
std::vector<const OpRecord*> Select(const std::vector<OpRecord>& ops,
                                    Pred&& pred) {
  std::vector<const OpRecord*> out;
  for (const OpRecord& op : ops)
    if (pred(op)) out.push_back(&op);
  return out;
}

size_t Queries(const std::vector<const OpRecord*>& ops) {
  size_t q = 0;
  for (const OpRecord* op : ops) q += op->queries;
  return q;
}

/// Queries per second of closed-loop wall time spent inside operations.
double QueriesPerSecond(const std::vector<const OpRecord*>& loop) {
  int64_t ns = 0;
  for (const OpRecord* op : loop) ns += op->end_ns - op->start_ns;
  return ns == 0 ? 0.0 : static_cast<double>(Queries(loop)) * 1e9 /
                             static_cast<double>(ns);
}

void CountFailures(const std::vector<const OpRecord*>& loop, Outcome* out) {
  out->attempted = loop.size();
  out->failed = 0;
  for (const OpRecord* op : loop) out->failed += op->ok ? 0 : 1;
}

// ------------------------------------------------------------ untraced run

Outcome RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  Outcome out;
  auto fail = [&](std::string why) {
    out.correct = false;
    out.error = std::move(why);
    return out;
  };
  // Each setup builds a fresh deployment; the first one serves the loop.
  // The setups are spread over the run, so setup_s (their median) and the
  // no-write workloads' add_p50_ms (the median of all their Adds) sample
  // the host at many moments, not one.
  std::vector<double> setup_s;
  std::vector<double> setup_add_ms;
  auto set_up = [&](std::unique_ptr<Phase>* keep) -> Status {
    auto p = std::make_unique<Phase>(spec, seed, nullptr);
    RETURN_IF_ERROR(p->Setup());
    setup_s.push_back(static_cast<double>(p->setup_ns()) / 1e9);
    for (const OpRecord& op : p->ops()) setup_add_ms.push_back(op.ms());
    if (keep != nullptr) *keep = std::move(p);
    return Status::Ok();
  };
  std::unique_ptr<Phase> phase;
  if (Status st = set_up(&phase); !st.ok()) return fail("setup: " + st.ToString());

  const size_t window = WindowRounds(spec, kMinSearchCalls);
  double store_bytes_per_node = 0;
  const int64_t span = int64_t{seconds} * 1000 * 1000 * 1000;
  const int64_t start = NowNs();
  Status side = Status::Ok();
  auto rounds = phase->Loop(window, start + span, [&](size_t r) {
    if (r + 1 == window) {
      World& w = phase->world();
      store_bytes_per_node = static_cast<double>(w.StoreBytes()) /
                             static_cast<double>(w.PlainNodes());
    }
    const auto done = static_cast<int64_t>(setup_s.size());
    if (side.ok() && done < kSetups && NowNs() >= start + span * done / kSetups)
      side = set_up(nullptr);
  });
  while (side.ok() && static_cast<int64_t>(setup_s.size()) < kSetups)
    side = set_up(nullptr);
  if (!rounds.ok()) return fail(rounds.status().ToString());
  if (!side.ok()) return fail("setup: " + side.ToString());

  const auto& ops = phase->ops();
  auto loop = Select(ops, [](const OpRecord& o) { return !o.setup; });
  auto searches = Select(ops, [](const OpRecord& o) {
    return !o.setup && o.kind == OpKind::kSearch;
  });
  auto windowed = Select(ops, [&](const OpRecord& o) {
    return !o.setup && o.kind == OpKind::kSearch && o.round < window;
  });
  std::vector<double> search_ms;
  for (const OpRecord* op : searches) search_ms.push_back(op->ms());
  if (!TailSupported(search_ms.size(), 0.9))
    return fail("too few search calls for a p90");

  // Throughput, median latency and (in the loop) Add latency are taken per
  // time slice of the loop and reported as the median over slices: a burst
  // of host contention moves one slice, not the figure.
  const int64_t lo = loop.front()->start_ns;
  const int64_t hi = loop.back()->end_ns;
  std::vector<std::vector<const OpRecord*>> slices(kSlices);
  for (const OpRecord* op : loop)
    slices[SliceOf(op->start_ns, lo, hi, kSlices)].push_back(op);
  std::vector<double> slice_qps, slice_p50, slice_add;
  for (const auto& slice : slices) {
    std::vector<double> ms, add;
    for (const OpRecord* op : slice)
      if (op->kind != OpKind::kRemove)
        (op->kind == OpKind::kSearch ? ms : add).push_back(op->ms());
    if (!ms.empty()) {
      slice_qps.push_back(QueriesPerSecond(slice));
      slice_p50.push_back(Median(ms));
    }
    if (!add.empty()) slice_add.push_back(Median(add));
  }
  // Workloads without writes in the loop report the Add latency of the
  // outsourcing that built them.
  const double add_p50 = slice_add.empty() ? Median(setup_add_ms)
                                           : Median(slice_add);

  std::vector<Batched> wire_kib, round_trips;
  for (const OpRecord* op : windowed) {
    wire_kib.push_back({static_cast<double>(op->bytes()) / 1024.0,
                        op->queries});
    round_trips.push_back({static_cast<double>(op->round_trips()), 1});
  }

  CountFailures(loop, &out);
  Put(&out, "setup_s", Median(setup_s), "s");
  Put(&out, "queries_per_s", Median(slice_qps), "1/s");
  Put(&out, "query_p50_ms", Median(slice_p50), "ms");
  Put(&out, "query_p90_ms", Percentile(search_ms, 0.9), "ms");
  Put(&out, "add_p50_ms", add_p50, "ms");
  Put(&out, "wire_kb_per_query", PerQuery(wire_kib), "KiB");
  Put(&out, "rounds_per_query", PerQuery(round_trips), "count");
  Put(&out, "store_bytes_per_node", store_bytes_per_node, "B");
  Put(&out, "peak_rss_mb", PeakRssMiB(), "MiB");
  std::printf("# %zu search calls, %zu operations, failed_frac %.6f\n",
              searches.size(), loop.size(),
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  return out;
}

// -------------------------------------------------------------- traced run

/// Times `body` (which performs `units` units of work per call) until at
/// least `min_ns` has passed; returns ns per unit, the median of 5 slices.
template <typename F>
double TimePerUnit(double units, int64_t min_ns, F&& body) {
  std::vector<double> slices;
  for (int s = 0; s < 5; ++s) {
    int64_t reps = 0;
    const int64_t t0 = NowNs();
    int64_t t = t0;
    do {
      body();
      ++reps;
      t = NowNs();
    } while (t - t0 < min_ns / 5);
    slices.push_back(static_cast<double>(t - t0) /
                     (static_cast<double>(reps) * units));
  }
  return Median(slices);
}

/// Kernel probes on the workload's own ring, share paths and point count.
void RunProbes(World& w, uint64_t seed, size_t points, Outcome* out) {
  const Fp& ring = w.ring();
  const polysse::DeterministicPrf prf = polysse::DeterministicPrf::FromString(
      "perfbench/" + std::to_string(seed));
  std::vector<std::string> paths;
  for (const auto& [id, doc] : w.plain()) {
    const std::string prefix = w.SharePrefix(id);
    doc.tree.Preorder([&](const polysse::XmlNode&, const std::vector<int>& p) {
      paths.push_back(polysse::JoinSharePath(prefix, polysse::PathToString(p)));
    });
    if (paths.size() >= 512) break;
  }
  volatile uint64_t sink = 0;
  const double derive_ns =
      TimePerUnit(static_cast<double>(paths.size()), 200'000'000, [&] {
        for (const std::string& p : paths)
          sink = sink + polysse::DeriveClientShare(ring, prf, p, {}).coeff(0);
      });
  Put(out, "crypto.share_derive_us", derive_ns / 1e3, "us");

  polysse::ChaChaRng rng = prf.Stream("perfbench/probe");
  const size_t n = ring.DenseCoeffCount();
  std::vector<uint64_t> coeffs(n);
  for (uint64_t& c : coeffs) c = rng.NextU64() % ring.p();
  std::vector<uint64_t> xs(std::max<size_t>(points, 1));
  for (uint64_t& x : xs) x = 1 + rng.NextU64() % (ring.p() - 1);
  std::vector<uint64_t> ys(xs.size());
  const double eval_ns = TimePerUnit(
      static_cast<double>(n * xs.size()), 100'000'000, [&] {
        polysse::BatchHornerEval(ring.field(), coeffs, xs, ys);
        sink = sink + ys[0];
      });
  Put(out, "field.eval_ns_per_coeff", eval_ns, "ns");

  const Fp::Elem a = ring.Random(rng);
  const Fp::Elem b = ring.Random(rng);
  const double mul_ns = TimePerUnit(1, 100'000'000, [&] {
    sink = sink + ring.Mul(a, b).coeff(0);
  });
  Put(out, "ring.mul_us", mul_ns / 1e3, "us");
}

/// Spans of one operation, split by level.
struct OpSpans {
  const Span* op = nullptr;
  std::vector<const Span*> endpoints;
  std::vector<const Span*> handlers;
};

double Dur(const Span* s) { return static_cast<double>(s->end_ns - s->start_ns); }

/// Empty when the two runs' operations sent identical traffic.
std::string CompareTraffic(const std::vector<OpRecord>& a,
                           const std::vector<OpRecord>& b, size_t rounds) {
  auto opening = [&](const std::vector<OpRecord>& ops) {
    return Select(ops, [&](const OpRecord& o) { return o.round < rounds; });
  };
  auto x = opening(a);
  auto y = opening(b);
  if (x.size() > y.size()) return "traced run issued fewer operations";
  for (size_t i = 0; i < x.size(); ++i) {
    const OpRecord& p = *x[i];
    const OpRecord& q = *y[i];
    if (p.kind != q.kind || p.ok != q.ok || p.round_trips() != q.round_trips() ||
        p.wire.messages_up != q.wire.messages_up ||
        p.wire.messages_down != q.wire.messages_down ||
        p.wire.bytes_up != q.wire.bytes_up ||
        p.wire.bytes_down != q.wire.bytes_down)
      return "operation " + std::to_string(i) +
             " differs between the untraced and traced runs (" +
             std::to_string(p.bytes()) + " vs " + std::to_string(q.bytes()) +
             " bytes)";
  }
  return "";
}

Outcome RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds,
                  const std::string& trace_out) {
  Outcome out;
  const int64_t deadline = NowNs() + int64_t{seconds} * 1000 * 1000 * 1000;
  const size_t window = WindowRounds(spec, 1);
  auto fail = [&](std::string why) {
    out.correct = false;
    out.error = std::move(why);
    return out;
  };

  // Untraced replay of the opening rounds: the traffic reference and the
  // throughput the tracing overhead is measured against.
  Phase plain(spec, seed, nullptr);
  if (Status st = plain.Setup(); !st.ok()) return fail(st.ToString());
  if (auto r = plain.Loop(window, 0, nullptr); !r.ok())
    return fail(r.status().ToString());
  plain.Drop();
  auto opening = [&](const OpRecord& o) { return !o.setup && o.round < window; };
  const double plain_qps = QueriesPerSecond(Select(plain.ops(), opening));

  Tracer tracer;
  Phase traced(spec, seed, &tracer);
  if (Status st = traced.Setup(); !st.ok()) return fail(st.ToString());
  std::vector<int64_t> await_before;
  for (const auto& ep : traced.world().timed_endpoints())
    await_before.push_back(ep->inflight().await_ns.load());
  auto rounds = traced.Loop(window, deadline, nullptr);
  if (!rounds.ok()) return fail(rounds.status().ToString());
  if (std::string diff = CompareTraffic(plain.ops(), traced.ops(), window);
      !diff.empty())
    return fail(diff);

  World& w = traced.world();
  const auto& ops = traced.ops();
  const std::vector<Span> spans = tracer.Snapshot();
  if (!trace_out.empty() && !tracer.WriteCsv(trace_out))
    return fail("cannot write " + trace_out);

  std::vector<OpSpans> by_op(ops.size());
  for (const Span& s : spans) {
    if (s.op < 0 || static_cast<size_t>(s.op) >= ops.size()) continue;
    if (s.end_ns == 0) return fail(std::string("unclosed span ") + s.name);
    OpSpans& o = by_op[static_cast<size_t>(s.op)];
    if (s.level == Level::kOp) o.op = &s;
    if (s.level == Level::kEndpoint) o.endpoints.push_back(&s);
    if (s.level == Level::kHandler) o.handlers.push_back(&s);
  }

  auto loop = Select(ops, [](const OpRecord& o) { return !o.setup; });
  auto searches = Select(ops, [](const OpRecord& o) {
    return !o.setup && o.kind == OpKind::kSearch;
  });
  auto windowed = Select(ops, [&](const OpRecord& o) {
    return !o.setup && o.kind == OpKind::kSearch && o.round < window;
  });
  auto adds = Select(ops, [](const OpRecord& o) { return o.kind == OpKind::kAdd; });
  const double queries = static_cast<double>(Queries(searches));
  auto index = [&](const OpRecord* op) {
    return static_cast<size_t>(op - ops.data());
  };

  // Layer self time on the operations' wall clock: client code (level 0),
  // messages in flight with no handler running (level 1: codec on
  // loopback, network + codec over TCP) and server handlers (level 2).
  auto attribute = [&](const OpSpans& o) {
    std::vector<LeveledInterval> children;
    for (const Span* s : o.endpoints)
      children.push_back({{s->start_ns, s->end_ns}, 1});
    for (const Span* s : o.handlers)
      children.push_back({{s->start_ns, s->end_ns}, 2});
    return AttributeByDepth(o.op->start_ns, o.op->end_ns, children, 2);
  };
  double client_ns = 0, wire_ns = 0, server_ns = 0, op_wall_ns = 0;
  double endpoint_ns = 0, handler_ns = 0, messages = 0;
  double eval_busy_ns = 0, fetch_busy_ns = 0;
  std::vector<double> busy_by_server(w.num_servers(), 0.0);
  const bool sharded = spec.shape == Shape::kSharded;
  std::vector<double> busy_by_shard(sharded ? w.num_servers() : 1, 0.0);
  std::vector<double> evals_by_shard(busy_by_shard.size(), 0.0);
  for (const OpRecord* op : loop) {
    const OpSpans& o = by_op[index(op)];
    if (o.op == nullptr) return fail("operation without a span");
    for (const Span* h : o.handlers) {
      busy_by_server[static_cast<size_t>(h->server)] += Dur(h);
      if (op->kind == OpKind::kSearch)
        busy_by_shard[static_cast<size_t>(w.ShardOfServer(
            static_cast<size_t>(h->server)))] += Dur(h);
    }
    if (op->kind != OpKind::kSearch) continue;
    const std::vector<int64_t> parts = attribute(o);
    client_ns += static_cast<double>(parts[0]);
    wire_ns += static_cast<double>(parts[1]);
    server_ns += static_cast<double>(parts[2]);
    op_wall_ns += Dur(o.op);
    for (const Span* e : o.endpoints) endpoint_ns += Dur(e);
    messages += static_cast<double>(o.endpoints.size());
    for (const Span* h : o.handlers) {
      handler_ns += Dur(h);
      if (std::strcmp(h->name, "h.Eval") == 0) eval_busy_ns += Dur(h);
      if (std::strcmp(h->name, "h.Fetch") == 0) fetch_busy_ns += Dur(h);
    }
    if (sharded) {
      for (const auto& ps : op->per_shard)
        evals_by_shard[ps.shard_id] += static_cast<double>(ps.stats.server_evals);
    } else {
      evals_by_shard[0] += static_cast<double>(op->stats.server_evals);
    }
  }

  // Exact counts over the opening rounds (identical on every run of a seed).
  std::vector<Batched> derivations, client_evals, reconstructions, msgs,
      up, down, server_evals, zero, matches;
  double visited = 0, total_nodes = 0;
  for (const OpRecord* op : windowed) {
    const QueryStats& s = op->stats;
    const size_t q = op->queries;
    derivations.push_back({static_cast<double>(s.client_share_derivations), q});
    client_evals.push_back({static_cast<double>(s.client_evals), q});
    reconstructions.push_back({static_cast<double>(s.reconstructions), q});
    msgs.push_back({static_cast<double>(op->wire.messages_up +
                                        op->wire.messages_down), q});
    up.push_back({static_cast<double>(op->wire.bytes_up), q});
    down.push_back({static_cast<double>(op->wire.bytes_down), q});
    double evals = 0;
    for (const Span* h : by_op[index(op)].handlers)
      evals += static_cast<double>(h->work);
    server_evals.push_back({evals, q});
    zero.push_back({static_cast<double>(s.zero_candidates), q});
    matches.push_back({static_cast<double>(op->matches), q});
    visited += static_cast<double>(s.nodes_visited);
    total_nodes += static_cast<double>(s.total_server_nodes);
  }
  size_t failovers = 0;
  for (const OpRecord* op : searches) failovers += op->stats.server_failovers;

  double add_client_ns = 0, add_server_ns = 0, add_bytes = 0;
  for (const OpRecord* op : adds) {
    const OpSpans& o = by_op[index(op)];
    if (o.op == nullptr) return fail("Add without a span");
    add_client_ns += static_cast<double>(attribute(o)[0]);
    for (const Span* h : o.handlers) add_server_ns += Dur(h);
    add_bytes += static_cast<double>(op->bytes());
  }
  const double n_adds = static_cast<double>(std::max<size_t>(adds.size(), 1));

  const double loop_wall_ns =
      loop.empty() ? 0
                   : static_cast<double>(loop.back()->end_ns -
                                         loop.front()->start_ns);
  double await_ns = 0;
  int64_t inflight_max = 0;
  const auto& eps = w.timed_endpoints();
  for (size_t i = 0; i < eps.size(); ++i) {
    await_ns += static_cast<double>(eps[i]->inflight().await_ns.load() -
                                    await_before[i]);
    inflight_max = std::max(inflight_max, eps[i]->inflight().max.load());
  }
  const bool tcp = spec.shape == Shape::kShamirTcp;
  const double msg_self_us =
      messages == 0 ? 0 : (endpoint_ns - handler_ns) / messages / 1e3;
  std::vector<double> points;
  for (const OpRecord* op : searches) points.push_back(static_cast<double>(op->points));
  const double ratio_zero = PerQuery(zero);

  CountFailures(loop, &out);
  Put(&out, "core.client.self_ms_per_query", client_ns / queries / 1e6, "ms");
  Put(&out, "core.client.share_derivations_per_query", PerQuery(derivations),
      "count");
  Put(&out, "core.client.evals_per_query", PerQuery(client_evals), "count");
  Put(&out, "core.client.reconstructions_per_query", PerQuery(reconstructions),
      "count");
  Put(&out, "core.client.failovers", static_cast<double>(failovers), "count");
  Put(&out, "core.client.candidate_yield",
      ratio_zero == 0 ? 0 : PerQuery(matches) / ratio_zero, "ratio");
  RunProbes(w, seed, static_cast<size_t>(Median(points)), &out);
  Put(&out, "core.codec.self_us_per_msg", tcp ? 0 : msg_self_us, "us");
  Put(&out, "core.codec.messages_per_query", PerQuery(msgs), "count");
  Put(&out, "core.codec.bytes_up_per_query", PerQuery(up), "B");
  Put(&out, "core.codec.bytes_down_per_query", PerQuery(down), "B");
  Put(&out, "net.rtt_self_us_per_msg", tcp ? msg_self_us : 0, "us");
  Put(&out, "net.await_wait_ms_per_query", await_ns / queries / 1e6, "ms");
  Put(&out, "net.inflight_max", static_cast<double>(inflight_max), "count");
  Put(&out, "core.server.eval_busy_ms_per_query", eval_busy_ns / queries / 1e6,
      "ms");
  Put(&out, "core.server.fetch_busy_ms_per_query",
      fetch_busy_ns / queries / 1e6, "ms");
  Put(&out, "core.server.evals_per_query", PerQuery(server_evals), "count");
  Put(&out, "core.server.visited_frac",
      total_nodes == 0 ? 0 : visited / total_nodes, "ratio");
  Put(&out, "core.server.utilization",
      loop_wall_ns == 0 ? 0
                        : *std::max_element(busy_by_server.begin(),
                                            busy_by_server.end()) /
                              loop_wall_ns,
      "ratio");
  Put(&out, "core.ingest.client_ms_per_add", add_client_ns / n_adds / 1e6, "ms");
  Put(&out, "core.ingest.server_ms_per_add", add_server_ns / n_adds / 1e6, "ms");
  Put(&out, "core.ingest.wire_kb_per_add", add_bytes / n_adds / 1024.0, "KiB");
  Put(&out, "shard.evals_skew", Skew(evals_by_shard), "ratio");
  Put(&out, "shard.busy_skew", Skew(busy_by_shard), "ratio");
  Put(&out, "shard.docs_skew", Skew(w.DocsPerShard()), "ratio");
  const double traced_qps = QueriesPerSecond(Select(ops, opening));
  Put(&out, "trace.overhead_frac",
      traced_qps == 0 ? 0 : plain_qps / traced_qps - 1.0, "ratio");
  std::printf(
      "# %zu traced search calls; wall split client %.1f%% / %s %.1f%% / "
      "server %.1f%%\n",
      searches.size(), 100 * client_ns / op_wall_ns,
      tcp ? "net" : "codec", 100 * wire_ns / op_wall_ns,
      100 * server_ns / op_wall_ns);
  return out;
}

void PrintJson(const Outcome& out) {
  std::string m;
  for (const Metric& x : out.metrics) {
    if (!m.empty()) m += ", ";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(x.value) ? x.value : 0.0);
    m += "\"" + x.name + "\": {\"value\": " + buf + ", \"unit\": \"" + x.unit +
         "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              m.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: polysse_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace"))
    return Usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args["workload"] == w.name) spec = &w;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  if (seconds < 1) return Usage();

  Outcome out = trace ? RunTraced(*spec, seed, seconds, args["trace-out"])
                      : RunEndToEnd(*spec, seed, seconds);
  for (const Metric& x : out.metrics)
    std::printf("%-42s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  if (!out.correct) {
    std::fprintf(stderr, "FAILED: %s\n", out.error.c_str());
    PrintJson(out);
    return 1;
  }
  PrintJson(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
