// One benchmark deployment ("world"): the server registries, the transport
// in front of them, the client facade, and the plaintext copy of every
// live document that the answer oracle checks against. Built from the
// public API only: the facade is Connect-ed over endpoints the benchmark
// owns, so a traced world can put timing decorators on both sides of
// every message.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "net/socket_server.h"
#include "shard/sharded_collection.h"
#include "tracing.h"
#include "util/thread_pool.h"
#include "xml/xml_node.h"

namespace perfbench {

using Fp = polysse::FpCyclotomicRing;

enum class Shape {
  kCollection,  ///< two-party Collection over one LoopbackEndpoint
  kShamirTcp,   ///< Shamir 2-of-3 Collection over three SocketServers
  kSharded,     ///< four two-party shards over loopback, 4-thread fan-out
};

/// Everything that defines a workload; see kWorkloads in main.cc.
struct WorkloadSpec {
  const char* name = "";
  Shape shape = Shape::kCollection;
  size_t initial_docs = 0;
  size_t doc_nodes = 0;
  /// Tag queries per search call: 16 = one SearchMany batch, 1 = Search.
  size_t queries_per_call = 1;
  /// Search calls per round; a sharded-ingest round also adds one
  /// document and removes the oldest.
  size_t searches_per_round = 1;
  polysse::VerifyMode mode = polysse::VerifyMode::kVerified;
};

inline constexpr size_t kTagAlphabet = 16;
inline constexpr double kDocZipf = 1.0;
inline constexpr double kQueryZipf = 0.8;

/// A live document as the client knows it in plaintext, with the oracle's
/// answer for every tag of the alphabet (PlaintextLookup, sorted paths).
struct PlainDoc {
  polysse::XmlNode tree;
  std::vector<std::vector<std::string>> answers;  ///< by tag index
  uint64_t epoch = 0;  ///< the facade's add ordinal (share-prefix suffix)
};

/// One search call's answer, per query: document -> sorted match paths.
struct Answers {
  std::vector<std::map<polysse::DocId, std::vector<std::string>>> per_query;
  size_t possible = 0;  ///< unconfirmed matches (must stay 0)
  polysse::QueryStats stats;
  std::vector<polysse::ShardQueryStats> per_shard;  ///< sharded only
};

/// splitmix64: derives every generated input from the seed.
uint64_t SplitMix(uint64_t* state);

/// Queries per block of the query stream.
inline constexpr size_t kDeckSize = 80;

/// Tag index of query `position` of the workload's query stream. Each block
/// of kDeckSize consecutive queries holds every tag in proportion to
/// Zipf(kQueryZipf) (largest-remainder rounding), shuffled per block from
/// the seed: any whole number of blocks asks the same tag mix on every
/// seed, in a different order.
size_t QueryTag(uint64_t seed, size_t position);
std::string TagName(size_t index);

/// The document with index `index` of the workload seeded `seed`.
polysse::XmlNode MakeDocument(uint64_t seed, uint64_t index, size_t nodes);

class World {
 public:
  /// Builds the servers, transport and an empty facade. `tracer` non-null
  /// puts timing decorators around every handler and endpoint.
  static polysse::Result<std::unique_ptr<World>> Create(
      const WorkloadSpec& spec, uint64_t seed, Tracer* tracer);

  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  polysse::Status Add(polysse::DocId id, const polysse::XmlNode& doc);
  polysse::Status Remove(polysse::DocId id);
  /// One search call: SearchMany when the spec batches, Search otherwise.
  /// Returns the raw answers; Check() compares them to the oracle.
  polysse::Result<Answers> Search(const std::vector<std::string>& tags);

  /// Records `doc` as live under `id` (call after a successful Add).
  void KeepPlain(polysse::DocId id, polysse::XmlNode doc);
  void DropPlain(polysse::DocId id) { plain_.erase(id); }
  /// Empty when every query's answer equals the oracle's on every live
  /// document; otherwise a description of the first mismatch.
  std::string Check(const std::vector<std::string>& tags,
                    const Answers& got) const;

  const std::map<polysse::DocId, PlainDoc>& plain() const { return plain_; }
  const Fp& ring() const;
  polysse::TransportCounters WireTotals() const;
  /// Share-store bytes summed over every server.
  size_t StoreBytes() const;
  size_t PlainNodes() const;
  size_t num_servers() const { return registries_.size(); }
  /// Shard (server group) of server `s`; 0 for unsharded shapes.
  int ShardOfServer(size_t s) const;
  /// Live documents per shard.
  std::vector<double> DocsPerShard() const;
  /// The share-path namespace of a live document, as the facades build it.
  std::string SharePrefix(polysse::DocId id) const;
  const std::vector<std::unique_ptr<TimingEndpoint>>& timed_endpoints() const {
    return timed_;
  }

 private:
  explicit World(const WorkloadSpec& spec) : spec_(spec) {}

  WorkloadSpec spec_;
  // Declaration order is teardown order reversed: the facade goes first,
  // then the endpoints, servers, handlers and registries they borrow.
  std::vector<std::unique_ptr<polysse::ServerStoreRegistry<Fp>>> registries_;
  std::vector<std::unique_ptr<TimingHandler>> handlers_;
  std::vector<std::unique_ptr<polysse::SocketServer>> servers_;
  std::vector<std::unique_ptr<polysse::ServerEndpoint>> transports_;
  std::vector<std::unique_ptr<TimingEndpoint>> timed_;
  std::unique_ptr<polysse::ThreadPool> pool_;
  std::unique_ptr<polysse::FpCollection> col_;
  std::unique_ptr<polysse::FpShardedCollection> sharded_;
  std::map<polysse::DocId, PlainDoc> plain_;
  uint64_t next_epoch_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
