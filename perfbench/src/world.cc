#include "world.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "baseline/plaintext_search.h"
#include "core/persistence.h"
#include "net/socket_endpoint.h"
#include "nt/primes.h"
#include "xml/xml_generator.h"

namespace perfbench {

using polysse::ClientSecretFile;
using polysse::DocId;
using polysse::Result;
using polysse::ShareScheme;
using polysse::Status;

namespace {

constexpr int kShamirServers = 3;
constexpr int kShamirThreshold = 2;
constexpr int kShards = 4;
constexpr int64_t kShardSpan = int64_t{1} << 20;

int NumServers(Shape shape) {
  switch (shape) {
    case Shape::kCollection:
      return 1;
    case Shape::kShamirTcp:
      return kShamirServers;
    case Shape::kSharded:
      return kShards;
  }
  return 1;
}

/// The client key of an empty collection of this shape: what Connect needs
/// to drive servers the benchmark owns. The field is the one Create would
/// pick for the default tag capacity.
ClientSecretFile EmptyKey(Shape shape, uint64_t seed) {
  ClientSecretFile key;
  key.seed = polysse::DeterministicPrf::FromString(
                 "perfbench/" + std::to_string(seed))
                 .seed();
  key.ring_kind =
      static_cast<uint8_t>(polysse::StoredRingKind::kFpCyclotomic);
  key.fp_p = polysse::PrimeForAlphabet(polysse::FpCollection::kDefaultTagCapacity);
  if (shape == Shape::kShamirTcp) {
    key.scheme = ShareScheme::kShamir;
    key.num_servers = kShamirServers;
    key.threshold = kShamirThreshold;
    key.fp_p = polysse::NextPrime(
        std::max<uint64_t>(key.fp_p, kShamirServers + 1));
  }
  if (shape == Shape::kSharded) {
    for (int i = 0; i < kShards; ++i)
      key.shards.push_back({static_cast<uint32_t>(i),
                            static_cast<int32_t>(i * kShardSpan), kShardSpan,
                            0});
  }
  return key;
}

std::vector<std::string> SortedPaths(
    const std::vector<polysse::MatchedNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const auto& n : nodes) out.push_back(n.path);
  std::sort(out.begin(), out.end());
  return out;
}

template <typename PerDoc>
void Collect(const PerDoc& per_doc, Answers* out) {
  auto& dst = out->per_query.emplace_back();
  for (const auto& [id, r] : per_doc) {
    dst[id] = SortedPaths(r.matches);
    out->possible += r.possible.size();
  }
}

}  // namespace

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t QueryTag(uint64_t seed, size_t position) {
  std::vector<double> weight(kTagAlphabet);
  double total = 0;
  for (size_t k = 0; k < kTagAlphabet; ++k)
    total += weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), kQueryZipf);
  std::vector<size_t> count(kTagAlphabet);
  std::vector<std::pair<double, size_t>> remainder;
  size_t dealt = 0;
  for (size_t k = 0; k < kTagAlphabet; ++k) {
    const double exact = weight[k] / total * static_cast<double>(kDeckSize);
    count[k] = static_cast<size_t>(exact);
    dealt += count[k];
    remainder.push_back({exact - static_cast<double>(count[k]), k});
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; dealt < kDeckSize; ++i, ++dealt)
    ++count[remainder[i].second];
  std::vector<size_t> deck;
  for (size_t k = 0; k < kTagAlphabet; ++k) deck.insert(deck.end(), count[k], k);
  uint64_t state = seed ^ (0xA5A5A5A5ULL + (position / kDeckSize) *
                                              0x9E3779B97F4A7C15ULL);
  for (size_t i = deck.size() - 1; i > 0; --i)
    std::swap(deck[i], deck[SplitMix(&state) % (i + 1)]);
  return deck[position % kDeckSize];
}

std::string TagName(size_t index) { return "tag" + std::to_string(index); }

polysse::XmlNode MakeDocument(uint64_t seed, uint64_t index, size_t nodes) {
  uint64_t state = seed * 0x100000001B3ULL + index;
  polysse::XmlGeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.max_fanout = 4;
  gen.tag_alphabet = kTagAlphabet;
  gen.zipf_s = kDocZipf;
  gen.seed = SplitMix(&state);
  return polysse::GenerateXmlTree(gen);
}

Result<std::unique_ptr<World>> World::Create(const WorkloadSpec& spec,
                                             uint64_t seed, Tracer* tracer) {
  auto w = std::unique_ptr<World>(new World(spec));
  ClientSecretFile key = EmptyKey(spec.shape, seed);
  ASSIGN_OR_RETURN(Fp ring, Fp::Create(key.fp_p));
  const int n = NumServers(spec.shape);
  std::vector<polysse::ServerEndpoint*> endpoints;
  for (int s = 0; s < n; ++s) {
    w->registries_.push_back(
        std::make_unique<polysse::ServerStoreRegistry<Fp>>(ring));
    polysse::ServerHandler* handler = w->registries_.back().get();
    if (tracer != nullptr) {
      w->handlers_.push_back(
          std::make_unique<TimingHandler>(handler, tracer, s));
      handler = w->handlers_.back().get();
    }
    if (spec.shape == Shape::kShamirTcp) {
      polysse::SocketServer::Options options;
      options.worker_threads = 1;
      ASSIGN_OR_RETURN(auto server,
                       polysse::SocketServer::Listen(handler, 0, options));
      ASSIGN_OR_RETURN(auto ep, polysse::SocketEndpoint::Connect(
                                    "127.0.0.1", server->port()));
      w->servers_.push_back(std::move(server));
      w->transports_.push_back(std::move(ep));
    } else {
      w->transports_.push_back(
          std::make_unique<polysse::LoopbackEndpoint>(handler));
    }
    polysse::ServerEndpoint* ep = w->transports_.back().get();
    if (tracer != nullptr) {
      w->timed_.push_back(std::make_unique<TimingEndpoint>(ep, tracer, s));
      ep = w->timed_.back().get();
    }
    endpoints.push_back(ep);
  }
  switch (spec.shape) {
    case Shape::kCollection: {
      ASSIGN_OR_RETURN(w->col_,
                       polysse::FpCollection::Connect(key, endpoints));
      break;
    }
    case Shape::kShamirTcp: {
      w->pool_ = std::make_unique<polysse::ThreadPool>(kShamirServers);
      ASSIGN_OR_RETURN(w->col_, polysse::FpCollection::Connect(
                                    key, endpoints, w->pool_.get()));
      break;
    }
    case Shape::kSharded: {
      w->pool_ = std::make_unique<polysse::ThreadPool>(kShards);
      ASSIGN_OR_RETURN(w->sharded_, polysse::FpShardedCollection::Connect(
                                        key, endpoints, w->pool_.get()));
      break;
    }
  }
  return w;
}

World::~World() = default;

Status World::Add(DocId id, const polysse::XmlNode& doc) {
  Status st = col_ ? col_->Add(id, doc) : sharded_->Add(id, doc);
  if (st.ok()) ++next_epoch_;
  return st;
}

Status World::Remove(DocId id) {
  return col_ ? col_->Remove(id) : sharded_->Remove(id);
}

Result<Answers> World::Search(const std::vector<std::string>& tags) {
  Answers out;
  if (spec_.queries_per_call > 1) {
    std::vector<polysse::Query> queries;
    queries.reserve(tags.size());
    for (const std::string& t : tags) queries.push_back({t, spec_.mode});
    ASSIGN_OR_RETURN(
        std::vector<polysse::CollectionResult> many,
        col_->SearchMany(std::span<const polysse::Query>(queries)));
    for (const auto& r : many) Collect(r.per_doc, &out);
    if (!many.empty()) out.stats = many.front().stats;
    return out;
  }
  if (col_) {
    ASSIGN_OR_RETURN(polysse::CollectionResult r,
                     col_->Search(tags.front(), spec_.mode));
    Collect(r.per_doc, &out);
    out.stats = r.stats;
    return out;
  }
  ASSIGN_OR_RETURN(polysse::ShardedResult r,
                   sharded_->Search(tags.front(), spec_.mode));
  Collect(r.per_doc, &out);
  out.stats = r.stats;
  out.per_shard = std::move(r.per_shard);
  return out;
}

void World::KeepPlain(DocId id, polysse::XmlNode doc) {
  PlainDoc p{std::move(doc), {}, next_epoch_ - 1};
  for (size_t k = 0; k < kTagAlphabet; ++k) {
    std::vector<std::string> paths =
        polysse::PlaintextLookup(p.tree, TagName(k)).match_paths;
    std::sort(paths.begin(), paths.end());
    p.answers.push_back(std::move(paths));
  }
  plain_.insert_or_assign(id, std::move(p));
}

std::string World::Check(const std::vector<std::string>& tags,
                         const Answers& got) const {
  if (got.per_query.size() != tags.size())
    return "answer count " + std::to_string(got.per_query.size()) +
           " != query count " + std::to_string(tags.size());
  if (got.possible != 0) return "unconfirmed matches in a verified answer";
  static const std::vector<std::string> kNone;
  for (size_t q = 0; q < tags.size(); ++q) {
    const size_t tag = std::stoul(tags[q].substr(3));
    for (const auto& [id, paths] : got.per_query[q])
      if (plain_.count(id) == 0)
        return "answer names document " + std::to_string(id) +
               ", which is not live";
    for (const auto& [id, doc] : plain_) {
      auto it = got.per_query[q].find(id);
      const auto& have = it == got.per_query[q].end() ? kNone : it->second;
      if (have != doc.answers[tag])
        return "//" + tags[q] + " on document " + std::to_string(id) +
               ": " + std::to_string(have.size()) + " matches, oracle has " +
               std::to_string(doc.answers[tag].size());
    }
  }
  return "";
}

const Fp& World::ring() const { return col_ ? col_->ring() : sharded_->ring(); }

polysse::TransportCounters World::WireTotals() const {
  return col_ ? col_->transport_totals() : sharded_->transport_totals();
}

size_t World::StoreBytes() const {
  size_t sum = 0;
  for (const auto& r : registries_) sum += r->PersistedBytes();
  return sum;
}

size_t World::PlainNodes() const {
  size_t sum = 0;
  for (const auto& [id, doc] : plain_) sum += doc.tree.SubtreeSize();
  return sum;
}

int World::ShardOfServer(size_t s) const {
  return spec_.shape == Shape::kSharded ? static_cast<int>(s) : 0;
}

std::vector<double> World::DocsPerShard() const {
  if (!sharded_) return {static_cast<double>(plain_.size())};
  std::vector<double> out(static_cast<size_t>(kShards), 0.0);
  for (const auto& [id, doc] : plain_) {
    auto shard = sharded_->shard_of(id);
    if (shard.ok() && *shard < out.size()) out[*shard] += 1;
  }
  return out;
}

std::string World::SharePrefix(DocId id) const {
  auto it = plain_.find(id);
  const uint64_t epoch = it == plain_.end() ? 0 : it->second.epoch;
  return "d" + std::to_string(id) + "." + std::to_string(epoch);
}

}  // namespace perfbench
