#include "inputs.h"

#include <algorithm>
#include <random>
#include <sstream>

namespace e2ebench {

namespace {

using Gen = std::mt19937_64;

// The fixed model pools of ranked_deep and batch_dist.
constexpr uint64_t kDeepPoolSeed = 0xdee9;
constexpr uint64_t kBatchPoolSeed = 0xba7c;

int Uniform(Gen& gen, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(gen);
}

std::string Node(int i) { return "n" + std::to_string(i); }

std::string NodeList(int sigma) {
  std::string out;
  for (int i = 0; i < sigma; ++i) out += " " + Node(i);
  return out;
}

// `support` distinct nodes with positive numerators summing to
// kDenominator, as " n3 17/64 n9 47/64".
std::string RandomRow(Gen& gen, int sigma, int support,
                      const std::vector<int>* names) {
  std::vector<int> nodes(static_cast<size_t>(sigma));
  for (int i = 0; i < sigma; ++i) nodes[static_cast<size_t>(i)] = i;
  std::shuffle(nodes.begin(), nodes.end(), gen);
  nodes.resize(static_cast<size_t>(support));
  std::sort(nodes.begin(), nodes.end());
  // Cut points split [1, kDenominator) into `support` positive parts.
  std::vector<int> cuts;
  while (static_cast<int>(cuts.size()) < support - 1) {
    int c = Uniform(gen, 1, kDenominator - 1);
    if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) {
      cuts.push_back(c);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(kDenominator);
  std::string out;
  int prev = 0;
  for (int j = 0; j < support; ++j) {
    const int node = nodes[static_cast<size_t>(j)];
    const int name =
        names == nullptr ? node : (*names)[static_cast<size_t>(node)];
    out += " " + Node(name) + " " +
           std::to_string(cuts[static_cast<size_t>(j)] - prev) + "/" +
           std::to_string(kDenominator);
    prev = cuts[static_cast<size_t>(j)];
  }
  return out;
}

// An s-projector over n0..n{sigma-1}: the stretch that starts at node
// `from` and runs, avoiding `stop`, up to the next `stop`.
std::string SProjectorText(int sigma, int from, int stop) {
  std::ostringstream out;
  out << "s-projector\nalphabet" << NodeList(sigma) << "\n"
      << "prefix . *\n"
      << "pattern " << Node(from) << " [^ " << Node(stop) << " ] *\n"
      << "suffix " << Node(stop) << " . *\n"
      << "end\n";
  return out.str();
}

std::vector<ModelFile> MakeModels(const std::string& prefix, int count,
                                  uint64_t seed, int sigma, int n,
                                  int support) {
  std::vector<ModelFile> models;
  for (int i = 0; i < count; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s%03d", prefix.c_str(), i);
    models.push_back(ModelFile{
        name, seed * 1000003u + static_cast<uint64_t>(i), sigma, n, support,
        {}});
  }
  return models;
}

std::string Params(int k) { return "k=" + std::to_string(k); }

// ranked_deep: a few long sequences over a large sparse alphabet, one
// deterministic 4-state query with a deep top-k. Compose, solve and merge
// carry the time; confidence is the cheap deterministic DP.
//
// The cost of a deep top-k varies sixfold between random models (100 to
// 620 ms per request at k=40), so a fresh random model set per seed would
// swamp the change the benchmark is there to see. The probabilities come
// from a fixed pool instead; the seed renames the nodes inside each group
// of the query (which leaves every answer and its cost unchanged, and
// changes every model file) and orders the requests.
void RankedDeep(uint64_t seed, Workload* w) {
  constexpr int kSigma = 16, kN = 64, kSupport = 3, kModels = 8, kK = 10;
  constexpr int kGroups = 4;
  w->server_threads = 1;
  w->clients = 1;
  Gen gen(seed);
  std::vector<ModelFile> models;
  for (int i = 0; i < kModels; ++i) {
    std::vector<int> names(kSigma);
    for (int g = 0; g < kGroups; ++g) {
      std::vector<int> members;
      for (int s = g; s < kSigma; s += kGroups) members.push_back(s);
      std::vector<int> shuffled = members;
      std::shuffle(shuffled.begin(), shuffled.end(), gen);
      for (size_t j = 0; j < members.size(); ++j) {
        names[static_cast<size_t>(members[j])] = shuffled[j];
      }
    }
    models.push_back(ModelFile{"deep" + std::to_string(i),
                               kDeepPoolSeed + static_cast<uint64_t>(i),
                               kSigma, kN, kSupport, names});
  }
  std::shuffle(models.begin(), models.end(), gen);
  w->shards.push_back(models);
  const std::string query = GroupChangeTransducerText(kSigma, kGroups);
  for (const ModelFile& m : w->shards[0]) {
    w->requests.push_back(Request{RequestKind::kRanked, m.name, query,
                                  Params(kK), kK});
  }
  w->passes_per_round = 1;
}

// batch_dist: many short sequences over a small dense alphabet, split
// across two /batch workers, queried by nondeterministic transducers so
// that exact confidence dominates.
//
// The slowest shard sets a request's time, and with a fresh random
// collection per seed its cost spread 0.12 (quartiles over median) between
// seeds. The chains come from a fixed pool instead, each always in the same
// shard; the seed renames the nodes of every chain and of every query
// alike (which leaves every answer and its cost unchanged, and changes
// every file and query body), names the sequences within each shard, and
// orders the requests.
void BatchDist(uint64_t seed, Workload* w) {
  constexpr int kSigma = 4, kN = 16, kSupport = 2, kPerShard = 16, kK = 5;
  w->server_threads = 1;
  w->clients = 1;
  Gen gen(seed);
  std::vector<int> names(kSigma);
  for (int i = 0; i < kSigma; ++i) names[static_cast<size_t>(i)] = i;
  std::shuffle(names.begin(), names.end(), gen);
  std::vector<ModelFile> all =
      MakeModels("seq", 2 * kPerShard, kBatchPoolSeed, kSigma, kN, kSupport);
  for (size_t s = 0; s < 2; ++s) {
    std::vector<ModelFile> shard(all.begin() + s * kPerShard,
                                 all.begin() + (s + 1) * kPerShard);
    std::vector<std::string> keys;
    for (ModelFile& m : shard) {
      keys.push_back(m.name);
      m.names = names;
    }
    std::shuffle(keys.begin(), keys.end(), gen);
    for (size_t i = 0; i < shard.size(); ++i) shard[i].name = keys[i];
    std::sort(shard.begin(), shard.end(),
              [](const ModelFile& a, const ModelFile& b) {
                return a.name < b.name;
              });
    w->shards.push_back(std::move(shard));
  }
  // Five queries of 80-270 ms each; the brute force checks the first,
  // whose brute force is the cheapest (under a second).
  for (uint64_t query_seed : {11u, 41u, 53u, 67u, 89u}) {
    w->requests.push_back(Request{
        RequestKind::kDist, "",
        NondetTransducerText(query_seed, kSigma, 4, 2, &names), Params(kK),
        kK, query_seed == 11u});
  }
  std::shuffle(w->requests.begin(), w->requests.end(), gen);
  w->passes_per_round = 1;
}

// serve_mixed: dozens of small models, two closed-loop clients, three
// request kinds interleaved. Per-request fixed costs dominate.
void ServeMixed(uint64_t seed, Workload* w) {
  constexpr int kSigma = 6, kN = 32, kSupport = 3, kModels = 36;
  w->server_threads = 2;
  w->clients = 2;
  w->shards.push_back(MakeModels("m", kModels, seed, kSigma, kN, kSupport));
  const std::string ranked[] = {GroupChangeTransducerText(kSigma, 3),
                                GroupChangeTransducerText(kSigma, 2)};
  const std::string projectors[] = {SProjectorText(kSigma, 0, 1),
                                    SProjectorText(kSigma, 2, 5)};
  for (int i = 0; i < kModels; ++i) {
    const ModelFile& m = w->shards[0][static_cast<size_t>(i)];
    const int variant = (i / 3) % 2;
    switch (i % 3) {
      case 0:
        // One ranked query for all: the two differ about fourfold in cost,
        // and a split puts the median request on the gap between them.
        w->requests.push_back(Request{RequestKind::kRanked, m.name,
                                      ranked[0], Params(10), 10});
        break;
      case 1:
        w->requests.push_back(Request{RequestKind::kSProjector, m.name,
                                      projectors[variant], Params(10), 10});
        break;
      default:
        w->requests.push_back(Request{RequestKind::kEnum, m.name,
                                      ranked[variant], "mode=enum&k=20",
                                      20});
        break;
    }
  }
  // The deadline probe: a fixed model and a fixed nondeterministic query
  // whose first answer's exact confidence takes far longer than the
  // deadline. Seed-independent, so it fails (or passes) on every seed.
  // Its first answer arrives in about 1 ms, and that answer's confidence
  // takes about 0.8 s (4-core x86 host), against a 50 ms deadline.
  w->probe_models.push_back(ModelFile{"probe", 424242, 8, 14, 4, {}});
  w->probes.push_back(Request{RequestKind::kDeadline, "probe",
                              NondetTransducerText(7, 8, 5, 2),
                              "k=3&deadline_ms=50", 3});
  w->passes_per_round = 8;
}

}  // namespace

const char* KindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRanked:
      return "ranked";
    case RequestKind::kSProjector:
      return "sprojector";
    case RequestKind::kEnum:
      return "enum";
    case RequestKind::kDist:
      return "dist";
    case RequestKind::kDeadline:
      return "deadline";
  }
  return "?";
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  if (name == "ranked_deep") {
    RankedDeep(seed, out);
  } else if (name == "batch_dist") {
    BatchDist(seed, out);
  } else if (name == "serve_mixed") {
    ServeMixed(seed, out);
  } else {
    return false;
  }
  return true;
}

std::string MarkovText(uint64_t seed, int sigma, int n, int support,
                       const std::vector<int>* names) {
  Gen gen(seed);
  // Node i of the generated chain is written as node names[i].
  auto Node = [&](int i) {
    return e2ebench::Node(names == nullptr ? i
                                           : (*names)[static_cast<size_t>(i)]);
  };
  std::ostringstream out;
  out << "markov-sequence\nnodes" << NodeList(sigma) << "\nlength " << n
      << "\ninitial" << RandomRow(gen, sigma, support, names) << "\n";
  for (int i = 1; i < n; ++i) {
    for (int s = 0; s < sigma; ++s) {
      out << "transition " << i << " " << Node(s) << " ->"
          << RandomRow(gen, sigma, support, names) << "\n";
    }
  }
  out << "end\n";
  return out.str();
}

std::string ModelText(const ModelFile& m) {
  return MarkovText(m.seed, m.sigma, m.n, m.support,
                    m.names.empty() ? nullptr : &m.names);
}

// Deterministic: node i belongs to group i % groups; the state is the
// group of the last node, and entering a new group emits its label.
std::string GroupChangeTransducerText(int sigma, int groups) {
  std::ostringstream out;
  out << "transducer\ninput" << NodeList(sigma) << "\noutput";
  for (int g = 0; g < groups; ++g) out << " g" << g;
  out << "\nstates " << groups << "\ninitial 0\naccepting";
  for (int g = 0; g < groups; ++g) out << " " << g;
  out << "\n";
  for (int q = 0; q < groups; ++q) {
    for (int s = 0; s < sigma; ++s) {
      const int g = s % groups;
      out << "edge " << q << " " << Node(s) << " -> " << g << " :";
      if (g != q) out << " g" << g;
      out << "\n";
    }
  }
  out << "end\n";
  return out.str();
}

// Nondeterministic: every (state, node) has one or two edges, each
// emitting nothing or one symbol; state 0 is initial and accepting, the
// others accept with probability 1/2.
std::string NondetTransducerText(uint64_t seed, int sigma, int states,
                                 int out_symbols,
                                 const std::vector<int>* names) {
  auto Node = [&](int i) {
    return e2ebench::Node(names == nullptr ? i
                                           : (*names)[static_cast<size_t>(i)]);
  };
  Gen gen(seed);
  std::ostringstream out;
  out << "transducer\ninput" << NodeList(sigma) << "\noutput";
  for (int o = 0; o < out_symbols; ++o) out << " o" << o;
  out << "\nstates " << states << "\ninitial 0\naccepting 0";
  for (int q = 1; q < states; ++q) {
    if (Uniform(gen, 0, 1) == 1) out << " " << q;
  }
  out << "\n";
  for (int q = 0; q < states; ++q) {
    for (int s = 0; s < sigma; ++s) {
      // One or two edges, to distinct targets: a (state, node, target)
      // triple carries one emission.
      std::vector<int> targets = {Uniform(gen, 0, states - 1)};
      const int second = Uniform(gen, 0, states - 1);
      if (Uniform(gen, 0, 1) == 1 && second != targets[0]) {
        targets.push_back(second);
      }
      for (int target : targets) {
        out << "edge " << q << " " << Node(s) << " -> " << target << " :";
        const int emit = Uniform(gen, -1, out_symbols - 1);
        if (emit >= 0) out << " o" << emit;
        out << "\n";
      }
    }
  }
  out << "end\n";
  return out.str();
}

}  // namespace e2ebench
