// Seeded inputs of the end-to-end benchmark: the model files each
// workload loads and the fixed request list its clients send.
//
// Everything here is a pure function of (workload, seed), except the
// deadline probe of serve_mixed, whose inputs are fixed so that it behaves
// the same on every seed. Probabilities are small dyadic rationals
// (multiples of 1/kDenominator) written as `a/b`, so every generated model
// carries exact probabilities and the exact-rational confidence DP can
// check the engine's doubles.

#ifndef TMS_E2EBENCH_INPUTS_H_
#define TMS_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

inline constexpr int kDenominator = 64;

enum class RequestKind {
  kRanked,      // POST /query/<model>, transducer body, E_max order
  kSProjector,  // POST /query/<model>, s-projector body, I_max order
  kEnum,        // POST /query/<model>?mode=enum, unranked
  kDist,        // tms_cli dist path: ScatterGather over the /batch workers
  kDeadline,    // ranked request whose deadline confidence cannot meet
};

const char* KindName(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kRanked;
  std::string model;   // registry name; empty for kDist
  std::string body;    // query text posted as the request body
  std::string params;  // URL query string, e.g. "k=10"
  int k = 0;
  // kDist: also check the first sequence of each shard against a brute
  // force over every world (seconds per query, so for one query only).
  bool brute_force = false;
};

// A model file, described by the arguments of MarkovText: `generate`
// writes ModelText(m), `run` only needs the names.
struct ModelFile {
  std::string name;  // registry name and file stem
  uint64_t seed = 0;
  int sigma = 0, n = 0, support = 0;
  std::vector<int> names;  // node renaming; empty keeps n0..n{sigma-1}
};

struct Workload {
  int server_threads = 1;
  int clients = 1;
  // One model list per server; batch_dist has one per /batch worker.
  std::vector<std::vector<ModelFile>> shards;
  // The fixed request list of one pass, in client-interleaved order.
  std::vector<Request> requests;
  // Requests sent once per round outside the timed pass (serve_mixed's
  // deadline probe). They count in `attempted`, never in a latency.
  std::vector<Request> probes;
  // Models the probes query (fixed, seed-independent), served alongside
  // shards[0].
  std::vector<ModelFile> probe_models;
  // Number of answer-bearing passes in one round.
  int passes_per_round = 1;
};

// Builds the workload's inputs from the seed. Returns false on an unknown
// name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Text generators (exposed for the self-test).

// A random chain over nodes n0..n{sigma-1}; with `names`, node i of the
// chain is written as n{names[i]}.
std::string MarkovText(uint64_t seed, int sigma, int n, int support,
                       const std::vector<int>* names = nullptr);
std::string ModelText(const ModelFile& m);
std::string GroupChangeTransducerText(int sigma, int groups);
// With `names`, input node i is written as n{names[i]}, as in MarkovText.
std::string NondetTransducerText(uint64_t seed, int sigma, int states,
                                 int out_symbols,
                                 const std::vector<int>* names = nullptr);

}  // namespace e2ebench

#endif  // TMS_E2EBENCH_INPUTS_H_
