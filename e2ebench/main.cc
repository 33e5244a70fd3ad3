// tms_e2e: the end-to-end benchmark of tms (see README.md).
//
//   tms_e2e generate --workload W --seed S --dir D
//       writes the workload's models under D/shard<i>/.
//   tms_e2e run --workload W --seed S --seconds T --trace 0|1 --dir D
//             [--spans FILE]
//       loads D into in-process servers and drives them. --trace 0 prints
//       the end-to-end metrics, --trace 1 the per-layer ones. The last
//       stdout line is the result JSON.
//   tms_e2e selftest
//       feeds the output checker good and corrupted answers.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "check.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/client.h"
#include "dist/coordinator.h"
#include "dist/merge_stream.h"
#include "dist/sharded_batch.h"
#include "inputs.h"
#include "io/binary_format.h"
#include "io/text_format.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "optimize/transducer_opt.h"
#include "projector/sprojector_confidence.h"
#include "query/confidence.h"
#include "query/emax.h"
#include "query/engine_factory.h"
#include "ranking/lawler.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "strings/str.h"
#include "trace.h"
#include "transducer/composition_cache.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using namespace tms;

// Taken during static initialization: the set-up time counts from here.
const int64_t kProcessStartNs = NowNs();

// A deadline probe fails when its footer arrives later than its deadline
// plus this allowance.
constexpr double kDeadlineAllowanceMs = 250;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string dir;
  std::string spans;
};

// Progress on stderr, stamped with the seconds since process start.
void Log(const std::string& message) {
  std::fprintf(stderr, "[%8.3f s] %s\n", (NowNs() - kProcessStartNs) / 1e9,
               message.c_str());
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "tms_e2e: " << message << "\n";
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return out.good() ? "" : "cannot write " + path.string();
}

// ---------------------------------------------------------------- inputs

// name -> parsed model, over every shard plus the probe models.
using ModelMap = std::map<std::string, markov::MarkovSequence>;

std::vector<std::pair<std::string, std::string>> ShardSpecs(
    const std::string& dir, size_t shard) {
  std::vector<std::pair<std::string, std::string>> specs;
  const fs::path root = fs::path(dir) / ("shard" + std::to_string(shard));
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.path().extension() != ".tms") continue;
    specs.emplace_back(entry.path().stem().string(), entry.path().string());
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

int Generate(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    Die("unknown workload '" + args.workload + "'");
  }
  for (size_t i = 0; i < w.shards.size(); ++i) {
    const fs::path root = fs::path(args.dir) / ("shard" + std::to_string(i));
    fs::create_directories(root);
    std::vector<ModelFile> files = w.shards[i];
    if (i == 0) {
      files.insert(files.end(), w.probe_models.begin(), w.probe_models.end());
    }
    for (const ModelFile& m : files) {
      std::string error = WriteFile(root / (m.name + ".tms"), ModelText(m));
      if (!error.empty()) Die(error);
    }
  }
  return 0;
}

// --------------------------------------------------------------- servers

// The number of threads of this process, or 0 where /proc is missing.
int ThreadCount() {
  std::error_code ec;
  int n = 0;
  for (fs::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

struct Cluster {
  std::vector<std::unique_ptr<serve::HttpServer>> servers;
  int idle_threads = 0;  // this process's threads while no request runs

  // Waits until every connection thread the servers started has ended. A
  // server sends a response's footer before it frees the request's state
  // (about 35 ms for a ranked_deep request), so a request sent on the
  // footer would share the host with that teardown.
  void WaitIdle() const {
    const int64_t give_up = NowNs() + 10000000000;
    while (ThreadCount() > idle_threads) {
      if (NowNs() > give_up) {
        Log("the servers' threads did not end within 10 s; going on");
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::vector<dist::WorkerAddress> Workers() const {
    std::vector<dist::WorkerAddress> out;
    for (const auto& s : servers) out.push_back({"127.0.0.1", s->port()});
    return out;
  }

  void Shutdown() {
    for (auto& s : servers) s->Shutdown();
    servers.clear();
  }
};

// Loads every shard directory into its own registry and starts one server
// per shard: a cold start on the first call, a restart over the snapshots
// the first call left on later ones.
Cluster StartCluster(const Args& args, const Workload& w) {
  Cluster cluster;
  for (size_t i = 0; i < w.shards.size(); ++i) {
    auto registry = serve::ModelRegistry::Load(ShardSpecs(args.dir, i));
    if (!registry.ok()) Die("load: " + registry.status().ToString());
    serve::ServerOptions options;
    options.threads = w.server_threads;
    auto server = std::make_unique<serve::HttpServer>(
        std::move(registry).value(), options);
    Status st = server->Start();
    if (!st.ok()) Die("start: " + st.ToString());
    cluster.servers.push_back(std::move(server));
  }
  cluster.idle_threads = ThreadCount();
  return cluster;
}

ModelMap ParseModels(const Args& args, const Workload& w) {
  ModelMap models;
  for (size_t i = 0; i < w.shards.size(); ++i) {
    for (const auto& [name, path] : ShardSpecs(args.dir, i)) {
      auto text = io::ReadFile(path);
      if (!text.ok()) Die(text.status().ToString());
      auto mu = io::ParseMarkovSequence(*text);
      if (!mu.ok()) Die(path + ": " + mu.status().ToString());
      models.emplace(name, std::move(mu).value());
    }
  }
  return models;
}

// ------------------------------------------------------ reference streams

transducer::Transducer MustTransducer(const std::string& body) {
  auto t = io::ParseTransducer(body);
  if (!t.ok()) Die("query: " + t.status().ToString());
  return std::move(t).value();
}

projector::SProjector MustSProjector(const std::string& body) {
  auto p = io::ParseSProjector(body);
  if (!p.ok()) Die("query: " + p.status().ToString());
  return std::move(p).value();
}

std::string EnumLine(const transducer::Transducer& t, const Str& output) {
  std::string line = "\"";
  obs::AppendJsonEscaped(FormatStr(t.output_alphabet(), output), &line);
  return line + "\"";
}

// The collection of `files`; a /batch worker holds one shard's.
db::SequenceCollection Collection(const std::vector<ModelFile>& files,
                                  const ModelMap& models) {
  db::SequenceCollection collection(models.at(files.front().name).nodes());
  for (const ModelFile& m : files) {
    Status st = collection.Insert(m.name, models.at(m.name));
    if (!st.ok()) Die(st.ToString());
  }
  return collection;
}

// The collection every /batch worker of the workload holds, as one.
db::SequenceCollection WholeCollection(const Workload& w,
                                       const ModelMap& models) {
  std::vector<ModelFile> all;
  for (const auto& shard : w.shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  return Collection(all, models);
}

std::vector<std::string> BatchRowLines(
    const transducer::Transducer& t,
    const std::vector<db::BatchEvaluator::SequenceResult>& results) {
  std::vector<std::string> lines;
  for (const dist::RankedRow& row : dist::RankedReferenceRows(results)) {
    std::string line;
    serve::AppendBatchRowJson(row.key,
                              FormatStr(t.output_alphabet(), row.answer.output),
                              row.answer.emax, row.answer.confidence, &line);
    lines.push_back(std::move(line));
  }
  return lines;
}

// The answer lines the server must send for `r`, computed in-process with
// the same engines and serializers the server calls. `first_line_ns`, if
// given, receives the time the first line was ready.
std::vector<std::string> ReferenceLines(const Request& r, const Workload& w,
                                        const ModelMap& models,
                                        int64_t* first_line_ns = nullptr) {
  std::vector<std::string> lines;
  auto add = [&](std::string line) {
    if (lines.empty() && first_line_ns != nullptr) *first_line_ns = NowNs();
    lines.push_back(std::move(line));
  };
  if (r.kind == RequestKind::kDist) {
    transducer::Transducer t = MustTransducer(r.body);
    db::SequenceCollection collection = WholeCollection(w, models);
    auto batch = db::BatchEvaluator::Create(&collection, &t);
    if (!batch.ok()) Die(batch.status().ToString());
    return BatchRowLines(t, batch->EvaluateAll(r.k));
  }
  const markov::MarkovSequence& mu = models.at(r.model);
  if (r.kind == RequestKind::kSProjector) {
    projector::SProjector p = MustSProjector(r.body);
    auto stream = query::MakeEnumerator(mu, p);
    if (!stream.ok()) Die(stream.status().ToString());
    for (int i = 0; i < r.k; ++i) {
      auto answer = (*stream)->Next();
      if (!answer.has_value()) break;
      auto conf = projector::SProjectorConfidence(mu, p, answer->output);
      if (!conf.ok()) Die(conf.status().ToString());
      std::string line;
      serve::AppendAnswerJson(FormatStr(p.alphabet(), answer->output), "imax",
                              answer->score, *conf, &line);
      add(std::move(line));
    }
    return lines;
  }
  transducer::Transducer t = MustTransducer(r.body);
  const bool enumerate = r.kind == RequestKind::kEnum;
  auto stream = query::MakeEnumerator(
      enumerate ? query::EnumeratorKind::kUnranked
                : query::EnumeratorKind::kEmax,
      mu, t);
  if (!stream.ok()) Die(stream.status().ToString());
  for (int i = 0; i < r.k; ++i) {
    auto answer = (*stream)->Next();
    if (!answer.has_value()) break;
    if (enumerate) {
      add(EnumLine(t, answer->output));
      continue;
    }
    auto conf = query::Confidence(mu, t, answer->output);
    if (!conf.ok()) Die(conf.status().ToString());
    std::string line;
    serve::AppendAnswerJson(FormatStr(t.output_alphabet(), answer->output),
                            "emax", answer->score, *conf, &line);
    add(std::move(line));
  }
  return lines;
}

std::vector<AnswerLine> ParseLines(const std::vector<std::string>& lines,
                                   const char* score_key, std::string* error) {
  std::vector<AnswerLine> out;
  for (const std::string& line : lines) {
    AnswerLine a;
    if (!ParseAnswerLine(line, score_key, &a)) {
      *error = "unparsable answer line '" + line + "'";
      return {};
    }
    out.push_back(std::move(a));
  }
  return out;
}

// Checks a request's reference stream against the independent
// computations and properties of check.h. Returns "" when it passes.
// `exact_first` also checks the first answer against exact rationals.
std::string CheckReference(const Request& r, const Workload& w,
                           const ModelMap& models,
                           const std::vector<std::string>& lines,
                           bool exact_first) {
  std::string error;
  if (r.kind == RequestKind::kEnum) {
    std::vector<std::string> answers;
    for (const std::string& line : lines) {
      if (line.size() < 2) return "bad enum line '" + line + "'";
      answers.push_back(line.substr(1, line.size() - 2));
    }
    return CheckEnumAnswers(models.at(r.model), MustTransducer(r.body),
                            answers);
  }
  const bool imax = r.kind == RequestKind::kSProjector;
  std::vector<AnswerLine> answers =
      ParseLines(lines, imax ? "imax" : "emax", &error);
  if (!error.empty()) return error;
  if (answers.empty()) return "the request has no answers";
  error = CheckRankedOrder(answers);
  if (!error.empty()) return error;
  if (imax) {
    return CheckSProjectorAnswers(models.at(r.model), MustSProjector(r.body),
                                  answers);
  }
  transducer::Transducer t = MustTransducer(r.body);
  if (r.kind != RequestKind::kDist) {
    return CheckTransducerAnswers(models.at(r.model), t, answers,
                                  exact_first);
  }
  // Merged rows: per-sequence properties on every sequence, and, for the
  // brute-force query, the brute force over every world on the first
  // sequence of each shard.
  std::map<std::string, std::vector<AnswerLine>> by_key;
  for (const AnswerLine& a : answers) by_key[a.key].push_back(a);
  for (const auto& [key, rows] : by_key) {
    error = CheckTransducerAnswers(models.at(key), t, rows, exact_first);
    exact_first = false;
    if (!error.empty()) return "sequence " + key + ": " + error;
  }
  for (const auto& shard : w.shards) {
    if (!r.brute_force) break;
    const std::string& key = shard.front().name;
    error = CheckByBruteForce(models.at(key), t, by_key[key], r.k);
    if (!error.empty()) return "sequence " + key + ": " + error;
  }
  return "";
}

// ------------------------------------------------------------- the passes

struct Outcome {
  double first_ms = 0;
  double last_ms = 0;
  double cycle_ms = 0;  // send -> the client may send its next request
  int answers = 0;
  bool failed = false;  // deadline probe: footer later than allowed
  std::string error;    // wrong output: the run is incorrect
};

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

Outcome SendQuery(const Request& r, int port,
                  const std::vector<std::string>* expected) {
  Outcome out;
  const int64_t start = NowNs();
  auto stream = dist::HttpStream::Post({"127.0.0.1", port},
                                       "/query/" + r.model + "?" + r.params,
                                       r.body, dist::HttpStream::Options());
  if (!stream.ok()) {
    out.error = stream.status().ToString();
    return out;
  }
  std::vector<std::string> lines;
  std::string footer;
  while (true) {
    auto line = (*stream)->NextLine();
    if (!line.ok()) {
      out.error = line.status().ToString();
      return out;
    }
    if (!line->has_value()) break;
    if ((*line)->rfind("{\"done\":", 0) == 0) {
      out.last_ms = MsSince(start);
      footer = std::move(**line);
      continue;
    }
    if (lines.empty()) out.first_ms = MsSince(start);
    lines.push_back(std::move(**line));
  }
  if (footer.empty()) {
    out.error = "stream ended without a footer";
    return out;
  }
  if (lines.empty()) out.first_ms = out.last_ms;
  out.answers = static_cast<int>(lines.size());
  if (r.kind == RequestKind::kDeadline) {
    // The probe's lines must still be a well-ranked clean prefix.
    std::vector<AnswerLine> answers = ParseLines(lines, "emax", &out.error);
    if (out.error.empty()) out.error = CheckRankedOrder(answers);
    size_t pos = r.params.find("deadline_ms=");
    const double deadline = std::stod(r.params.substr(pos + 12));
    out.failed = out.last_ms > deadline + kDeadlineAllowanceMs;
    return out;
  }
  if (footer.find("\"reason\":\"NONE\"") == std::string::npos ||
      footer.find("\"error\"") != std::string::npos) {
    out.error = "footer reports a truncated or failed stream: " + footer;
    return out;
  }
  out.error = CheckSameLines(lines, *expected);
  return out;
}

Outcome SendDist(const Request& r, const Cluster& cluster,
                 const std::vector<std::string>& expected) {
  Outcome out;
  std::vector<std::string> lines;
  dist::CoordinatorOptions options;
  options.params = r.params;
  const int64_t start = NowNs();
  dist::DistOutcome result = dist::ScatterGather(
      cluster.Workers(), r.body, options, [&](const std::string& line) {
        if (lines.empty()) out.first_ms = MsSince(start);
        lines.push_back(line);
        return true;
      });
  out.last_ms = MsSince(start);
  out.answers = static_cast<int>(lines.size());
  if (!result.complete()) {
    out.error = "incomplete shard coverage: " +
                dist::CoverageJson(result.coverage);
    return out;
  }
  out.error = CheckSameLines(lines, expected);
  return out;
}

Outcome Send(const Request& r, const Cluster& cluster,
             const std::vector<std::string>* expected) {
  if (r.kind == RequestKind::kDist) return SendDist(r, cluster, *expected);
  return SendQuery(r, cluster.servers.front()->port(), expected);
}

// One pass of the fixed request list: `clients` closed loops, client c
// sending requests c, c+clients, ... one after another. A lone client
// sends its next request once the server has finished the last one, so its
// cycle includes the server's teardown; with more, each sends on the
// footer, and the pass ends when the servers are idle. Outcomes land in
// *out by request index.
void RunPass(const Workload& w, const Cluster& cluster,
             const std::vector<std::vector<std::string>>& expected,
             std::vector<Outcome>* out) {
  out->assign(w.requests.size(), Outcome());
  auto client = [&](size_t c) {
    for (size_t i = c; i < w.requests.size(); i += w.clients) {
      const int64_t start = NowNs();
      Outcome o = Send(w.requests[i], cluster, &expected[i]);
      if (w.clients == 1) cluster.WaitIdle();
      o.cycle_ms = MsSince(start);
      (*out)[i] = std::move(o);
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < w.clients; ++c) {
    others.emplace_back(client, static_cast<size_t>(c));
  }
  client(0);
  for (std::thread& t : others) t.join();
  cluster.WaitIdle();
}

// ------------------------------------------------------------ the output

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%-36s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-36s %18.6f  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --------------------------------------------------------- untraced run

int EndToEnd(const Args& args, const Workload& w, Cluster cluster,
             double setup_s) {
  // Reference streams, checked against independent computations once.
  const ModelMap models = ParseModels(args, w);
  // One exact-rational check per distinct query: it costs seconds at n=64.
  std::vector<std::vector<std::string>> expected;
  std::set<std::string> exact_checked;
  std::string error;
  for (const Request& r : w.requests) {
    expected.push_back(ReferenceLines(r, w, models));
    if (error.empty()) {
      error = CheckReference(r, w, models, expected.back(),
                             exact_checked.insert(r.body).second);
      if (!error.empty()) {
        error = std::string(KindName(r.kind)) + " request on '" + r.model +
                "': " + error;
      }
    }
  }
  Log("reference streams computed and checked");

  // Rounds: passes_per_round passes of the request list, then the probes.
  // Round 0 warms up and is checked but not timed; every round counts in
  // attempted, so the failed share is the same however many rounds fit.
  const size_t n = w.requests.size();
  std::vector<double> best_first(n, 1e300), best_last(n, 1e300);
  std::vector<double> best_cycle(n, 1e300);
  int64_t pass_answers = 0;
  int64_t attempted = 0, failed = 0;
  std::vector<Outcome> outcomes;
  const int64_t end_ns =
      NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  double restart_s = 1e300;
  for (int round = 0; round == 0 || round == 1 || NowNs() < end_ns; ++round) {
    for (int p = 0; p < w.passes_per_round; ++p) {
      const int64_t pass_start = NowNs();
      RunPass(w, cluster, expected, &outcomes);
      const double wall_ms = MsSince(pass_start);
      int64_t answers = 0;
      for (size_t i = 0; i < n; ++i) {
        const Outcome& o = outcomes[i];
        ++attempted;
        if (!o.error.empty() && error.empty()) {
          error = std::string(KindName(w.requests[i].kind)) + " request on '" +
                  w.requests[i].model + "': " + o.error;
        }
        answers += o.answers;
        if (round == 0) continue;
        best_first[i] = std::min(best_first[i], o.first_ms);
        best_last[i] = std::min(best_last[i], o.last_ms);
        best_cycle[i] = std::min(best_cycle[i], o.cycle_ms);
      }
      pass_answers = answers;  // the same in every pass: outputs are checked
      char note[96];
      std::snprintf(note, sizeof(note), "round %d pass %d: %.1f ms", round, p,
                    wall_ms);
      Log(note);
    }
    for (const Request& probe : w.probes) {
      Outcome o = Send(probe, cluster, nullptr);
      cluster.WaitIdle();
      ++attempted;
      if (o.failed) ++failed;
      if (!o.error.empty() && error.empty()) {
        error = std::string("deadline probe: ") + o.error;
      }
    }
    // Restart: shutdown, then the same load again over the snapshots the
    // cold start left, and start. One per round, so that the best of them
    // samples the host over the whole run.
    cluster.Shutdown();
    const int64_t start = NowNs();
    cluster = StartCluster(args, w);
    restart_s = std::min(restart_s, (NowNs() - start) / 1e9);
  }
  cluster.Shutdown();
  // Throughput of a pass made of each request's best cycle: the slowest
  // client's sum of them is the pass time.
  std::vector<double> client_ms(static_cast<size_t>(w.clients), 0);
  for (size_t i = 0; i < n; ++i) {
    client_ms[i % client_ms.size()] += best_cycle[i];
  }
  const double answers_per_s =
      pass_answers /
      (*std::max_element(client_ms.begin(), client_ms.end()) / 1e3);
  for (size_t i = 0; i < n; ++i) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "request %zu (%s %s): best first %.3f ms, last %.3f ms", i,
                  KindName(w.requests[i].kind), w.requests[i].model.c_str(),
                  best_first[i], best_last[i]);
    Log(note);
  }
  if (!error.empty()) Log("incorrect output: " + error);

  PrintResult(error.empty(), attempted, failed,
              {{"setup_s", "s", setup_s},
               {"restart_s", "s", restart_s},
               {"first_answer_ms", "ms", Median(best_first)},
               {"last_answer_ms", "ms", Median(best_last)},
               {"answers_per_s", "answers/s", answers_per_s},
               {"peak_rss_mb", "MB", PeakRssMb()}});
  return error.empty() ? 0 : 1;
}

// ------------------------------------------------------------ traced run

// Deltas of the program's global obs counters.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::Registry::Global().Snapshot().counters) {}

  // Sum of the deltas of every counter `match` accepts.
  int64_t Get(const std::function<bool(const std::string&)>& match) const {
    int64_t total = 0;
    for (const auto& [name, value] :
         obs::Registry::Global().Snapshot().counters) {
      if (!match(name)) continue;
      auto it = before_.find(name);
      total += value - (it == before_.end() ? 0 : it->second);
    }
    return total;
  }
  int64_t Get(const std::string& name) const {
    return Get([&](const std::string& n) { return n == name; });
  }

 private:
  std::map<std::string, int64_t> before_;
};

bool IsKernelCells(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const size_t len = std::strlen(suffix);
    return name.size() >= len &&
           name.compare(name.size() - len, len, suffix) == 0;
  };
  return name.rfind("kernels.", 0) == 0 &&
         (ends_with(".cells") || ends_with(".nnz"));
}

// Every per-layer figure the traced run gathers, as raw samples.
struct Layers {
  std::vector<double> parse_bytes, parse_s;  // per model
  std::vector<double> snapshot_ms;           // per model
  std::vector<double> query_parse_us, prune_us, context_ms;
  std::vector<double> compose_us, composed_states, solve_us;
  int64_t cache_hits = 0, cache_misses = 0, kernel_cells = 0;
  int64_t solver_calls = 0, lawler_answers = 0;
  double merge_us = 0;  // Lawler self time outside the solver
  double confidence_ms = 0;
  int64_t confidence_cells = 0, confidence_answers = 0;
  double unranked_us = 0;
  int64_t unranked_answers = 0;
  double imax_us = 0, projector_conf_us = 0;
  int64_t projector_answers = 0;
  std::vector<double> sequence_ms;
  std::vector<double> slowest_shard_ms;
  double merge_rows = 0, merge_s = 0;
  std::vector<double> overhead_us;
  double serialize_ns = 0;
  int64_t serialized = 0;
};

std::string ScoreBits(const ranking::ScoredAnswer& a,
                      const Alphabet& alphabet) {
  char score[40];
  std::snprintf(score, sizeof(score), "%a", a.score);
  return FormatStr(alphabet, a.output) + "|" + score;
}

// Drives ranking::LawlerEnumerator with a benchmark-side solver that calls
// CompositionCache::Compose and EmaxContext::TopAnswer, the two calls
// query::EmaxEnumerator makes per subspace, so compose, solve and merge
// get their own spans. Returns the answers; `cache` may be shared across
// sequences as the batch path shares it.
std::vector<ranking::ScoredAnswer> TracedLawler(
    Tracer* tracer, Layers* layers, const markov::MarkovSequence& mu,
    const transducer::Transducer& t, transducer::CompositionCache* cache,
    int k) {
  std::optional<query::EmaxContext> ctx;
  {
    Span span(tracer, "kernels.context_build");
    ctx.emplace(mu);
    layers->context_ms.push_back(span.End() / 1e6);
  }
  const bool optimized = optimize::ShouldOptimize(optimize::Level::kAuto, t);
  int64_t solver_ns = 0;
  auto solver = [&](const ranking::OutputConstraint& c)
      -> std::optional<ranking::ScoredAnswer> {
    const int64_t start = NowNs();
    std::shared_ptr<const transducer::Transducer> composed;
    {
      Span span(tracer, "transducer.compose");
      composed = cache->Compose(c, optimized);
      layers->compose_us.push_back(span.End() / 1e3);
    }
    layers->composed_states.push_back(composed->num_states());
    std::optional<query::Evidence> best;
    {
      Span span(tracer, "kernels.solve");
      best = ctx->TopAnswer(*composed);
      layers->solve_us.push_back(span.End() / 1e3);
    }
    solver_ns += NowNs() - start;
    if (!best.has_value()) return std::nullopt;
    return ranking::ScoredAnswer{std::move(best->output), best->prob};
  };

  CounterDelta counters;
  std::vector<ranking::ScoredAnswer> answers;
  std::optional<ranking::LawlerEnumerator> lawler;
  {
    Span span(tracer, "ranking.lawler.construct");
    lawler.emplace(solver);
  }
  for (int i = 0; i < k; ++i) {
    const int64_t solver_before = solver_ns;
    Span span(tracer, "ranking.lawler.next");
    auto answer = lawler->Next();
    const int64_t next_ns = span.End();
    if (!answer.has_value()) break;
    layers->merge_us += (next_ns - (solver_ns - solver_before)) / 1e3;
    answers.push_back(std::move(*answer));
  }
  layers->cache_hits += counters.Get("cache.hits");
  layers->cache_misses += counters.Get("cache.misses");
  layers->kernel_cells += counters.Get(IsKernelCells);
  layers->solver_calls += counters.Get("ranking.lawler.solver_calls");
  layers->lawler_answers += static_cast<int64_t>(answers.size());
  return answers;
}

// The reassembled Lawler stream must equal query::MakeEnumerator's.
std::string CompareWithEngine(const std::vector<ranking::ScoredAnswer>& got,
                              const markov::MarkovSequence& mu,
                              const transducer::Transducer& t, int k) {
  auto stream = query::MakeEnumerator(query::EnumeratorKind::kEmax, mu, t);
  if (!stream.ok()) return stream.status().ToString();
  for (int i = 0; i < k; ++i) {
    auto want = (*stream)->Next();
    const bool have = static_cast<size_t>(i) < got.size();
    if (!want.has_value() && !have) return "";
    if (!want.has_value() || !have ||
        ScoreBits(*want, t.output_alphabet()) !=
            ScoreBits(got[static_cast<size_t>(i)], t.output_alphabet())) {
      return "traced Lawler answer " + std::to_string(i) +
             " differs from the engine's";
    }
  }
  return "";
}

void TimeConfidence(Tracer* tracer, Layers* layers,
                    const markov::MarkovSequence& mu,
                    const transducer::Transducer& t,
                    const std::vector<ranking::ScoredAnswer>& answers,
                    std::vector<double>* confidences) {
  CounterDelta counters;
  for (const ranking::ScoredAnswer& a : answers) {
    Span span(tracer, "query.confidence");
    auto conf = query::Confidence(mu, t, a.output);
    layers->confidence_ms += span.End() / 1e6;
    if (!conf.ok()) Die(conf.status().ToString());
    confidences->push_back(*conf);
  }
  layers->confidence_cells +=
      counters.Get("query.confidence.dp_cells") +
      counters.Get("query.confidence.subset_masks");
  layers->confidence_answers += static_cast<int64_t>(answers.size());
}

// Times one serializer over `count` answers, repeated until it has run
// for a few milliseconds.
void TimeSerialize(Tracer* tracer, Layers* layers, int64_t count,
                   const std::function<void(std::string*)>& serialize_all) {
  if (count == 0) return;
  Span span(tracer, "serve.serialize");
  int64_t reps = 0;
  const int64_t start = NowNs();
  std::string sink;
  while (reps < 10 || NowNs() - start < 5000000) {
    sink.clear();
    serialize_all(&sink);
    ++reps;
  }
  layers->serialize_ns += static_cast<double>(span.End());
  layers->serialized += reps * count;
}

// Timed passes of each request-overhead and shard timing, after one
// warm-up pass.
constexpr int kTracedPasses = 8;

// serve.request_overhead_us for `r`: the HTTP time to its first answer
// line (each stream read to its footer, the server idle before the next)
// minus the in-process time to the same serialized line.
std::string TraceRequestOverhead(Layers* layers, const Request& r,
                                 const Workload& w, const ModelMap& models,
                                 const Cluster& cluster) {
  const std::vector<std::string> expected = ReferenceLines(r, w, models);
  const int port = cluster.servers.front()->port();
  Request first = r;
  first.k = 1;
  std::string error;
  // The two paths alternate, so that a drift of the host's speed meets
  // both alike.
  double http_ms = 1e300, local_ms = 1e300;
  for (int pass = 0; pass <= kTracedPasses; ++pass) {
    Outcome o = SendQuery(r, port, &expected);
    cluster.WaitIdle();
    if (error.empty()) error = o.error;
    // Up to the first line, before the stream is torn down, as the server
    // sends it.
    const int64_t start = NowNs();
    int64_t first_line_ns = 0;
    ReferenceLines(first, w, models, &first_line_ns);
    if (pass == 0) continue;  // warm-up
    http_ms = std::min(http_ms, o.first_ms);
    local_ms = std::min(local_ms, (first_line_ns - start) / 1e6);
  }
  layers->overhead_us.push_back((http_ms - local_ms) * 1e3);
  return error;
}

void TraceIo(Tracer* tracer, Layers* layers, const Args& args,
             const Workload& w) {
  for (size_t i = 0; i < w.shards.size(); ++i) {
    for (const auto& [name, path] : ShardSpecs(args.dir, i)) {
      auto text = io::ReadFile(path);
      if (!text.ok()) Die(text.status().ToString());
      double best_s = 1e300, best_ms = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        Span span(tracer, "io.parse_markov_sequence");
        auto mu = io::ParseMarkovSequence(*text);
        best_s = std::min(best_s, span.End() / 1e9);
        if (!mu.ok()) Die(mu.status().ToString());
      }
      for (int rep = 0; rep < 3; ++rep) {
        Span span(tracer, "io.load_snapshot");
        auto mu = io::LoadMarkovSequenceFile(path, true);
        best_ms = std::min(best_ms, span.End() / 1e6);
        if (!mu.ok()) Die(mu.status().ToString());
      }
      layers->parse_bytes.push_back(static_cast<double>(text->size()));
      layers->parse_s.push_back(best_s);
      layers->snapshot_ms.push_back(best_ms);
    }
  }
}

// A transducer request's parse (best of 3: the first parse after a
// request often runs ten times slower) and prune, traced.
transducer::Transducer TraceQueryParse(Tracer* tracer, Layers* layers,
                                       const Request& r) {
  std::optional<transducer::Transducer> t;
  double best_us = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Span span(tracer, "io.parse_query");
    t.emplace(MustTransducer(r.body));
    best_us = std::min(best_us, span.End() / 1e3);
  }
  layers->query_parse_us.push_back(best_us);
  {
    Span span(tracer, "optimize.prune");
    transducer::Transducer pruned = optimize::PruneTransducer(*t);
    layers->prune_us.push_back(span.End() / 1e3);
  }
  return std::move(*t);
}

std::string TraceRanked(Tracer* tracer, Layers* layers, const Request& r,
                        const ModelMap& models) {
  const markov::MarkovSequence& mu = models.at(r.model);
  transducer::Transducer t = TraceQueryParse(tracer, layers, r);
  transducer::CompositionCache cache(&t);
  std::vector<ranking::ScoredAnswer> answers =
      TracedLawler(tracer, layers, mu, t, &cache, r.k);
  std::vector<double> conf;
  TimeConfidence(tracer, layers, mu, t, answers, &conf);
  TimeSerialize(tracer, layers, static_cast<int64_t>(answers.size()),
                [&](std::string* out) {
                  for (size_t i = 0; i < answers.size(); ++i) {
                    serve::AppendAnswerJson(
                        FormatStr(t.output_alphabet(), answers[i].output),
                        "emax", answers[i].score, conf[i], out);
                  }
                });
  return CompareWithEngine(answers, mu, t, r.k);
}

void TraceSProjector(Tracer* tracer, Layers* layers, const Request& r,
                     const ModelMap& models) {
  const markov::MarkovSequence& mu = models.at(r.model);
  std::optional<projector::SProjector> p;
  double best_us = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Span span(tracer, "io.parse_query");
    p.emplace(MustSProjector(r.body));
    best_us = std::min(best_us, span.End() / 1e3);
  }
  layers->query_parse_us.push_back(best_us);
  auto stream = query::MakeEnumerator(mu, *p);
  if (!stream.ok()) Die(stream.status().ToString());
  for (int i = 0; i < r.k; ++i) {
    Span next(tracer, "projector.imax_next");
    auto answer = (*stream)->Next();
    layers->imax_us += next.End() / 1e3;
    if (!answer.has_value()) break;
    Span conf(tracer, "projector.confidence");
    auto c = projector::SProjectorConfidence(mu, *p, answer->output);
    layers->projector_conf_us += conf.End() / 1e3;
    if (!c.ok()) Die(c.status().ToString());
    ++layers->projector_answers;
  }
}

void TraceEnum(Tracer* tracer, Layers* layers, const Request& r,
               const ModelMap& models) {
  const markov::MarkovSequence& mu = models.at(r.model);
  transducer::Transducer t = TraceQueryParse(tracer, layers, r);
  auto stream =
      query::MakeEnumerator(query::EnumeratorKind::kUnranked, mu, t);
  if (!stream.ok()) Die(stream.status().ToString());
  for (int i = 0; i < r.k; ++i) {
    Span next(tracer, "query.unranked_next");
    auto answer = (*stream)->Next();
    layers->unranked_us += next.End() / 1e3;
    if (!answer.has_value()) break;
    ++layers->unranked_answers;
  }
}

std::string TraceDist(Tracer* tracer, Layers* layers, const Request& r,
                      const Workload& w, const ModelMap& models,
                      const Cluster& cluster) {
  transducer::Transducer t = TraceQueryParse(tracer, layers, r);
  // The batch path, one shard at a time in-process.
  std::vector<std::vector<db::BatchEvaluator::SequenceResult>> shard_results;
  for (const auto& shard : w.shards) {
    db::SequenceCollection collection = Collection(shard, models);
    auto batch = db::BatchEvaluator::Create(&collection, &t);
    if (!batch.ok()) Die(batch.status().ToString());
    Span span(tracer, "db.evaluate_all");
    shard_results.push_back(batch->EvaluateAll(r.k));
    layers->sequence_ms.push_back(span.End() / 1e6 /
                                  static_cast<double>(shard.size()));
  }

  // The k-way merge over in-memory shard streams.
  int64_t rows = 0;
  {
    Span span(tracer, "dist.merge");
    const int64_t start = NowNs();
    while (rows == 0 || NowNs() - start < 20000000) {
      std::vector<std::unique_ptr<dist::ShardSource>> sources;
      for (size_t s = 0; s < shard_results.size(); ++s) {
        std::vector<dist::MergeEntry> entries;
        for (const dist::RankedRow& row :
             dist::RankedReferenceRows(shard_results[s])) {
          entries.push_back(
              dist::MergeEntry{row.key, row.answer.emax, row.answer, ""});
        }
        dist::ShardCoverage coverage;
        coverage.shard_id = static_cast<int>(s);
        sources.push_back(std::make_unique<dist::VectorShardSource>(
            std::move(entries), coverage));
      }
      dist::MergeStream merge(std::move(sources));
      while (merge.Next().has_value()) ++rows;
    }
    layers->merge_s += span.End() / 1e9;
    layers->merge_rows += static_cast<double>(rows);
  }

  // Compose / solve / merge / confidence through the traced Lawler, one
  // composition cache shared by every sequence, as the batch path does.
  transducer::CompositionCache cache(&t);
  std::string error;
  for (const auto& shard : w.shards) {
    for (const ModelFile& m : shard) {
      const markov::MarkovSequence& mu = models.at(m.name);
      std::vector<ranking::ScoredAnswer> answers =
          TracedLawler(tracer, layers, mu, t, &cache, r.k);
      std::vector<double> conf;
      TimeConfidence(tracer, layers, mu, t, answers, &conf);
      if (error.empty()) error = CompareWithEngine(answers, mu, t, r.k);
    }
  }

  // Both /batch streams at once, each read to its end; the slower one's
  // time.
  std::vector<dist::WorkerAddress> workers = cluster.Workers();
  auto scatter = [&] {
    std::vector<double> ms(workers.size(), 0);
    std::vector<std::thread> threads;
    Span span(tracer, "dist.scatter_gather");
    for (size_t i = 0; i < workers.size(); ++i) {
      threads.emplace_back([&, i] {
        const int64_t start = NowNs();
        auto stream = dist::HttpStream::Post(
            workers[i], "/batch?" + r.params + "&shard=" + std::to_string(i),
            r.body, dist::HttpStream::Options());
        if (!stream.ok()) return;
        while (true) {
          auto line = (*stream)->NextLine();
          if (!line.ok() || !line->has_value()) break;
        }
        ms[i] = MsSince(start);
      });
    }
    for (std::thread& th : threads) th.join();
    span.End();
    cluster.WaitIdle();
    return *std::max_element(ms.begin(), ms.end());
  };
  double best_ms = 1e300;
  for (int pass = 0; pass <= kTracedPasses; ++pass) {
    const double ms = scatter();
    if (pass > 0) best_ms = std::min(best_ms, ms);  // pass 0 warms up
  }
  layers->slowest_shard_ms.push_back(best_ms);

  std::vector<dist::RankedRow> merged;
  for (const auto& results : shard_results) {
    for (const dist::RankedRow& row : dist::RankedReferenceRows(results)) {
      merged.push_back(row);
    }
  }
  TimeSerialize(tracer, layers, static_cast<int64_t>(merged.size()),
                [&](std::string* out) {
                  for (const dist::RankedRow& row : merged) {
                    serve::AppendBatchRowJson(
                        row.key,
                        FormatStr(t.output_alphabet(), row.answer.output),
                        row.answer.emax, row.answer.confidence, out);
                  }
                });
  return error;
}

int Traced(const Args& args, const Workload& w, Cluster cluster) {
  Tracer tracer;
  Layers layers;
  TraceIo(&tracer, &layers, args, w);
  const ModelMap models = ParseModels(args, w);
  std::string error;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const Request& r = w.requests[i];
    tracer.set_request(static_cast<int64_t>(i) + 1);
    std::string e;
    switch (r.kind) {
      case RequestKind::kRanked:
        e = TraceRanked(&tracer, &layers, r, models);
        break;
      case RequestKind::kSProjector:
        TraceSProjector(&tracer, &layers, r, models);
        break;
      case RequestKind::kEnum:
        TraceEnum(&tracer, &layers, r, models);
        break;
      case RequestKind::kDist:
        e = TraceDist(&tracer, &layers, r, w, models, cluster);
        break;
      case RequestKind::kDeadline:
        break;
    }
    if (r.kind != RequestKind::kDist && e.empty()) {
      e = TraceRequestOverhead(&layers, r, w, models, cluster);
    }
    if (!e.empty() && error.empty()) {
      error = std::string(KindName(r.kind)) + " request on '" + r.model +
              "': " + e;
    }
  }
  cluster.Shutdown();

  // Spans go out once the run is over: JSON lines and a self-time table.
  if (!args.spans.empty()) {
    std::ofstream out(args.spans);
    tracer.WriteJsonLines(out);
  }
  tracer.WriteSummary(std::cerr);
  if (!error.empty()) Log("incorrect output: " + error);

  auto per = [](double total, int64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  const int64_t lookups = layers.cache_hits + layers.cache_misses;
  const int64_t attempted = static_cast<int64_t>(w.requests.size());
  PrintResult(
      error.empty(), attempted, 0,
      {{"io.model_parse_mb_per_s", "MB/s",
        Sum(layers.parse_bytes) / 1e6 / Sum(layers.parse_s)},
       {"io.snapshot_load_ms", "ms", Median(layers.snapshot_ms)},
       {"io.query_parse_us", "us", Median(layers.query_parse_us)},
       {"optimize.prune_us", "us", Median(layers.prune_us)},
       {"kernels.context_build_ms", "ms", Median(layers.context_ms)},
       {"transducer.compose_us", "us", Median(layers.compose_us)},
       {"transducer.composed_states", "count",
        per(Sum(layers.composed_states),
            static_cast<int64_t>(layers.composed_states.size()))},
       {"transducer.cache_hit_ratio", "ratio",
        per(static_cast<double>(layers.cache_hits), lookups)},
       {"kernels.solve_us", "us", Median(layers.solve_us)},
       {"kernels.cells_per_answer", "count",
        per(static_cast<double>(layers.kernel_cells), layers.lawler_answers)},
       {"ranking.solver_calls_per_answer", "count",
        per(static_cast<double>(layers.solver_calls), layers.lawler_answers)},
       {"ranking.merge_us_per_answer", "us",
        per(layers.merge_us, layers.lawler_answers)},
       {"query.confidence_ms_per_answer", "ms",
        per(layers.confidence_ms, layers.confidence_answers)},
       {"query.confidence_cells_per_answer", "count",
        per(static_cast<double>(layers.confidence_cells),
            layers.confidence_answers)},
       {"query.unranked_us_per_answer", "us",
        per(layers.unranked_us, layers.unranked_answers)},
       {"projector.imax_us_per_answer", "us",
        per(layers.imax_us, layers.projector_answers)},
       {"projector.confidence_us_per_answer", "us",
        per(layers.projector_conf_us, layers.projector_answers)},
       {"db.sequence_ms", "ms", Median(layers.sequence_ms)},
       {"dist.slowest_shard_ms", "ms", Median(layers.slowest_shard_ms)},
       {"dist.merge_rows_per_s", "rows/s",
        layers.merge_s > 0 ? layers.merge_rows / layers.merge_s : 0.0},
       {"serve.request_overhead_us", "us", Median(layers.overhead_us)},
       {"serve.serialize_ns_per_answer", "ns",
        per(layers.serialize_ns, layers.serialized)}});
  return error.empty() ? 0 : 1;
}

int Run(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    Die("unknown workload '" + args.workload + "'");
  }
  // Cold set-up: text models from a fresh directory into the registries,
  // servers listening.
  Cluster cluster = StartCluster(args, w);
  const double setup_s = (NowNs() - kProcessStartNs) / 1e9;
  if (args.trace != 0) return Traced(args, w, std::move(cluster));
  return EndToEnd(args, w, std::move(cluster), setup_s);
}

// ------------------------------------------------------------- self-test

// The checker must pass the engine's own answers and reject corrupted
// copies of them.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what, const std::string& e) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what
              << (e.empty() ? "" : "  [" + e + "]") << "\n";
    if (!ok) ++failures;
  };
  auto mu_or = io::ParseMarkovSequence(MarkovText(5, 4, 10, 2));
  if (!mu_or.ok()) Die(mu_or.status().ToString());
  const markov::MarkovSequence mu = std::move(mu_or).value();
  ModelMap models;
  models.emplace("m", mu);

  Workload w;
  ModelFile file;
  file.name = "m";
  w.shards.push_back({file});
  const Request det{RequestKind::kRanked, "m",
                    GroupChangeTransducerText(4, 3), "k=8", 8};
  const Request nondet{RequestKind::kRanked, "m",
                       NondetTransducerText(11, 4, 4, 2), "k=8", 8};
  for (const Request* r : {&det, &nondet}) {
    const transducer::Transducer t = MustTransducer(r->body);
    const char* label =
        t.IsDeterministic() ? "deterministic" : "nondeterministic";
    std::vector<std::string> lines = ReferenceLines(*r, w, models);
    std::string error;
    std::vector<AnswerLine> answers = ParseLines(lines, "emax", &error);
    std::string e = CheckReference(*r, w, models, lines, true);
    expect(e.empty() && answers.size() >= 3,
           std::string(label) + ": engine answers pass", e);
    e = CheckByBruteForce(mu, t, answers, r->k);
    expect(e.empty(), std::string(label) + ": brute force agrees", e);

    std::vector<AnswerLine> bad = answers;
    bad[1].confidence *= 1 + 1e-6;
    e = CheckTransducerAnswers(mu, t, bad, true);
    if (e.empty()) e = CheckByBruteForce(mu, t, bad, r->k);
    expect(!e.empty(), std::string(label) + ": confidence off by 1e-6 caught",
           e);

    bad = answers;
    size_t j = 1;
    while (j < bad.size() && bad[j].score == bad[0].score) ++j;
    std::swap(bad[0], bad[j]);
    e = CheckRankedOrder(bad);
    expect(!e.empty(), std::string(label) + ": swapped answers caught", e);

    bad = answers;
    bad[2].score *= 1 + 1e-6;
    e = CheckTransducerAnswers(mu, t, bad, true);
    expect(!e.empty(), std::string(label) + ": emax off by 1e-6 caught", e);

    bad = answers;
    bad.pop_back();
    e = CheckByBruteForce(mu, t, bad, r->k);
    expect(!e.empty(), std::string(label) + ": dropped answer caught", e);

    std::vector<std::string> changed = lines;
    std::swap(changed[0], changed[1]);
    e = CheckSameLines(changed, lines);
    expect(!e.empty(), std::string(label) + ": reordered lines caught", e);
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Die("usage: tms_e2e generate|run|selftest [flags]");
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return args;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  const e2ebench::Args args = e2ebench::ParseArgs(argc, argv);
  if (args.mode == "generate") return e2ebench::Generate(args);
  if (args.mode == "run") return e2ebench::Run(args);
  if (args.mode == "selftest") return e2ebench::SelfTest();
  e2ebench::Die("unknown mode " + args.mode);
}
