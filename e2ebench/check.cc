#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>

#include "query/confidence.h"
#include "query/emax.h"
#include "strings/str.h"

namespace e2ebench {

namespace {

using tms::Str;

// Relative agreement between two computations of one probability.
constexpr double kTol = 1e-9;

bool Close(double a, double b) {
  return std::fabs(a - b) <= kTol * std::max(std::fabs(a), std::fabs(b));
}

// a <= b up to rounding.
bool AtMost(double a, double b) { return a <= b * (1 + 1e-12) + 1e-300; }

// The JSON string value after "<key>":, unescaping \" and \\.
bool StringField(const std::string& line, const std::string& key,
                 std::string* out) {
  const std::string tag = "\"" + key + "\":\"";
  size_t pos = line.find(tag);
  if (pos == std::string::npos) return false;
  out->clear();
  for (size_t i = pos + tag.size(); i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out->push_back(line[++i]);
    } else if (c == '"') {
      return true;
    } else {
      out->push_back(c);
    }
  }
  return false;
}

// FormatStr spells the empty output as "ε".
tms::StatusOr<Str> ParseOutput(const tms::Alphabet& alphabet,
                               const std::string& text) {
  if (text == "ε") return Str();
  return tms::ParseStr(alphabet, text);
}

bool NumberField(const std::string& line, const std::string& key,
                 double* out) {
  const std::string tag = "\"" + key + "\":";
  size_t pos = line.find(tag);
  if (pos == std::string::npos) return false;
  const char* begin = line.c_str() + pos + tag.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

std::string Num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string Describe(size_t i, const AnswerLine& a) {
  return "answer " + std::to_string(i) + " '" + a.answer + "'";
}

// Pr(t(S) = o) for a deterministic transducer: a forward pass over
// (node, state, length of the prefix of o emitted so far).
double DeterministicConfidence(const tms::markov::MarkovSequence& mu,
                               const tms::transducer::Transducer& t,
                               const Str& o) {
  const int sigma = static_cast<int>(mu.nodes().size());
  const int states = t.num_states();
  const int jdim = static_cast<int>(o.size()) + 1;
  auto at = [&](int s, int q, int j) {
    return (static_cast<size_t>(s) * states + q) * jdim + j;
  };
  const size_t cells = static_cast<size_t>(sigma) * states * jdim;
  std::vector<long double> cur(cells, 0), next(cells, 0);
  // Follows the edge of `q` on `s` from prefix length j; -1 on mismatch.
  auto step = [&](int q, int s, int j, int* q2) {
    const auto& edges = t.Next(q, s);
    if (edges.empty()) return -1;
    const Str& out = edges.front().output;
    if (j + static_cast<int>(out.size()) >= jdim) return -1;
    for (size_t x = 0; x < out.size(); ++x) {
      if (o[static_cast<size_t>(j) + x] != out[x]) return -1;
    }
    *q2 = edges.front().target;
    return j + static_cast<int>(out.size());
  };
  for (int s = 0; s < sigma; ++s) {
    int q2 = 0;
    const int j2 = step(t.initial(), s, 0, &q2);
    if (mu.Initial(s) > 0 && j2 >= 0) cur[at(s, q2, j2)] += mu.Initial(s);
  }
  for (int i = 1; i < mu.length(); ++i) {
    std::fill(next.begin(), next.end(), 0);
    for (int s = 0; s < sigma; ++s) {
      for (int q = 0; q < states; ++q) {
        for (int j = 0; j < jdim; ++j) {
          const long double p = cur[at(s, q, j)];
          if (p == 0) continue;
          for (int s2 = 0; s2 < sigma; ++s2) {
            const double w = mu.Transition(i, s, s2);
            int q2 = 0;
            const int j2 = w > 0 ? step(q, s2, j, &q2) : -1;
            if (j2 >= 0) next[at(s2, q2, j2)] += p * w;
          }
        }
      }
    }
    cur.swap(next);
  }
  long double total = 0;
  for (int s = 0; s < sigma; ++s) {
    for (int q = 0; q < states; ++q) {
      if (t.IsAccepting(q)) total += cur[at(s, q, jdim - 1)];
    }
  }
  return static_cast<double>(total);
}

}  // namespace

bool ParseAnswerLine(const std::string& line, const char* score_key,
                     AnswerLine* out) {
  *out = AnswerLine{};
  if (line.find("\"key\":") != std::string::npos &&
      !StringField(line, "key", &out->key)) {
    return false;
  }
  return StringField(line, "answer", &out->answer) &&
         NumberField(line, score_key, &out->score) &&
         NumberField(line, "confidence", &out->confidence);
}

std::string CheckRankedOrder(const std::vector<AnswerLine>& answers) {
  std::set<std::pair<std::string, std::string>> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerLine& a = answers[i];
    if (!seen.insert({a.key, a.answer}).second) {
      return Describe(i, a) + " repeats an earlier answer";
    }
    if (i > 0 && a.score > answers[i - 1].score) {
      return Describe(i, a) + " scores " + Num(a.score) +
             ", above the answer before it";
    }
  }
  return "";
}

std::string CheckTransducerAnswers(const tms::markov::MarkovSequence& mu,
                                   const tms::transducer::Transducer& t,
                                   const std::vector<AnswerLine>& answers,
                                   bool exact_first) {
  const bool det = t.IsDeterministic();
  double total = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerLine& a = answers[i];
    if (!AtMost(a.score, a.confidence) || !AtMost(a.confidence, 1.0)) {
      return Describe(i, a) + " breaks emax <= confidence <= 1";
    }
    auto o = ParseOutput(t.output_alphabet(), a.answer);
    if (!o.ok()) return Describe(i, a) + " does not parse";
    auto evidence = tms::query::EmaxOfAnswer(mu, t, *o);
    if (!evidence.has_value() || !Close(evidence->prob, a.score)) {
      return Describe(i, a) + " emax differs from its best world";
    }
    total += a.confidence;
    if (det && !Close(DeterministicConfidence(mu, t, *o), a.confidence)) {
      return Describe(i, a) + " confidence " + Num(a.confidence) +
             " differs from the benchmark's deterministic DP " +
             Num(DeterministicConfidence(mu, t, *o));
    }
    if (det && i == 0 && exact_first) {
      auto exact = tms::query::ConfidenceDeterministicExact(mu, t, *o);
      if (!exact.ok()) return Describe(i, a) + ": " + exact.status().ToString();
      if (!Close(exact->ToDouble(), a.confidence)) {
        return Describe(i, a) + " confidence " +
               Num(a.confidence) + " differs from the exact " +
               exact->ToString();
      }
    }
  }
  if (det && !AtMost(total, 1.0)) {
    return "confidences of a deterministic query sum to " +
           Num(total) + " > 1";
  }
  return "";
}

std::string CheckSProjectorAnswers(const tms::markov::MarkovSequence& mu,
                                   const tms::projector::SProjector& p,
                                   const std::vector<AnswerLine>& answers) {
  const double n1 = mu.length() + 1;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerLine& a = answers[i];
    if (!(a.score > 0) || !AtMost(a.score, a.confidence) ||
        !AtMost(a.confidence, n1 * a.score) || !AtMost(a.confidence, 1.0)) {
      return Describe(i, a) +
             " breaks imax <= confidence <= min(1, (n+1) imax)";
    }
    if (!ParseOutput(p.alphabet(), a.answer).ok()) {
      return Describe(i, a) + " does not parse";
    }
  }
  return "";
}

std::string CheckEnumAnswers(const tms::markov::MarkovSequence& mu,
                             const tms::transducer::Transducer& t,
                             const std::vector<std::string>& answers) {
  std::optional<Str> prev;
  for (size_t i = 0; i < answers.size(); ++i) {
    auto o = ParseOutput(t.output_alphabet(), answers[i]);
    if (!o.ok()) return "enum answer '" + answers[i] + "' does not parse";
    if (prev.has_value() && !(*prev < *o)) {
      return "enum answer '" + answers[i] +
             "' is not after the one before it";
    }
    auto evidence = tms::query::EmaxOfAnswer(mu, t, *o);
    if (!evidence.has_value() || !(evidence->prob > 0)) {
      return "enum answer '" + answers[i] + "' is produced by no world";
    }
    prev = std::move(*o);
  }
  return "";
}

std::string CheckByBruteForce(const tms::markov::MarkovSequence& mu,
                              const tms::transducer::Transducer& t,
                              const std::vector<AnswerLine>& answers, int k) {
  struct Mass {
    double confidence = 0;
    double emax = 0;
  };
  std::map<Str, Mass> outputs;
  const int n = mu.length();
  const int sigma = static_cast<int>(mu.nodes().size());
  Str world(static_cast<size_t>(n));
  // Depth-first over every world with nonzero probability.
  auto visit = [&](auto&& self, int i, double p) -> void {
    if (i == n) {
      for (const Str& o : t.TransduceAll(world)) {
        Mass& m = outputs[o];
        m.confidence += p;
        m.emax = std::max(m.emax, p);
      }
      return;
    }
    for (int s = 0; s < sigma; ++s) {
      const double step =
          i == 0 ? mu.Initial(s) : mu.Transition(i, world[i - 1], s);
      if (step <= 0) continue;
      world[static_cast<size_t>(i)] = s;
      self(self, i + 1, p * step);
    }
  };
  visit(visit, 0, 1.0);

  std::set<Str> returned;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerLine& a = answers[i];
    auto o = ParseOutput(t.output_alphabet(), a.answer);
    if (!o.ok()) return Describe(i, a) + " does not parse";
    auto it = outputs.find(*o);
    if (it == outputs.end()) {
      return Describe(i, a) + " is produced by no world";
    }
    if (!Close(it->second.emax, a.score) ||
        !Close(it->second.confidence, a.confidence)) {
      return Describe(i, a) + " (emax " + Num(a.score) +
             ", confidence " + Num(a.confidence) +
             ") differs from the brute force (" +
             Num(it->second.emax) + ", " +
             Num(it->second.confidence) + ")";
    }
    returned.insert(*o);
  }
  const size_t want = std::min(outputs.size(), static_cast<size_t>(k));
  if (answers.size() != want) {
    return "returned " + std::to_string(answers.size()) + " answers, the " +
           "brute force has " + std::to_string(want);
  }
  if (!answers.empty()) {
    const double last = answers.back().score;
    for (const auto& [o, m] : outputs) {
      if (returned.count(o) == 0 && m.emax > last && !Close(m.emax, last)) {
        return "an output left out of the top-" + std::to_string(k) +
               " has emax " + Num(m.emax) + " > " +
               Num(last);
      }
    }
  }
  return "";
}

std::string CheckSameLines(const std::vector<std::string>& got,
                           const std::vector<std::string>& want) {
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      return "line " + std::to_string(i) + " is '" + got[i] +
             "', the reference has '" + want[i] + "'";
    }
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " lines, the reference has " +
           std::to_string(want.size());
  }
  return "";
}

}  // namespace e2ebench
