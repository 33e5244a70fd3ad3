// Output checks of the end-to-end benchmark.
//
// Each check compares the program's answers with a computation made apart
// from the engine that produced them (exact rationals, a brute force over
// every world, a reference merge) or with a property the method must have
// (nonincreasing scores, distinct answers, emax <= confidence <= 1,
// Prop 5.9's imax <= confidence <= (n+1) imax). A check returns "" when
// the answers pass and a one-line reason otherwise.

#ifndef TMS_E2EBENCH_CHECK_H_
#define TMS_E2EBENCH_CHECK_H_

#include <string>
#include <vector>

#include "markov/markov_sequence.h"
#include "projector/sprojector.h"
#include "transducer/transducer.h"

namespace e2ebench {

// One ranked answer line as the wire carries it.
struct AnswerLine {
  std::string key;  // batch rows only
  std::string answer;
  double score = 0.0;  // emax or imax
  double confidence = 0.0;
};

// Parses {"answer":..,"<score_key>":..,"confidence":..} (and "key" when
// present). False on a line that lacks a field.
bool ParseAnswerLine(const std::string& line, const char* score_key,
                     AnswerLine* out);

// Scores never increase and answers are distinct (per key, for rows).
std::string CheckRankedOrder(const std::vector<AnswerLine>& answers);

// A transducer's ranked answers: emax <= confidence <= 1, and the emax of
// each answer equals its best world's probability. For a deterministic
// transducer also: the confidences sum to at most 1, each equals the
// benchmark's own long-double DP over (node, state, matched prefix), and
// with `exact_first` the first equals the exact-rational deterministic DP
// (a second algorithm; about 1.4 s per answer at n=64, |Σ|=16).
std::string CheckTransducerAnswers(const tms::markov::MarkovSequence& mu,
                                   const tms::transducer::Transducer& t,
                                   const std::vector<AnswerLine>& answers,
                                   bool exact_first);

// An s-projector's ranked answers: imax <= confidence <= (n+1) imax.
std::string CheckSProjectorAnswers(const tms::markov::MarkovSequence& mu,
                                   const tms::projector::SProjector& p,
                                   const std::vector<AnswerLine>& answers);

// Unranked answers: distinct, in increasing symbol order, and each is an
// answer (some world transduces to it).
std::string CheckEnumAnswers(const tms::markov::MarkovSequence& mu,
                             const tms::transducer::Transducer& t,
                             const std::vector<std::string>& answers);

// Brute force over every world with nonzero probability: each answer's
// emax and confidence match, and no output left out of the top-k beats
// the k-th answer's emax. Only for small supports (n=16, support 2).
std::string CheckByBruteForce(const tms::markov::MarkovSequence& mu,
                              const tms::transducer::Transducer& t,
                              const std::vector<AnswerLine>& answers, int k);

// Line-for-line equality with a reference stream.
std::string CheckSameLines(const std::vector<std::string>& got,
                           const std::vector<std::string>& want);

}  // namespace e2ebench

#endif  // TMS_E2EBENCH_CHECK_H_
