// A complete local vector-space search engine: analysis, indexing, and
// exact cosine retrieval. In the paper's architecture one SearchEngine
// wraps one database (D1, D2, D3, or a single newsgroup); the metasearch
// broker talks to many of them. Exact evaluation here also provides the
// ground-truth (NoDoc, AvgSim) that the estimators are scored against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/document.h"
#include "ir/inverted_index.h"
#include "ir/query.h"
#include "ir/sparse_vector.h"
#include "ir/term_dictionary.h"
#include "ir/types.h"
#include "ir/weighting.h"
#include "text/analyzer.h"
#include "util/status.h"

namespace useful::ir {

/// Document-length normalization of weighted vectors.
enum class Normalization {
  /// Raw weights (dot-product similarity; unbounded).
  kNone,
  /// Unit Euclidean norm — the paper's Cosine setting; similarities lie
  /// in [0,1].
  kCosine,
  /// Pivoted length normalization (Singhal, Buckley & Mitra, SIGIR'96 —
  /// the paper's reference [16]): weights are divided by
  /// (1 - slope) * pivot + slope * |d|, with pivot = the collection's
  /// mean vector norm. The paper notes its single-term-query guarantee
  /// carries over to this similarity function; the tests verify that.
  kPivoted,
};

/// Engine configuration.
struct SearchEngineOptions {
  /// Document term-weighting scheme (the paper uses raw tf).
  WeightingScheme weighting = WeightingScheme::kTf;
  /// Length normalization (the paper's experiments use kCosine).
  Normalization normalization = Normalization::kCosine;
  /// Slope for kPivoted (the SIGIR'96 default).
  double pivot_slope = 0.75;
};

/// One retrieved document with its similarity score.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;
};

/// The paper's usefulness pair for one (engine, query, threshold).
struct Usefulness {
  /// Number of documents with sim(q,d) > T.  (Eq. 1)
  std::size_t no_doc = 0;
  /// Mean similarity of those documents, 0 when no_doc == 0.  (Eq. 2)
  double avg_sim = 0.0;
};

/// An indexed, searchable document database.
class SearchEngine {
 public:
  /// `analyzer` must outlive the engine; documents and queries must share
  /// it so their term spaces agree.
  SearchEngine(std::string name, const text::Analyzer* analyzer,
               SearchEngineOptions options = {});

  /// Buffers one document. Fails after Finalize().
  Status Add(const corpus::Document& doc);

  /// Buffers every document of `collection`.
  Status AddCollection(const corpus::Collection& collection);

  /// Computes weights (including idf for *Idf schemes), normalizes vectors,
  /// and builds the inverted index. Idempotent after first call.
  Status Finalize();

  bool finalized() const { return finalized_; }
  const std::string& name() const { return name_; }
  const text::Analyzer& analyzer() const { return *analyzer_; }
  const SearchEngineOptions& options() const { return options_; }

  std::size_t num_docs() const { return doc_vectors_.size(); }
  std::size_t num_terms() const { return dict_.size(); }
  const TermDictionary& dictionary() const { return dict_; }
  const InvertedIndex& index() const { return index_; }

  /// The normalized vector of document `d`.
  const SparseVector& doc_vector(DocId d) const { return doc_vectors_[d]; }
  /// The external id of document `d`.
  const std::string& doc_external_id(DocId d) const { return doc_ids_[d]; }

  /// Exact similarities: all documents with sim(q,d) > threshold, sorted by
  /// descending score (ties by DocId). Requires Finalize().
  std::vector<ScoredDoc> SearchAboveThreshold(const Query& q,
                                              double threshold) const;

  /// Exact top-k retrieval, sorted by descending score (ties by DocId).
  std::vector<ScoredDoc> SearchTopK(const Query& q, std::size_t k) const;

  /// Ground-truth usefulness (Eqs. 1-2) for query `q` at `threshold`.
  Usefulness TrueUsefulness(const Query& q, double threshold) const;

 private:
  /// Accumulates per-document scores for q's terms present in this engine.
  /// Negated terms subtract their contribution, so scores can be negative.
  std::vector<double> ScoreAll(const Query& q) const;

  /// Per-document count of distinct positive query terms present; used to
  /// enforce q.min_should_match. Empty result means "no constraint".
  std::vector<std::uint32_t> CountPositiveMatches(const Query& q) const;

  std::string name_;
  const text::Analyzer* analyzer_;
  SearchEngineOptions options_;

  TermDictionary dict_;
  std::vector<std::string> doc_ids_;
  // Raw tf vectors until Finalize(); weighted+normalized after.
  std::vector<SparseVector> doc_vectors_;
  InvertedIndex index_;
  bool finalized_ = false;
};

}  // namespace useful::ir
