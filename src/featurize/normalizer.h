// Feature normalization (Appendix B.1): a skew-reducing transform (signed
// log1p for statistics, cube root for selectivities) followed by division
// by the feature's average magnitude over the training workload. Test-time
// features are normalized with the training-set scales.
#ifndef PS3_FEATURIZE_NORMALIZER_H_
#define PS3_FEATURIZE_NORMALIZER_H_

#include <vector>

#include "common/serialize.h"
#include "featurize/featurizer.h"

namespace ps3::featurize {

class FeatureNormalizer {
 public:
  FeatureNormalizer() = default;

  /// Computes per-feature scales from raw training feature matrices.
  void Fit(const FeatureSchema& schema,
           const std::vector<const FeatureMatrix*>& training);

  /// Applies transform + scaling in place. Must be Fit first.
  void Apply(FeatureMatrix* features) const;

  /// Feature `j`'s normalized value for raw value `v`: the one formula
  /// Apply uses for every element.
  double Normalize(size_t j, double v) const {
    return Transform(kinds_[j], v) / scale_[j];
  }

  bool fitted() const { return !scale_.empty(); }
  const std::vector<double>& scales() const { return scale_; }

  /// The transform applied before scaling (exposed for tests).
  static double Transform(StatKind kind, double v);

  /// Binary persistence.
  void Serialize(BinaryWriter* w) const;
  static Result<FeatureNormalizer> Deserialize(BinaryReader* r);

 private:
  std::vector<StatKind> kinds_;  // per feature
  std::vector<double> scale_;    // per feature; > 0
};

/// A picker's normalized per-query feature matrices. Build(query, sel)
/// equals featurizer.BuildFeatures(query) followed by normalizer.Apply bit
/// for bit, but the static statistics are transformed and scaled once, at
/// construction (n x m doubles). A masked feature is raw 0 and
/// Transform(kind, 0) / scale == +0.0, so per query only the used
/// columns' normalized statistics are copied and the four selectivity
/// features normalized.
class NormalizedFeatures {
 public:
  /// Copies `normalizer`; an unfitted one leaves the object empty, and
  /// Build must not be called.
  NormalizedFeatures(const Featurizer& featurizer,
                     const FeatureNormalizer& normalizer);

  /// `sel` must be featurizer.ComputeSelectivity(query).
  FeatureMatrix Build(const query::Query& query,
                      const std::vector<SelectivityFeatures>& sel) const;

 private:
  const Featurizer* featurizer_ = nullptr;
  FeatureNormalizer normalizer_;
  FeatureMatrix statics_;  // normalized static features
};

}  // namespace ps3::featurize

#endif  // PS3_FEATURIZE_NORMALIZER_H_
